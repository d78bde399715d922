"""Bottom-up, set-oriented evaluation of QGM graphs.

Every uncorrelated box is materialised at most once (common subexpressions
are shared). Correlated boxes — boxes whose subtree references quantifiers
of enclosing boxes — are evaluated per outer binding (with optional
memoisation). Recursive strongly connected components run by fixpoint
iteration (:mod:`repro.engine.recursion`).

Each select box runs the pipeline :mod:`repro.engine.pipeline` lowers it
to, in the supplied join order (the plan optimizer's choice): each
quantifier is attached by hash join when an applicable equality predicate
exists, by a range probe of a sorted index when a base table's column is
compared with values already bound, by nested loop otherwise, or
re-evaluated per binding when its input is correlated, and every
predicate is applied at the earliest point where all of its inputs are
bound — which is exactly why the join order matters to EMST.
"""

from __future__ import annotations

import functools

from repro.errors import ExecutionError
from repro.qgm import expr as qe
from repro.qgm.model import (
    BoxKind,
    DistinctMode,
    QuantifierType,
    external_quantifiers,
)
from repro.qgm.stratum import reduced_dependency_graph
from repro.engine.aggregates import make_accumulator
from repro.engine.pipeline import HASH, RANGE, hash_keys, lower_select
from repro.engine.expressions import (
    compile_expr,
    compile_predicate,
    evaluate,
    predicate_holds,
)

#: Join-probe granularity of cooperative cancellation/deadline checks: the
#: governor's clock read is cheap but not free, so the hot loops consult it
#: once per this many probes. Small enough that a deadline or disconnect is
#: observed within milliseconds even inside one monster join.
CHECKPOINT_INTERVAL = 2048


class Result:
    """Final query output: column names plus rows (list of tuples)."""

    def __init__(self, columns, rows):
        self.columns = columns
        self.rows = rows

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def as_dicts(self):
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __repr__(self):
        return "<Result %d rows: %s>" % (len(self.rows), ", ".join(self.columns))


class EvaluatorStats:
    """Work counters; the benchmarks report these alongside elapsed time.

    The ``batch_*`` counters are filled only by the columnar
    :class:`~repro.engine.columnar.BatchEvaluator`; they appear in
    :meth:`as_dict` (and hence in explain output) only when batch work
    actually happened, so tuple-engine stats keep their historical shape.
    """

    def __init__(self):
        self.box_evaluations = 0
        self.rows_produced = 0
        self.join_probes = 0
        self.correlated_evaluations = 0
        #: Column batches materialised (one per pipeline step per box).
        self.batches = 0
        #: Total rows across those batches (mean batch width = ratio).
        self.batch_rows = 0
        #: Hash-probe keys and range bounds looked up in batch joins.
        self.batch_probes = 0
        #: Rows returned by those probes (fan-out = matches / probes).
        self.batch_probe_matches = 0

    def as_dict(self):
        out = {
            "box_evaluations": self.box_evaluations,
            "rows_produced": self.rows_produced,
            "join_probes": self.join_probes,
            "correlated_evaluations": self.correlated_evaluations,
        }
        if self.batches:
            out["batches"] = self.batches
            out["batch_rows"] = self.batch_rows
            out["rows_per_batch"] = round(self.batch_rows / self.batches, 2)
            out["batch_probes"] = self.batch_probes
            if self.batch_probes:
                out["probe_fanout"] = round(
                    self.batch_probe_matches / self.batch_probes, 2
                )
        return out


class Evaluator:
    """Evaluates a :class:`~repro.qgm.model.QueryGraph` against a database."""

    def __init__(
        self, graph, database, join_orders=None, memoize_correlated=True,
        governor=None, fault_plan=None,
    ):
        self.graph = graph
        self.database = database
        self.join_orders = join_orders or {}
        self.memoize_correlated = memoize_correlated
        # Resilience hooks: the governor meters rows/correlated work/wall
        # clock, the fault plan injects test failures (both optional).
        self.governor = governor
        self.fault_plan = fault_plan
        self.stats = EvaluatorStats()
        self._probe_budget = CHECKPOINT_INTERVAL
        self._materialized = {}
        self._correlated_memo = {}
        # Correlation edges leaving each box's subtree (cached per box).
        self._externals = functools.lru_cache(maxsize=None)(external_quantifiers)
        self._pipelines = {}
        self._index_cache = {}
        self._compiled = {}
        self._compiled_predicates = {}
        components, component_of = reduced_dependency_graph(graph)
        self._component_of = component_of
        self._components = components

    # -- public --------------------------------------------------------------

    def run(self):
        """Evaluate the whole graph and return a :class:`Result`."""
        top = self.graph.top_box
        rows = self.rows_for(top, {})
        rows = _apply_order_limit(rows, self.graph.order_by, self.graph.limit)
        return Result(columns=top.column_names, rows=rows)

    # -- compiled expressions ----------------------------------------------------

    def _fn(self, expr):
        """The compiled value closure for ``expr`` (cached)."""
        fn = self._compiled.get(id(expr))
        if fn is None:
            fn = compile_expr(expr)
            self._compiled[id(expr)] = fn
        return fn

    def _pred(self, expr):
        """The compiled TRUE-only predicate closure for ``expr`` (cached)."""
        fn = self._compiled_predicates.get(id(expr))
        if fn is None:
            fn = compile_predicate(expr)
            self._compiled_predicates[id(expr)] = fn
        return fn

    # -- box materialisation ----------------------------------------------------

    def rows_for(self, box, env):
        """Rows of ``box`` under outer bindings ``env``."""
        externals = self._externals(box)
        if externals:
            return self._rows_correlated(box, env, externals)
        cached = self._materialized.get(id(box))
        if cached is not None:
            return cached
        component = self._components[self._component_of[id(box)]]
        if len(component) > 1 or _self_recursive(box):
            from repro.engine.recursion import run_fixpoint

            run_fixpoint(self, component)
            return self._materialized[id(box)]
        rows = self.evaluate_box(box, {})
        rows = self._finalize(box, rows)
        self._materialized[id(box)] = rows
        return rows

    def _rows_correlated(self, box, env, externals):
        bindings = []
        for quantifier in externals:
            row = env.get(quantifier)
            if row is None:
                raise ExecutionError(
                    "correlated box %r evaluated without a binding for %r"
                    % (box.name, quantifier.name)
                )
            bindings.append((id(quantifier), row))
        self.stats.correlated_evaluations += 1
        if self.governor is not None:
            self.governor.charge_correlated(
                "correlated evaluation of box %r" % box.name
            )
        if self.memoize_correlated:
            key = (id(box), tuple(bindings))
            cached = self._correlated_memo.get(key)
            if cached is not None:
                return cached
        rows = self.evaluate_box(box, env)
        rows = self._finalize(box, rows)
        if self.memoize_correlated:
            self._correlated_memo[key] = rows
        return rows

    def _checkpoint(self, box):
        """Cooperative cancellation/deadline checkpoint, amortized over
        :data:`CHECKPOINT_INTERVAL` join probes."""
        if self.governor is None:
            return
        self._probe_budget -= 1
        if self._probe_budget <= 0:
            self._probe_budget = CHECKPOINT_INTERVAL
            self.governor.checkpoint("join processing in box %r" % box.name)

    def _finalize(self, box, rows):
        self.stats.box_evaluations += 1
        self.stats.rows_produced += len(rows)
        if self.fault_plan is not None:
            self.fault_plan.on_box_evaluation(box.name)
        if self.governor is not None:
            self.governor.charge_rows(len(rows), "evaluation of box %r" % box.name)
        if box.distinct == DistinctMode.ENFORCE:
            rows = _dedupe(rows)
        return rows

    # -- box evaluation ---------------------------------------------------------------

    def evaluate_box(self, box, env):
        if box.kind == BoxKind.BASE:
            return self.database.table(box.table_name).rows
        if box.kind == BoxKind.SELECT:
            return self._evaluate_select(box, env)
        if box.kind == BoxKind.GROUPBY:
            return self._evaluate_groupby(box, env)
        if box.kind == BoxKind.UNION:
            rows = []
            for quantifier in box.quantifiers:
                rows.extend(self.rows_for(quantifier.input_box, env))
            return rows
        if box.kind in (BoxKind.INTERSECT, BoxKind.EXCEPT):
            return self._evaluate_intersect_except(box, env)
        if box.kind == BoxKind.OUTERJOIN:
            return self._evaluate_outerjoin(box, env)
        evaluate_custom = box.properties.get("evaluate")
        if evaluate_custom is not None:
            return evaluate_custom(self, box, env)
        raise ExecutionError("cannot evaluate box kind %r" % box.kind)

    # -- select boxes ------------------------------------------------------------------

    def pipeline(self, box):
        """The lowered :class:`~repro.engine.pipeline.SelectPipeline` of
        select ``box`` (lowered once per evaluator)."""
        pipeline = self._pipelines.get(id(box))
        if pipeline is None:
            pipeline = lower_select(
                box, self.join_orders.get(box.box_id), self._externals
            )
            self._pipelines[id(box)] = pipeline
        return pipeline

    def _evaluate_select(self, box, env):
        pipeline = self.pipeline(box)
        envs = [dict(env)]
        for predicate in pipeline.leading:
            envs = [e for e in envs if predicate_holds(predicate, e)]
        for step in pipeline.steps:
            if not envs:
                break
            envs = self._attach(box, step, envs)

        # Bind scalar subqueries. A decorrelated subquery holds one row per
        # binding; its selector predicates (the correlation equalities EMST
        # lifted) pick the current outer row's match — no match binds NULLs
        # and the row survives, exactly the original correlated semantics.
        for step in pipeline.scalars:
            new_envs = []
            for current in envs:
                extended = dict(current)
                extended[step.quantifier] = self._scalar_row(step, current)
                new_envs.append(extended)
            envs = new_envs
        for predicate in pipeline.deferred:
            envs = [e for e in envs if predicate_holds(predicate, e)]

        # Existential / anti filters.
        for step in pipeline.filters:
            envs = [
                current
                for current in envs
                if self._passes_filter_quantifier(
                    step.quantifier, step.predicates, current
                )
            ]

        projection = [self._fn(column.expr) for column in box.columns]
        rows = []
        for current in envs:
            rows.append(tuple(fn(current) for fn in projection))
        return rows

    def _attach(self, box, step, envs):
        """Join one foreach quantifier into the current environments."""
        quantifier = step.quantifier
        child = quantifier.input_box
        new_envs = []
        ranged = self._sorted_index(step) if step.access == RANGE else None
        if step.access == HASH:
            index = self._hash_index(child, quantifier, [k for k, _ in step.keys])
            probes = [self._fn(probe) for _, probe in step.keys]
            residual_fns = [self._pred(p) for p in step.residual]
            for current in envs:
                probe = tuple(fn(current) for fn in probes)
                if any(v is None for v in probe):
                    continue  # NULL never equals anything
                for row in index.get(probe, ()):
                    self.stats.join_probes += 1
                    self._checkpoint(box)
                    extended = dict(current)
                    extended[quantifier] = row
                    if all(fn(extended) for fn in residual_fns):
                        new_envs.append(extended)
        elif ranged is not None:
            bounds = [(op, self._fn(probe)) for op, _, probe in step.keys]
            residual_fns = [self._pred(p) for p in step.residual]
            for current in envs:
                for row in ranged.range([(op, fn(current)) for op, fn in bounds]):
                    self.stats.join_probes += 1
                    self._checkpoint(box)
                    extended = dict(current)
                    extended[quantifier] = row
                    if all(fn(extended) for fn in residual_fns):
                        new_envs.append(extended)
        else:
            applicable_fns = [self._pred(p) for p in step.predicates]
            for current in envs:
                child_rows = self.rows_for(child, current)
                for row in child_rows:
                    self.stats.join_probes += 1
                    self._checkpoint(box)
                    extended = dict(current)
                    extended[quantifier] = row
                    if all(fn(extended) for fn in applicable_fns):
                        new_envs.append(extended)
        return new_envs

    def _hash_index(self, child, quantifier, key_exprs):
        """Index the child's rows by the values of ``key_exprs`` (expressions
        over ``quantifier`` only).

        For a base table indexed on plain columns, the table's persistent
        hash index is used (warm across queries — the access path a real
        system's indexes provide); derived boxes get a transient index per
        evaluation."""
        if child.kind == BoxKind.BASE and all(
            isinstance(k, qe.QColRef) for k in key_exprs
        ):
            table = self.database.table(child.table_name)
            return table.index_on(tuple(k.column for k in key_exprs))
        names = tuple(str(k) for k in key_exprs)
        cache_key = (id(child), names)
        index = self._index_cache.get(cache_key)
        if index is not None:
            return index
        index = {}
        key_fns = [self._fn(k) for k in key_exprs]
        for row in self.rows_for(child, {}):
            env = {quantifier: row}
            key = tuple(fn(env) for fn in key_fns)
            if any(v is None for v in key):
                continue
            index.setdefault(key, []).append(row)
        self._index_cache[cache_key] = index
        return index

    def _sorted_index(self, step):
        """The :class:`~repro.engine.storage.SortedIndex` range ``step``
        bisects, or None when its column's values do not sort, in which
        case the step runs as a nested loop."""
        table = self.database.table(step.quantifier.input_box.table_name)
        return table.sorted_index(step.keys[0][1].column)

    def _scalar_row(self, step, env):
        """The row scalar ``step`` binds under ``env`` (NULLs on no match)."""
        quantifier = step.quantifier
        child = quantifier.input_box
        null_row = tuple([None] * len(child.columns))

        # A decorrelated subquery with hashable selectors probes an index
        # instead of scanning all bindings.
        if step.access == HASH:
            index = self._hash_index(child, quantifier, [k for k, _ in step.keys])
            probe = tuple(evaluate(probe, env) for _, probe in step.keys)
            if any(v is None for v in probe):
                return null_row
            matches = index.get(probe, [])
            if len(matches) > 1:
                raise ExecutionError(
                    "scalar subquery %r returned %d rows for one binding"
                    % (quantifier.name, len(matches))
                )
            return matches[0] if matches else null_row

        rows = self.rows_for(child, env)
        if not quantifier.decorrelated and len(rows) > 1:
            raise ExecutionError(
                "scalar subquery %r returned %d rows" % (quantifier.name, len(rows))
            )
        matches = []
        for row in rows:
            extended = dict(env)
            extended[quantifier] = row
            if all(predicate_holds(p, extended) for p in step.predicates):
                matches.append(row)
                if len(matches) > 1:
                    raise ExecutionError(
                        "scalar subquery %r returned %d rows for one binding"
                        % (quantifier.name, len(matches))
                    )
        if matches:
            return matches[0]
        return null_row

    def _passes_filter_quantifier(self, quantifier, predicates, env):
        """Semi-join (E) / anti-join (A) test for one environment."""
        rows = self.rows_for(quantifier.input_box, env)
        if quantifier.qtype == QuantifierType.EXISTENTIAL:
            for row in rows:
                extended = dict(env)
                extended[quantifier] = row
                if all(predicate_holds(p, extended) for p in predicates):
                    return True
            return False
        # ANTI
        saw_unknown = False
        for row in rows:
            extended = dict(env)
            extended[quantifier] = row
            values = [evaluate(p, extended) for p in predicates]
            if all(v is True for v in values):
                return False
            if quantifier.null_aware and all(v is not False for v in values):
                saw_unknown = True
        if quantifier.null_aware and saw_unknown:
            return False
        return True

    # -- groupby boxes -----------------------------------------------------------------

    def _evaluate_groupby(self, box, env):
        quantifier = box.quantifiers[0]
        input_rows = self.rows_for(quantifier.input_box, env)

        aggregate_columns = [
            (index, column.expr)
            for index, column in enumerate(box.columns)
            if isinstance(column.expr, qe.QAggregate)
        ]

        key_fns = [self._fn(k) for k in box.group_keys]
        arg_fns = [
            None if agg.arg is None else self._fn(agg.arg)
            for _, agg in aggregate_columns
        ]
        groups = {}
        order = []
        for row in input_rows:
            self._checkpoint(box)
            row_env = dict(env)
            row_env[quantifier] = row
            key = tuple(fn(row_env) for fn in key_fns)
            state = groups.get(key)
            if state is None:
                accumulators = [
                    make_accumulator(
                        agg.func, star=agg.arg is None, distinct=agg.distinct
                    )
                    for _, agg in aggregate_columns
                ]
                state = (accumulators, row_env)
                groups[key] = state
                order.append(key)
            accumulators, _ = state
            for accumulator, arg_fn in zip(accumulators, arg_fns):
                accumulator.add(None if arg_fn is None else arg_fn(row_env))

        if not groups and not box.group_keys:
            # Scalar aggregate over an empty input: one row.
            accumulators = [
                make_accumulator(agg.func, star=agg.arg is None, distinct=agg.distinct)
                for _, agg in aggregate_columns
            ]
            row = []
            agg_iter = iter(accumulators)
            for column in box.columns:
                if isinstance(column.expr, qe.QAggregate):
                    row.append(next(agg_iter).result())
                else:
                    row.append(None)
            return [tuple(row)]

        rows = []
        for key in order:
            accumulators, representative_env = groups[key]
            agg_results = {
                index: accumulator.result()
                for accumulator, (index, _) in zip(accumulators, aggregate_columns)
            }
            row = []
            for index, column in enumerate(box.columns):
                if index in agg_results:
                    row.append(agg_results[index])
                else:
                    row.append(evaluate(column.expr, representative_env))
            rows.append(tuple(row))
        return rows

    # -- outer joins ---------------------------------------------------------------------

    def _evaluate_outerjoin(self, box, env):
        """LEFT OUTER JOIN: every preserved-side row survives, NULL-padded
        when no right row satisfies the ON condition."""
        left_q, right_q = box.quantifiers
        left_rows = self.rows_for(left_q.input_box, env)
        null_row = tuple([None] * len(right_q.input_box.columns))

        # Hash the right side when an ON equality allows it.
        keys, residual = hash_keys(
            box.predicates, right_q, set(box.quantifiers), {left_q}
        )
        use_index = bool(keys)
        index = None
        if use_index:
            index = self._hash_index(
                right_q.input_box, right_q, tuple(k[0] for k in keys)
            )
        else:
            right_rows = self.rows_for(right_q.input_box, env)

        rows = []
        for left_row in left_rows:
            base_env = dict(env)
            base_env[left_q] = left_row
            matched = False
            if use_index:
                probe = tuple(evaluate(k[1], base_env) for k in keys)
                candidates = (
                    index.get(probe, ()) if all(v is not None for v in probe) else ()
                )
            else:
                candidates = right_rows
            for right_row in candidates:
                self.stats.join_probes += 1
                self._checkpoint(box)
                extended = dict(base_env)
                extended[right_q] = right_row
                if all(predicate_holds(p, extended) for p in (residual if use_index else box.predicates)):
                    matched = True
                    rows.append(
                        tuple(evaluate(c.expr, extended) for c in box.columns)
                    )
            if not matched:
                extended = dict(base_env)
                extended[right_q] = null_row
                rows.append(tuple(evaluate(c.expr, extended) for c in box.columns))
        return rows

    # -- set operations ------------------------------------------------------------------

    def _evaluate_intersect_except(self, box, env):
        left = self.rows_for(box.quantifiers[0].input_box, env)
        right = self.rows_for(box.quantifiers[1].input_box, env)
        right_counts = {}
        for row in right:
            right_counts[row] = right_counts.get(row, 0) + 1
        rows = []
        if box.kind == BoxKind.INTERSECT:
            if box.distinct == DistinctMode.ENFORCE:
                emitted = set()
                for row in left:
                    if row in right_counts and row not in emitted:
                        emitted.add(row)
                        rows.append(row)
            else:  # INTERSECT ALL: min multiplicities
                remaining = dict(right_counts)
                for row in left:
                    if remaining.get(row, 0) > 0:
                        remaining[row] -= 1
                        rows.append(row)
        else:  # EXCEPT
            if box.distinct == DistinctMode.ENFORCE:
                emitted = set()
                for row in left:
                    if row not in right_counts and row not in emitted:
                        emitted.add(row)
                        rows.append(row)
            else:  # EXCEPT ALL: subtract multiplicities
                remaining = dict(right_counts)
                for row in left:
                    if remaining.get(row, 0) > 0:
                        remaining[row] -= 1
                    else:
                        rows.append(row)
        return rows


def _self_recursive(box):
    return any(q.input_box is box for q in box.quantifiers)


def _dedupe(rows):
    seen = set()
    out = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            out.append(row)
    return out


def _sort_key_with_nulls(row, order_by):
    key = []
    for ordinal, ascending in order_by:
        value = row[ordinal]
        # NULLs sort last regardless of direction.
        if ascending:
            key.append((value is None, value))
        else:
            key.append((value is None, _Reversed(value)))
    return tuple(key)


class _Reversed:
    """Inverts comparison order for DESC keys."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        if self.value is None or other.value is None:
            return False
        return other.value < self.value

    def __eq__(self, other):
        return self.value == other.value


def _apply_order_limit(rows, order_by, limit):
    if order_by:
        rows = sorted(rows, key=lambda row: _sort_key_with_nulls(row, order_by))
    if limit is not None:
        rows = rows[:limit]
    return list(rows)


def evaluate_graph(graph, database, join_orders=None, memoize_correlated=True):
    """Convenience wrapper: build an Evaluator and run it."""
    evaluator = Evaluator(
        graph,
        database,
        join_orders=join_orders,
        memoize_correlated=memoize_correlated,
    )
    return evaluator.run()
