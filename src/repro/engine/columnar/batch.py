"""The columnar batch executor.

:class:`BatchEvaluator` subclasses the tuple-at-a-time
:class:`~repro.engine.evaluator.Evaluator` and replaces its two hottest
box kinds — SELECT (join pipelines) and GROUPBY — with column-batch
implementations:

* predicates and projections run through the vectorized compiler
  (:func:`~repro.engine.columnar.vector.compile_vector`), one closure
  call per *column* instead of one per row;
* foreach quantifiers are attached by batch hash-join build/probe, a
  batch range probe of a sorted index, or a batched cross product,
  instead of the per-environment ``_attach`` loop — no
  environment-dict copy per probe — following the same
  lowered :class:`~repro.engine.pipeline.SelectPipeline` as the tuple
  engine;
* group-by extracts key/argument columns once and feeds accumulator
  slices through ``add_many``.

Everything else — correlation detection, scalar subqueries, E/A filter
quantifiers, set operations, outer joins, fixpoint orchestration — is
inherited, so the two engines share one semantics definition wherever
rows are produced one at a time anyway. The tuple engine remains the
differential-testing oracle: both must produce identical row sets, and
the resilience layer falls back batch→tuple on any batch-executor error.

Cooperative cancellation keeps the tuple engine's contract — a governor
checkpoint at least every :data:`~repro.engine.evaluator.CHECKPOINT_INTERVAL`
probes — by checkpointing inside the probe loops (governed variant) and
charging batched work against the shared probe budget.
"""

from __future__ import annotations

from repro.qgm import expr as qe
from repro.qgm.model import BoxKind
from repro.engine.aggregates import accumulator_factory, make_accumulator
from repro.engine.evaluator import CHECKPOINT_INTERVAL, Evaluator
from repro.engine.pipeline import HASH, PER_BINDING, RANGE
from repro.engine.expressions import evaluate
from repro.engine.columnar.columns import Batch
from repro.engine.columnar.vector import compile_vector


class BatchEvaluator(Evaluator):
    """Drop-in :class:`Evaluator` replacement with columnar execution."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._compiled_vectors = {}

    # -- compiled vectors --------------------------------------------------------

    def _vfn(self, expr):
        """The compiled vector closure for ``expr`` (cached by identity)."""
        fn = self._compiled_vectors.get(id(expr))
        if fn is None:
            fn = compile_vector(expr)
            self._compiled_vectors[id(expr)] = fn
        return fn

    def _filter_batch(self, batch, predicate):
        """Keep the positions where ``predicate`` is TRUE (not UNKNOWN)."""
        if batch.length == 0:
            # The tuple engine never evaluates predicates over an empty
            # env list; an early-out may also leave quantifiers unbound.
            return batch
        values = self._vfn(predicate)(batch)
        positions = [i for i, value in enumerate(values) if value is True]
        if len(positions) == batch.length:
            return batch
        return batch.take(positions)

    def _bulk_checkpoint(self, box, count):
        """Charge ``count`` units of batched work against the shared probe
        budget, checkpointing the governor at the same amortized
        granularity as the tuple engine's per-probe `_checkpoint`."""
        if self.governor is None or count <= 0:
            return
        self._probe_budget -= count
        while self._probe_budget <= 0:
            self._probe_budget += CHECKPOINT_INTERVAL
            self.governor.checkpoint("join processing in box %r" % box.name)

    def _scan_sources(self, child, rows, quantifier):
        """Zero-copy column accessors when ``rows`` is a base table's own
        row view — extraction then reads the stored column arrays."""
        if child.kind == BoxKind.BASE:
            table = self.database.table(child.table_name)
            if rows is table.rows:
                return {quantifier: table.column_data}
        return None

    # -- select boxes ------------------------------------------------------------

    def _evaluate_select(self, box, env):
        batch = self.filtered_batch(box, env)
        if batch.length == 0:
            return []
        columns = self.project(box, batch)
        if not columns:
            return [()] * batch.length
        return list(zip(*columns))

    def filtered_batch(self, box, env):
        """Run select ``box``'s pipeline under ``env`` up to projection:
        the batch of bindings that satisfy every predicate."""
        pipeline = self.pipeline(box)
        # One position, no slots: the batch analogue of ``[dict(env)]``.
        batch = Batch(1, constants=dict(env))
        for predicate in pipeline.leading:
            batch = self._filter_batch(batch, predicate)
        for step in pipeline.steps:
            if batch.length == 0:
                break
            batch = self._attach_batch(box, step, batch)

        # Scalar subqueries stay row-at-a-time (one-row semantics and
        # NULL-on-no-match need per-binding checks); the result rows
        # become a new slot so deferred predicates vectorize over them.
        for step in pipeline.scalars:
            rows = [self._scalar_row(step, current) for current in batch.row_envs()]
            batch.add_slot(step.quantifier, rows)
        for predicate in pipeline.deferred:
            batch = self._filter_batch(batch, predicate)

        # Existential / anti filters: inherently per-binding subqueries.
        for step in pipeline.filters:
            envs = batch.row_envs()
            positions = [
                i
                for i, current in enumerate(envs)
                if self._passes_filter_quantifier(
                    step.quantifier, step.predicates, current
                )
            ]
            if len(positions) != batch.length:
                batch = batch.take(positions)

        self.stats.batches += 1
        self.stats.batch_rows += batch.length
        return batch

    def project(self, box, batch):
        """``box``'s output columns over a non-empty ``batch``, one value
        list per column."""
        return [self._vfn(column.expr)(batch) for column in box.columns]

    def _attach_batch(self, box, step, batch):
        """Join one foreach quantifier into the batch: hash or range probe,
        per-row evaluation of a correlated child, or cross product."""
        quantifier = step.quantifier
        child = quantifier.input_box
        ranged = self._sorted_index(step) if step.access == RANGE else None
        residual = step.residual
        if step.access == HASH:
            index = self._hash_index(child, quantifier, [k for k, _ in step.keys])
            probe_columns = [self._vfn(probe)(batch) for _, probe in step.keys]
            result = self._probe(box, batch, quantifier, index, probe_columns)
        elif ranged is not None:
            result = self._range_probe(box, batch, step, ranged)
        elif step.access == PER_BINDING:
            positions = []
            new_rows = []
            governed = self.governor is not None
            for i, current in enumerate(batch.row_envs()):
                child_rows = self.rows_for(child, current)
                if governed:
                    self._bulk_checkpoint(box, len(child_rows))
                positions.extend([i] * len(child_rows))
                new_rows.extend(child_rows)
            self.stats.join_probes += len(new_rows)
            result = batch.expand(positions, quantifier, new_rows)
        else:
            residual = step.predicates
            child_rows = self.rows_for(child, {})
            n = len(child_rows)
            self.stats.join_probes += batch.length * n
            self._bulk_checkpoint(box, batch.length * n)
            if batch.length == 1 and not batch.slots:
                # First quantifier: a straight scan, no replication.
                result = Batch(
                    n,
                    slots={quantifier: child_rows},
                    constants=batch.constants,
                    column_sources=self._scan_sources(child, child_rows, quantifier),
                )
            else:
                positions = [
                    i for i in range(batch.length) for _ in range(n)
                ]
                result = batch.expand(positions, quantifier, child_rows * batch.length)
        for predicate in residual:
            result = self._filter_batch(result, predicate)
        self.stats.batches += 1
        self.stats.batch_rows += result.length
        return result

    def _range_probe(self, box, batch, step, index):
        """Batch range probe: bisect the sorted index between every
        position's bounds, emit one output position per match."""
        ops = [op for op, _, _ in step.keys]
        bound_columns = [self._vfn(probe)(batch) for _, _, probe in step.keys]
        positions = []
        new_rows = []
        governed = self.governor is not None
        for i, values in enumerate(zip(*bound_columns)):
            rows = index.range(list(zip(ops, values)))
            if governed:
                self._bulk_checkpoint(box, 1 + len(rows))
            if rows:
                positions.extend([i] * len(rows))
                new_rows.extend(rows)
        self.stats.batch_probes += batch.length
        self.stats.batch_probe_matches += len(new_rows)
        self.stats.join_probes += len(new_rows)
        return batch.expand(positions, step.quantifier, new_rows)

    def _probe(self, box, batch, quantifier, index, probe_columns):
        """Batch hash-join probe: look up every position's key, emit one
        output position per match. NULL keys never join."""
        positions = []
        new_rows = []
        probes = 0
        matches = 0
        get = index.get
        governed = self.governor is not None
        if len(probe_columns) == 1:
            column = probe_columns[0]
            for i, value in enumerate(column):
                if governed:
                    self._checkpoint(box)
                if value is None:
                    continue
                probes += 1
                rows = get((value,))
                if rows:
                    matches += len(rows)
                    positions.extend([i] * len(rows))
                    new_rows.extend(rows)
        else:
            for i, key in enumerate(zip(*probe_columns)):
                if governed:
                    self._checkpoint(box)
                if any(value is None for value in key):
                    continue
                probes += 1
                rows = get(key)
                if rows:
                    matches += len(rows)
                    positions.extend([i] * len(rows))
                    new_rows.extend(rows)
        self.stats.batch_probes += probes
        self.stats.batch_probe_matches += matches
        self.stats.join_probes += matches
        return batch.expand(positions, quantifier, new_rows)

    def _hash_index(self, child, quantifier, key_exprs):
        """As the base implementation, but transient index builds extract
        key columns vectorized instead of evaluating per row. Cache keys
        are unchanged, so fixpoint delta invalidation keeps working."""
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
        rows = self.rows_for(child, {})
        build = Batch(
            len(rows),
            slots={quantifier: rows},
            column_sources=self._scan_sources(child, rows, quantifier),
        )
        key_columns = [self._vfn(k)(build) for k in key_exprs]
        index = {}
        if len(key_columns) == 1:
            for i, value in enumerate(key_columns[0]):
                if value is None:
                    continue
                index.setdefault((value,), []).append(rows[i])
        else:
            for i, key in enumerate(zip(*key_columns)):
                if any(value is None for value in key):
                    continue
                index.setdefault(key, []).append(rows[i])
        self._index_cache[cache_key] = index
        return index

    # -- groupby boxes -----------------------------------------------------------

    def _evaluate_groupby(self, box, env):
        quantifier = box.quantifiers[0]
        input_rows = self.rows_for(quantifier.input_box, env)

        aggregate_columns = [
            (index, column.expr)
            for index, column in enumerate(box.columns)
            if isinstance(column.expr, qe.QAggregate)
        ]

        if not input_rows:
            if box.group_keys:
                return []
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

        batch = Batch(
            len(input_rows),
            slots={quantifier: input_rows},
            constants=dict(env),
            column_sources=self._scan_sources(
                quantifier.input_box, input_rows, quantifier
            ),
        )
        self._bulk_checkpoint(box, len(input_rows))
        key_columns = [self._vfn(k)(batch) for k in box.group_keys]
        arg_columns = [
            None if agg.arg is None else self._vfn(agg.arg)(batch)
            for _, agg in aggregate_columns
        ]

        groups = {}
        order = []
        if key_columns:
            if len(key_columns) == 1:
                keys = key_columns[0]
            else:
                keys = zip(*key_columns)
            for i, key in enumerate(keys):
                positions = groups.get(key)
                if positions is None:
                    groups[key] = positions = []
                    order.append(key)
                positions.append(i)
        else:
            groups[()] = list(range(len(input_rows)))
            order.append(())

        self.stats.batches += 1
        self.stats.batch_rows += len(input_rows)

        # Per-group work is planned once: aggregates get a pre-resolved
        # accumulator builder, bare column references gather from their
        # already-extracted column, and only genuinely complex output
        # expressions (rare) fall back to a per-group representative env
        # — matching the tuple engine, which also evaluates non-aggregate
        # outputs against one representative row per group.
        factories = [
            accumulator_factory(
                agg.func, star=agg.arg is None, distinct=agg.distinct
            )
            for _, agg in aggregate_columns
        ]
        plans = []  # ("agg", slot) | ("col", column values) | ("expr", expr)
        agg_slot = 0
        for column in box.columns:
            expr = column.expr
            if isinstance(expr, qe.QAggregate):
                plans.append(("agg", agg_slot))
                agg_slot += 1
            elif isinstance(expr, qe.QColRef):
                plans.append(("col", self._vfn(expr)(batch)))
            else:
                plans.append(("expr", expr))

        rows = []
        total = len(input_rows)
        for key in order:
            positions = groups[key]
            rep = positions[0]
            results = []
            for factory, column in zip(factories, arg_columns):
                accumulator = factory()
                if column is None:
                    # COUNT(*): only the slice length matters.
                    accumulator.add_many(positions)
                elif len(positions) == total:
                    accumulator.add_many(column)
                else:
                    accumulator.add_many([column[p] for p in positions])
                results.append(accumulator.result())
            representative_env = None
            row = []
            for kind, payload in plans:
                if kind == "agg":
                    row.append(results[payload])
                elif kind == "col":
                    row.append(payload[rep])
                else:
                    if representative_env is None:
                        representative_env = dict(env)
                        representative_env[quantifier] = input_rows[rep]
                    row.append(evaluate(payload, representative_env))
            rows.append(tuple(row))
        return rows
