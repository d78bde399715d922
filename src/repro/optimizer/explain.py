"""Physical-plan rendering: EXPLAIN output.

Prints, per box, the operator pipeline the evaluator runs, annotated with
the estimator's row counts. Select boxes are rendered from the same
:class:`~repro.engine.pipeline.SelectPipeline` the tuple and batch
engines execute, so scan order, predicate placement and each
quantifier's access (hash probe, range probe, nested loop, per-binding
re-evaluation) are those of the run, not a prediction of it.
"""

from __future__ import annotations

import functools

from repro.qgm import expr as qe
from repro.qgm.model import (
    BoxKind,
    DistinctMode,
    QuantifierType,
    external_quantifiers,
)
from repro.qgm.stratum import reduced_dependency_graph
from repro.optimizer.cardinality import CardinalityEstimator
from repro.engine.pipeline import HASH, NESTED, PER_BINDING, RANGE, lower_select

#: Operator label of a foreach quantifier's step, by access.
_JOIN_LABELS = {
    HASH: "HASHJOIN",
    RANGE: "RANGEJOIN",
    NESTED: "NLJOIN",
    PER_BINDING: "APPLY",
}
#: How a scalar or semi/anti join quantifier reaches its input, by access.
_ACCESS_NOTES = {
    HASH: "hash probe",
    NESTED: "materialized",
    PER_BINDING: "per-binding",
}


def _child_name(quantifier):
    child = quantifier.input_box
    if child.kind == BoxKind.BASE:
        return child.table_name
    return child.name


def _on(predicates):
    return " ON " + " AND ".join(str(p) for p in predicates) if predicates else ""


def _select_lines(pipeline, estimator):
    """Describe one lowered select box, in execution order."""
    lines = ["FILTER %s" % p for p in pipeline.leading]
    for index, step in enumerate(pipeline.steps):
        quantifier = step.quantifier
        op = _JOIN_LABELS[step.access]
        if index == 0 and step.access == NESTED:
            op = "SCAN"
        lines.append(
            "%s %s%s (%s, ~%d rows)%s"
            % (
                op,
                "magic " if quantifier.is_magic else "",
                quantifier.name,
                _child_name(quantifier),
                estimator.rows(quantifier.input_box),
                _on(step.predicates),
            )
        )
    for step in pipeline.scalars:
        lines.append(
            "SCALAR %s (%s, %s)%s"
            % (
                step.quantifier.name,
                _child_name(step.quantifier),
                _ACCESS_NOTES[step.access],
                _on(step.predicates),
            )
        )
    lines.extend("FILTER %s" % p for p in pipeline.deferred)
    for step in pipeline.filters:
        quantifier = step.quantifier
        if quantifier.qtype == QuantifierType.EXISTENTIAL:
            op = "SEMIJOIN"
        else:
            op = "NULL-AWARE ANTIJOIN" if quantifier.null_aware else "ANTIJOIN"
        lines.append(
            "%s %s (%s, %s)%s"
            % (
                op,
                quantifier.name,
                _child_name(quantifier),
                _ACCESS_NOTES[step.access],
                _on(step.predicates),
            )
        )
    return lines


def physical_plan(graph, plan=None, catalog=None):
    """Render the evaluator's physical plan for ``graph``.

    ``plan`` is a :class:`~repro.optimizer.plan.GraphPlan` (for join
    orders); without one, declaration order is assumed.
    """
    catalog = catalog or graph.catalog
    estimator = CardinalityEstimator(catalog)
    join_orders = plan.join_orders if plan is not None else {}
    externals = functools.lru_cache(maxsize=None)(external_quantifiers)

    components, _ = reduced_dependency_graph(graph)
    lines = []
    for component in components:
        recursive = len(component) > 1 or any(
            q.input_box is component[0] for q in component[0].quantifiers
        )
        for box in component:
            if box.kind == BoxKind.BASE:
                continue
            header = "%s %s (~%d rows)" % (box.kind, box.name, estimator.rows(box))
            if box is graph.top_box:
                header = "RETURN " + header
            elif externals(box):
                header = "PER-BINDING " + header
            elif recursive:
                header = "FIXPOINT " + header
            else:
                header = "MATERIALIZE " + header
            lines.append(header)
            if box.kind == BoxKind.SELECT:
                pipeline = lower_select(
                    box, join_orders.get(box.box_id), externals
                )
                for line in _select_lines(pipeline, estimator):
                    lines.append("  " + line)
                if box.distinct == DistinctMode.ENFORCE:
                    lines.append("  DISTINCT")
            elif box.kind == BoxKind.GROUPBY:
                keys = ", ".join(str(k) for k in box.group_keys) or "()"
                aggs = ", ".join(
                    str(c.expr)
                    for c in box.columns
                    if isinstance(c.expr, qe.QAggregate)
                )
                lines.append(
                    "  GROUPBY [%s] aggregates [%s] over %s"
                    % (keys, aggs, _child_name(box.quantifiers[0]))
                )
            elif box.kind == BoxKind.OUTERJOIN:
                left, right = box.quantifiers
                lines.append(
                    "  LEFT OUTER JOIN %s (%s) with %s (%s) ON %s"
                    % (
                        left.name,
                        _child_name(left),
                        right.name,
                        _child_name(right),
                        " AND ".join(str(p) for p in box.predicates),
                    )
                )
            else:
                inputs = ", ".join(_child_name(q) for q in box.quantifiers)
                mode = (
                    "DISTINCT"
                    if box.distinct == DistinctMode.ENFORCE
                    else "ALL"
                )
                lines.append("  %s %s over [%s]" % (box.kind, mode, inputs))
    if graph.order_by:
        keys = ", ".join(
            "#%d %s" % (ordinal + 1, "ASC" if ascending else "DESC")
            for ordinal, ascending in graph.order_by
        )
        lines.append("SORT %s" % keys)
    if graph.limit is not None:
        lines.append("LIMIT %d" % graph.limit)
    return "\n".join(lines)
