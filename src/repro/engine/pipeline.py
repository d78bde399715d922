"""Lowering of a select box into the pipeline the executors run.

Every decision about how a select box is evaluated is made here, once
per box per evaluator:

* the scan order — the plan optimizer's join order for the box;
* where each predicate applies — a *leading* filter for predicates
  over no local quantifier, each join predicate at the earliest step
  binding all of its local quantifiers, predicates over scalar
  subqueries after those are bound, and predicates over E/A
  quantifiers attached to their semi/anti join;
* how each quantifier is reached — ``hash`` (probe an index on the
  child with values already bound), ``range`` (bisect a base table's
  sorted index on one column between bounds computed from values
  already bound), ``nested`` (loop over the child's materialised rows)
  or ``per-binding`` (re-evaluate a correlated child under every current
  binding).

The tuple and batch engines execute the resulting
:class:`SelectPipeline`; the correlated engine lowers the box in its own
step order; EXPLAIN renders it, so the plan it prints is the one that
runs.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.qgm import expr as qe
from repro.qgm.model import BoxKind, QuantifierType, external_quantifiers

HASH = "hash"
RANGE = "range"
NESTED = "nested"
PER_BINDING = "per-binding"


class Step(NamedTuple):
    """How one quantifier joins the pipeline.

    ``predicates`` are applied at this step. Under ``hash`` access,
    ``keys`` holds ``(key expression over the quantifier, probe
    expression over bound or outer quantifiers)`` pairs drawn from the
    equalities among them, and ``residual`` the predicates left to check
    on each match; otherwise ``residual`` is all of ``predicates``.
    """

    quantifier: object
    access: str
    predicates: tuple
    keys: tuple
    residual: tuple


class SelectPipeline(NamedTuple):
    """A lowered select box, in execution order."""

    #: Predicates over no local quantifier, checked before any scan.
    leading: tuple
    #: One :class:`Step` per foreach quantifier, in join order.
    steps: tuple
    #: One :class:`Step` per scalar quantifier; its predicates are the
    #: quantifier's selector predicates.
    scalars: tuple
    #: Predicates over scalar quantifiers, checked once those are bound.
    deferred: tuple
    #: One :class:`Step` per existential/anti quantifier; its predicates
    #: are the ones attached to that semi/anti join.
    filters: tuple


def join_order(box, names):
    """``box``'s foreach quantifiers in the order ``names`` gives
    (unknown names ignored, unnamed quantifiers appended)."""
    foreach = box.foreach_quantifiers()
    if not names:
        return foreach
    by_name = {q.name: q for q in foreach}
    ordered = [by_name[name] for name in names if name in by_name]
    return ordered + [q for q in foreach if q.name not in set(names)]


def lower_select(box, join_order_names, externals=external_quantifiers):
    """Lower select ``box`` with its foreach quantifiers in
    ``join_order_names`` order. ``externals`` is
    :func:`~repro.qgm.model.external_quantifiers` or a cached version."""
    local = set(box.quantifiers)
    subquery = set(box.subquery_quantifiers())
    filter_quantifiers = [
        q
        for q in box.quantifiers
        if q.qtype in (QuantifierType.EXISTENTIAL, QuantifierType.ANTI)
    ]
    leading, joins, deferred = [], [], []
    attached = {q: [] for q in filter_quantifiers}
    for predicate in box.predicates:
        needed = {
            ref.quantifier
            for ref in qe.column_refs(predicate)
            if ref.quantifier in local
        }
        if not needed:
            leading.append(predicate)
        elif not needed & subquery:
            joins.append((predicate, needed))
        elif needed & set(attached):
            for quantifier in filter_quantifiers:
                if quantifier in needed:
                    attached[quantifier].append(predicate)
        else:
            deferred.append(predicate)

    steps = []
    bound = set()
    for quantifier in join_order(box, join_order_names):
        reachable = bound | {quantifier}
        here = [p for p, needed in joins if needed <= reachable]
        joins = [(p, needed) for p, needed in joins if not needed <= reachable]
        steps.append(_step(quantifier, here, local, bound, externals))
        bound.add(quantifier)

    scalars = []
    for quantifier in box.quantifiers:
        if quantifier.qtype != QuantifierType.SCALAR:
            continue
        step = _step(
            quantifier, quantifier.selector_predicates, {quantifier}, set(),
            externals,
        )
        # Only a decorrelated subquery whose selectors are all hashable
        # is probed; anything else binds from the child's rows.
        if step.access == HASH and (step.residual or not quantifier.decorrelated):
            step = Step(quantifier, NESTED, step.predicates, (), step.predicates)
        scalars.append(step)

    filters = [
        Step(
            quantifier,
            PER_BINDING if externals(quantifier.input_box) else NESTED,
            tuple(attached[quantifier]),
            (),
            tuple(attached[quantifier]),
        )
        for quantifier in filter_quantifiers
    ]
    return SelectPipeline(
        tuple(leading), tuple(steps), tuple(scalars), tuple(deferred),
        tuple(filters),
    )


def _step(quantifier, predicates, local, bound, externals):
    predicates = tuple(predicates)
    if externals(quantifier.input_box):
        return Step(quantifier, PER_BINDING, predicates, (), predicates)
    keys, residual = hash_keys(predicates, quantifier, local, bound)
    if keys:
        return Step(quantifier, HASH, predicates, keys, residual)
    if (
        quantifier.qtype == QuantifierType.FOREACH
        and quantifier.input_box.kind == BoxKind.BASE
    ):
        keys, residual = _range_bounds(predicates, quantifier, local, bound)
        if keys:
            return Step(quantifier, RANGE, predicates, keys, residual)
    return Step(quantifier, NESTED, predicates, (), predicates)


def hash_keys(predicates, quantifier, local, bound):
    """Split ``predicates`` into ``(keys, residual)``: the equalities
    usable to hash-join ``quantifier`` as (key, probe) pairs, and the
    rest. ``local`` is the owning box's quantifiers, ``bound`` those
    already bound when ``quantifier`` joins."""
    keys, residual = [], []
    for predicate in predicates:
        pair = _hashable_equality(predicate, quantifier, local, bound)
        if pair is not None:
            keys.append(pair)
        else:
            residual.append(predicate)
    return tuple(keys), tuple(residual)


def _hashable_equality(predicate, quantifier, local, bound):
    """If ``predicate`` is an equality usable to hash-join ``quantifier``,
    return (key_expr_over_quantifier, probe_expr_over_bound); else None."""
    if not (isinstance(predicate, qe.QBinary) and predicate.op == "="):
        return None
    for side, other in (
        (predicate.left, predicate.right),
        (predicate.right, predicate.left),
    ):
        side_refs = qe.column_refs(side)
        other_local = {
            r.quantifier for r in qe.column_refs(other) if r.quantifier in local
        }
        # The key side must reference nothing but the quantifier itself
        # (no correlation mixed in) to be indexable; the probe side only
        # quantifiers bound before it.
        if (
            side_refs
            and all(r.quantifier is quantifier for r in side_refs)
            and quantifier not in other_local
            and other_local <= bound
        ):
            return (side, other)
    return None


#: The comparison ``b op' a`` equivalent to ``a op b``.
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _range_bounds(predicates, quantifier, local, bound):
    """Split ``predicates`` into ``(bounds, residual)``: the ``(op,
    column, probe)`` range bounds on one bare column of ``quantifier``
    (at most one lower and one upper, each probe over quantifiers bound
    before it), and the rest. Constant bounds are left residual."""
    column = None
    bounds = {}  # "lower" | "upper" -> (op, column, probe)
    residual = []
    for predicate in predicates:
        comparison = _range_comparison(predicate, quantifier, local, bound)
        if comparison is not None:
            op, key, _ = comparison
            side = "lower" if op in (">", ">=") else "upper"
            if column is None:
                column = key.column
            if key.column == column and side not in bounds:
                bounds[side] = comparison
                continue
        residual.append(predicate)
    keys = tuple(bounds[side] for side in ("lower", "upper") if side in bounds)
    return keys, tuple(residual)


def _range_comparison(predicate, quantifier, local, bound):
    """If ``predicate`` compares a bare column of ``quantifier`` with an
    expression over bound quantifiers, return it as ``(op, column,
    probe)`` with the column on the left of ``op``; else None."""
    if not (isinstance(predicate, qe.QBinary) and predicate.op in _FLIPPED):
        return None
    for key, probe, op in (
        (predicate.left, predicate.right, predicate.op),
        (predicate.right, predicate.left, _FLIPPED[predicate.op]),
    ):
        probe_local = {
            r.quantifier for r in qe.column_refs(probe) if r.quantifier in local
        }
        if (
            isinstance(key, qe.QColRef)
            and key.quantifier is quantifier
            and probe_local
            and probe_local <= bound
        ):
            return (op, key, probe)
    return None
