"""QGM — the Query Graph Model of Starburst [PHH92], as described in §2 of
the paper: boxes, quantifiers, predicate edges, correlation, common
subexpressions and cycles for recursion.
"""

from repro.qgm.expr import (
    QExpr,
    QLiteral,
    QParam,
    QColRef,
    QUnary,
    QBinary,
    QFunc,
    QAggregate,
    QIsNull,
    QLike,
    QCase,
    column_refs,
    referenced_quantifiers,
    substitute_refs,
    map_expr,
    conjuncts,
)
from repro.qgm.model import (
    Box,
    BoxKind,
    DistinctMode,
    MagicRole,
    OutputColumn,
    Quantifier,
    QuantifierType,
    QueryGraph,
    external_quantifiers,
)
from repro.qgm.builder import build_query_graph
from repro.qgm.clone import clone_box, clone_graph, restore_graph
from repro.qgm.stratum import assign_strata, reduced_dependency_graph
from repro.qgm.render import render_text, render_dot, graph_summary
from repro.qgm.validate import validate_graph

__all__ = [
    "QExpr",
    "QLiteral",
    "QParam",
    "QColRef",
    "QUnary",
    "QBinary",
    "QFunc",
    "QAggregate",
    "QIsNull",
    "QLike",
    "QCase",
    "column_refs",
    "referenced_quantifiers",
    "substitute_refs",
    "map_expr",
    "conjuncts",
    "Box",
    "BoxKind",
    "DistinctMode",
    "MagicRole",
    "OutputColumn",
    "Quantifier",
    "QuantifierType",
    "QueryGraph",
    "external_quantifiers",
    "build_query_graph",
    "clone_box",
    "clone_graph",
    "restore_graph",
    "assign_strata",
    "reduced_dependency_graph",
    "render_text",
    "render_dot",
    "graph_summary",
    "validate_graph",
]
