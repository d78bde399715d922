"""Optimizer statistics, in the System-R style the paper's plan optimizer
[SAC+79] relies on: per-table cardinality and per-column distinct counts and
value ranges. Statistics are computed from the stored data by ``ANALYZE``
(:func:`compute_statistics`) or supplied synthetically by workload code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class ColumnStatistics:
    """Statistics for one column."""

    distinct_count: int = 1
    null_count: int = 0
    min_value: Optional[object] = None
    max_value: Optional[object] = None

    def selectivity_equals_constant(self):
        """Estimated fraction of rows matching ``col = constant``."""
        return 1.0 / max(self.distinct_count, 1)


@dataclass
class TableStatistics:
    """Statistics for one table."""

    row_count: int = 0
    columns: Dict[str, ColumnStatistics] = field(default_factory=dict)

    def column(self, name):
        """Statistics for ``name`` (case-insensitive), defaulting sensibly."""
        stats = self.columns.get(name.lower())
        if stats is not None:
            return stats
        # Unknown column: assume everything is distinct, the conservative
        # System-R default for key-like columns.
        return ColumnStatistics(distinct_count=max(self.row_count, 1))


def _comparable(non_null):
    """``non_null`` when its values can be min/max'd together (all numbers
    or all strings), else an empty list. Checked once per value type."""
    types = set(map(type, non_null))
    if all(
        issubclass(t, (int, float)) and not issubclass(t, bool) for t in types
    ) or all(issubclass(t, str) for t in types):
        return non_null
    return []


def column_statistics(values):
    """:class:`ColumnStatistics` for one column's value list."""
    non_null = [v for v in values if v is not None]
    comparable = _comparable(non_null)
    return ColumnStatistics(
        distinct_count=max(len(set(non_null)), 1),
        null_count=len(values) - len(non_null),
        min_value=min(comparable) if comparable else None,
        max_value=max(comparable) if comparable else None,
    )


def column_major_statistics(schema, columns, previous=None, changed=None):
    """:class:`TableStatistics` from per-column value lists laid out per
    ``schema``.

    Given ``previous`` statistics of the same rows and the ordinals in
    ``changed``, only those columns are recomputed; the others keep
    their :class:`ColumnStatistics` from ``previous``. The result is a
    new object either way, equal to a full recomputation when only the
    ``changed`` columns differ from the data ``previous`` describes.
    """
    row_count = len(columns[0]) if columns else 0
    stats = TableStatistics(row_count=row_count)
    for ordinal, column in enumerate(schema.columns):
        name = column.name.lower()
        if previous is None or ordinal in changed:
            stats.columns[name] = column_statistics(columns[ordinal])
        else:
            stats.columns[name] = previous.columns[name]
    return stats


def compute_statistics(schema, rows):
    """Compute :class:`TableStatistics` for ``rows`` laid out per ``schema``."""
    rows = list(rows)
    columns = [[row[ordinal] for row in rows] for ordinal in range(len(schema.columns))]
    return column_major_statistics(schema, columns)
