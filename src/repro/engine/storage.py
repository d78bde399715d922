"""In-memory storage: columnar tables plus the database facade.

Tables are stored **column-major**: one Python list per column, with NULL
as ``None``. A row-major view (list of plain tuples laid out per the
table's schema) is materialised lazily and cached, so tuple-at-a-time
consumers — the classic evaluators, statistics, the chase — keep working
unchanged while the batch executor reads whole columns without
per-row reconstruction. The :class:`Database` owns a
:class:`~repro.catalog.Catalog` and the column storage, and is the object
users hand to the session API.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress

from repro.catalog import Catalog, column_major_statistics
from repro.catalog.schema import ColumnDef, ForeignKey, TableSchema
from repro.errors import CatalogError, ExecutionError
from repro.engine.expressions import compare

_NUMBER = (int, float)


class SortedIndex:
    """The non-NULL values of one column in ascending order (``keys``),
    with their rows in parallel (``rows``). Every key is a number, or
    every key is a string (``kind`` says which), and none is NaN, so the
    order agrees with :func:`~repro.engine.expressions.compare`."""

    __slots__ = ("keys", "rows", "kind")

    def __init__(self, keys, rows, kind):
        self.keys = keys
        self.rows = rows
        self.kind = kind

    def range(self, bounds):
        """The rows whose key satisfies ``key op value`` for every
        ``(op, value)`` in ``bounds`` (at most one of ``>``/``>=`` and
        one of ``<``/``<=``), in key order.

        A NULL bound matches nothing, as a comparison with NULL is never
        TRUE. A bound of another kind, or NaN, is checked key by key
        with :func:`~repro.engine.expressions.compare`, so it matches or
        raises exactly as a nested loop would.
        """
        keys = self.keys
        start, stop = 0, len(keys)
        for op, value in bounds:
            if value is None:
                return []
            if not isinstance(value, self.kind) or value != value:
                return [
                    row
                    for key, row in zip(keys, self.rows)
                    if all(compare(o, key, v) for o, v in bounds)
                ]
            if op == ">":
                start = bisect_right(keys, value)
            elif op == ">=":
                start = bisect_left(keys, value)
            elif op == "<":
                stop = bisect_left(keys, value)
            else:
                stop = bisect_right(keys, value)
        return self.rows[start:stop]


class Table:
    """A stored base table: schema + columnar data + lazy hash and sorted
    indexes.

    Data lives in ``_columns`` (one list per schema column); ``rows`` is a
    cached row-tuple view rebuilt on demand after mutations. Writes are
    copy-on-write: they install new column lists and a new view and never
    mutate the old ones in place, so an evaluator (or the worker-pool
    publisher) holding a table's ``rows`` or ``column_data`` lists sees a
    stable snapshot even if a mutation lands mid-query. Every tuple in
    the view is a distinct object, so :meth:`row_positions` can map rows
    back to positions by identity.

    ``version`` is a monotonic data-version counter, bumped by every
    mutation through :meth:`invalidate_indexes`. Plan artifacts computed
    against the table (cached plans optimized with its statistics) record
    the version they saw, so staleness is *detectable* — a stale plan is
    still correct (plans never embed row data), just possibly suboptimal,
    and the serving layer decides whether to re-plan.
    """

    def __init__(self, schema, rows=None):
        self.schema = schema
        self._ncols = len(schema.columns)
        self._columns = [[] for _ in range(self._ncols)]
        self._nrows = 0
        self._rows = []
        self.version = 0
        self._indexes = {}
        if rows:
            self._append_rows(self._converted_rows(rows))

    # -- row/column representations ------------------------------------------

    def _converted_rows(self, rows):
        """Convert ``rows`` to tuples, checking arity in the same pass.

        The whole input is validated before anything is stored, so a
        bad-arity row anywhere in the input leaves the table unmodified.
        """
        ncols = self._ncols
        converted = []
        for row in rows:
            row = tuple(row)
            if len(row) != ncols:
                raise ExecutionError(
                    "row arity %d does not match table %r (%d columns)"
                    % (len(row), self.schema.name, ncols)
                )
            converted.append(row)
        return converted

    def _append_rows(self, converted):
        """Append pre-validated row tuples as new column arrays."""
        if not converted:
            return
        self._columns = [
            column + [row[ordinal] for row in converted]
            for ordinal, column in enumerate(self._columns)
        ]
        self._nrows += len(converted)
        self._rows = None  # row view rebuilt on next access

    @property
    def rows(self):
        """Row-major view: a list of plain tuples (cached)."""
        rows = self._rows
        if rows is None:
            rows = list(zip(*self._columns)) if self._nrows else []
            self._rows = rows
        return rows

    @rows.setter
    def rows(self, new_rows):
        """Replace the table's contents wholesale.

        Callers still must bump the version through
        :meth:`invalidate_indexes`, exactly as with the old list storage.
        """
        converted = self._converted_rows(new_rows)
        if converted:
            self._columns = [list(column) for column in zip(*converted)]
        else:
            self._columns = [[] for _ in range(self._ncols)]
        self._nrows = len(converted)
        self._rows = None  # rebuilt from the columns: distinct tuples

    def column_data(self, column):
        """The stored value list of one column (by name or ordinal).

        This is the batch executor's scan path: the returned list is the
        live column array — callers must treat it as read-only.
        """
        if isinstance(column, int):
            ordinal = column
        else:
            ordinal = self.schema.column_ordinal(column)
        return self._columns[ordinal]

    def column_blocks(self):
        """The live column arrays (one list per schema column), for bulk
        serialization — the worker-pool publisher pickles these into
        shared memory. Read-only by contract, like :meth:`column_data`."""
        return self._columns

    def load_columns(self, columns, version):
        """Atomically replace the table's contents with pre-built column
        blocks at a given data version — the worker-side half of the
        shared-memory sync protocol. The blocks must all have equal
        length and match the schema's arity; the version is adopted
        as-is so the worker's copy reports the same
        :attr:`version` the publisher recorded."""
        if len(columns) != self._ncols:
            raise ExecutionError(
                "column-block arity %d does not match table %r (%d columns)"
                % (len(columns), self.schema.name, self._ncols)
            )
        lengths = {len(column) for column in columns}
        if len(lengths) > 1:
            raise ExecutionError(
                "ragged column blocks for table %r: lengths %s"
                % (self.schema.name, sorted(lengths))
            )
        self._columns = [list(column) for column in columns]
        self._nrows = lengths.pop() if lengths else 0
        self._rows = None
        self._indexes.clear()
        self.version = version

    def row_positions(self, rows):
        """The positions in :attr:`rows` of ``rows``, tuples taken from
        the current row view (matched by identity, so equal rows at
        different positions stay apart)."""
        view = self.rows
        where = dict(zip(map(id, view), range(len(view))))
        return [where[id(row)] for row in rows]

    # -- mutation ---------------------------------------------------------------

    def insert(self, row):
        self.insert_many([row])

    def insert_many(self, rows):
        converted = self._converted_rows(rows)
        if not converted:
            return
        self._append_rows(converted)
        # One statement, one version bump — per-row bumps would make the
        # version useless as a "how much changed" signal.
        self.invalidate_indexes()

    def update_rows(self, positions, assignments):
        """UPDATE: ``assignments`` maps a column ordinal to its new values,
        one per entry of ``positions``. Copies only the assigned column
        arrays and the row view, then bumps the version once."""
        columns = list(self._columns)
        for ordinal, values in assignments.items():
            column = list(columns[ordinal])
            for position, value in zip(positions, values):
                column[position] = value
            columns[ordinal] = column
        rows = list(self.rows)
        for position in positions:
            rows[position] = tuple([column[position] for column in columns])
        self._columns = columns
        self._rows = rows
        self.invalidate_indexes()

    def delete_rows(self, positions):
        """DELETE the rows at ``positions``: new column arrays and row
        view without them, then one version bump."""
        keep = [True] * self._nrows
        for position in positions:
            keep[position] = False
        self._columns = [list(compress(column, keep)) for column in self._columns]
        self._rows = list(compress(self.rows, keep))
        self._nrows = len(self._rows)
        self.invalidate_indexes()

    def invalidate_indexes(self):
        """Drop the lazily built hash and sorted indexes and bump the
        monotonic data version; the next ``index_on`` or
        ``sorted_index`` call rebuilds them. Callers that
        assign ``rows`` directly must call this instead of touching
        ``_indexes``."""
        self.version += 1
        self._indexes.clear()

    def index_on(self, columns):
        """A hash index ``key -> [row, ...]`` on one column (keys are bare
        values) or a tuple of columns (keys are value tuples). Built lazily
        and kept until the next insert. This models the persistent index
        access paths both the correlated strategy and set-oriented magic
        plans rely on."""
        if isinstance(columns, str):
            ordinal = self.schema.column_ordinal(columns)
            index = self._indexes.get(ordinal)
            if index is None:
                index = {}
                for row in self.rows:
                    index.setdefault(row[ordinal], []).append(row)
                self._indexes[ordinal] = index
            return index
        ordinals = tuple(self.schema.column_ordinal(c) for c in columns)
        index = self._indexes.get(ordinals)
        if index is None:
            index = {}
            keys = zip(*[self._columns[o] for o in ordinals])
            for key, row in zip(keys, self.rows):
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [row]
                else:
                    bucket.append(row)
            self._indexes[ordinals] = index
        return index

    def sorted_index(self, column):
        """A :class:`SortedIndex` on ``column``, built lazily and kept
        with the hash indexes until the next mutation; None when the
        column's non-NULL values are not all numbers or all strings, or
        include NaN (range access then falls back to a nested loop)."""
        ordinal = self.schema.column_ordinal(column)
        key = ("sorted", ordinal)
        if key not in self._indexes:
            self._indexes[key] = _build_sorted_index(
                self._columns[ordinal], self.rows
            )
        return self._indexes[key]

    def __len__(self):
        return self._nrows


def _build_sorted_index(values, rows):
    pairs = [(value, row) for value, row in zip(values, rows) if value is not None]
    kind = _NUMBER if pairs and isinstance(pairs[0][0], _NUMBER) else str
    for value, _ in pairs:
        if not isinstance(value, kind) or value != value:
            return None
    pairs.sort(key=lambda pair: pair[0])
    return SortedIndex([v for v, _ in pairs], [r for _, r in pairs], kind)


class Database:
    """Catalog + storage + statistics. The engine's root object."""

    def __init__(self, catalog=None):
        self.catalog = catalog or Catalog()
        self._tables = {}
        #: ``{table name (lower) -> (statistics, table version)}`` that
        #: :meth:`analyze` last installed, so a later one-column ANALYZE
        #: can tell whether the other columns' statistics still hold.
        self._analyzed = {}

    def schema_version(self):
        """The catalog's monotonic DDL version (see
        :attr:`~repro.catalog.Catalog.version`). Cached plans are keyed on
        it: any CREATE TABLE/VIEW or DROP VIEW makes every previously
        cached plan unreachable rather than silently wrong."""
        return self.catalog.version

    def table_versions(self, names=None):
        """``{table name (lower) -> data version}`` for ``names`` (all
        stored tables when omitted); the plan cache records these to make
        statistics staleness detectable.

        An unknown name raises :class:`~repro.errors.CatalogError`, the
        same contract as :meth:`table` — silently skipping it would make a
        staleness probe over a mistyped name report "nothing stale".
        """
        if names is None:
            return {
                name: table.version for name, table in self._tables.items()
            }
        out = {}
        for name in names:
            table = self._tables.get(name.lower())
            if table is None:
                raise CatalogError("no stored table %r" % name)
            out[name.lower()] = table.version
        return out

    def create_table(self, name, columns, primary_key=None, unique_keys=None,
                     rows=None, foreign_keys=None):
        """Create a base table.

        ``columns`` is a list of column names or :class:`ColumnDef`.
        ``foreign_keys`` is a list of :class:`~repro.catalog.ForeignKey`
        (or ``(columns, ref_table, ref_columns)`` tuples); a ``ref_columns``
        of None resolves to the referenced table's primary key.
        """
        defs = [
            column if isinstance(column, ColumnDef) else ColumnDef(name=column)
            for column in columns
        ]
        resolved = []
        for fk in foreign_keys or []:
            if not isinstance(fk, ForeignKey):
                fk_columns, ref_table, ref_columns = fk
                if ref_columns is None:
                    parent = self.catalog.table(ref_table)
                    if parent.primary_key is None:
                        raise CatalogError(
                            "foreign key on %r references %r without a "
                            "column list, but %r has no primary key"
                            % (name, ref_table, ref_table)
                        )
                    ref_columns = parent.primary_key
                fk = ForeignKey(
                    columns=tuple(fk_columns),
                    ref_table=ref_table,
                    ref_columns=tuple(ref_columns),
                )
            resolved.append(fk)
        schema = TableSchema(
            name=name,
            columns=defs,
            primary_key=tuple(primary_key) if primary_key else None,
            unique_keys=[tuple(key) for key in (unique_keys or [])],
            foreign_keys=resolved,
        )
        self.catalog.add_table(schema)
        table = Table(schema, rows=rows)
        self._tables[name.lower()] = table
        if rows:
            self.analyze(name)
        return table

    def table(self, name):
        table = self._tables.get(name.lower())
        if table is None:
            raise CatalogError("no stored table %r" % name)
        return table

    def stored_tables(self):
        """``{name (lower) -> Table}`` for every stored table. The worker
        pool's publisher iterates this to find tables whose data version
        moved; callers must not mutate the mapping."""
        return self._tables

    def register_table(self, schema):
        """Attach an empty :class:`Table` for a schema that is *already*
        in the catalog — the worker-side path for tables created by the
        parent after fork (the schema arrives via the catalog sync, the
        rows via a column-block segment). Replaces any existing storage
        for the name."""
        table = Table(schema)
        self._tables[schema.name.lower()] = table
        return table

    def insert(self, name, rows):
        self.table(name).insert_many(rows)

    def analyze(self, name=None, columns=None):
        """Recompute optimizer statistics (ANALYZE). All tables if no name.

        ``columns`` (names of ``name``'s columns) recomputes only those,
        for a statement that changed nothing else since the previous
        ANALYZE of the table; the other columns' statistics carry over.
        When the table's statistics are not the ones that ANALYZE left
        one write ago (set by other code, or more writes since), every
        column is recomputed. Either way the catalog gets a new
        :class:`~repro.catalog.TableStatistics` equal to a full ANALYZE.
        """
        names = [name] if name else [schema.name for schema in self.catalog.tables()]
        for table_name in names:
            table = self.table(table_name)
            key = table_name.lower()
            previous = changed = None
            if columns is not None:
                analyzed, version = self._analyzed.get(key, (None, None))
                current = self.catalog.statistics(table_name)
                if current is analyzed and version == table.version - 1:
                    previous = current
                    changed = {table.schema.column_ordinal(c) for c in columns}
            statistics = column_major_statistics(
                table.schema, table.column_blocks(), previous, changed
            )
            self.catalog.set_statistics(table_name, statistics)
            self._analyzed[key] = (statistics, table.version)

    def create_view(self, sql_text):
        """Parse and register a ``CREATE VIEW`` statement."""
        from repro.sql import parse_statement
        from repro.sql.ast import CreateView

        statement = parse_statement(sql_text)
        if not isinstance(statement, CreateView):
            raise CatalogError("create_view expects a CREATE VIEW statement")
        return self.catalog.add_view(statement)
