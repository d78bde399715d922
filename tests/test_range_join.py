"""Range access for inequality joins.

A foreach step over a base table with no hashable equality but a
comparison between one of its columns and values already bound is
lowered as ``range``: the executors bisect the table's sorted index on
that column instead of looping over every pair. The rows it returns are
checked here against a nested loop written in plain Python.
"""

import collections
import random

import pytest

from repro import Connection, Database
from repro.engine.storage import SortedIndex
from repro.errors import ExecutionError
from repro.workloads.empdept import build_empdept_database

EXECUTORS = ("tuple", "batch")
STRATEGIES = ("original", "emst")

#: Join keys: duplicates, ints and floats that tie (2 and 2.0), NULLs.
KEY_VALUES = [None, -1, 0, 1, 1.5, 2, 2.0, 2.5, 3, 4]


def _cmp(op, left, right):
    """SQL comparison in three-valued logic, without the engine."""
    if left is None or right is None:
        return None
    return {
        "<": left < right,
        "<=": left <= right,
        ">": left > right,
        ">=": left >= right,
        "<>": left != right,
    }[op]


def _holds(conjuncts, o, i):
    """Whether every ``(left, op, right)`` conjunct is TRUE for rows
    ``o`` of outer_t and ``i`` of inner_t; operands are column names
    prefixed ``o.`` or ``i.``."""

    def value(operand):
        alias, column = operand.split(".")
        row = o if alias == "o" else i
        return row[("id", "a", "b").index(column)]

    return all(
        _cmp(op, value(left), value(right)) is True
        for left, op, right in conjuncts
    )


def _sql(conjuncts):
    return (
        "SELECT o.id, i.id FROM outer_t o, inner_t i WHERE "
        + " AND ".join("%s %s %s" % c for c in conjuncts)
    )


def _conjunct_sets():
    ops = ("<", "<=", ">", ">=")
    sets = []
    for op in ops:
        sets.append([("o.a", op, "i.a")])  # the column on the right
        sets.append([("i.a", op, "o.a")])  # the column on the left
    for low in (">", ">="):
        for high in ("<", "<="):
            sets.append([("i.a", low, "o.a"), ("i.a", high, "o.b")])
            sets.append([("o.b", _flip(high), "i.a"), ("o.a", _flip(low), "i.a")])
    # Two lower bounds: the second stays residual.
    sets.append([("i.a", ">", "o.a"), ("i.a", ">=", "o.b")])
    # A residual non-range predicate beside the bound.
    sets.append([("o.a", "<", "i.a"), ("i.b", "<>", "o.b")])
    return sets


def _flip(op):
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]


def _random_rows(rng, count):
    return [
        (n, rng.choice(KEY_VALUES), rng.choice(KEY_VALUES)) for n in range(count)
    ]


def _connection(outer_rows, inner_rows):
    db = Database()
    db.create_table("outer_t", ["id", "a", "b"], rows=outer_rows)
    db.create_table("inner_t", ["id", "a", "b"], rows=inner_rows)
    return Connection(db)


def _check(conn, conjuncts, outer_rows, inner_rows):
    sql = _sql(conjuncts)
    expected = collections.Counter(
        (o[0], i[0])
        for o in outer_rows
        for i in inner_rows
        if _holds(conjuncts, o, i)
    )
    for strategy in STRATEGIES:
        assert "RANGEJOIN" in conn.explain(sql, strategy=strategy), sql
        for executor in EXECUTORS:
            result, _ = conn.prepare_statement(
                sql, strategy=strategy, executor=executor
            ).execute()
            assert collections.Counter(result.rows) == expected, (
                sql, strategy, executor,
            )


@pytest.mark.parametrize("seed", range(6))
def test_range_join_matches_nested_loop(seed):
    rng = random.Random(seed)
    outer_rows = _random_rows(rng, 12)
    inner_rows = _random_rows(rng, 15)
    conn = _connection(outer_rows, inner_rows)
    for conjuncts in _conjunct_sets():
        _check(conn, conjuncts, outer_rows, inner_rows)


def test_range_join_with_computed_bounds():
    rng = random.Random(99)
    outer_rows = _random_rows(rng, 10)
    inner_rows = _random_rows(rng, 20)
    conn = _connection(outer_rows, inner_rows)
    sql = (
        "SELECT o.id, i.id FROM outer_t o, inner_t i "
        "WHERE i.a >= o.a - 1.5 AND i.a < o.b + 1"
    )
    expected = collections.Counter(
        (o[0], i[0])
        for o in outer_rows
        for i in inner_rows
        if None not in (o[1], o[2], i[1])
        and i[1] >= o[1] - 1.5
        and i[1] < o[2] + 1
    )
    for executor in EXECUTORS:
        result, _ = conn.prepare_statement(sql, executor=executor).execute()
        assert collections.Counter(result.rows) == expected


def test_range_join_over_empty_inner_table():
    outer_rows = _random_rows(random.Random(7), 8)
    conn = _connection(outer_rows, [])
    for conjuncts in _conjunct_sets():
        _check(conn, conjuncts, outer_rows, [])


def test_all_null_inner_column_matches_nothing():
    outer_rows = _random_rows(random.Random(3), 6)
    inner_rows = [(n, None, None) for n in range(5)]
    conn = _connection(outer_rows, inner_rows)
    for conjuncts in _conjunct_sets():
        _check(conn, conjuncts, outer_rows, inner_rows)


def test_mixed_int_and_string_column_still_raises():
    conn = _connection([(0, 1, 1)], [(0, 2, 0), (1, "x", 0)])
    assert conn.database.table("inner_t").sorted_index("a") is None
    for executor in EXECUTORS:
        with pytest.raises(ExecutionError):
            conn.prepare_statement(
                "SELECT o.id FROM outer_t o, inner_t i WHERE o.a < i.a",
                executor=executor,
            ).execute()


def test_probe_of_another_kind_raises_like_a_nested_loop():
    conn = _connection([(0, "x", 1)], [(0, 2, 0), (1, 3, 0)])
    for executor in EXECUTORS:
        with pytest.raises(ExecutionError):
            conn.prepare_statement(
                "SELECT o.id FROM outer_t o, inner_t i WHERE o.a < i.a",
                executor=executor,
            ).execute()


def test_nan_keys_fall_back_and_nan_bounds_match_nothing():
    nan = float("nan")
    outer_rows = [(0, nan, 1), (1, 1, 1)]
    conn = _connection(outer_rows, [(0, 0.5, 0), (1, 2, 0)])
    sql = "SELECT o.id, i.id FROM outer_t o, inner_t i WHERE i.a >= o.a"
    for executor in EXECUTORS:
        result, _ = conn.prepare_statement(sql, executor=executor).execute()
        assert sorted(result.rows) == [(1, 1)]
    # A NaN key has no place in the order: the step runs nested.
    conn = _connection(outer_rows, [(0, nan, 0), (1, 2, 0)])
    assert conn.database.table("inner_t").sorted_index("a") is None
    for executor in EXECUTORS:
        result, _ = conn.prepare_statement(sql, executor=executor).execute()
        assert sorted(result.rows) == [(1, 1)]


def test_string_keys():
    outer_rows = [(0, "b", "d"), (1, None, "a"), (2, "c", "c")]
    inner_rows = [(n, key, 0) for n, key in enumerate("abcdcb")] + [(9, None, 0)]
    conn = _connection(outer_rows, inner_rows)
    _check(conn, [("i.a", ">=", "o.a"), ("i.a", "<", "o.b")], outer_rows, inner_rows)


# -- invalidation ------------------------------------------------------------------

_BAND_SQL = (
    "SELECT o.id, i.id FROM outer_t o, inner_t i "
    "WHERE i.a > o.a AND i.a <= o.b"
)


def _band_rows(conn):
    outer = conn.database.table("outer_t").rows
    inner = conn.database.table("inner_t").rows
    conjuncts = [("i.a", ">", "o.a"), ("i.a", "<=", "o.b")]
    return collections.Counter(
        (o[0], i[0]) for o in outer for i in inner if _holds(conjuncts, o, i)
    )


@pytest.mark.parametrize("executor", EXECUTORS)
def test_prepared_range_join_sees_every_mutation(executor):
    conn = _connection([(0, 1, 3), (1, 2, 4)], [(0, 2, 0), (1, 3, 0), (2, 5, 0)])
    prepared = conn.prepare_statement(_BAND_SQL, executor=executor)

    def rows():
        result, _ = prepared.execute()
        return collections.Counter(result.rows)

    assert rows() == _band_rows(conn) != collections.Counter()
    conn.run_script("INSERT INTO inner_t VALUES (3, 4, 0), (4, 2.5, 0)")
    assert rows() == _band_rows(conn)
    assert (1, 3) in rows() and (0, 4) in rows()
    conn.run_script("UPDATE inner_t SET a = 1 WHERE id = 1")
    assert rows() == _band_rows(conn)
    assert (0, 1) not in rows()
    conn.run_script("DELETE FROM inner_t WHERE id = 0")
    assert rows() == _band_rows(conn)
    assert (0, 0) not in rows()
    # Worker sync replaces the columns wholesale.
    inner = conn.database.table("inner_t")
    inner.load_columns([[7, 8], [1.5, 4], [0, 0]], inner.version + 1)
    assert rows() == _band_rows(conn) == collections.Counter([(0, 7), (1, 8)])


# -- work counters ----------------------------------------------------------------

RANK_SQL = (
    "SELECT COUNT(*) FROM employee e1, employee e2 "
    "WHERE e1.salary < e2.salary AND e1.workdept = 'D0003'"
)


def test_rank_query_probes_only_matches():
    db = build_empdept_database(n_departments=1000, employees_per_department=8)
    conn = Connection(db)
    employees = db.table("employee")
    salary = employees.schema.column_ordinal("salary")
    workdept = employees.schema.column_ordinal("workdept")
    dept = [row for row in employees.rows if row[workdept] == "D0003"]
    expected = sum(
        1
        for e1 in dept
        for e2 in employees.rows
        if e1[salary] is not None
        and e2[salary] is not None
        and e1[salary] < e2[salary]
    )
    assert len(dept) == 8 and expected > 0
    for strategy in STRATEGIES:
        for executor in EXECUTORS:
            result, stats = conn.prepare_statement(
                RANK_SQL, strategy=strategy, executor=executor
            ).execute()
            assert result.rows == [(expected,)]
            # The hash probe for e1's department, one probe per emitted
            # match, and the scan of the one-row aggregate on top — where
            # the nested loop probed 8 x 8000 pairs (64,009 in all).
            assert stats.join_probes == len(dept) + expected + 1
            assert stats.join_probes < 64009


def test_sorted_index_orders_rows_and_drops_nulls():
    db = Database()
    db.create_table("t", ["k", "v"], rows=[(3, "a"), (None, "b"), (1, "c"), (3.0, "d")])
    index = db.table("t").sorted_index("k")
    assert isinstance(index, SortedIndex)
    assert index.keys == [1, 3, 3.0]
    assert [row[1] for row in index.rows] == ["c", "a", "d"]
    assert index.range([(">=", 3)]) == [(3, "a"), (3.0, "d")]
    assert index.range([(">", 1), ("<", 3)]) == []
    assert index.range([("<=", None)]) == []
    # NaN compares FALSE with everything, so a NaN bound matches nothing.
    nan = float("nan")
    assert index.range([(">=", nan)]) == []
    assert index.range([("<=", nan)]) == []
    with pytest.raises(ExecutionError):
        index.range([("<", "x")])
