"""Set-oriented DML: UPDATE/DELETE against a pure-Python model.

Seeded random INSERT/UPDATE/DELETE sequences run on connections of both
executors. After every statement the table holds exactly the model's
rows (in order), its catalog statistics equal a full ANALYZE of those
rows, its version rose by exactly one, and the row view and column lists
taken before the write still hold the old values (writes are
copy-on-write).
"""

from __future__ import annotations

import random

import pytest

import repro.catalog.statistics as statistics_module
import repro.engine.expressions as expressions
from repro import Connection, Database
from repro.catalog import compute_statistics
from repro.engine.columnar import BatchEvaluator
from repro.errors import ExecutionError, NotSupportedError
from repro.workloads.experiments import EXPERIMENTS

VALUES = [None, 0, 1, 2, 3, 4, 5, 6]


# -- three-valued helpers for the model ----------------------------------------


def _cmp(op, left, right):
    """SQL comparison: None (UNKNOWN) when either side is NULL."""
    if left is None or right is None:
        return None
    return {
        "=": left == right,
        "<": left < right,
        "<=": left <= right,
        ">": left > right,
        ">=": left >= right,
    }[op]


def _and(left, right):
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def _add(left, right):
    return None if left is None or right is None else left + right


def _sql(value):
    return "NULL" if value is None else str(value)


# -- statement generators: (sql, model step) -----------------------------------
#
# t(k, a, b) is the written table, u(x, y) the subquery side. A model step
# takes (t_rows, u_rows) and returns the new t rows.


def _update_where(rows, matches, assign):
    return [assign(row) if matches(row) is True else row for row in rows]


def _delete_where(rows, matches):
    return [row for row in rows if matches(row) is not True]


def _gen_insert(rng, state):
    state["next_key"] += 1
    row = (state["next_key"], rng.choice(VALUES), rng.choice(VALUES))
    sql = "INSERT INTO t VALUES (%d, %s, %s)" % (row[0], _sql(row[1]), _sql(row[2]))
    return sql, lambda t, u: t + [row]


def _gen_update_key(rng, state):
    key = rng.randrange(state["next_key"] + 2)
    value = rng.choice(VALUES)
    sql = "UPDATE t SET a = %s WHERE k = %d" % (_sql(value), key)
    return sql, lambda t, u: _update_where(
        t, lambda r: r[0] == key, lambda r: (r[0], value, r[2])
    )


def _gen_swap_range(rng, state):
    # Multi-column SET: both assignments read the old values.
    low, high = sorted(rng.sample(range(7), 2))
    sql = "UPDATE t SET a = b, b = a WHERE a > %d AND a <= %d" % (low, high)
    return sql, lambda t, u: _update_where(
        t,
        lambda r: _and(_cmp(">", r[1], low), _cmp("<=", r[1], high)),
        lambda r: (r[0], r[2], r[1]),
    )


def _gen_update_is_null(rng, state):
    sql = "UPDATE t SET b = a + 1, a = k WHERE b IS NULL"
    return sql, lambda t, u: _update_where(
        t, lambda r: r[2] is None, lambda r: (r[0], r[0], _add(r[1], 1))
    )


def _gen_delete_range(rng, state):
    bound = rng.choice(range(7))
    sql = "DELETE FROM t WHERE b < %d" % bound
    return sql, lambda t, u: _delete_where(t, lambda r: _cmp("<", r[2], bound))


def _gen_delete_in(rng, state):
    bound = rng.choice(range(7))
    sql = "DELETE FROM t WHERE a IN (SELECT y FROM u WHERE x > %d)" % bound

    def step(t, u):
        ys = {y for x, y in u if _cmp(">", x, bound) is True and y is not None}
        return _delete_where(t, lambda r: r[1] is not None and r[1] in ys)

    return sql, step


def _gen_update_correlated_in(rng, state):
    value = rng.choice(VALUES)
    sql = (
        "UPDATE t SET b = %s WHERE a IN (SELECT y FROM u WHERE u.x = t.k)"
        % _sql(value)
    )

    def step(t, u):
        def matches(r):
            ys = {y for x, y in u if x == r[0] and y is not None}
            return r[1] is not None and r[1] in ys

        return _update_where(t, matches, lambda r: (r[0], r[1], value))

    return sql, step


def _gen_delete_exists(rng, state):
    sql = "DELETE FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.x = t.a)"

    def step(t, u):
        xs = {x for x, _ in u if x is not None}
        return _delete_where(t, lambda r: r[1] is not None and r[1] in xs)

    return sql, step


def _gen_update_not_exists(rng, state):
    bound = rng.choice(range(7))
    sql = (
        "UPDATE t SET a = a + 1 WHERE NOT EXISTS "
        "(SELECT 1 FROM u WHERE u.x = t.k) AND k > %d" % bound
    )

    def step(t, u):
        xs = {x for x, _ in u if x is not None}
        return _update_where(
            t,
            lambda r: r[0] not in xs and r[0] > bound,
            lambda r: (r[0], _add(r[1], 1), r[2]),
        )

    return sql, step


def _gen_update_exists_uncorrelated(rng, state):
    bound = rng.choice(range(7))
    sql = (
        "UPDATE t SET b = k WHERE EXISTS (SELECT 1 FROM u WHERE u.y > %d)"
        % bound
    )

    def step(t, u):
        hit = any(_cmp(">", y, bound) is True for _, y in u)
        return _update_where(t, lambda r: hit, lambda r: (r[0], r[1], r[0]))

    return sql, step


def _gen_scalar_set(rng, state):
    bound = rng.choice(range(9))
    sql = (
        "UPDATE t SET a = (SELECT MAX(y) FROM u WHERE u.x = t.k), b = a "
        "WHERE k < %d" % bound
    )

    def step(t, u):
        def assign(r):
            ys = [y for x, y in u if x == r[0] and y is not None]
            return (r[0], max(ys) if ys else None, r[1])

        return _update_where(t, lambda r: r[0] < bound, assign)

    return sql, step


def _gen_update_all(rng, state):
    sql = "UPDATE t SET b = b + a"
    return sql, lambda t, u: [(r[0], r[1], _add(r[2], r[1])) for r in t]


GENERATORS = [
    _gen_insert,
    _gen_insert,
    _gen_update_key,
    _gen_swap_range,
    _gen_update_is_null,
    _gen_delete_range,
    _gen_delete_in,
    _gen_update_correlated_in,
    _gen_delete_exists,
    _gen_update_not_exists,
    _gen_update_exists_uncorrelated,
    _gen_scalar_set,
    _gen_update_all,
]


def _build(rng):
    t_rows = [(k, rng.choice(VALUES), rng.choice(VALUES)) for k in range(8)]
    u_rows = [(rng.choice(VALUES), rng.choice(VALUES)) for _ in range(6)]
    db = Database()
    db.create_table("t", ["k", "a", "b"], primary_key=["k"], rows=t_rows)
    db.create_table("u", ["x", "y"], rows=u_rows)
    return db, t_rows, u_rows


@pytest.mark.parametrize("executor", ["tuple", "batch"])
@pytest.mark.parametrize("seed", range(6))
def test_random_dml_matches_model(seed, executor):
    rng = random.Random(seed)
    db, model, u_rows = _build(rng)
    conn = Connection(db, executor=executor)
    table = db.table("t")
    state = {"next_key": len(model)}
    for _ in range(40):
        sql, step = rng.choice(GENERATORS)(rng, state)
        version = table.version
        view = table.rows
        old_view = list(view)
        columns = [table.column_data(i) for i in range(3)]
        old_columns = [list(column) for column in columns]

        conn.run_script(sql)
        model = step(model, u_rows)

        assert table.rows == model, sql
        assert db.catalog.statistics("t") == compute_statistics(
            table.schema, model
        ), sql
        assert table.version == version + 1, sql
        assert view == old_view, sql
        assert columns == old_columns, sql
        # The batch engine's scan reads the column arrays directly.
        assert [table.column_data(i) for i in range(3)] == [
            [row[i] for row in model] for i in range(3)
        ], sql
    # Queries still see what the model holds, on both engines.
    result = conn.execute("SELECT k, a, b FROM t WHERE a = a OR a IS NULL")
    assert sorted(result.rows, key=repr) == sorted(model, key=repr)


def test_scalar_subquery_in_set():
    db = Database()
    db.create_table("t", ["a", "b"], rows=[(1, 0), (1, 10), (2, 20), (3, 30)])
    db.create_table("u", ["a", "v"], rows=[(1, 5), (1, 7), (2, 9), (3, None)])
    conn = Connection(db)
    conn.run_script(
        "UPDATE t SET b = (SELECT MAX(v) FROM u WHERE u.a = t.a) WHERE a = 1"
    )
    assert db.table("t").rows == [(1, 7), (1, 7), (2, 20), (3, 30)]
    conn.run_script(
        "UPDATE t SET b = (SELECT MAX(v) FROM u WHERE u.a = t.a) + b WHERE a > 1"
    )
    assert db.table("t").rows == [(1, 7), (1, 7), (2, 29), (3, None)]


def test_failed_update_leaves_table_untouched():
    db = Database()
    db.create_table("t", ["a", "b"], rows=[(1, 0), (2, 0)])
    db.create_table("u", ["a", "v"], rows=[(1, 5), (1, 7)])
    conn = Connection(db)
    table = db.table("t")
    before = (list(table.rows), table.version, db.catalog.statistics("t"))
    with pytest.raises(ExecutionError):
        conn.run_script("UPDATE t SET b = (SELECT v FROM u WHERE u.a = t.a)")
    assert (table.rows, table.version, db.catalog.statistics("t")) == before


def test_aggregate_in_set_is_rejected():
    # The parent evaluated MAX(a) per row, silently setting b = a.
    db = Database()
    db.create_table("t", ["a", "b"], rows=[(1, 0), (2, 0)])
    with pytest.raises(NotSupportedError):
        Connection(db).run_script("UPDATE t SET b = MAX(a)")
    assert db.table("t").rows == [(1, 0), (2, 0)]


def test_duplicate_rows_update_by_position():
    db = Database()
    db.create_table("t", ["a", "b"], rows=[(1, 1), (1, 1), (2, 2)])
    conn = Connection(db)
    conn.run_script("UPDATE t SET b = b + 1 WHERE a = 1")
    assert db.table("t").rows == [(1, 2), (1, 2), (2, 2)]
    conn.run_script("DELETE FROM t WHERE b = 2 AND a = 1")
    assert db.table("t").rows == [(2, 2)]


def test_analyze_after_foreign_statistics_recomputes_every_column():
    # Statistics installed by other code are not trusted for a partial
    # ANALYZE: the update still leaves what a full ANALYZE computes.
    from repro.catalog import TableStatistics

    db = Database()
    db.create_table("t", ["a", "b"], rows=[(1, 1), (2, 2)])
    db.catalog.set_statistics("t", TableStatistics(row_count=99))
    Connection(db).run_script("UPDATE t SET b = 3 WHERE a = 1")
    table = db.table("t")
    assert db.catalog.statistics("t") == compute_statistics(
        table.schema, table.rows
    )


# -- work counters: a point UPDATE touches O(1) rows, one column's stats ----------


def _counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


def test_point_update_work_is_bounded(monkeypatch):
    database, views, _ = EXPERIMENTS["A"].build(1.0)
    conn = Connection(database, executor="batch")
    if views:
        conn.run_script(views)
    department = database.table("department")
    assert len(department) == 400
    deptno = department.rows[123][0]
    sql = "UPDATE department SET budget = budget + 1 WHERE deptno = '%s'" % deptno
    conn.run_script(sql)  # leaves statistics that ANALYZE computed

    calls = {}
    for name in ("predicate_holds", "evaluate"):
        _counting(monkeypatch, expressions, name, calls)
    _counting(monkeypatch, statistics_module, "column_statistics", calls)
    runs = []
    original = BatchEvaluator.filtered_batch

    def filtered_batch(self, box, env):
        batch = original(self, box, env)
        runs.append((batch.length, self.stats.join_probes, self.stats.batch_probes))
        return batch

    monkeypatch.setattr(BatchEvaluator, "filtered_batch", filtered_batch)
    budget = department.schema.column_ordinal("budget")
    before = department.rows[123][budget]
    conn.run_script(sql)

    assert department.rows[123][budget] == before + 1
    # The parent matched row by row: >= 400 predicate_holds calls.
    assert calls.get("predicate_holds", 0) + calls.get("evaluate", 0) <= 4
    # One pipeline run, one hash probe, one matched pair (a scan would
    # have tried 400).
    assert runs == [(1, 1, 1)]
    assert calls["column_statistics"] == 1
    assert database.catalog.statistics("department") == compute_statistics(
        department.schema, department.rows
    )
