"""Physical-plan (EXPLAIN) rendering."""

import re

from repro import Connection, Database
from repro.engine import Evaluator
from repro.engine.storage import SortedIndex
from repro.sql import parse_statement
from repro.qgm import build_query_graph
from repro.optimizer import optimize_graph
from repro.optimizer.explain import physical_plan
from repro.workloads.empdept import build_empdept_database


def plan_text(db, sql):
    graph = build_query_graph(parse_statement(sql), db.catalog)
    plan = optimize_graph(graph, db.catalog)
    return physical_plan(graph, plan, db.catalog)


def test_scan_then_hashjoin(empdept_db):
    text = plan_text(
        empdept_db,
        "SELECT e.empname FROM employee e, department d WHERE e.workdept = d.deptno",
    )
    assert "SCAN" in text
    assert "HASHJOIN" in text
    assert "RETURN SELECT" in text


def test_cross_product_shows_nljoin(empdept_db):
    text = plan_text(
        empdept_db, "SELECT e.empno FROM employee e, department d"
    )
    assert "NLJOIN" in text


def test_filter_and_distinct_shown(empdept_db):
    # A predicate over no table at all stays a residual FILTER.
    text = plan_text(
        empdept_db,
        "SELECT DISTINCT empname FROM employee WHERE 1 = 1",
    )
    assert "FILTER" in text
    assert "DISTINCT" in text


def test_local_predicate_applied_at_scan(empdept_db):
    text = plan_text(
        empdept_db,
        "SELECT empname FROM employee WHERE salary > 100",
    )
    assert "SCAN" in text
    assert "ON (employee.salary > 100)" in text or "ON (" in text


def test_groupby_rendering(empdept_db):
    text = plan_text(
        empdept_db,
        "SELECT workdept, AVG(salary) FROM employee GROUP BY workdept",
    )
    assert "GROUPBY [" in text
    assert "AVG(" in text


def test_semijoin_antijoin_scalar(empdept_db):
    text = plan_text(
        empdept_db,
        "SELECT empname FROM employee e WHERE workdept IN "
        "(SELECT deptno FROM department) "
        "AND NOT EXISTS (SELECT 1 FROM department d2 WHERE d2.mgrno = e.empno) "
        "AND salary > (SELECT AVG(salary) FROM employee e3)",
    )
    assert "SEMIJOIN" in text
    assert "ANTIJOIN" in text
    assert "SCALAR" in text


def test_setop_rendering(empdept_db):
    text = plan_text(
        empdept_db,
        "SELECT empno FROM employee EXCEPT SELECT mgrno FROM department",
    )
    assert "EXCEPT DISTINCT" in text


def test_outerjoin_rendering(empdept_db):
    text = plan_text(
        empdept_db,
        "SELECT e.empname, d.deptname FROM employee e "
        "LEFT JOIN department d ON d.deptno = e.workdept",
    )
    assert "LEFT OUTER JOIN" in text


def test_sort_and_limit_rendering(empdept_db):
    text = plan_text(
        empdept_db,
        "SELECT empno FROM employee ORDER BY empno DESC LIMIT 3",
    )
    assert "SORT #1 DESC" in text
    assert "LIMIT 3" in text


def test_fixpoint_rendering(empdept_db):
    empdept_db.create_table("edge", ["src", "dst"], rows=[(1, 2)])
    text = plan_text(
        empdept_db,
        "WITH RECURSIVE r (n) AS (SELECT dst FROM edge UNION "
        "SELECT e.dst FROM r x, edge e WHERE e.src = x.n) SELECT n FROM r",
    )
    assert "FIXPOINT" in text


def test_magic_quantifier_labelled(empdept_conn):
    text = empdept_conn.explain(
        "SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s "
        "WHERE d.deptno = s.workdept AND d.deptname = 'Planning'",
        strategy="emst",
    )
    assert "physical plan:" in text
    assert "MATERIALIZE" in text


def test_row_estimates_present(empdept_db):
    text = plan_text(empdept_db, "SELECT empno FROM employee")
    assert "~7 rows" in text


# -- EXPLAIN shows the access the engine takes ----------------------------------

_HEADER = re.compile(r"^(\S+) [A-Z]+ (\S+) \(~")
_JOIN = re.compile(
    r"^  (SCAN|NLJOIN|HASHJOIN|RANGEJOIN|APPLY) (?:magic )?(\S+) \((\S+), "
)
_SUBQUERY = re.compile(
    r"^  (?:SCALAR|SEMIJOIN|ANTIJOIN|NULL-AWARE ANTIJOIN) (\S+) \((\S+), ([^)]+)\)"
)
_JOIN_ACCESS = {
    "SCAN": "nested",
    "NLJOIN": "nested",
    "HASHJOIN": "hash",
    "RANGEJOIN": "range",
    "APPLY": "per-binding",
}
_NOTE_ACCESS = {
    "materialized": "nested",
    "hash probe": "hash",
    "per-binding": "per-binding",
}


def _engine_access(monkeypatch, prepared):
    """Execute ``prepared`` on the tuple engine, recording the quantifiers
    it hash-probed and range-probed (as (box, quantifier) names) and the
    boxes it evaluated once per outer binding."""
    hashed, ranged, per_binding = set(), set(), set()
    hash_index = Evaluator._hash_index
    sorted_index = Evaluator._sorted_index
    rows_correlated = Evaluator._rows_correlated

    def spy_hash_index(self, child, quantifier, key_exprs):
        hashed.add((quantifier.parent_box.name, quantifier.name))
        return hash_index(self, child, quantifier, key_exprs)

    def spy_sorted_index(self, step):
        index = sorted_index(self, step)
        if index is not None:
            quantifier = step.quantifier
            ranged.add((quantifier.parent_box.name, quantifier.name))
        return index

    def spy_rows_correlated(self, box, env, externals):
        per_binding.add(box.name)
        return rows_correlated(self, box, env, externals)

    monkeypatch.setattr(Evaluator, "_hash_index", spy_hash_index)
    monkeypatch.setattr(Evaluator, "_sorted_index", spy_sorted_index)
    monkeypatch.setattr(Evaluator, "_rows_correlated", spy_rows_correlated)
    prepared.execute()
    return hashed, ranged, per_binding


def _assert_explain_matches_engine(monkeypatch, conn, sql):
    prepared = conn.prepare_statement(sql, strategy="original", executor="tuple")
    text = physical_plan(prepared.graph, prepared.plan, conn.database.catalog)
    hashed, ranged, per_binding = _engine_access(monkeypatch, prepared)
    assert hashed and per_binding

    labels = {}
    checked = 0
    box = None
    for line in text.splitlines():
        header = _HEADER.match(line)
        if header:
            labels[header.group(2)] = header.group(1)
            box = header.group(2)
            continue
        join = _JOIN.match(line)
        subquery = _SUBQUERY.match(line)
        if join:
            printed = _JOIN_ACCESS[join.group(1)]
            quantifier, child = join.group(2), join.group(3)
        elif subquery:
            printed = _NOTE_ACCESS[subquery.group(3)]
            quantifier, child = subquery.group(1), subquery.group(2)
        else:
            continue
        if (box, quantifier) in hashed:
            taken = "hash"
        elif (box, quantifier) in ranged:
            taken = "range"
        elif child in per_binding:
            taken = "per-binding"
        else:
            taken = "nested"
        assert printed == taken, "%s in box %s: EXPLAIN %r, engine %r\n%s" % (
            quantifier, box, printed, taken, text,
        )
        checked += 1
    assert checked >= 3
    assert {b for b, _ in hashed} <= set(labels)
    for name in per_binding:
        assert labels[name] != "MATERIALIZE", text
        assert labels[name] == "PER-BINDING", text


def test_explain_matches_engine_on_correlated_scalar(monkeypatch):
    conn = Connection(
        build_empdept_database(n_departments=6, employees_per_department=4)
    )
    _assert_explain_matches_engine(
        monkeypatch,
        conn,
        "SELECT e.empno FROM employee e WHERE e.salary > "
        "(SELECT AVG(e2.salary) FROM employee e2 WHERE e2.workdept = e.workdept)",
    )


def test_explain_matches_engine_through_correlated_view_join(monkeypatch):
    conn = Connection(
        build_empdept_database(n_departments=6, employees_per_department=4)
    )
    conn.run_script(
        "CREATE VIEW deptavg (workdept, avgsal) AS "
        "SELECT workdept, AVG(salary) FROM employee GROUP BY workdept"
    )
    _assert_explain_matches_engine(
        monkeypatch,
        conn,
        "SELECT d.deptname FROM department d WHERE d.budget > "
        "(SELECT SUM(e.salary) FROM employee e, deptavg s "
        "WHERE e.workdept = s.workdept AND s.workdept = d.deptno)",
    )


def test_explain_matches_engine_with_range_join(monkeypatch):
    conn = Connection(
        build_empdept_database(n_departments=6, employees_per_department=4)
    )
    _assert_explain_matches_engine(
        monkeypatch,
        conn,
        "SELECT e.empno FROM employee e, employee m "
        "WHERE e.salary < m.salary AND m.salary > "
        "(SELECT AVG(e2.salary) FROM employee e2 WHERE e2.workdept = e.workdept)",
    )


def test_rank_query_explains_and_runs_a_range_join(monkeypatch):
    conn = Connection(
        build_empdept_database(n_departments=20, employees_per_department=8)
    )
    sql = (
        "SELECT COUNT(*) FROM employee e1, employee e2 "
        "WHERE e1.salary < e2.salary AND e1.workdept = 'D0003'"
    )
    calls = []
    range_rows = SortedIndex.range

    def spy_range(self, bounds):
        calls.append(bounds)
        return range_rows(self, bounds)

    monkeypatch.setattr(SortedIndex, "range", spy_range)
    for strategy in ("original", "emst"):
        for executor in ("tuple", "batch"):
            prepared = conn.prepare_statement(
                sql, strategy=strategy, executor=executor
            )
            text = physical_plan(
                prepared.graph, prepared.plan, conn.database.catalog
            )
            assert re.search(
                r"^  RANGEJOIN e2 \(employee, .*\(e1\.salary < e2\.salary\)",
                text,
                re.MULTILINE,
            ), text
            calls.clear()
            prepared.execute()
            # One bisection per employee of the department.
            assert len(calls) == 8
            assert all(op == ">" for bounds in calls for op, _ in bounds)
