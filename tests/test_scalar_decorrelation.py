"""Magic decorrelation of scalar subqueries (the [MPR90] aggregate-magic
construction): correlated aggregates become per-binding grouped tables with
selector predicates, preserving empty-means-NULL semantics."""

import pytest

from repro import Connection, Database
from repro.sql import parse_statement
from repro.qgm import QuantifierType, build_query_graph, validate_graph
from repro.optimizer.heuristic import optimize_with_heuristic

from tests.helpers import canonical, run_all_strategies


@pytest.fixture
def sales_db():
    db = Database()
    db.create_table(
        "emp",
        ["id", "dept", "sal"],
        primary_key=["id"],
        rows=[
            (1, "a", 100),
            (2, "a", 300),
            (3, "b", 50),
            (4, "b", 150),
            (5, "c", 500),
            (6, "d", 10),  # a department with a single employee
        ],
    )
    db.create_table(
        "dept",
        ["dept", "head"],
        primary_key=["dept"],
        rows=[("a", 2), ("b", 4), ("c", 5), ("d", 6), ("e", None)],
    )
    return db


ABOVE_AVG = (
    "SELECT e.id FROM emp e WHERE e.sal > "
    "(SELECT AVG(e2.sal) FROM emp e2 WHERE e2.dept = e.dept)"
)


def test_above_department_average(sales_db):
    rows = run_all_strategies(Connection(sales_db), ABOVE_AVG)
    assert rows == canonical([(2,), (4,)])


def test_decorrelation_marks_quantifier_and_removes_correlation():
    from repro.workloads.empdept import build_empdept_database

    db = build_empdept_database(n_departments=100, employees_per_department=10)
    sql = (
        "SELECT e.empname FROM employee e WHERE e.salary > "
        "(SELECT AVG(e2.salary) FROM employee e2 WHERE e2.workdept = e.workdept)"
    )
    graph = build_query_graph(parse_statement(sql), db.catalog)
    result = optimize_with_heuristic(graph, db.catalog)
    assert result.used_emst
    validate_graph(result.graph)
    scalars = [
        q
        for box in result.graph.boxes()
        for q in box.quantifiers
        if q.qtype == QuantifierType.SCALAR
    ]
    assert scalars
    assert scalars[0].decorrelated
    assert scalars[0].selector_predicates
    # The subquery box must no longer correlate to the outer box.
    for box in result.graph.boxes():
        assert not box.correlated_quantifiers()


def test_empty_binding_yields_null_semantics(sales_db):
    # Department 'e' has no employees: the subquery is empty for it, the
    # scalar is NULL, and the comparison is UNKNOWN — the row is filtered,
    # but rows with IS NULL tests keep it.
    sql = (
        "SELECT d.dept FROM dept d WHERE "
        "(SELECT MAX(e.sal) FROM emp e WHERE e.dept = d.dept) IS NULL"
    )
    rows = run_all_strategies(Connection(sales_db), sql)
    assert rows == canonical([("e",)])


def test_scalar_in_select_position(sales_db):
    sql = (
        "SELECT d.dept, (SELECT COUNT(*) FROM emp e WHERE e.dept = d.dept) "
        "AS n FROM dept d"
    )
    rows = run_all_strategies(Connection(sales_db), sql)
    assert rows == canonical(
        [("a", 2), ("b", 2), ("c", 1), ("d", 1), ("e", 0)]
    )


def test_scalar_equality_comparison(sales_db):
    sql = (
        "SELECT e.id FROM emp e WHERE e.sal = "
        "(SELECT MAX(e2.sal) FROM emp e2 WHERE e2.dept = e.dept)"
    )
    rows = run_all_strategies(Connection(sales_db), sql)
    assert rows == canonical([(2,), (4,), (5,), (6,)])


def test_scalar_without_aggregate_per_binding_cardinality(sales_db):
    # dept.head is unique per department, so the subquery is single-row per
    # binding; decorrelation must keep it so.
    sql = (
        "SELECT e.id FROM emp e WHERE e.id = "
        "(SELECT d.head FROM dept d WHERE d.dept = e.dept)"
    )
    rows = run_all_strategies(Connection(sales_db), sql)
    assert rows == canonical([(2,), (4,), (5,), (6,)])


def test_uncorrelated_scalar_still_enforces_single_row(sales_db):
    from repro.errors import ExecutionError

    with pytest.raises(ExecutionError):
        Connection(sales_db).execute(
            "SELECT id FROM emp WHERE sal > (SELECT sal FROM emp)"
        )


def test_scalar_with_extra_local_filter_inside(sales_db):
    sql = (
        "SELECT e.id FROM emp e WHERE e.sal >= "
        "(SELECT SUM(e2.sal) FROM emp e2 WHERE e2.dept = e.dept AND e2.sal < 200)"
    )
    run_all_strategies(Connection(sales_db), sql)


def test_two_scalar_subqueries(sales_db):
    sql = (
        "SELECT e.id FROM emp e WHERE e.sal > "
        "(SELECT AVG(e2.sal) FROM emp e2 WHERE e2.dept = e.dept) "
        "AND e.sal < (SELECT MAX(e3.sal) FROM emp e3 WHERE e3.dept = e.dept) + 1"
    )
    run_all_strategies(Connection(sales_db), sql)


def test_decorrelated_scalar_faster_than_naive():
    """At scale, the decorrelated plan avoids per-row re-aggregation: it
    evaluates each box once where the original plan re-evaluates the
    subquery per outer row, on either executor. Speed is measured in
    work counters, not wall-clock time, so the check is deterministic."""
    from repro.workloads.empdept import build_empdept_database

    db = build_empdept_database(n_departments=400, employees_per_department=10)
    conn = Connection(db)
    sql = (
        "SELECT e.empname FROM employee e WHERE e.salary > "
        "(SELECT AVG(e2.salary) FROM employee e2 "
        " WHERE e2.workdept = e.workdept)"
    )
    for executor in ("tuple", "batch"):
        work = {}
        reference = {}
        for strategy in ("original", "emst"):
            prepared = conn.prepare_statement(
                sql, strategy=strategy, executor=executor
            )
            result, stats = prepared.execute()
            reference[strategy] = canonical(result.rows)
            work[strategy] = stats
        assert reference["original"] == reference["emst"]
        assert work["emst"].join_probes == 13200
        assert work["original"].join_probes == 48000
        assert work["emst"].box_evaluations == 6
        assert work["original"].box_evaluations == 12002
