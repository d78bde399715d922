"""The benchmark's three workloads and their correctness oracles.

Every workload runs on the ``batch`` executor; the tuple engine serves
only as an oracle. Each one is built from a seed, and ``scale`` shrinks
its data for the self-test (the benchmark itself always runs scale 1).

* ``adhoc`` — one client sends full ``Connection.execute`` calls under
  EMST (parse, QGM, three rewrite phases, two plan passes, execute), so
  the prepare layers do most of the work.
* ``prepared`` — the same mix, with every statement prepared during
  set-up; each request only calls ``PreparedQuery.execute``, so the
  engine does all the work and rewrite none.
* ``served`` — one socket client against the multi-process server, a
  Zipf-skewed parameterized read mix with 2% UPDATE scripts.

All three carry the same 2% write stream: the benchmark's write-latency
metrics must be measured on every workload, so ``adhoc`` and
``prepared`` send in-process UPDATEs through ``Connection.run_script``.
Every write bumps one department budget by 1, which no query reads, so
read answers never change; after the run ``SUM(budget)`` must equal its
starting value plus the acknowledged writes.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import os
import random
import threading
from multiprocessing import resource_tracker

from repro import Database
from repro.api import Connection
from repro.resilience.retry import RetryPolicy
from repro.server import ServerConfig
from repro.server.chaos import ServerHarness
from repro.workloads.empdept import PAPER_VIEWS_SQL, build_empdept_database
from repro.workloads.experiments import EXPERIMENTS, canonical_rows

#: Share of operations that are UPDATE scripts, on every workload.
WRITE_SHARE = 0.02

TABLE1_KEYS = "ABCDEFGH"
#: Database whose ``department`` table takes the in-process writes
#: (experiment A never reads ``budget``).
WRITE_EXPERIMENT = "A"

TREE_EDGES = 20000
#: Descendant counts of the closure roots (before scaling).
CLOSURE_ROWS = (100, 1000)
CLOSURE_ROOTS = 32
CLOSURE_SQL = (
    "WITH RECURSIVE path (src, dst) AS ("
    "SELECT src, dst FROM edge UNION "
    "SELECT e.src, p.dst FROM edge e, path p WHERE p.src = e.dst) "
    "SELECT dst FROM path WHERE src = %d"
)

SERVED_DEPARTMENTS = 1000
SERVED_EMPLOYEES = 8
#: One closed-loop client. With two, the client threads contend with the
#: server's threads for the interpreter lock, which doubled the read p99
#: and made every figure vary more between runs.
SERVED_CLIENTS = 1
SERVED_WORKERS = 2
RESULT_CACHE_CAPACITY = 256
#: Zipf exponent of the served read keys: the hottest department takes
#: about 60% of reads, and about a quarter of reads miss the result cache
#: (write invalidations plus the tail beyond its 256 entries).
ZIPF_EXPONENT = 2.0
#: Served keys the in-process Connection checks the Python oracle on.
ORACLE_SAMPLE = 8
AVG_SQL = (
    "SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s "
    "WHERE d.deptno = s.workdept AND d.deptname = ?"
)
RANK_SQL = (
    "SELECT COUNT(*) FROM employee e1, employee e2 "
    "WHERE e1.salary < e2.salary AND e1.workdept = ?"
)
BUDGET_UPDATE_SQL = (
    "UPDATE department SET budget = budget + 1 WHERE deptno = '%s'"
)
BUDGET_SUM_SQL = "SELECT SUM(budget) FROM department"


def canonical(rows):
    return canonical_rows([tuple(row) for row in rows])


Op = collections.namedtuple("Op", "kind label payload")


class Failure(Exception):
    """An operation's answer disagreed with its oracle."""


# -- the Table-1 + closure mix shared by adhoc and prepared -------------------


def random_tree(rng, edges):
    """A random recursive tree: node ``i`` hangs below a uniformly chosen
    earlier node, so ``dst`` is a unique key of the edge relation."""
    return [(rng.randrange(child), child) for child in range(1, edges + 1)]


def descendants(edges):
    children = collections.defaultdict(list)
    for src, dst in edges:
        children[src].append(dst)

    def closure(root):
        found, frontier = [], [root]
        while frontier:
            node = frontier.pop()
            for child in children[node]:
                found.append(child)
                frontier.append(child)
        return found

    return closure


def pick_roots(rng, edges, low, high, count):
    """Roots whose closures span ``low..high`` rows at log-spaced sizes,
    so every seed gets the same spread of closure sizes."""
    sizes = collections.Counter()
    parent = {dst: src for src, dst in edges}
    for node in parent:
        ancestor = parent.get(node)
        while ancestor is not None:
            sizes[ancestor] += 1
            ancestor = parent.get(ancestor)
    ordered = sorted((size, node) for node, size in sizes.items())
    roots = []
    for index in range(count):
        target = low * (high / low) ** (index / max(count - 1, 1))
        at = bisect.bisect_left(ordered, (target, -1))
        near = ordered[max(at - 2, 0):at + 2]
        roots.append(rng.choice(near)[1])
    return roots


class Table1Mix:
    """Table-1 A-H at the workload scale plus a bound recursive closure
    over a seeded random tree; built anew on every set-up."""

    def __init__(self, seed, scale):
        rng = random.Random(seed)
        self.connections = {}
        self.sql = {}
        for key in TABLE1_KEYS:
            database, views, query = EXPERIMENTS[key].build(scale)
            connection = Connection(database, executor="batch")
            if views:
                connection.run_script(views)
            self.connections[key] = connection
            self.sql[key] = query
        self.edges = random_tree(rng, max(int(TREE_EDGES * scale), 50))
        tree = Database()
        tree.create_table(
            "edge", ["src", "dst"], rows=self.edges, unique_keys=[("dst",)]
        )
        low, high = (max(int(n * scale), 2) for n in CLOSURE_ROWS)
        self.roots = pick_roots(rng, self.edges, low, high, CLOSURE_ROOTS)
        closure = Connection(tree, executor="batch")
        for root in self.roots:
            label = "closure:%d" % root
            self.connections[label] = closure
            self.sql[label] = CLOSURE_SQL % root
        self.write_departments = len(
            self.connections[WRITE_EXPERIMENT].database.table("department").rows
        )

    def statements(self):
        """(label, connection, sql) for every distinct read statement."""
        return [
            (label, self.connections[label], self.sql[label])
            for label in self.sql
        ]

    def oracle(self):
        """Reference rows per statement: the tuple engine under
        ``original`` for Table 1, a BFS over the edges for the closure."""
        reference = {}
        for key in TABLE1_KEYS:
            plain = Connection(self.connections[key].database)
            result, _ = plain.prepare_statement(
                self.sql[key], strategy="original"
            ).execute()
            reference[key] = canonical(result.rows)
        closure = descendants(self.edges)
        for root in self.roots:
            reference["closure:%d" % root] = canonical(
                (node,) for node in closure(root)
            )
        return reference

    def ops(self, rng):
        """The seeded closed-loop request stream: rounds of A-H plus one
        closure in a shuffled order, closure roots in a shuffled cycle,
        and an UPDATE before a read with probability ``WRITE_SHARE``."""
        roots = list(self.roots)
        rng.shuffle(roots)
        next_root = itertools.cycle(roots)
        kinds = list(TABLE1_KEYS) + ["closure"]
        while True:
            rng.shuffle(kinds)
            for kind in kinds:
                if rng.random() < WRITE_SHARE:
                    deptno = "D%04d" % rng.randrange(self.write_departments)
                    yield Op("write", "update", BUDGET_UPDATE_SQL % deptno)
                label = kind
                if kind == "closure":
                    label = "closure:%d" % next(next_root)
                yield Op("read", label, None)

    def budget_sum(self):
        connection = self.connections[WRITE_EXPERIMENT]
        return connection.execute(BUDGET_SUM_SQL).rows[0][0]

    def write(self, sql):
        self.connections[WRITE_EXPERIMENT].run_script(sql)


class _InProcess:
    """Shared base of adhoc and prepared: one client, in-process."""

    clients = 1

    def __init__(self, seed, scale):
        self.seed = seed
        self.scale = scale
        self.mix = None
        self.reference = None
        self.writes_acked = 0
        self.budget_start = None

    def setup(self):
        self.mix = Table1Mix(self.seed, self.scale)

    def teardown(self):
        self.mix = None

    def prepare_oracle(self):
        self.reference = self.mix.oracle()
        self.budget_start = self.mix.budget_sum()

    def statements(self):
        return self.mix.statements()

    def warm(self):
        for label, _, _ in self.statements():
            self.read(label)

    def client_ops(self, client):
        return self.mix.ops(random.Random("%s/%d" % (self.seed, client)))

    def open_client(self, client):
        return None

    def close_client(self, session):
        pass

    def run(self, op, session):
        """Run one operation; returns the server-side seconds (None
        in-process). Raises on a failed or wrong answer."""
        if op.kind == "write":
            self.mix.write(op.payload)
            self.writes_acked += 1
            return None
        rows = self.read(op.label)
        if canonical(rows) != self.reference[op.label]:
            raise Failure("wrong answer for %s" % op.label)
        return None

    def final_check(self):
        expected = self.budget_start + self.writes_acked
        actual = self.mix.budget_sum()
        if actual != expected:
            return ["SUM(budget) is %s, expected %s" % (actual, expected)]
        return []

    def server_counters(self):
        return {}

    def worker_peak_rss_mb(self):
        return 0.0


class Adhoc(_InProcess):
    def read(self, label):
        connection = self.mix.connections[label]
        return connection.execute(self.mix.sql[label], strategy="emst").rows


class Prepared(_InProcess):
    def setup(self):
        super().setup()
        self.prepared = {
            label: connection.prepare_statement(sql, strategy="emst")
            for label, connection, sql in self.mix.statements()
        }

    def teardown(self):
        super().teardown()
        self.prepared = None

    def read(self, label):
        result, _ = self.prepared[label].execute()
        return result.rows


# -- served ---------------------------------------------------------------


def pin_to_one_cpu():
    """Run this process, and so the workers it forks, on a single CPU.

    A ``served`` request hands off between the client thread, the event
    loop, an executor thread and a worker. On a shared host with two
    virtual CPUs, those wake-ups crossing CPUs made one seed's throughput
    range from 90 to 183 qps between runs; on one CPU it held within a
    few percent. With one client, a second CPU only overlaps the parent's
    bookkeeping with a worker's query. ``adhoc`` and ``prepared`` run one
    thread and are not pinned: pinned, they ran a few percent slower and
    no steadier.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])


def zipf_sampler(rng, count, exponent):
    """Ranks ``0..count-1`` Zipf-distributed, mapped onto a seeded
    permutation so the hot keys differ between seeds."""
    order = list(range(count))
    rng.shuffle(order)
    weights = list(
        itertools.accumulate(1.0 / (rank + 1) ** exponent for rank in range(count))
    )
    total = weights[-1]

    def sample(draw):
        return order[bisect.bisect(weights, draw.random() * total)]

    return sample


class Served:
    """One socket client against ``ServerHarness`` with two forked
    workers and a 256-entry result cache over ~2000 read keys."""

    clients = SERVED_CLIENTS

    def __init__(self, seed, scale):
        pin_to_one_cpu()
        self.seed = seed
        self.departments = max(int(SERVED_DEPARTMENTS * scale), 10)
        self.sample = zipf_sampler(
            random.Random("%s/keys" % seed), self.departments, ZIPF_EXPONENT
        )
        self.harness = None
        self.database = None
        self.reference = None
        self.writes_acked = 0
        self.budget_start = None
        self._lock = None

    def setup(self):
        # Start the resource tracker before the pool forks, so the workers
        # share it. A worker that attaches a shared-memory table with no
        # tracker inherited starts its own, which outlives the worker.
        resource_tracker.ensure_running()
        self.database = build_empdept_database(
            n_departments=self.departments,
            employees_per_department=SERVED_EMPLOYEES,
        )
        Connection(self.database).run_script(PAPER_VIEWS_SQL)
        config = ServerConfig(
            port=0,
            workers=SERVED_WORKERS,
            result_cache_capacity=RESULT_CACHE_CAPACITY,
            default_executor="batch",
        )
        self.harness = ServerHarness(self.database, config).__enter__()
        self._lock = threading.Lock()

    def teardown(self):
        if self.harness is not None:
            self.harness.__exit__(None, None, None)
        self.harness = None
        self.database = None

    def _names(self, deptno):
        return "Planning" if deptno == 0 else "Dept%04d" % deptno

    def prepare_oracle(self):
        """Answers for every key, computed from the stored rows, then
        checked against the in-process Connection on a seeded sample."""
        departments = self.database.table("department").rows
        employees = self.database.table("employee").rows
        managers = {row[2] for row in departments}
        salaries = sorted(row[3] for row in employees)
        manager_pay = collections.defaultdict(list)
        rank = collections.Counter()
        for empno, _, workdept, salary, _ in employees:
            if empno in managers:
                manager_pay[workdept].append(salary)
            rank[workdept] += len(salaries) - bisect.bisect_right(salaries, salary)
        reference = {}
        for deptno, deptname, *_ in departments:
            pay = manager_pay.get(deptno)
            reference[("avg", deptname)] = canonical(
                [(deptname, sum(pay) / len(pay))] if pay else []
            )
            reference[("rank", deptno)] = canonical([(rank[deptno],)])
        self.reference = reference
        connection = Connection(self.database)
        sample = random.Random("%s/oracle" % self.seed)
        for _ in range(ORACLE_SAMPLE):
            deptno = sample.randrange(self.departments)
            for statement, key in (
                (AVG_SQL, self._names(deptno)),
                (RANK_SQL, "D%04d" % deptno),
            ):
                sql = statement.replace("?", "'%s'" % key)
                kind = "avg" if statement is AVG_SQL else "rank"
                if canonical(connection.execute(sql).rows) != reference[(kind, key)]:
                    raise Failure("served oracle disagrees with Connection on %s" % sql)
        with self.harness.client() as client:
            self.budget_start = self._budget(client)

    def statements(self):
        connection = Connection(self.database, executor="batch")
        return [
            ("avg", connection, AVG_SQL.replace("?", "'Planning'")),
            ("rank", connection, RANK_SQL.replace("?", "'D0000'")),
        ]

    def warm(self):
        """Let every worker plan both statements and fill the cache."""
        session = self.open_client(0)
        try:
            draw = random.Random("%s/warm" % self.seed)
            for _ in range(100):
                deptno = self.sample(draw)
                session.query(AVG_SQL, params=[self._names(deptno)])
                session.query(RANK_SQL, params=["D%04d" % deptno])
        finally:
            self.close_client(session)

    def client_ops(self, client):
        rng = random.Random("%s/%d" % (self.seed, client))
        while True:
            if rng.random() < WRITE_SHARE:
                deptno = "D%04d" % rng.randrange(self.departments)
                yield Op("write", "update", BUDGET_UPDATE_SQL % deptno)
                continue
            deptno = self.sample(rng)
            if rng.random() < 0.5:
                yield Op("read", "avg", self._names(deptno))
            else:
                yield Op("read", "rank", "D%04d" % deptno)

    def open_client(self, client):
        # No client-side retry: a shed or failed request must count.
        return self.harness.client(retry=RetryPolicy(max_attempts=1))

    def close_client(self, session):
        session.close()

    def run(self, op, session):
        if op.kind == "write":
            session.script(op.payload)
            with self._lock:
                self.writes_acked += 1
            return None
        sql = AVG_SQL if op.label == "avg" else RANK_SQL
        response = session.query(sql, params=[op.payload])
        if canonical(response["rows"]) != self.reference[(op.label, op.payload)]:
            raise Failure("wrong answer for %s(%s)" % (op.label, op.payload))
        return response.get("elapsed_seconds")

    def _budget(self, client):
        return client.query(BUDGET_SUM_SQL, fresh=True)["rows"][0][0]

    def final_check(self):
        with self.harness.client() as client:
            actual = self._budget(client)
        expected = self.budget_start + self.writes_acked
        if actual != expected:
            return ["SUM(budget) is %s, expected %s" % (actual, expected)]
        return []

    def server_counters(self):
        server = self.harness.server
        stats = server.handle_stats()
        pool = stats.get("workers") or {}
        store = pool.get("store") or {}
        counters = stats["counters"]
        return {
            "evictions": stats["result_cache"]["evictions"],
            "dispatches": pool.get("dispatches", 0),
            "publishes": store.get("publishes", 0),
            "published_tables": store.get("published_tables", 0),
            "fallbacks": counters["fallbacks"]
            + counters["executor_fallbacks"]
            + pool.get("degraded_dispatches", 0),
        }

    def worker_peak_rss_mb(self):
        """Sum of the workers' peak resident sets (``VmHWM``)."""
        total = 0.0
        for pid in self.harness.server.pool.pids():
            try:
                with open("/proc/%d/status" % pid, encoding="ascii") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1]) / 1024.0
            except OSError:
                continue
        return total


WORKLOADS = {"adhoc": Adhoc, "prepared": Prepared, "served": Served}
