"""Per-layer metrics from a traced window, and the Figure-2 checks.

Timings are medians per call of the named span unless noted; counts are
medians per prepare (``rewrite.trials`` etc.) or, for server counters
that are mostly 0 or 1 per request, means per operation. A layer a
workload never calls reports 0.
"""

from __future__ import annotations

import collections
import statistics

from tracing import END, INFO, NAME, SID, START

QUERIES = ["A", "B", "C", "D", "E", "F", "G", "H", "closure"]

PER_LAYER = {
    "sql.parse_ms": "ms",
    "qgm.build_ms": "ms",
    "qgm.boxes_walks": "count",
    "rewrite.phase1_ms": "ms",
    "rewrite.phase2_ms": "ms",
    "rewrite.phase3_ms": "ms",
    "rewrite.trials": "count",
    "rewrite.firings": "count",
    "rewrite.firing_ratio": "ratio",
    "magic.emst_ms": "ms",
    "magic.emst_firings": "count",
    "analysis.keyflow_solves": "count",
    "analysis.keyflow_ms": "ms",
    "optimizer.plan_ms": "ms",
    "optimizer.plan_calls": "count",
    "optimizer.heuristic_self_ms": "ms",
    "api.prepare_ms": "ms",
    **{"api.prepare_ms.%s" % q: "ms" for q in QUERIES},
    "api.prepare_share": "ratio",
    "api.update_ms": "ms",
    "catalog.stats_ms": "ms",
    "engine.execute_ms": "ms",
    **{"engine.execute_ms.%s" % q: "ms" for q in QUERIES},
    "engine.rows_produced": "count",
    "engine.join_probes": "count",
    "engine.batches": "count",
    "engine.rows_per_batch": "count",
    "engine.batch_probes": "count",
    "engine.probe_fanout": "ratio",
    "server.transport_ms": "ms",
    "server.read_lock_wait_ms": "ms",
    "server.result_cache_hit_rate": "ratio",
    "server.result_cache_evictions": "count/op",
    "server.dispatch_ms": "ms",
    "server.dispatches": "count/op",
    "server.publish_ms": "ms",
    "server.published_tables": "count",
    "server.shed": "count/op",
    "server.fallbacks": "count/op",
    "trace.overhead_frac": "ratio",
}


def median(values):
    return statistics.median(values) if values else 0.0


def duration(span):
    return span[END] - span[START]


def query_of(label):
    """``closure:<root>`` -> ``closure``; Table-1 labels are themselves."""
    return label.split(":")[0]


class Prepare:
    """What one traced request spent inside ``Connection.prepare``."""

    def __init__(self, spans, boxes_walks):
        names = collections.Counter()
        self.seconds = collections.Counter()
        self.trials = self.firings = self.emst_firings = 0
        self.strategy = None
        for span in spans:
            name = span[NAME]
            names[name] += 1
            self.seconds[name] += duration(span)
            if name.startswith("api.prepare:"):
                self.strategy = name.split(":", 1)[1]
            if name.startswith("rewrite.apply:"):
                self.trials += 1
                self.firings += bool(span[INFO])
                if name == "rewrite.apply:emst":
                    self.emst_firings += bool(span[INFO])
        self.plan_calls = names["optimizer.plan"]
        self.keyflow_solves = names["analysis.solve_keys"]
        self.boxes_walks = boxes_walks


def prepares(tracer, requests=None):
    """``request -> Prepare`` for every traced request that prepared."""
    found = {}
    for request, spans in tracer.by_request().items():
        if requests is not None and request not in requests:
            continue
        if any(span[NAME].startswith("api.prepare:") for span in spans):
            found[request] = Prepare(
                spans, tracer.counts[(request, "qgm.boxes")]
            )
    return found


def figure2_problems(prepared, labels):
    """Every EMST prepare runs the plan optimizer exactly twice (the
    paper's Figure 2), and a statement fires the same rules every time."""
    problems = []
    firings = collections.defaultdict(set)
    passes = collections.defaultdict(set)
    for request, prepare in prepared.items():
        label = labels[request]
        firings[label].add(prepare.firings)
        if prepare.strategy == "emst":
            passes[label].add(prepare.plan_calls)
    for label, seen in sorted(passes.items()):
        if seen != {2}:
            problems.append(
                "%s: EMST prepares ran %s plan passes, not 2"
                % (label, sorted(seen))
            )
    for label, seen in sorted(firings.items()):
        if len(seen) != 1:
            problems.append(
                "%s: rewrite firings differ between prepares: %s"
                % (label, sorted(seen))
            )
    return problems, {label: min(seen) for label, seen in firings.items()}


def probe_prepares(tracer, statements, repeats=2):
    """Prepare each statement ``repeats`` times under the tracer outside
    any measured window, so the Figure-2 checks cover every workload."""
    labels = {}
    for label, connection, sql in statements:
        for _ in range(repeats):
            request = ("probe", len(labels))
            labels[request] = label
            tracer.set_request(request)
            connection.prepare_statement(sql, strategy="emst")
    tracer.set_request(None)
    problems, firings = figure2_problems(prepares(tracer), labels)
    return {"problems": problems, "firings": firings}


def layer_metrics(tracer, window, plain, before, after, probe):
    """The per-layer metrics of ``window`` (traced) against ``plain``
    (the untraced half); returns ``(metrics, problems)``."""
    spans_by_name = collections.defaultdict(list)
    for span in tracer.spans:
        spans_by_name[span[NAME]].append(span)

    def per_call_ms(name):
        return median([duration(s) for s in spans_by_name[name]]) * 1e3

    labels = {s.request: s.label for s in window.samples}
    reads = [s for s in window.samples if s.kind == "read"]
    operations = max(len(window.samples), 1)
    prepared = prepares(tracer, set(labels))
    problems, firings = figure2_problems(prepared, labels)
    for label, count in sorted(firings.items()):
        expected = probe["firings"].get(label)
        if expected is not None and expected != count:
            problems.append(
                "%s: %d rewrite firings while measured, %d in the probe"
                % (label, count, expected)
            )

    by_request = tracer.by_request()
    self_seconds = tracer.self_times()
    items = list(prepared.values())
    metrics = {
        "sql.parse_ms": per_call_ms("sql.parse"),
        "qgm.build_ms": per_call_ms("qgm.build"),
        "qgm.boxes_walks": median([p.boxes_walks for p in items]),
        "rewrite.trials": median([p.trials for p in items]),
        "rewrite.firings": median([p.firings for p in items]),
        "rewrite.firing_ratio": median(
            [p.firings / p.trials for p in items if p.trials]
        ),
        "magic.emst_ms": median(
            [p.seconds["rewrite.apply:emst"] for p in items]
        ) * 1e3,
        "magic.emst_firings": median([p.emst_firings for p in items]),
        "analysis.keyflow_solves": median([p.keyflow_solves for p in items]),
        "analysis.keyflow_ms": median(
            [p.seconds["analysis.solve_keys"] for p in items]
        ) * 1e3,
        "optimizer.plan_ms": per_call_ms("optimizer.plan"),
        "optimizer.plan_calls": median([p.plan_calls for p in items]),
        "optimizer.heuristic_self_ms": median([
            self_seconds[s[SID]] for s in spans_by_name["optimizer.heuristic"]
        ]) * 1e3,
        "api.update_ms": per_call_ms("api.script"),
        "catalog.stats_ms": per_call_ms("catalog.analyze"),
        "engine.execute_ms": per_call_ms("engine.run"),
        "server.read_lock_wait_ms": per_call_ms("server.read_lock_wait"),
        "server.dispatch_ms": per_call_ms("server.dispatch"),
        "server.publish_ms": per_call_ms("server.publish"),
    }
    for phase in (1, 2, 3):
        metrics["rewrite.phase%d_ms" % phase] = per_call_ms(
            "rewrite.phase%d" % phase
        )

    prepare_seconds = collections.defaultdict(list)
    execute_seconds = collections.defaultdict(list)
    for request, spans in by_request.items():
        label = labels.get(request)
        if label is None:
            continue
        query = query_of(label)
        for span in spans:
            if span[NAME].startswith("api.prepare:"):
                prepare_seconds[query].append(duration(span))
            elif span[NAME] == "engine.run":
                execute_seconds[query].append(duration(span))
    all_prepares = [d for ds in prepare_seconds.values() for d in ds]
    all_executes = [d for ds in execute_seconds.values() for d in ds]
    metrics["api.prepare_ms"] = median(all_prepares) * 1e3
    for query in QUERIES:
        metrics["api.prepare_ms.%s" % query] = (
            median(prepare_seconds[query]) * 1e3
        )
        metrics["engine.execute_ms.%s" % query] = (
            median(execute_seconds[query]) * 1e3
        )
    busy = sum(all_prepares) + sum(all_executes)
    metrics["api.prepare_share"] = sum(all_prepares) / busy if busy else 0.0

    stats = [s[INFO] for s in spans_by_name["engine.run"]]
    for field in ("rows_produced", "join_probes", "batches",
                  "rows_per_batch", "batch_probes", "probe_fanout"):
        metrics["engine.%s" % field] = median(
            [info.get(field, 0) for info in stats]
        )

    transport = [
        s.seconds - s.server_seconds
        for s in reads if s.ok and s.server_seconds is not None
    ]
    metrics["server.transport_ms"] = median(transport) * 1e3
    lookups = [s[INFO] for s in spans_by_name["server.result_cache_lookup"]]
    metrics["server.result_cache_hit_rate"] = (
        sum(lookups) / len(lookups) if lookups else 0.0
    )

    def delta(name):
        return after.get(name, 0) - before.get(name, 0)

    metrics["server.result_cache_evictions"] = delta("evictions") / operations
    metrics["server.dispatches"] = delta("dispatches") / operations
    publishes = delta("publishes")
    metrics["server.published_tables"] = (
        delta("published_tables") / publishes if publishes else 0.0
    )
    metrics["server.shed"] = sum(
        1 for s in window.samples
        if s.error and s.error.startswith("ServerError: ServerOverloadedError")
    ) / operations
    metrics["server.fallbacks"] = delta("fallbacks") / operations

    untraced = median([s.seconds for s in plain.samples if s.kind == "read"])
    traced_p50 = median([s.seconds for s in reads])
    metrics["trace.overhead_frac"] = (
        traced_p50 / untraced - 1.0 if untraced else 0.0
    )
    return {name: metrics[name] for name in PER_LAYER}, problems
