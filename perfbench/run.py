"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``. ``--trace 0`` prints the end-to-end metrics, measured with no
tracing installed. ``--trace 1`` splits the run into an untraced half and
a traced half and prints the per-layer metrics, built from spans the
benchmark records around calls into each layer (see ``tracing.py``); it
also writes every span to ``.perfbench_out/trace-<workload>.json``.

Every answer is checked against a reference computed once per distinct
input during set-up; a wrong answer counts as a failed operation and
makes ``correct`` false. Everything but the last line goes to stderr.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import multiprocessing
import os
import resource
import statistics
import sys
import threading
import time
import traceback
from multiprocessing import resource_tracker

import layers
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 5

END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "write_mean_ms": "ms",
    "write_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def log(message):
    print("perfbench: %s" % message, file=sys.stderr, flush=True)


def mean(values):
    """Arithmetic mean; 0.0 for no samples.

    Write latency is reported as a mean, not a median. On a shared host,
    the UPDATE path ran 1.7 times slower in phases lasting a second or
    two (its CPU time slowed with it, so the phases are not stolen time),
    and a run spent from about a third to about two thirds of its writes
    in them. The median jumps between the two modes as that share crosses
    one half; the mean moves with the share.
    """
    return sum(values) / len(values) if values else 0.0


def percentile(values, fraction):
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(fraction * len(ordered)) - 1, 0)]


class Sample:
    __slots__ = ("kind", "label", "seconds", "ok", "server_seconds",
                 "request", "error")

    def __init__(self, kind, label, request):
        self.kind = kind
        self.label = label
        self.request = request
        self.seconds = 0.0
        self.ok = False
        self.server_seconds = None
        self.error = None


class Window:
    """One closed-loop measurement: every client sends its next request
    only after the previous one completed, until the time is up."""

    def __init__(self, workload, streams, seconds, tracer=None):
        self.samples = []
        self._workload = workload
        self._streams = streams
        self._tracer = tracer
        self._deadline = None
        self._requests = itertools.count(1)
        self._lock = threading.Lock()
        self._seconds = seconds
        self.wall = 0.0

    def _client(self, client):
        workload = self._workload
        session = workload.open_client(client)
        samples = []
        try:
            for op in self._streams[client]:
                if time.perf_counter() >= self._deadline:
                    break
                with self._lock:
                    request = next(self._requests)
                sample = Sample(op.kind, op.label, request)
                if self._tracer is not None:
                    self._tracer.set_request(request)
                started = time.perf_counter()
                try:
                    sample.server_seconds = workload.run(op, session)
                    sample.ok = True
                except Exception as exc:  # every failure is counted
                    sample.error = "%s: %s" % (type(exc).__name__, exc)
                sample.seconds = time.perf_counter() - started
                samples.append(sample)
        finally:
            workload.close_client(session)
            with self._lock:
                self.samples.extend(samples)

    def run(self):
        threads = [
            threading.Thread(target=self._client, args=(client,))
            for client in range(len(self._streams))
        ]
        started = time.perf_counter()
        self._deadline = started + self._seconds
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.wall = time.perf_counter() - started
        return self

    def reads(self):
        """Read latencies; a failed read counts as infinitely slow."""
        return [
            s.seconds if s.ok else math.inf
            for s in self.samples if s.kind == "read"
        ]

    def writes(self):
        return [
            s.seconds if s.ok else math.inf
            for s in self.samples if s.kind == "write"
        ]


def peak_rss_mb(workload):
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + workload.worker_peak_rss_mb()


def setup_once(workload):
    gc.collect()
    started = time.perf_counter()
    workload.setup()
    return time.perf_counter() - started


def report_failures(window):
    errors = [s for s in window.samples if not s.ok]
    for sample in errors[:5]:
        log("failed %s %s: %s" % (sample.kind, sample.label, sample.error))
    if len(errors) > 5:
        log("... %d failed operations in all" % len(errors))


def end_to_end(workload, args):
    setups = []
    for index in range(SETUPS):
        if index:
            workload.teardown()
        setups.append(setup_once(workload))
    try:
        workload.prepare_oracle()
        workload.warm()
        window = Window(
            workload, streams(workload), args.seconds
        ).run()
        problems = workload.final_check()
        rss = peak_rss_mb(workload)
    finally:
        workload.teardown()
    reads, writes = window.reads(), window.writes()
    if len(reads) < 1000:
        log("only %d reads: fewer than 10 lie beyond p99" % len(reads))
    good = sum(1 for s in window.samples if s.ok)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_qps": good / window.wall,
        "latency_p50_ms": percentile(reads, 0.50) * 1e3,
        "latency_p99_ms": percentile(reads, 0.99) * 1e3,
        "write_mean_ms": mean(writes) * 1e3,
        "write_p90_ms": percentile(writes, 0.90) * 1e3,
        "peak_rss_mb": rss,
    }
    log("%d reads, %d writes in %.2fs; set-ups %s" % (
        len(reads), len(writes), window.wall,
        ", ".join("%.3f" % s for s in setups),
    ))
    report_failures(window)
    return [window], problems, {
        name: {"value": value, "unit": END_TO_END[name]}
        for name, value in metrics.items()
    }


def stop_processes(workload):
    """Stop every process the run started and wait until each has ended.

    ``teardown`` shuts the server and its forked workers down; any child
    still alive after that is killed. Shared-memory tables also start
    the multiprocessing resource tracker, which would otherwise outlive
    this process by a few seconds: closing its pipe stops it, and
    ``_stop`` waits for it (there is no public call that does both).
    """
    try:
        workload.teardown()
    except Exception:
        traceback.print_exc()
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()


def streams(workload):
    return [workload.client_ops(client) for client in range(workload.clients)]


def traced(workload, args):
    setup_once(workload)
    try:
        workload.prepare_oracle()
        workload.warm()
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            probe = layers.probe_prepares(tracer, workload.statements())
        finally:
            tracer.uninstall()
        tracer.reset()
        ops = streams(workload)
        plain = Window(workload, ops, args.seconds / 2.0).run()
        before = workload.server_counters()
        tracing.install(tracer)
        try:
            window = Window(workload, ops, args.seconds / 2.0, tracer).run()
        finally:
            tracer.uninstall()
        after = workload.server_counters()
        problems = workload.final_check()
    finally:
        workload.teardown()
    metrics, checks = layers.layer_metrics(
        tracer, window, plain, before, after, probe
    )
    problems = probe["problems"] + checks + problems
    tracer.write(
        os.path.join(ROOT, ".perfbench_out", "trace-%s.json" % args.workload),
        {
            "workload": args.workload,
            "seed": args.seed,
            "firings": probe["firings"],
            "metrics": metrics,
        },
    )
    for each in (plain, window):
        report_failures(each)
    return [plain, window], problems, {
        name: {"value": value, "unit": layers.PER_LAYER[name]}
        for name, value in metrics.items()
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="data scale (the self-test shrinks it; metrics use 1)",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        log("no src/repro next to %s: run from a source checkout" % HERE)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log("unknown workload %r (one of %s)" % (
            args.workload, ", ".join(sorted(WORKLOADS))))
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    measure = traced if args.trace else end_to_end
    try:
        windows, problems, metrics = measure(workload, args)
    except Exception:
        traceback.print_exc()
        log("the %s workload did not complete" % args.workload)
        return 1
    finally:
        stop_processes(workload)
    for problem in problems:
        log("check failed: %s" % problem)
    attempted = sum(len(w.samples) for w in windows)
    failed = sum(1 for w in windows for s in w.samples if not s.ok)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
