"""Self-test of the benchmark: every workload briefly, at a tiny scale.

    python3 perfbench/selftest.py

Run from the root of a source checkout. For each workload it runs
``run.py`` untraced once and traced twice with the same seed, and checks
that the result line has the expected shape, that its metric names and
units match ``BENCHMARK.json``, that no operation failed, that the
rewrite firings per statement repeat exactly between the two traced
runs, and that every run stopped all the processes it started. It also
checks that ``run.py`` refuses to run, printing no result, in a
directory that holds only the benchmark. Exits 1 on any failure.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SCALE = "0.05"
SECONDS = "3"
SEED = "7"


def run(root, workload, trace):
    """Run ``run.py`` in a session of its own. ``completed.left`` lists
    the processes of that session still there after it exited: a forked
    worker or a resource tracker the benchmark did not stop."""
    with subprocess.Popen(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", SEED, "--seconds", SECONDS,
         "--trace", str(trace), "--scale", SCALE],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    ) as process:
        try:
            stdout, stderr = process.communicate(timeout=300)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            raise
    completed = subprocess.CompletedProcess(
        process.args, process.returncode, stdout, stderr
    )
    completed.left = session_processes(process.pid)
    if completed.left:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)
    return completed


def session_processes(session):
    """``pid state command`` of every process in session ``session``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                stat = handle.read()
        except OSError:
            continue
        command, rest = stat[stat.index("(") + 1:].rsplit(")", 1)
        fields = rest.split()
        if int(fields[3]) == session:  # state ppid pgrp session ...
            found.append("%s %s %s" % (entry, fields[0], command))
    return found


def result_of(completed, expected, problems, what):
    if completed.left:
        problems.append("%s left processes running: %s" % (
            what, "; ".join(completed.left)))
    if completed.returncode != 0:
        problems.append("%s exited %d:\n%s" % (
            what, completed.returncode, completed.stderr[-2000:]))
        return None
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("%s: result keys %s" % (what, sorted(result)))
        return None
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append("%s: correct=%s attempted=%s failed=%s\n%s" % (
            what, result["correct"], result["attempted"], result["failed"],
            completed.stderr[-2000:]))
    metrics = result["metrics"]
    if sorted(metrics) != sorted(expected):
        problems.append("%s: metrics differ from BENCHMARK.json: "
                        "missing %s, extra %s" % (
                            what, sorted(set(expected) - set(metrics)),
                            sorted(set(metrics) - set(expected))))
    for name, entry in metrics.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: %s is %r" % (what, name, value))
        if name in expected and entry.get("unit") != expected[name]:
            problems.append("%s: %s unit %r, BENCHMARK.json says %r" % (
                what, name, entry.get("unit"), expected[name]))
    return result


def firings(workload):
    with open(os.path.join(OUT, "trace-%s.json" % workload)) as handle:
        return json.load(handle)["firings"]


def refuses_without_program(problems):
    """A directory holding only BENCHMARK.json and perfbench/ must make
    run.py exit non-zero without printing a result line."""
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run(bare, "adhoc", 0)
    if completed.returncode == 0 or completed.stdout.strip():
        problems.append("run.py ran without the program: exit %d, stdout %r"
                        % (completed.returncode, completed.stdout[-200:]))
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        result_of(run(ROOT, workload, 0), end_to_end, problems,
                  "%s --trace 0" % workload)
        seen = []
        for attempt in (1, 2):
            result = result_of(run(ROOT, workload, 1), per_layer, problems,
                               "%s --trace 1 (#%d)" % (workload, attempt))
            if result is not None:
                seen.append(firings(workload))
        if len(seen) == 2 and seen[0] != seen[1]:
            problems.append("%s: rewrite firings differ between runs: %s / %s"
                            % (workload, seen[0], seen[1]))
        print("selftest: %s done" % workload, flush=True)
    refuses_without_program(problems)
    for problem in problems:
        print("selftest: FAIL %s" % problem)
    print("selftest: %s" % ("ok" if not problems else
                            "%d problem(s)" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
