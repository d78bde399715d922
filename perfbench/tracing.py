"""Span tracing from outside the program.

The tracer swaps public entry points of the ``repro`` layers for thin
wrappers while it is installed, and swaps the originals back when it is
removed; nothing inside ``src/`` records spans. Each wrapped call becomes
one span ``(id, parent, request, name, start, end, info)`` kept in memory.
The parent is the innermost traced call on the same thread, and the
request is the id the benchmark set on that thread for the operation in
flight (a server thread without one uses its outermost span's id).

Hot helpers that are too small for a span (``QueryGraph.boxes``) are
counted per request instead.
"""

from __future__ import annotations

import collections
import itertools
import json
import os
import sys
import threading
import time

#: Span tuple fields.
SID, PARENT, REQ, NAME, START, END, INFO = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()  # (request, name) -> calls
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._patches = []  # (owner, attribute, original, owned)

    # -- request context --------------------------------------------------------

    def set_request(self, request):
        """Tag every span and count on this thread with ``request``."""
        self._local.request = request

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        sid = next(self._ids)
        if stack:
            parent, request = stack[-1]
        else:
            parent = 0
            request = getattr(self._local, "request", None) or -sid
        stack.append((sid, request))
        return stack, sid, parent, request

    def call(self, name, fn, args, kwargs, info=None):
        stack, sid, parent, request = self._open()
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((
                sid, parent, request, name, start, end,
                info(args, result) if info is not None else None,
            ))

    def count(self, name):
        stack = self._stack()
        request = (
            stack[-1][1] if stack else getattr(self._local, "request", None)
        )
        with self._count_lock:
            self.counts[(request, name)] += 1

    def reset(self):
        self.spans = []
        self.counts = collections.Counter()

    # -- installing wrappers ----------------------------------------------------

    def _swap(self, owner, attribute, replacement):
        owned = attribute in vars(owner)
        original = getattr(owner, attribute)
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original, owned))
        return original

    def wrap_method(self, cls, attribute, name, info=None):
        """Trace ``cls.attribute``; ``name`` may be a callable of the
        call's arguments (for names that carry an argument)."""
        original = getattr(cls, attribute)
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            return tracer.call(label, original, args, kwargs, info)

        wrapper.__wrapped__ = original
        self._swap(cls, attribute, wrapper)

    def wrap_function(self, module, attribute, name, info=None):
        """Trace a module-level function everywhere ``repro`` imported it
        by name (``from x import f`` binds the original in each module)."""
        original = getattr(module, attribute)
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, info)

        wrapper.__wrapped__ = original
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._swap(loaded, key, wrapper)

    def wrap_context_enter(self, cls, attribute, name):
        """Trace only the *entry* of a context-manager method: the time a
        caller waits in ``with obj.attribute():`` before its body runs."""
        original = getattr(cls, attribute)
        tracer = self

        class _TimedEnter:
            def __init__(self, manager):
                self._manager = manager

            def __enter__(self):
                return tracer.call(name, self._manager.__enter__, (), {})

            def __exit__(self, *exc_info):
                return self._manager.__exit__(*exc_info)

        def wrapper(*args, **kwargs):
            return _TimedEnter(original(*args, **kwargs))

        self._swap(cls, attribute, wrapper)

    def count_method(self, cls, attribute, name):
        original = getattr(cls, attribute)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.count(name)
            return original(*args, **kwargs)

        self._swap(cls, attribute, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attribute, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # -- analysis ---------------------------------------------------------------

    def self_times(self):
        """``span id -> self seconds``: duration minus the time covered by
        its child spans (children of one parent never overlap, since a
        span's children run on its thread inside it)."""
        covered = collections.Counter()
        for span in self.spans:
            if span[PARENT]:
                covered[span[PARENT]] += span[END] - span[START]
        return {
            span[SID]: span[END] - span[START] - covered[span[SID]]
            for span in self.spans
        }

    def by_request(self):
        grouped = collections.defaultdict(list)
        for span in self.spans:
            grouped[span[REQ]].append(span)
        return grouped

    def write(self, path, extra):
        """Write every span (and ``extra``) as one JSON document."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = dict(extra)
        payload["span_fields"] = [
            "id", "parent", "request", "name", "start", "end", "info"
        ]
        payload["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, default=repr)


def _fired(args, result):
    return bool(result)


def _evaluator_stats(args, result):
    return args[0].stats.as_dict()


def _lookup_hit(args, result):
    return result is not None


def install(tracer):
    """Wrap the layer entry points the per-layer metrics are built from."""
    import repro.analysis.dataflow.keyflow as keyflow
    import repro.optimizer.heuristic as heuristic
    import repro.optimizer.plan as plan
    import repro.qgm.builder as builder
    import repro.sql.parser as parser
    from repro.api import Connection, PreparedQuery
    from repro.engine.evaluator import Evaluator
    from repro.engine.storage import Database
    from repro.qgm.model import QueryGraph
    from repro.rewrite.engine import RewriteEngine, default_rules
    from repro.server.core import QueryServer, ReadWriteLock
    from repro.server.result_cache import ResultCache
    from repro.server.workers import WorkerPool

    tracer.wrap_function(parser, "parse_script", "sql.parse")
    tracer.wrap_function(builder, "build_query_graph", "qgm.build")
    tracer.count_method(QueryGraph, "boxes", "qgm.boxes")
    tracer.wrap_method(
        RewriteEngine, "run_phase",
        lambda args, kwargs: "rewrite.phase%d" % (
            args[2] if len(args) > 2 else kwargs["phase"]
        ),
    )
    for rule in default_rules(include_emst=True):
        tracer.wrap_method(
            type(rule), "apply", "rewrite.apply:" + rule.name, _fired
        )
    tracer.wrap_function(keyflow, "solve_keys", "analysis.solve_keys")
    tracer.wrap_function(plan, "optimize_graph", "optimizer.plan")
    tracer.wrap_function(
        heuristic, "optimize_with_heuristic", "optimizer.heuristic"
    )
    tracer.wrap_method(
        Connection, "prepare",
        lambda args, kwargs: "api.prepare:" + (
            args[2] if len(args) > 2 else kwargs.get("strategy", "emst")
        ),
    )
    tracer.wrap_method(Connection, "run_script", "api.script")
    tracer.wrap_method(PreparedQuery, "execute", "api.prepared_execute")
    tracer.wrap_method(Evaluator, "run", "engine.run", _evaluator_stats)
    tracer.wrap_method(Database, "analyze", "catalog.analyze")
    tracer.wrap_method(QueryServer, "handle_execute", "server.handle_execute")
    tracer.wrap_context_enter(ReadWriteLock, "read", "server.read_lock_wait")
    tracer.wrap_method(
        ResultCache, "lookup", "server.result_cache_lookup", _lookup_hit
    )
    tracer.wrap_method(WorkerPool, "dispatch", "server.dispatch")
    tracer.wrap_method(WorkerPool, "publish", "server.publish")
