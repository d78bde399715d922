"""Worker-side attach of shared-memory table segments.

A worker shares the parent's resource tracker, which keeps one
registration per segment name. Attaching must therefore neither
register nor unregister anything: the parent creates every segment and
is the only process that unlinks it.
"""

import copy
from multiprocessing import resource_tracker, shared_memory

import pytest

from repro import Connection, Database
from repro.server.workers import SharedTableStore, apply_sync, fork_available

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


def test_attach_leaves_the_resource_tracker_alone(monkeypatch):
    parent = Database()
    parent.create_table("t", ["k", "v"], rows=[(1, "a"), (2, "b")])
    snapshot = copy.deepcopy(parent)
    store = SharedTableStore(parent)
    try:
        Connection(parent).run_script("INSERT INTO t VALUES (3, 'c')")
        store.publish()
        registry = store.registry()
        calls = []
        monkeypatch.setattr(
            resource_tracker, "register", lambda *args: calls.append(("register", args))
        )
        monkeypatch.setattr(
            resource_tracker,
            "unregister",
            lambda *args: calls.append(("unregister", args)),
        )
        apply_sync(snapshot, registry, {"catalog_generation": store.generation})
        monkeypatch.undo()
        assert calls == []
        assert snapshot.table("t").rows == parent.table("t").rows
    finally:
        store.close()
    # The parent unlinked the segment it created.
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=registry["tables"]["t"]["segment"])


def test_republish_unlinks_the_replaced_segment():
    parent = Database()
    parent.create_table("t", ["k"], rows=[(1,)])
    store = SharedTableStore(parent)
    try:
        conn = Connection(parent)
        conn.run_script("INSERT INTO t VALUES (2)")
        store.publish()
        first = store.registry()["tables"]["t"]["segment"]
        conn.run_script("INSERT INTO t VALUES (3)")
        store.publish()
        assert store.registry()["tables"]["t"]["segment"] != first
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=first)
    finally:
        store.close()
