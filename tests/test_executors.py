"""Tests for the pluggable executor backends and the shared remote store.

Covers the ISSUE-9 checklist: the backend contract (the same graph run
through serial / local-pool / remote-fleet backends produces identical
outputs and **bitwise-identical** store payload bytes), depot-style
round-robin with host failover, work-stealing of straggler shards,
config-salt fencing of the fleet, the HTTP remote store (round-trip,
integrity, GC/eviction, concurrent writers), the LRU garbage collector,
the new ``verify`` / ``gc`` CLI subcommands, and regression tests for the
three closed bugs (corrupt-sidecar quarantine, jittered backoff cap,
disjoint verify buckets).

Executors are registered at import time so fork-started worker pools —
the local backend's and every daemon's — inherit them.
"""

import base64
import json
import os
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import urlparse

import pytest

from repro.pipeline import (RemoteStore, ResultStore, RetryPolicy, Task,
                            TaskGraph, open_store, register_executor,
                            run_graph)
from repro.pipeline import cli as pipeline_cli
from repro.pipeline.executors import (BACKEND_NAMES, LocalPoolBackend,
                                      RemoteBackend, SerialBackend,
                                      compute_salt_hash, make_backend)
from repro.pipeline.hashing import canonical_json, canonicalize, revive
from repro.pipeline.progress import FAILED, RAN
from repro.pipeline.resilience import (PERMANENT, TRANSIENT, classify_error,
                                       error_type_names)
from repro.ioutils import atomic_write_bytes
from repro.pipeline.store import StoreBackend
from repro.pipeline.store_http import (StoreServerThread,
                                       StoreUnavailableError)
from repro.serve import AttackServer, Client, ServerThread

# ---------------------------------------------------------------------- #
# Stub executors (inherited by fork workers and serve daemons)
# ---------------------------------------------------------------------- #


@register_executor("exec:value")
def _exec_value(context, params, deps):
    return {"value": params["value"]}


@register_executor("exec:sum")
def _exec_sum(context, params, deps):
    total = sum(d["value"] for d in deps.values()) + params.get("add", 0)
    return {"value": total}


@register_executor("exec:sleepy")
def _exec_sleepy(context, params, deps):
    time.sleep(params.get("sleep", 0.0))
    return {"value": params["value"]}


def _graph() -> TaskGraph:
    graph = TaskGraph(result="d")
    graph.add(Task("a", "exec:value", {"value": 1}))
    graph.add(Task("b", "exec:sum", {"add": 10}, deps=("a",)))
    graph.add(Task("c", "exec:sum", {"add": 100}, deps=("a",)))
    graph.add(Task("d", "exec:sum", {}, deps=("b", "c")))
    return graph


def _wide_graph(n=6, sleep=0.0) -> TaskGraph:
    graph = TaskGraph(result="sum")
    for i in range(n):
        graph.add(Task(f"cell{i}", "exec:sleepy",
                       {"value": i, "sleep": sleep}))
    graph.add(Task("sum", "exec:sum", {},
                   deps=tuple(f"cell{i}" for i in range(n))))
    return graph


def _payload_bytes(store: ResultStore):
    """Raw on-disk payload bytes per key — the bitwise-identity witness."""
    blobs = {}
    for key in store.keys():
        with open(store.payload_path(key), "rb") as handle:
            blobs[key] = handle.read()
    return blobs


def _policy(**overrides):
    defaults = dict(max_attempts=3, backoff_base=0.01, backoff_max=0.05)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


class _Daemon:
    """One repro.serve worker daemon on a background thread."""

    def __init__(self, tmp_path, name, config=None, jobs=1, **kwargs):
        self.server = AttackServer(
            config if config is not None else {}, jobs=jobs,
            store=str(tmp_path / f"daemon-store-{name}"), **kwargs)
        self.thread = ServerThread(self.server)
        host, port = self.thread.start()
        self.address = f"{host}:{port}"

    def stop(self, drain=True):
        self.thread.stop(drain=drain)


@pytest.fixture()
def daemons(tmp_path):
    started = []

    def start(name, **kwargs):
        daemon = _Daemon(tmp_path, name, **kwargs)
        started.append(daemon)
        return daemon

    yield start
    for daemon in started:
        daemon.stop()


# ---------------------------------------------------------------------- #
# Backend contract: one graph, three substrates, identical results
# ---------------------------------------------------------------------- #
class TestBackendContract:
    @pytest.mark.parametrize("backend", ("serial", "local"))
    def test_local_backends_run_the_graph(self, tmp_path, backend):
        store = ResultStore(str(tmp_path / f"store-{backend}"))
        result = run_graph(_graph(), {}, jobs=2, store=store,
                           backend=backend)
        assert result.succeeded
        assert result.result == {"value": 112}
        assert result.report.backend == backend
        ran = [r for r in result.report.records if r.status == RAN]
        assert ran and all(r.worker == backend for r in ran)

    def test_remote_backend_runs_the_graph(self, tmp_path, daemons):
        fleet = [daemons("a").address, daemons("b").address]
        store = ResultStore(str(tmp_path / "store-remote"))
        result = run_graph(_graph(), {}, jobs=2, store=store,
                           backend="remote", workers=fleet)
        assert result.succeeded
        assert result.result == {"value": 112}
        assert result.report.backend == "remote"
        # Every executed task is attributed to a fleet member, and the
        # host breakdown aggregates them for the run report.
        ran = [r for r in result.report.records if r.status == RAN]
        assert ran and all(r.worker in fleet for r in ran)
        assert sum(result.report.host_breakdown().values()) == len(ran)
        assert "hosts " in result.report.summary()
        assert result.report.backend_stats["dispatches"] >= len(ran)

    def test_all_backends_produce_bitwise_identical_payloads(
            self, tmp_path, daemons):
        blobs = {}
        for backend in ("serial", "local", "remote"):
            store = ResultStore(str(tmp_path / f"bits-{backend}"))
            workers = None
            if backend == "remote":
                workers = [daemons("bits-a").address,
                           daemons("bits-b").address]
            result = run_graph(_graph(), {}, jobs=2, store=store,
                               backend=backend, workers=workers)
            assert result.succeeded
            blobs[backend] = _payload_bytes(store)
        assert blobs["serial"]                       # non-empty witness
        assert blobs["serial"] == blobs["local"] == blobs["remote"]

    def test_serial_backend_is_a_first_class_peer(self, tmp_path):
        # Explicit --backend serial with jobs > 1 is honoured (dispatch
        # bound is meaningless in-process, but the run must work).
        result = run_graph(_graph(), {}, jobs=4, backend="serial")
        assert result.succeeded and result.report.backend == "serial"

    def test_remote_hits_skip_recompute(self, tmp_path, daemons):
        daemon = daemons("warm")
        store = ResultStore(str(tmp_path / "store"))
        first = run_graph(_graph(), {}, store=store, backend="remote",
                          workers=[daemon.address])
        assert first.succeeded
        # Same fleet, fresh scheduler-side store: the daemon's own store
        # serves every cell without recomputing.
        second = run_graph(_graph(), {},
                           store=ResultStore(str(tmp_path / "store2")),
                           backend="remote", workers=[daemon.address])
        assert second.succeeded
        assert second.report.backend_stats["remote_hits"] \
            == len([r for r in second.report.records if r.status == RAN])


class TestMakeBackend:
    def test_auto_resolution(self):
        assert make_backend(None, config={}, jobs=1).name == "serial"
        assert make_backend("auto", config={}, jobs=4).name == "local"
        assert make_backend("serial", config={}, jobs=4).name == "serial"

    def test_instance_passthrough(self):
        backend = SerialBackend({})
        assert make_backend(backend, config={}) is backend

    def test_remote_requires_workers(self):
        with pytest.raises(ValueError):
            make_backend("remote", config={}, jobs=2)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_backend("fleet", config={})
        assert set(BACKEND_NAMES) == {"auto", "serial", "local", "remote"}


# ---------------------------------------------------------------------- #
# Remote fleet behaviour: failover, stealing, salt fencing
# ---------------------------------------------------------------------- #
class TestRemoteFleet:
    def test_failover_around_a_dead_host(self, tmp_path, daemons):
        live = daemons("live")
        # Reserve a port, then close it: connections are refused fast.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead = f"127.0.0.1:{probe.getsockname()[1]}"
        probe.close()
        store = ResultStore(str(tmp_path / "store"))
        result = run_graph(_graph(), {}, jobs=2, store=store,
                           backend="remote", workers=[dead, live.address],
                           retry=_policy())
        assert result.succeeded
        assert set(result.report.host_breakdown()) == {live.address}
        assert result.report.backend_stats["host_failures"] >= 1

    def test_killing_a_worker_mid_run_still_completes(self, tmp_path,
                                                      daemons):
        doomed, survivor = daemons("doomed", jobs=2), daemons("ok", jobs=2)
        # Tight steal/cooldown windows keep the rescue path fast: any
        # dispatch orphaned by the dying daemon is re-run on the survivor
        # by the straggler watchdog rather than waiting out a long
        # request timeout.
        backend = RemoteBackend([doomed.address, survivor.address], {},
                                steal_after=1.0, request_timeout=30.0,
                                down_cooldown=0.2)
        killer = threading.Timer(0.25, lambda: doomed.stop(drain=False))
        killer.start()
        try:
            result = run_graph(
                _wide_graph(n=6, sleep=0.5), {}, jobs=4,
                store=ResultStore(str(tmp_path / "store")),
                backend=backend,
                retry=_policy(max_attempts=4))
        finally:
            killer.cancel()
        assert result.succeeded
        assert result.result == {"value": sum(range(6))}

    def test_unreachable_fleet_fails_transiently(self, tmp_path):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead = f"127.0.0.1:{probe.getsockname()[1]}"
        probe.close()
        backend = RemoteBackend([dead], {}, steal_after=None,
                                down_cooldown=0.01)
        backend.start()
        try:
            future = backend.submit(Task("t", "exec:value", {"value": 1}),
                                    1, {})
            _, ok, error, _, _, error_types = future.result(timeout=10)
        finally:
            backend.shutdown(wait=False)
        assert not ok
        # An unreachable fleet is a *transient* condition: the scheduler
        # backs off and redrives, by which time a host may be back.
        assert classify_error(error_types) == TRANSIENT
        assert "no worker daemon reachable" in error

    def test_straggler_is_stolen_by_a_second_host(self, tmp_path, daemons):
        live = daemons("thief")
        # A listener that accepts but never answers: the primary dispatch
        # hangs until its socket timeout, which the steal must beat.
        stall = socket.socket()
        stall.bind(("127.0.0.1", 0))
        stall.listen(5)
        stall_addr = f"127.0.0.1:{stall.getsockname()[1]}"
        backend = RemoteBackend([stall_addr, live.address], {},
                                steal_after=0.3, request_timeout=3.0)
        backend.start()
        try:
            # Pin the ring so the primary dispatch lands on the stall.
            backend._ring = len(backend.hosts) - 1
            future = backend.submit(Task("t", "exec:value", {"value": 7}),
                                    1, {})
            _, ok, payload, _, _, _ = future.result(timeout=10)
            assert ok and payload == {"value": 7}
            assert backend.worker_of(future) == live.address
            assert backend.counters()["steals"] >= 1
        finally:
            backend.shutdown(wait=False)
            stall.close()

    def test_salt_mismatch_is_refused_permanently(self, tmp_path, daemons):
        daemon = daemons("salted", config={"knob": 1})
        backend = RemoteBackend([daemon.address], {"knob": 2},
                                steal_after=None)
        backend.start()
        try:
            future = backend.submit(Task("t", "exec:value", {"value": 1}),
                                    1, {})
            _, ok, error, _, _, error_types = future.result(timeout=10)
        finally:
            backend.shutdown(wait=False)
        assert not ok
        assert "salt mismatch" in error
        # Permanent: retrying against the same misconfigured fleet can
        # never succeed, so the scheduler must fail fast.
        assert classify_error(error_types) == PERMANENT

    def test_salt_mismatch_fails_fast_through_the_scheduler(
            self, tmp_path, daemons):
        daemon = daemons("salted2", config={"knob": 1})
        result = run_graph(_graph(), {"knob": 2}, backend="remote",
                           workers=[daemon.address], retry=_policy())
        assert not result.succeeded
        failed = [r for r in result.report.records if r.status == FAILED]
        assert failed and all(r.attempts == 1 for r in failed)

    def test_task_op_round_trip_and_store_hit(self, tmp_path, daemons):
        daemon = daemons("op")
        host, port = daemon.address.rsplit(":", 1)
        client = Client((host, int(port)))
        salt = compute_salt_hash({})
        key = "ab" * 32
        first = client.task("t", "exec:sum", {"add": 5}, {"a": {"value": 2}},
                            key=key, salt=salt)
        assert first["ok"] and not first["hit"]
        assert first["payload"] == {"value": 7}
        assert "blob" not in first
        second = client.task("t", "exec:sum", {"add": 5}, {"a": {"value": 2}},
                             key=key, salt=salt)
        assert second["hit"]
        # A store hit answers with the stored JSON itself.
        assert second["payload"] == {"value": 7}
        with open(daemon.server.store.payload_path(key), "rb") as handle:
            assert json.loads(handle.read()) == second["payload"]
        stats = client.stats()
        assert stats["jobs"]["tasks"] == 2
        assert stats["jobs"]["task_hits"] == 1


# ---------------------------------------------------------------------- #
# HTTP remote store
# ---------------------------------------------------------------------- #
class TestRemoteStore:
    @pytest.fixture()
    def served(self, tmp_path):
        store = ResultStore(str(tmp_path / "served"))
        with StoreServerThread(store) as url:
            yield store, RemoteStore(url)

    def test_round_trip(self, served):
        local, remote = served
        key = "11" * 32
        remote.put(key, {"x": [1, 2, 3]}, metadata={"task_id": "t"})
        assert remote.contains(key) and key in remote
        assert remote.get(key) == {"x": [1, 2, 3]}
        assert remote.metadata(key)["task_id"] == "t"
        assert remote.metadata(key)["checksum"].startswith("sha256:")
        assert list(remote.keys()) == [key]
        # Bytes on disk are the canonical form — whoever wrote them.
        assert _payload_bytes(local)[key] \
            == canonical_json({"x": [1, 2, 3]}).encode("utf-8")
        assert remote.discard(key)
        assert not remote.contains(key)

    def test_pipeline_runs_against_remote_store(self, served):
        _, remote = served
        first = run_graph(_graph(), {}, store=remote)
        assert first.succeeded
        second = run_graph(_graph(), {}, store=remote)
        assert second.succeeded
        assert all(r.status == "cached" for r in second.report.records)

    def test_verify_and_corruption_over_http(self, served):
        local, remote = served
        key = "22" * 32
        remote.put(key, "payload")
        remote.corrupt_entry(key)           # chaos hook
        audit = remote.verify()
        assert audit["quarantined"] == [key]
        assert not remote.contains(key)

    def test_get_quarantines_corrupt_entry(self, served):
        local, remote = served
        key = "33" * 32
        remote.put(key, "payload")
        remote.corrupt_entry(key)
        with pytest.raises(KeyError):
            remote.get(key)
        assert local.session_stats()["quarantined"] == 1

    def test_gc_over_http(self, served):
        _, remote = served
        for i in range(4):
            remote.put(format(i, "02x") * 32, "x" * 100)
        swept = remote.gc(max_entries=1)
        assert len(swept["evicted"]) == 3 and swept["kept"] == 1
        assert len(list(remote.keys())) == 1
        with pytest.raises(ValueError):
            remote.gc(max_bytes=-1)

    def test_concurrent_writers(self, served):
        _, remote = served
        keys = [format(i, "02x") * 32 for i in range(8)]

        def write(key):
            for _ in range(3):              # same key repeatedly: last wins
                remote.put(key, {"key": key})
            return remote.get(key)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(write, keys))
        assert results == [{"key": key} for key in keys]
        assert sorted(remote.keys()) == sorted(keys)

    def test_unreachable_store_is_transient(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        url = f"http://127.0.0.1:{probe.getsockname()[1]}"
        probe.close()
        remote = RemoteStore(url, timeout=0.5)
        with pytest.raises(StoreUnavailableError) as excinfo:
            remote.put("44" * 32, "x")
        assert classify_error(error_type_names(excinfo.value)) == TRANSIENT

    def test_open_store_dispatch(self, tmp_path):
        assert isinstance(open_store(str(tmp_path / "s")), ResultStore)
        assert isinstance(open_store("http://127.0.0.1:1"), RemoteStore)
        store = ResultStore(str(tmp_path / "s2"))
        assert open_store(store) is store
        assert isinstance(store, StoreBackend)


def _http_exchange(url, request, close_write=True):
    """Send raw bytes to a store daemon; ``(status, JSON body)`` of the
    answer, read until the daemon closes the connection."""
    parsed = urlparse(url)
    with socket.create_connection((parsed.hostname, parsed.port),
                                  timeout=30.0) as sock:
        sock.sendall(request)
        if close_write:
            sock.shutdown(socket.SHUT_WR)
        response = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body or b"{}")


def _put_request(key, body, length=None, meta=None):
    lines = [f"PUT /entry/{key} HTTP/1.1", "Host: store"]
    if length is not False:
        lines.append(f"Content-Length: {len(body) if length is None else length}")
    if meta is not None:
        lines.append(f"X-Repro-Meta: {meta}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


class TestStoreDaemonRequests:
    """The HTTP store daemon answers every malformed request with ``400``
    and a JSON error, and never writes outside its root."""

    KEY = "5a" * 32

    @pytest.fixture()
    def daemon(self, tmp_path):
        store = ResultStore(str(tmp_path / "outside" / "store"))
        with StoreServerThread(store) as url:
            yield store, url

    @staticmethod
    def _tree(path):
        return sorted(os.path.relpath(os.path.join(root, name), path)
                      for root, dirs, files in os.walk(path)
                      for name in dirs + files)

    def test_escaping_key_is_refused_and_nothing_lands_outside(
            self, daemon, tmp_path):
        store, url = daemon
        outside = tmp_path / "outside"
        before = self._tree(str(outside))
        status, answer = _http_exchange(url, _put_request("..escaped", b"{}"))
        assert status == 400 and "64 lowercase hex" in answer["error"]
        for method, path in (("GET", "/entry/..escaped"),
                             ("GET", "/meta/..escaped"),
                             ("DELETE", "/entry/..escaped"),
                             ("POST", "/corrupt/..escaped"),
                             ("HEAD", "/entry/" + "A" * 64)):
            status, _ = _http_exchange(
                url, f"{method} {path} HTTP/1.1\r\nHost: s\r\n\r\n".encode())
            assert status == 400, (method, path)
        assert self._tree(str(outside)) == before
        assert not list(tmp_path.rglob("*escaped*"))

    @pytest.mark.parametrize("length, body", [
        (100, b'{"short": true}'),      # body ends before Content-Length
        (-1, b"{}"),
        ("abc", b"{}"),
        (False, b"{}"),                 # no Content-Length at all
        (1 << 40, b"{}"),               # over MAX_BODY_BYTES
    ])
    def test_bad_length_is_refused_before_the_store(self, daemon, capfd,
                                                    length, body):
        store, url = daemon
        status, answer = _http_exchange(
            url, _put_request(self.KEY, body, length=length))
        assert status == 400 and answer["error"]
        assert not store.contains(self.KEY, count=False)
        assert list(store.keys()) == []
        assert "Traceback" not in capfd.readouterr().err

    def test_stalled_body_is_answered_after_the_read_timeout(
            self, daemon, monkeypatch):
        from repro.pipeline.store_http import _StoreHandler
        monkeypatch.setattr(_StoreHandler, "timeout", 0.5)
        store, url = daemon
        started = time.monotonic()
        status, answer = _http_exchange(
            url, _put_request(self.KEY, b'{"x"', length=100),
            close_write=False)
        assert status == 400 and "stalled" in answer["error"]
        assert time.monotonic() - started < 10.0
        assert not store.contains(self.KEY, count=False)

    @pytest.mark.parametrize("meta", [
        "not base64 json!",
        base64.b64encode(b"[1, 2]").decode("ascii"),
    ])
    def test_malformed_metadata_header_is_refused(self, daemon, meta):
        store, url = daemon
        status, answer = _http_exchange(
            url, _put_request(self.KEY, b"{}", meta=meta))
        assert status == 400 and "metadata header" in answer["error"]
        assert not store.contains(self.KEY, count=False)

    def test_caller_metadata_cannot_override_the_checksum(self, daemon):
        store, url = daemon
        meta = base64.b64encode(json.dumps(
            {"checksum": None, "task_id": "t"}).encode()).decode("ascii")
        status, _ = _http_exchange(
            url, _put_request(self.KEY, b'{"x":1}', meta=meta))
        assert status == 200
        stored = store.metadata(self.KEY)
        assert stored["checksum"].startswith("sha256:")
        assert stored["task_id"] == "t"
        assert store.get(self.KEY) == {"x": 1}
        assert store.verify() == {"checked": 1, "ok": 1, "quarantined": []}

    def test_keys_are_checked_where_paths_are_built(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        for bad in ("..escaped", "AB" * 32, "ab" * 31, "ab" * 32 + "/x", 5):
            with pytest.raises(ValueError):
                store.put(bad, {"x": 1})
            with pytest.raises(ValueError):
                store.get(bad)
            with pytest.raises(ValueError):
                RemoteStore("http://127.0.0.1:1").get(bad)   # no request sent
        # A stray file in a shard is not an entry.
        store.put("cd" * 32, {"x": 1})
        with open(os.path.join(store.root, "cd", "stray.pkl"), "wb") as stray:
            stray.write(b"{}")
        assert list(store.keys()) == ["cd" * 32]
        assert store.verify()["checked"] == 1


# ---------------------------------------------------------------------- #
# GC / eviction on the local store
# ---------------------------------------------------------------------- #
class TestStoreGC:
    def _filled(self, tmp_path, n=4):
        store = ResultStore(str(tmp_path / "store"))
        keys = [format(i, "02x") * 32 for i in range(n)]
        base = time.time() - 1000
        for i, key in enumerate(keys):
            store.put(key, "x" * 100)
            stamp = base + i            # older index == older atime
            os.utime(store.payload_path(key), (stamp, stamp))
        return store, keys

    def test_lru_eviction_by_entry_budget(self, tmp_path):
        store, keys = self._filled(tmp_path)
        swept = store.gc(max_entries=2)
        assert swept["evicted"] == keys[:2]               # oldest went first
        assert sorted(store.keys()) == sorted(keys[2:])

    def test_byte_budget(self, tmp_path):
        store, keys = self._filled(tmp_path)
        total = sum(len(b) for b in _payload_bytes(store).values())
        per_entry = total // 4
        swept = store.gc(max_bytes=per_entry * 2)
        assert swept["bytes_after"] <= per_entry * 2
        assert swept["bytes_before"] == total
        assert set(store.keys()) == set(keys[len(swept["evicted"]):])

    def test_recent_read_protects_an_entry(self, tmp_path):
        store, keys = self._filled(tmp_path)
        store.get(keys[0])                  # touches atime: now the newest
        swept = store.gc(max_entries=1)
        assert len(swept["evicted"]) == 3
        assert list(store.keys()) == [keys[0]]

    def test_negative_budget_rejected(self, tmp_path):
        store, _ = self._filled(tmp_path, n=1)
        with pytest.raises(ValueError):
            store.gc(max_bytes=-5)
        with pytest.raises(ValueError):
            store.gc(max_entries=-1)

    def test_noop_budgets(self, tmp_path):
        store, keys = self._filled(tmp_path)
        swept = store.gc(max_entries=10)
        assert swept["evicted"] == [] and swept["kept"] == 4
        assert sorted(store.keys()) == sorted(keys)

    def test_lru_survives_frozen_atime(self, tmp_path, monkeypatch):
        """Eviction order must not depend on filesystem atime updates.

        On a ``noatime`` mount (and, within a day, under ``relatime``)
        reads never move ``st_atime``, and even the store's explicit
        ``os.utime`` is the kind of side channel a read-only bind mount
        swallows.  The sidecar ``last_access`` stamp is the authoritative
        recency signal: with atime updates disabled entirely, a freshly
        read entry must still be the last to go.
        """
        store, keys = self._filled(tmp_path)
        # Simulate noatime: no code path may move any file timestamp.
        monkeypatch.setattr("repro.pipeline.store.os.utime",
                            lambda *a, **k: None)
        # Pin every sidecar's created_at into the distant past in key
        # order, so the pre-fix ordering (creation-time proxy) is
        # unambiguous and would evict keys[0] first.
        base = time.time() - 10_000
        for i, key in enumerate(keys):
            meta = store.metadata(key)
            meta["created_at"] = base + i
            atomic_write_bytes(store._meta_path(key),
                               json.dumps(meta).encode("utf-8"))
        store.get(keys[0])                  # read the oldest-written entry
        assert store.metadata(keys[0])["last_access"] > base + len(keys)
        swept = store.gc(max_entries=1)
        assert keys[0] not in swept["evicted"]
        assert list(store.keys()) == [keys[0]]


# ---------------------------------------------------------------------- #
# Bugfix regressions
# ---------------------------------------------------------------------- #
class TestBugfixRegressions:
    def test_corrupt_sidecar_is_quarantined_not_served(self, tmp_path):
        """A torn metadata sidecar must never serve the payload unverified."""
        store = ResultStore(str(tmp_path))
        key = "55" * 32
        store.put(key, "payload")
        with open(store._meta_path(key), "w", encoding="utf-8") as handle:
            handle.write('{"checksum": "sha256:')     # torn mid-write
        with pytest.raises(KeyError):
            store.get(key)
        assert store.session_stats()["quarantined"] == 1
        assert not store.contains(key, count=False)
        corrupt_dir = os.path.join(store.root, "corrupt")
        assert os.listdir(corrupt_dir)              # kept for inspection

    def test_verify_quarantines_corrupt_sidecar(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = "66" * 32
        store.put(key, "payload")
        with open(store._meta_path(key), "wb") as handle:
            handle.write(b"\xff\xfenot json")
        audit = store.verify()
        assert audit["quarantined"] == [key]

    def test_absent_sidecar_still_serves_pre_checksum_entry(self, tmp_path):
        """An absent sidecar leaves nothing to verify the payload against,
        so the entry is quarantined like a corrupt one — never served.
        (The name predates store format 5, when such an entry was served
        unverified.)"""
        store = ResultStore(str(tmp_path))
        key = "77" * 32
        store.put(key, "legacy")
        os.unlink(store._meta_path(key))
        with pytest.raises(KeyError, match="quarantined"):
            store.get(key)
        assert store.session_stats()["quarantined"] == 1
        assert not store.contains(key, count=False)
        assert os.path.exists(os.path.join(store.root, "corrupt",
                                           key + ".pkl"))

    def test_backoff_cap_holds_with_jitter(self):
        """The cap must bound the *jittered* sleep, not the raw one."""
        policy = RetryPolicy(backoff_base=10.0, backoff_factor=3.0,
                             backoff_max=10.0, jitter=0.25)
        for attempt in range(1, 6):
            for task_id in ("a", "b", "table3/pct/unbounded", "x/y/z"):
                assert policy.delay(task_id, attempt) <= 10.0

    def test_backoff_jitter_still_desynchronises_below_cap(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_max=100.0,
                             jitter=0.25)
        delays = {policy.delay(f"task{i}", 1) for i in range(8)}
        assert len(delays) > 1
        assert all(0.75 <= d <= 1.25 for d in delays)

    def test_verify_buckets_are_disjoint_and_sum(self, tmp_path):
        """Two buckets: an entry either verified or was quarantined —
        a missing sidecar counts as corrupt, not as a third bucket."""
        store = ResultStore(str(tmp_path))
        store.put("88" * 32, "checksummed")
        store.put("99" * 32, "no sidecar")
        os.unlink(store._meta_path("99" * 32))
        store.put("aa" * 32, "doomed")
        store.corrupt_entry("aa" * 32)
        audit = store.verify()
        assert set(audit) == {"checked", "ok", "quarantined"}
        assert audit["checked"] == 3
        assert audit["ok"] == 1
        assert audit["quarantined"] == ["99" * 32, "aa" * 32]
        assert audit["ok"] + len(audit["quarantined"]) == audit["checked"]


# ---------------------------------------------------------------------- #
# CLI subcommands
# ---------------------------------------------------------------------- #
class TestStoreCLI:
    def test_verify_subcommand(self, tmp_path, capsys):
        store = ResultStore(str(tmp_path / "s"))
        store.put("bb" * 32, "fine")
        assert pipeline_cli.main(["verify", "--store",
                                  str(tmp_path / "s")]) == 0
        store.corrupt_entry("bb" * 32)
        assert pipeline_cli.main(["verify", "--store",
                                  str(tmp_path / "s")]) == 1
        out = capsys.readouterr().out
        assert "quarantined " + "bb" * 32 in out

    def test_verify_subcommand_json(self, tmp_path, capsys):
        ResultStore(str(tmp_path / "s")).put("cc" * 32, "fine")
        assert pipeline_cli.main(["verify", "--store", str(tmp_path / "s"),
                                  "--json"]) == 0
        audit = json.loads(capsys.readouterr().out)
        assert audit == {"checked": 1, "ok": 1, "quarantined": []}

    def test_gc_subcommand(self, tmp_path, capsys):
        store = ResultStore(str(tmp_path / "s"))
        for i in range(3):
            store.put(format(i, "02x") * 32, "x" * 50)
        assert pipeline_cli.main(["gc", "--store", str(tmp_path / "s"),
                                  "--max-entries", "1"]) == 0
        assert "evicted 2 of 3" in capsys.readouterr().out
        assert len(store) == 1

    def test_gc_subcommand_requires_a_budget(self, tmp_path):
        with pytest.raises(SystemExit):
            pipeline_cli.main(["gc", "--store", str(tmp_path / "s")])

    def test_byte_size_parsing(self):
        assert pipeline_cli.byte_size("500") == 500
        assert pipeline_cli.byte_size("2K") == 2048
        assert pipeline_cli.byte_size("1G") == 1 << 30
        assert pipeline_cli.byte_size("1.5M") == int(1.5 * (1 << 20))
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            pipeline_cli.byte_size("lots")

    def test_gc_and_verify_work_against_a_store_url(self, tmp_path, capsys):
        store = ResultStore(str(tmp_path / "s"))
        for i in range(2):
            store.put(format(i, "02x") * 32, "x")
        with StoreServerThread(store) as url:
            assert pipeline_cli.main(["verify", "--store-url", url]) == 0
            assert pipeline_cli.main(["gc", "--store-url", url,
                                      "--max-entries", "1"]) == 0
        assert len(store) == 1

    def test_remote_backend_requires_workers_flag(self, capsys):
        assert pipeline_cli.main(["--backend", "remote",
                                  "--experiment", "table3"]) == 2
        assert "--workers" in capsys.readouterr().out


# ---------------------------------------------------------------------- #
# Local pool backend plumbing
# ---------------------------------------------------------------------- #
class TestLocalPoolBackend:
    def test_a_fork_context_imports_scipy_in_the_parent(self):
        """Importing the executors loads no SciPy; a fork context imports
        ``scipy.spatial`` so forked workers inherit it.  Checked in a
        fresh interpreter."""
        script = ("import sys\n"
                  "from repro.pipeline.executors import pool_mp_context\n"
                  "print('scipy' in sys.modules)\n"
                  "print(pool_mp_context().get_start_method())\n"
                  "print('scipy.spatial' in sys.modules)\n")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        loaded, method, loaded_after = proc.stdout.split()
        assert loaded == "False"
        if method != "fork":
            pytest.skip("spawn workers import SciPy at their first tree")
        assert loaded_after == "True"

    def test_direct_submit(self):
        backend = LocalPoolBackend({}, jobs=2)
        backend.start()
        try:
            future = backend.submit(Task("t", "exec:value", {"value": 9}),
                                    1, {})
            task_id, ok, payload, _, _, _ = future.result(timeout=60)
        finally:
            backend.shutdown(wait=True)
        assert task_id == "t" and ok and payload == {"value": 9}

    def test_recover_replaces_the_pool(self):
        backend = LocalPoolBackend({}, jobs=1)
        backend.start()
        try:
            backend.recover("test")
            future = backend.submit(Task("t", "exec:value", {"value": 3}),
                                    1, {})
            assert future.result(timeout=60)[2] == {"value": 3}
        finally:
            backend.shutdown(wait=True)

    def test_deps_survive_the_wire_encoding(self):
        """Deps cross the wire as the codec's JSON: plain data and tagged
        dataclasses come back equal (tuples come back as lists — no task
        output holds one)."""
        from repro.metrics.attack_metrics import AttackOutcome
        outcome = AttackOutcome(0.5, 0.25, 0.125, 0.75, 0.5, psr=0.1)
        deps = {"a": {"value": 1}, "b": [1, 2, {"x": [3, 4]}],
                "c": {"records": [{"outcome": outcome}]}}
        wire = json.loads(json.dumps(canonicalize(deps)))
        assert wire["c"]["records"][0]["outcome"]["__dataclass__"] \
            == "AttackOutcome"
        assert revive(wire) == deps
        assert revive(canonicalize({"t": (3, 4)})) == {"t": [3, 4]}
