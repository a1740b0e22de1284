"""Tests for the serving layer (``repro.serve``).

Covers the ISSUE-8 checklist: protocol round-trips, duplicate-request
dedup (an identical second submission — concurrent or later — never
recomputes), progress-stream ordering (engine events arrive in emission
order), graceful shutdown with jobs in flight, plus job-spec validation,
transient-failure retries, cancellation and warm-worker reuse.

All job executors are registered at import time so the fork-started
worker pool inherits them; none of them needs a trained model, keeping
every test fast.
"""

import asyncio
import json
import os
import socket
import time
from unittest import mock

import pytest

from repro.experiments import ExperimentConfig
from repro.pipeline import register_executor
from repro.pipeline.resilience import (TRANSIENT, RetryPolicy,
                                       TransientTaskError, classify_error)
from repro.pipeline.store import ResultStore
from repro.pipeline.store_http import StoreUnavailableError
from repro.serve import (AttackServer, Client, JobError, JobSpec, ServeError,
                         ServerThread, job_key)
from repro.serve import protocol
from repro.serve.jobs import DONE, EVENT_HISTORY_LIMIT, Job
from repro.serve.server import TERMINAL_EVENTS

# ---------------------------------------------------------------------- #
# Stub executors (inherited by fork workers)
# ---------------------------------------------------------------------- #


@register_executor("serve:echo")
def _serve_echo(config, params, deps):
    return {"echo": params.get("x"), "pid": os.getpid()}


@register_executor("serve:count")
def _serve_count(config, params, deps):
    """Append one line per invocation — the zero-recompute witness."""
    with open(params["ledger"], "a", encoding="utf-8") as handle:
        handle.write(f"{os.getpid()}\n")
    time.sleep(params.get("sleep", 0.0))
    return {"x": params.get("x")}


@register_executor("serve:steps")
def _serve_steps(config, params, deps):
    from repro.telemetry import get_tracer
    tracer = get_tracer()
    for step in range(params["steps"]):
        tracer.emit("attack_step", step=step, loss=1.0 / (step + 1))
    return {"steps": params["steps"]}


@register_executor("serve:slow")
def _serve_slow(config, params, deps):
    time.sleep(params.get("sleep", 0.5))
    return {"slept": params.get("sleep", 0.5)}


@register_executor("serve:flaky")
def _serve_flaky(config, params, deps):
    """Fails transiently until its marker file exists."""
    marker = params["marker"]
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write("tried\n")
        raise TransientTaskError("first attempt always fails")
    return {"recovered": True}


@register_executor("serve:fails_first")
def _serve_fails_first(config, params, deps):
    """Fails transiently on its first ``fails`` calls, counted in a file."""
    with open(params["ledger"], "a+", encoding="utf-8") as handle:
        handle.write("call\n")
        handle.seek(0)
        calls = len(handle.readlines())
    if calls <= params["fails"]:
        raise TransientTaskError(f"call {calls} fails")
    return {"calls": calls}


@register_executor("serve:deps_back")
def _serve_deps_back(config, params, deps):
    """Returns its (revived) dependencies, so the test sees their types."""
    assert all(type(dep["outcome"]).__name__ == "AttackOutcome"
               for dep in deps.values())
    return dict(deps)


@register_executor("serve:boom")
def _serve_boom(config, params, deps):
    raise ValueError("deterministic failure")


def _first_attempt(marker):
    """True exactly once per marker file: the first attempt's witness."""
    if os.path.exists(marker):
        return False
    with open(marker, "w", encoding="utf-8") as handle:
        handle.write("tried\n")
    return True


@register_executor("serve:hang_once")
def _serve_hang_once(config, params, deps):
    """Hangs far past any test deadline on its first attempt only."""
    if _first_attempt(params["marker"]):
        time.sleep(60.0)
    return {"recovered": True}


@register_executor("serve:die_once")
def _serve_die_once(config, params, deps):
    """Kills its worker process outright on the first attempt only."""
    if _first_attempt(params["marker"]):
        os._exit(1)
    return {"recovered": True}


# ---------------------------------------------------------------------- #
# Fixtures
# ---------------------------------------------------------------------- #
@pytest.fixture()
def config(tmp_path):
    return ExperimentConfig.tiny(cache_dir=str(tmp_path / "cache"))


@pytest.fixture()
def store_dir(tmp_path):
    return str(tmp_path / "results")


def _fast_retry(**overrides):
    defaults = dict(max_attempts=3, backoff_base=0.01, backoff_max=0.05)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


def _server(config, store_dir, **kwargs):
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("retry", _fast_retry())
    return AttackServer(config, store=store_dir, **kwargs)


# ---------------------------------------------------------------------- #
# Protocol round-trips
# ---------------------------------------------------------------------- #
class TestProtocol:
    def test_encode_decode_roundtrip(self):
        message = {"op": "submit", "job": {"kind": "attack_cell",
                                           "params": {"row": "PointNet++"}}}
        line = protocol.encode(message)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert protocol.decode(line) == message

    def test_decode_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"{not json}\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b'["not", "an", "object"]\n')

    def test_decode_rejects_oversized_frames(self):
        line = b"x" * (protocol.MAX_LINE_BYTES + 1)
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(line)

    def test_parse_address(self):
        assert protocol.parse_address("127.0.0.1:7431") == \
            ("127.0.0.1", 7431, None)
        assert protocol.parse_address(":0") == ("127.0.0.1", 0, None)
        assert protocol.parse_address("/tmp/serve.sock") == \
            (None, None, "/tmp/serve.sock")
        with pytest.raises(ValueError):
            protocol.parse_address("no-port-here")

    def test_wire_payload_formats_and_degrades(self):
        """``value`` is the codec's JSON form, with no repr fallback:
        outcomes arrive as tagged objects, an object outside the codec
        is an error, and ``formatted`` stays a best-effort rendering."""
        from repro.experiments.reporting import TableResult
        from repro.metrics.attack_metrics import AttackOutcome
        from repro.pipeline.hashing import revive

        table = TableResult("t", "Title", [{"a": 1.5}])
        out = protocol.wire_payload(table)
        assert out["formatted"] == table.formatted()
        assert out["value"]["__dataclass__"] == "TableResult"
        assert revive(json.loads(json.dumps(out["value"]))) == table
        outcome = AttackOutcome(0.5, 0.25, 0.125, 0.75, 0.5)
        cell = protocol.wire_payload({"records": [{"outcome": outcome}]})
        assert "formatted" not in cell
        assert cell["value"]["records"][0]["outcome"]["accuracy"] == 0.25
        assert revive(cell["value"])["records"][0]["outcome"] == outcome
        assert protocol.wire_payload({"a": 1})["value"] == {"a": 1}
        with mock.patch.object(TableResult, "formatted",
                               side_effect=RuntimeError("rendering failed")):
            degraded = protocol.wire_payload(table)
        assert degraded == {"value": out["value"]}

        class Opaque:
            pass

        with pytest.raises(TypeError):
            protocol.wire_payload({"x": Opaque()})

    def test_live_roundtrip_over_socket(self, config, store_dir):
        with ServerThread(_server(config, store_dir)) as address:
            client = Client(address)
            pong = client.ping()
            assert pong["server"] == "repro.serve"
            assert pong["version"] == protocol.PROTOCOL_VERSION
            with pytest.raises(ServeError, match="unknown op"):
                client.request({"op": "nonsense"})
            with pytest.raises(ServeError, match="unknown job"):
                client.status("not-a-job")


def _raw_exchange(address, frame):
    """Send raw bytes on one connection; every response line until EOF."""
    with socket.create_connection(address, timeout=30.0) as sock:
        sock.sendall(frame)
        with sock.makefile("rb") as stream:
            return [json.loads(line) for line in stream]


def _first_answer(address, frame):
    """Send raw bytes; the first response line."""
    with socket.create_connection(address, timeout=30.0) as sock:
        sock.sendall(frame)
        with sock.makefile("rb") as stream:
            return json.loads(stream.readline())


def _answer_then_eof(address, frame, wait=2.0):
    """Send raw bytes; the first response line, after checking that EOF
    follows it within ``wait`` seconds."""
    with socket.create_connection(address, timeout=30.0) as sock:
        sock.sendall(frame)
        with sock.makefile("rb") as stream:
            answer = json.loads(stream.readline())
            sock.settimeout(wait)
            assert stream.read() == b""
    return answer


class TestWorkerSockets:
    """A pool worker forked while a client is connected must not keep
    that client's socket open: EOF follows the answer at once."""

    FRAME = protocol.encode({"op": "task", "task_id": "t",
                             "kind": "serve:echo", "params": {"x": 1}})

    def test_first_task_after_start(self, config, store_dir):
        with ServerThread(_server(config, store_dir)) as address:
            assert _answer_then_eof(address, self.FRAME)["ok"]

    def test_first_task_after_a_timeout_rebuild(self, config, store_dir):
        with ServerThread(_server(config, store_dir, jobs=1)) as address:
            client = Client(address)
            with pytest.raises(ServeError):
                client.task("hung", "serve:slow", {"sleep": 60.0}, {},
                            timeout=1.0)
            assert client.stats()["pool"]["rebuilds"] == 1
            assert _answer_then_eof(address, self.FRAME)["ok"]


class TestMalformedRequests:
    """Each bad request gets one ``ok: false`` line naming what is wrong,
    and the daemon keeps serving."""

    def test_oversized_frame(self, config, store_dir, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 4096)
        with ServerThread(_server(config, store_dir)) as address:
            frame = b'{"op": "ping", "pad": "' + b"x" * 65536 + b'"}\n'
            [answer] = _raw_exchange(address, frame)
            assert not answer["ok"] and "4096" in answer["error"]
            assert Client(address).ping()["ok"]

    def test_stalled_frame_is_answered_at_the_deadline(
            self, config, store_dir, monkeypatch):
        monkeypatch.setattr(protocol, "FRAME_TIMEOUT", 0.5)
        with ServerThread(_server(config, store_dir)) as address:
            answer = _first_answer(address, b'{"op": "pi')    # ...then quiet
            assert not answer["ok"]
            assert "not completed within 0.5 s" in answer["error"]
            assert Client(address).ping()["ok"]

    @pytest.mark.parametrize("field, value, named", [
        ("attempt", "x", "'attempt'"),
        ("params", "oops", "'params'"),
        ("key", 5, "'task' request failed"),
    ])
    def test_task_op_with_a_bad_field(self, config, store_dir, field, value,
                                      named):
        with ServerThread(_server(config, store_dir)) as address:
            message = {"op": "task", "task_id": "t", "kind": "serve:echo",
                       "params": {}, field: value}
            [answer] = _raw_exchange(address, protocol.encode(message))
            assert not answer["ok"] and named in answer["error"]
            assert Client(address).ping()["ok"]

    def test_result_op_with_a_bad_timeout(self, config, store_dir):
        with ServerThread(_server(config, store_dir)) as address:
            client = Client(address)
            ack = client.submit("serve:slow", {"sleep": 0.5})
            frame = protocol.encode({"op": "result", "id": ack["job_id"],
                                     "timeout": "soon"})
            [answer] = _raw_exchange(address, frame)
            assert not answer["ok"] and "timeout" in answer["error"]
            assert client.result(ack["job_id"])["ok"]

    def test_task_op_with_a_bad_timeout_never_reaches_the_pool(
            self, config, store_dir, tmp_path):
        ledger = str(tmp_path / "ledger.txt")
        with ServerThread(_server(config, store_dir, jobs=1)) as address:
            frame = protocol.encode({"op": "task", "task_id": "t",
                                     "kind": "serve:count",
                                     "params": {"ledger": ledger},
                                     "timeout": "soon"})
            [answer] = _raw_exchange(address, frame)
            assert not answer["ok"] and "timeout" in answer["error"]
            # One worker runs submissions in order: had the refused task
            # been submitted, it would have run before this one.
            assert Client(address).task("next", "serve:echo", {}, {})["ok"]
        assert not os.path.exists(ledger)


class _Touch:
    """Unpickling this creates ``path``: a stand-in for arbitrary code."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


class TestTaskPayloads:
    """``task`` deps are the payload codec's JSON: a type outside its
    allow-list is refused before anything reaches the pool, and bytes
    that used to be unpickled are now inert data."""

    def test_a_type_outside_the_allow_list_never_reaches_the_pool(
            self, config, store_dir, tmp_path):
        ledger = str(tmp_path / "ledger.txt")
        with ServerThread(_server(config, store_dir, jobs=1)) as address:
            frame = protocol.encode({
                "op": "task", "task_id": "t", "kind": "serve:count",
                "params": {"ledger": ledger},
                "deps": {"a": {"__dataclass__": "Popen",
                               "args": ["touch", ledger]}}})
            [answer] = _raw_exchange(address, frame)
            assert not answer["ok"] and "allow-list" in answer["error"]
            assert answer["error_types"] == ["TaskPayloadError"]
            assert Client(address).task("next", "serve:echo", {}, {})["ok"]
        assert not os.path.exists(ledger)

    def test_pickled_deps_run_no_code(self, config, store_dir, tmp_path):
        """The old wire's exploit: a ``task`` op with no salt and an
        unknown kind whose ``deps`` is a base64 pickle that creates a
        file when loaded."""
        import base64
        import pickle
        witness = tmp_path / "owned"
        blob = base64.b64encode(pickle.dumps(_Touch(str(witness)))).decode()
        with ServerThread(_server(config, store_dir)) as address:
            for deps in (blob, {"a": blob}):
                frame = protocol.encode({"op": "task", "task_id": "t",
                                         "kind": "no-such-kind",
                                         "deps": deps})
                assert not _first_answer(address, frame)["ok"]
            assert Client(address).ping()["ok"]
        assert not witness.exists()

    def test_deps_and_payload_cross_as_tagged_json(self, config, store_dir):
        from repro.metrics.attack_metrics import AttackOutcome
        from repro.pipeline.hashing import revive
        outcome = AttackOutcome(0.5, 0.25, 0.125, 0.75, 0.5)
        with ServerThread(_server(config, store_dir)) as address:
            answer = Client(address).task(
                "t", "serve:deps_back", {}, {"cell": {"outcome": outcome}})
        sent = answer["payload"]["cell"]["outcome"]
        assert sent["__dataclass__"] == "AttackOutcome"
        assert revive(answer["payload"]) == {"cell": {"outcome": outcome}}


# ---------------------------------------------------------------------- #
# Job specs and keys
# ---------------------------------------------------------------------- #
class TestJobSpec:
    def test_from_wire_shapes(self):
        spec = JobSpec.from_wire({"experiment": "table3"})
        assert spec.kind == "experiment"
        assert spec.params == {"name": "table3"}
        assert spec.label == "experiment:table3"
        spec = JobSpec.from_wire({"kind": "serve:echo", "params": {"x": 1}})
        assert spec.kind == "serve:echo"

    def test_from_wire_rejects_malformed(self):
        with pytest.raises(JobError):
            JobSpec.from_wire({})
        with pytest.raises(JobError):
            JobSpec.from_wire({"experiment": ""})
        with pytest.raises(JobError):
            JobSpec(kind="")

    def test_dependency_coupled_params_rejected(self):
        with pytest.raises(JobError, match="dependency"):
            JobSpec(kind="attack_cell", params={"match_l2_from": "other"})
        with pytest.raises(JobError, match="dependency"):
            JobSpec(kind="attack_cell",
                    params={"attack": {"match_l2_from": "other"}})

    def test_validate_kind(self):
        JobSpec(kind="serve:echo").validate_kind()
        with pytest.raises(JobError, match="unknown job kind"):
            JobSpec(kind="no-such-kind").validate_kind()
        with pytest.raises(JobError, match="unknown experiment"):
            JobSpec(kind="experiment",
                    params={"name": "table99"}).validate_kind()

    def test_job_key_tracks_the_store_salt(self, tmp_path):
        """Salted knobs split keys; unsalted ones (batch_scenes) do not."""
        spec = JobSpec(kind="serve:echo", params={"x": 1})
        base = ExperimentConfig.tiny(cache_dir=str(tmp_path))
        assert job_key(spec, base) == job_key(spec, base)
        assert job_key(spec, base) != job_key(
            JobSpec(kind="serve:echo", params={"x": 2}), base)
        nes = ExperimentConfig.tiny(cache_dir=str(tmp_path),
                                    attack_mode="nes")
        assert job_key(spec, base) != job_key(spec, nes)
        batched = ExperimentConfig.tiny(cache_dir=str(tmp_path),
                                        batch_scenes=4)
        assert job_key(spec, base) == job_key(spec, batched)

    def test_never_cache_experiments_are_uncacheable(self):
        assert not JobSpec(kind="experiment",
                           params={"name": "overhead"}).cacheable
        assert JobSpec(kind="experiment",
                       params={"name": "table3"}).cacheable
        assert JobSpec(kind="serve:echo").cacheable


# ---------------------------------------------------------------------- #
# Dedup: one key, one computation
# ---------------------------------------------------------------------- #
class TestDedup:
    def test_concurrent_duplicate_never_recomputes(self, config, store_dir,
                                                   tmp_path):
        """The acceptance criterion: N identical submissions, 1 execution."""
        ledger = str(tmp_path / "ledger.txt")
        with ServerThread(_server(config, store_dir)) as address:
            client = Client(address)
            params = {"ledger": ledger, "sleep": 0.4, "x": 7}
            first = client.submit("serve:count", params)
            acks = [client.submit("serve:count", params) for _ in range(4)]
            assert all(a["job_id"] == first["job_id"] for a in acks)
            assert all(a["deduped"] for a in acks)
            result = client.result(first["job_id"])
            assert result["result"]["value"] == {"x": 7}
            stats = client.stats()
        assert stats["jobs"]["submitted"] == 5
        assert stats["jobs"]["computed"] == 1
        assert stats["jobs"]["dedup_inflight"] == 4
        with open(ledger, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 1

    def test_completed_dedup_across_server_restart(self, config, store_dir,
                                                   tmp_path):
        """A fresh server serves a previous server's work from the store."""
        ledger = str(tmp_path / "ledger.txt")
        params = {"ledger": ledger, "x": 9}
        with ServerThread(_server(config, store_dir)) as address:
            client = Client(address)
            ack = client.submit("serve:count", params)
            client.result(ack["job_id"])
            assert not ack["cached"]
        with ServerThread(_server(config, store_dir)) as address:
            client = Client(address)
            ack = client.submit("serve:count", params)
            assert ack["cached"] and ack["state"] == "done"
            result = client.result(ack["job_id"])
            assert result["result"]["value"] == {"x": 9}
            assert client.stats()["jobs"]["dedup_store"] == 1
        with open(ledger, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 1

    def test_store_is_shared_with_the_pipeline_salt(self, config, store_dir):
        """The job key is literally a store key: the entry lands there."""
        with ServerThread(_server(config, store_dir)) as address:
            client = Client(address)
            ack = client.submit("serve:echo", {"x": 3})
            client.result(ack["job_id"])
        store = ResultStore(store_dir)
        key = job_key(JobSpec(kind="serve:echo", params={"x": 3}), config)
        assert ack["job_id"] == key
        assert store.contains(key, count=False)
        assert store.get(key)["echo"] == 3

    def test_failed_jobs_can_be_resubmitted(self, config, store_dir,
                                            tmp_path):
        with ServerThread(_server(config, store_dir,
                                  retry=_fast_retry(max_attempts=1))) \
                as address:
            client = Client(address)
            ack = client.submit("serve:boom", {})
            with pytest.raises(ServeError, match="deterministic failure"):
                client.result(ack["job_id"])
            again = client.submit("serve:boom", {})
            assert again["job_id"] == ack["job_id"]
            assert not again["deduped"]          # failure is not memoised
            with pytest.raises(ServeError):
                client.result(again["job_id"])

    def test_a_resubmitted_job_starts_a_fresh_run(self, config, store_dir,
                                                  tmp_path):
        """A resubmission gets the whole attempt budget again, and its
        times count from the resubmission."""
        params = {"ledger": str(tmp_path / "ledger.txt"), "fails": 3}
        with ServerThread(_server(config, store_dir,
                                  retry=_fast_retry(max_attempts=2))) \
                as address:
            client = Client(address)
            ack = client.submit("serve:fails_first", params)
            with pytest.raises(ServeError, match="call 2 fails"):
                client.result(ack["job_id"])
            first = client.status(ack["job_id"])
            client.submit("serve:fails_first", params)
            result = client.result(ack["job_id"])
            status = client.status(ack["job_id"])
        assert first["state"] == "failed" and first["attempts"] == 2
        assert result["result"]["value"] == {"calls": 4}
        assert status["state"] == DONE and status["submissions"] == 2
        assert status["attempts"] == 2 and status["retries"] == 1
        assert status["created_at"] > first["finished_at"]

    def test_watching_a_resubmitted_job_replays_only_its_current_run(
            self, config, store_dir, tmp_path):
        """The first run's ``job_failed`` is not replayed, so the stream
        ends at the current run's ``job_done``."""
        params = {"ledger": str(tmp_path / "ledger.txt"), "fails": 3}
        with ServerThread(_server(config, store_dir,
                                  retry=_fast_retry(max_attempts=2))) \
                as address:
            client = Client(address)
            ack = client.submit("serve:fails_first", params)
            with pytest.raises(ServeError, match="call 2 fails"):
                client.result(ack["job_id"])
            client.submit("serve:fails_first", params)
            types = [event["type"] for event in client.watch(ack["job_id"])]
        terminal = [kind for kind in types if kind in TERMINAL_EVENTS]
        assert terminal == ["job_done"] and types[-1] == "job_done"


# ---------------------------------------------------------------------- #
# Progress streaming
# ---------------------------------------------------------------------- #
class TestProgress:
    def test_stream_preserves_emission_order(self, config, store_dir):
        with ServerThread(_server(config, store_dir)) as address:
            client = Client(address)
            ack = client.submit("serve:steps", {"steps": 25})
            events = list(client.watch(ack["job_id"]))
        types = [e["type"] for e in events]
        assert types[0] == "job_queued"
        assert types[-1] == "job_done"
        steps = [e["step"] for e in events if e["type"] == "attack_step"]
        assert steps == list(range(25))

    def test_late_watcher_gets_full_replay(self, config, store_dir):
        """Watching after completion replays the identical history."""
        with ServerThread(_server(config, store_dir)) as address:
            client = Client(address)
            ack = client.submit("serve:steps", {"steps": 5})
            client.result(ack["job_id"])          # job is finished now
            first = list(client.watch(ack["job_id"]))
            second = list(client.watch(ack["job_id"]))
        assert [e["type"] for e in first] == [e["type"] for e in second]
        assert [e["step"] for e in first if e["type"] == "attack_step"] == \
            list(range(5))

    def test_history_is_bounded(self):
        job = Job(JobSpec(kind="serve:echo"), key="k")
        for index in range(EVENT_HISTORY_LIMIT + 10):
            job.publish({"type": "attack_step", "step": index})
        assert job.history_truncated
        assert len(job.history) <= EVENT_HISTORY_LIMIT + 1
        assert job.events_seen == EVENT_HISTORY_LIMIT + 10
        # The surviving suffix is contiguous and ends with the last event.
        steps = [e["step"] for e in job.history]
        assert steps == list(range(steps[0], EVENT_HISTORY_LIMIT + 10))


# ---------------------------------------------------------------------- #
# Lifecycle: retries, cancellation, shutdown
# ---------------------------------------------------------------------- #
class TestLifecycle:
    def test_transient_failure_retries_transparently(self, config, store_dir,
                                                     tmp_path):
        marker = str(tmp_path / "marker")
        with ServerThread(_server(config, store_dir)) as address:
            client = Client(address)
            ack = client.submit("serve:flaky", {"marker": marker})
            result = client.result(ack["job_id"])
            assert result["result"]["value"] == {"recovered": True}
            status = client.status(ack["job_id"])
            assert status["state"] == DONE
            assert status["attempts"] == 2 and status["retries"] == 1
            assert client.stats()["jobs"]["retries"] == 1

    def test_permanent_failure_fails_fast(self, config, store_dir):
        with ServerThread(_server(config, store_dir)) as address:
            client = Client(address)
            ack = client.submit("serve:boom", {})
            with pytest.raises(ServeError, match="deterministic failure"):
                client.result(ack["job_id"])
            status = client.status(ack["job_id"])
            assert status["state"] == "failed"
            assert status["attempts"] == 1       # ValueError: no retry

    def test_cancel_queued_job(self, config, store_dir, tmp_path):
        with ServerThread(_server(config, store_dir, jobs=1)) as address:
            client = Client(address)
            running = client.submit("serve:slow", {"sleep": 0.6})
            deadline = time.time() + 5.0
            while (client.status(running["job_id"])["state"] != "running"
                   and time.time() < deadline):
                time.sleep(0.02)
            queued = client.submit("serve:echo", {"x": "doomed"})
            assert queued["job_id"] != running["job_id"]
            cancel = client.cancel(queued["job_id"])
            assert cancel["cancelling"]
            with pytest.raises(ServeError, match="never preempted"):
                client.cancel(running["job_id"])
            with pytest.raises(ServeError, match="cancelled"):
                client.result(queued["job_id"])
            client.result(running["job_id"])     # the runner still finishes

    def test_graceful_shutdown_drains_jobs_in_flight(self, config,
                                                     store_dir, tmp_path):
        ledger = str(tmp_path / "ledger.txt")
        runner = ServerThread(_server(config, store_dir))
        address = runner.start()
        client = Client(address)
        params = {"ledger": ledger, "sleep": 0.5, "x": 1}
        ack = client.submit("serve:count", params)
        assert not runner.server.counters["done"]
        runner.stop(drain=True)                  # blocks until drained
        assert runner.server.counters["done"] == 1
        # The drained job's payload made it into the store, durably.
        assert ResultStore(store_dir).contains(ack["job_id"], count=False)
        with open(ledger, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 1
        # A stopping server rejects new submissions outright.
        refused = runner.server._submit({"kind": "serve:echo", "params": {}})
        assert not refused["ok"] and "shutting down" in refused["error"]

    def test_warm_workers_are_reused_across_jobs(self, config, store_dir):
        with ServerThread(_server(config, store_dir, jobs=1)) as address:
            client = Client(address)
            pids = set()
            for x in ("a", "b", "c"):
                ack = client.submit("serve:echo", {"x": x})
                result = client.result(ack["job_id"])
                pids.add(result["result"]["value"]["pid"])
        assert len(pids) == 1                    # one warm process, three jobs

    def test_stats_shape(self, config, store_dir):
        with ServerThread(_server(config, store_dir)) as address:
            client = Client(address)
            stats = client.stats()
        assert stats["pool"]["workers"] == 2
        assert stats["store"]["root"] == store_dir
        assert set(stats["jobs"]) >= {"submitted", "computed", "done",
                                      "dedup_inflight", "dedup_store"}

    def test_stats_latency_covers_computed_jobs(self, config, store_dir):
        jobs = [{"x": x} for x in range(4)]
        with ServerThread(_server(config, store_dir)) as address:
            client = Client(address)
            for params in jobs:
                client.result(client.submit("serve:echo", params)["job_id"])
            latency = client.stats()["latency"]
            for params in jobs:              # re-requests compute nothing
                client.result(client.submit("serve:echo", params)["job_id"])
            assert client.stats()["latency"]["jobs"] == len(jobs)
        with ServerThread(_server(config, store_dir)) as address:
            client = Client(address)
            for params in jobs:              # store hits on a fresh server
                assert client.submit("serve:echo", params)["cached"]
            assert client.stats()["latency"] == {
                "jobs": 0, "percentiles": [50, 95, 99], "request_s": [],
                "compute_s": [], "queue_wait_s": []}
        assert latency["jobs"] == len(jobs)
        assert latency["percentiles"] == [50, 95, 99]
        for name in ("request_s", "compute_s", "queue_wait_s"):
            assert len(latency[name]) == 3
            assert latency[name] == sorted(latency[name])
        assert all(compute <= request for compute, request
                   in zip(latency["compute_s"], latency["request_s"]))

    def test_hung_job_times_out_and_retries_on_a_fresh_pool(
            self, config, store_dir, tmp_path):
        marker = str(tmp_path / "hang-marker")
        server = _server(config, store_dir, jobs=1,
                         retry=_fast_retry(task_timeout=1.0))
        with ServerThread(server) as address:
            client = Client(address)
            ack = client.submit("serve:hang_once", {"marker": marker})
            result = client.result(ack["job_id"], timeout=30.0)
            assert result["result"]["value"] == {"recovered": True}
            status = client.status(ack["job_id"])
            stats = client.stats()
        assert status["state"] == DONE and status["attempts"] == 2
        assert stats["jobs"]["timeouts"] == 1
        assert stats["pool"]["rebuilds"] == 1

    def test_dead_worker_breaks_the_pool_and_the_job_retries(
            self, config, store_dir, tmp_path):
        marker = str(tmp_path / "die-marker")
        with ServerThread(_server(config, store_dir, jobs=1)) as address:
            client = Client(address)
            ack = client.submit("serve:die_once", {"marker": marker})
            result = client.result(ack["job_id"], timeout=30.0)
            assert result["result"]["value"] == {"recovered": True}
            status = client.status(ack["job_id"])
            stats = client.stats()
        assert status["state"] == DONE and status["attempts"] == 2
        assert stats["pool"]["rebuilds"] == 1

    def test_hung_task_op_times_out_and_the_next_one_runs(
            self, config, store_dir):
        with ServerThread(_server(config, store_dir, jobs=1)) as address:
            client = Client(address)
            with pytest.raises(ServeError) as raised:
                client.task("hung", "serve:slow", {"sleep": 60.0}, {},
                            timeout=1.0)
            assert not raised.value.response["ok"]
            assert "TaskTimeoutError" in raised.value.response["error_types"]
            answer = client.task("next", "serve:echo", {"x": "after"}, {})
            assert answer["ok"] and not answer["hit"]
            stats = client.stats()
        assert stats["jobs"]["timeouts"] == 1
        assert stats["pool"]["rebuilds"] == 1

    @pytest.mark.parametrize("method", ["get_bytes", "put"])
    def test_unreachable_store_fails_a_task_op_as_transient(
            self, config, store_dir, monkeypatch, method):
        """A shared store that is down during a ``task`` op is answered
        with its error types, so the scheduler retries the task."""
        server = _server(config, store_dir)

        def unreachable(*args, **kwargs):
            raise StoreUnavailableError("store daemon unreachable")

        monkeypatch.setattr(server.store, method, unreachable)
        with ServerThread(server) as address:
            client = Client(address)
            with pytest.raises(ServeError) as raised:
                client.task("t", "serve:echo", {"x": 1}, {}, key="ab" * 32)
            assert client.ping()["ok"]
        error_types = raised.value.response["error_types"]
        assert "StoreUnavailableError" in error_types
        assert "TransientTaskError" in error_types
        assert classify_error(error_types) == TRANSIENT

    @pytest.mark.parametrize("failures, state, attempts", [
        (1, DONE, 2),           # a transient write failure retries
        (99, "failed", 3),      # ...until the attempt budget runs out
    ])
    def test_a_failed_result_write_fails_the_attempt(
            self, config, store_dir, monkeypatch, failures, state, attempts):
        server = _server(config, store_dir)
        put = server.store.put
        calls = []

        def flaky_put(*args, **kwargs):
            calls.append(args[0])
            if len(calls) <= failures:
                raise StoreUnavailableError("store daemon unreachable")
            return put(*args, **kwargs)

        monkeypatch.setattr(server.store, "put", flaky_put)
        with ServerThread(server) as address:
            client = Client(address)
            ack = client.submit("serve:echo", {"x": "written"})
            try:
                result = client.result(ack["job_id"], timeout=30.0)
            except ServeError as error:
                result = error.response
            status = client.status(ack["job_id"])
        assert status["state"] == state and status["attempts"] == attempts
        assert len(calls) == attempts
        if state == DONE:
            assert result["result"]["value"]["echo"] == "written"
        else:
            assert not result["ok"]
            assert "result write failed" in result["error"]
            assert "StoreUnavailableError" in result["error"]

    def test_a_peer_that_hung_up_gets_no_answer(self, config, store_dir,
                                                monkeypatch, caplog):
        """A connection error while serving a request (a watcher that
        disconnected mid-stream) ends the connection quietly: no reply
        written, no error logged."""
        server = _server(config, store_dir)

        async def hung_up(job, writer):
            raise ConnectionResetError("peer closed the connection")

        monkeypatch.setattr(server, "_get_job", lambda message: None)
        monkeypatch.setattr(server, "_watch", hung_up)
        writer = mock.Mock()
        with pytest.raises(ConnectionResetError):
            asyncio.run(server._dispatch({"op": "watch", "id": "j"}, writer))
        writer.write.assert_not_called()
        assert not [r for r in caplog.records if r.levelname == "ERROR"]

    def test_stalled_client_does_not_block_stop(self, config, store_dir):
        """A connection that has not finished sending its request has
        asked for nothing: ``stop()`` closes it instead of waiting out
        the frame deadline."""
        runner = ServerThread(_server(config, store_dir))
        address = runner.start()
        with socket.create_connection(address, timeout=30.0) as sock:
            sock.sendall(b'{"op": "pi')
            assert Client(address).ping()["ok"]     # the handler is waiting
            started = time.monotonic()
            runner.stop(timeout=5.0)
            assert time.monotonic() - started < 2.0
            assert not runner._thread.is_alive()
            assert sock.recv(1024) == b""           # closed, no answer

    def test_shutdown_op_stops_the_server(self, config, store_dir):
        runner = ServerThread(_server(config, store_dir))
        address = runner.start()
        client = Client(address)
        assert client.shutdown(drain=True)["stopping"]
        deadline = time.time() + 10.0
        while runner._thread.is_alive() and time.time() < deadline:
            time.sleep(0.05)
        assert not runner._thread.is_alive()
