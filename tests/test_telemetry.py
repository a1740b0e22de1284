"""Tests for ``repro.telemetry``: tracing, stats, profiling, summarize.

The tentpole invariants live here:

* **schema** — every event a traced run emits is one well-formed JSON
  object with the shared envelope (``type``/``ts``/``pid``);
* **bitwise neutrality** — attack trajectories are bit-for-bit identical
  with tracing off and on, for every engine in both compute policies
  (telemetry only reads values, never touches RNG or arrays);
* **serial/batched parity** — ``batch_scenes > 1`` emits exactly the same
  per-scene step events as the serial path, for every engine;
* **scheduler integration** — per-task events, ``TaskRecord.stats``,
  ``RunReport`` rollups and the result-store session counters agree.
"""

from __future__ import annotations

import io
import json
from collections import Counter

import numpy as np
import pytest

from repro.core import run_attack, run_attack_batch
from repro.datasets import generate_room_scene
from repro.models import build_model
from repro.pipeline import ResultStore, Task, TaskGraph, register_executor, run_graph
from repro.pipeline.progress import CACHED, RAN, ProgressReporter, RunReport, TaskRecord
from repro.telemetry import (
    TRACE_SCHEMA_VERSION,
    NullTracer,
    Tracer,
    build_manifest,
    cache_totals,
    collect_stats,
    get_tracer,
    install_tracer,
    read_events,
    summarize_events,
    summarize_path,
    trace_to,
)
from repro.telemetry.profiler import profile_ops
from repro.telemetry.summarize import main as summarize_main

from test_engine_contract import ENGINES, POLICIES, make_config

# ---------------------------------------------------------------------- #
# Fixtures
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def telemetry_scenes():
    rng = np.random.default_rng(29)
    return [generate_room_scene(num_points=96, room_type="office", rng=rng,
                                name=f"telemetry_{i}")
            for i in range(2)]


@pytest.fixture(scope="module")
def telemetry_model():
    model = build_model("pointnet2", num_classes=13, hidden=16, seed=0)
    model.eval()
    return model


def _trace_events(stream: io.StringIO):
    events = []
    for line in stream.getvalue().splitlines():
        events.append(json.loads(line))
    return events


# ---------------------------------------------------------------------- #
# Tracer unit behaviour
# ---------------------------------------------------------------------- #
class TestTracer:
    def test_null_tracer_is_default_and_inert(self):
        tracer = get_tracer()
        assert isinstance(tracer, NullTracer)
        assert not tracer.enabled
        tracer.emit("anything", x=1)
        with tracer.span("noop"):
            pass
        tracer.count("n", 3)
        assert tracer.counters() == {}

    def test_emit_envelope_and_jsonl(self):
        stream = io.StringIO()
        tracer = Tracer(stream=stream)
        tracer.emit("custom", value=1.5, arr=np.arange(2))
        tracer.close()
        events = _trace_events(stream)
        assert len(events) == 1
        event = events[0]
        assert event["type"] == "custom"
        assert isinstance(event["ts"], float)
        assert isinstance(event["pid"], int)
        assert event["value"] == 1.5
        assert event["arr"] == [0, 1]    # numpy coerced, not str()-mangled

    def test_manifest_is_first_event(self):
        stream = io.StringIO()
        tracer = Tracer(stream=stream, manifest={"config_salt": {"seed": 0}})
        tracer.emit("later")
        tracer.close()
        events = _trace_events(stream)
        assert events[0]["type"] == "manifest"
        assert events[0]["schema"] == TRACE_SCHEMA_VERSION
        assert events[0]["config_salt"] == {"seed": 0}
        assert events[1]["type"] == "later"

    def test_span_and_counters(self):
        stream = io.StringIO()
        tracer = Tracer(stream=stream)
        with tracer.span("work", label="x"):
            pass
        tracer.count("events", 2)
        tracer.count("events", 3)
        tracer.close()
        events = _trace_events(stream)
        span = next(e for e in events if e["type"] == "span")
        assert span["name"] == "work" and span["label"] == "x"
        assert span["dur_s"] >= 0.0
        counters = next(e for e in events if e["type"] == "counters")
        assert counters["values"] == {"events": 5}

    def test_close_is_idempotent_and_silences_emit(self):
        stream = io.StringIO()
        tracer = Tracer(stream=stream)
        tracer.close()
        tracer.close()
        tracer.emit("after_close")
        assert _trace_events(stream) == []

    def test_path_mode_appends_and_requires_exactly_one_sink(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        for value in (1, 2):
            tracer = Tracer(path)
            tracer.emit("e", value=value)
            tracer.close()
        events = read_events(path)
        assert [e["value"] for e in events] == [1, 2]
        with pytest.raises(ValueError):
            Tracer()
        with pytest.raises(ValueError):
            Tracer(path, stream=io.StringIO())

    def test_read_events_skips_malformed(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type":"ok"}\nnot json\n\n{"type":"ok2"}\n')
        assert [e["type"] for e in read_events(str(path))] == ["ok", "ok2"]

    def test_install_and_trace_to_restore(self):
        before = get_tracer()
        stream = io.StringIO()
        with trace_to(stream=stream) as tracer:
            assert get_tracer() is tracer
            assert tracer.enabled
        assert get_tracer() is before
        previous = install_tracer(None)
        assert previous is before


class TestManifest:
    def test_build_manifest_fields(self):
        manifest = build_manifest(salt={"config": {"seed": 7}},
                                  extra={"jobs": 2})
        for key in ("argv", "python", "numpy", "platform", "host"):
            assert key in manifest
        assert manifest["config_salt"] == {"config": {"seed": 7}}
        assert manifest["jobs"] == 2
        json.dumps(manifest)    # must be JSON-serialisable as-is


# ---------------------------------------------------------------------- #
# Tentpole: tracing never changes trajectories
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestBitwiseNeutrality:
    def test_traced_run_is_bit_identical(self, telemetry_model,
                                         telemetry_scenes, engine, policy):
        config = make_config(engine, policy)
        plain = run_attack(telemetry_model, telemetry_scenes[0], config)
        stream = io.StringIO()
        with trace_to(stream=stream):
            traced = run_attack(telemetry_model, telemetry_scenes[0], config)
        np.testing.assert_array_equal(plain.adversarial_colors,
                                      traced.adversarial_colors)
        np.testing.assert_array_equal(plain.adversarial_coords,
                                      traced.adversarial_coords)
        assert plain.history == traced.history
        assert plain.l2 == traced.l2
        assert plain.converged == traced.converged
        # ... and the trace actually captured the run.
        events = _trace_events(stream)
        types = Counter(e["type"] for e in events)
        assert types["attack_run"] == 1
        assert types["attack_step"] == len(traced.history)


# ---------------------------------------------------------------------- #
# Satellite: serial == batched event parity
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestEventParity:
    def test_serial_vs_batched_events(self, telemetry_model,
                                      telemetry_scenes, engine):
        def run(batch_scenes):
            config = make_config(engine, "fast", batch_scenes=batch_scenes)
            stream = io.StringIO()
            with trace_to(stream=stream):
                run_attack_batch(telemetry_model, telemetry_scenes, config)
            return _trace_events(stream)

        serial = run(1)
        batched = run(len(telemetry_scenes))

        def step_keys(events):
            return Counter((e["scene"], e["step"]) for e in events
                           if e["type"] == "attack_step")

        def type_counts(events):
            drop = {"attack_run"}   # run granularity differs by design
            return Counter(e["type"] for e in events if e["type"] not in drop)

        assert step_keys(serial) == step_keys(batched)
        assert type_counts(serial) == type_counts(batched)
        # Per-scene loss values in the step events must agree bitwise too.
        def losses(events):
            return {(e["scene"], e["step"]): e["loss"] for e in events
                    if e["type"] == "attack_step"}
        assert losses(serial) == losses(batched)


# ---------------------------------------------------------------------- #
# The step and convergence events' fields, which serve `watch` clients and
# `telemetry summarize` read
# ---------------------------------------------------------------------- #
_ENVELOPE = {"type", "ts", "pid"}
_STEP_FIELDS = _ENVELOPE | {"engine", "scene", "step", "loss", "gain", "pnorm"}
_BLACKBOX = {"nes", "spsa", "boundary"}


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestEventFields:
    def _events(self, model, scene, config):
        stream = io.StringIO()
        with trace_to(stream=stream):
            run_attack(model, scene, config)
        return _trace_events(stream)

    def test_attack_step_fields(self, telemetry_model, telemetry_scenes,
                                engine, policy):
        events = self._events(telemetry_model, telemetry_scenes[0],
                              make_config(engine, policy))
        steps = [e for e in events if e["type"] == "attack_step"]
        assert steps
        expected = _STEP_FIELDS | ({"queries"} if engine in _BLACKBOX
                                   else set())
        for event in steps:
            assert set(event) == expected
            assert event["engine"] == engine
            assert type(event["step"]) is int

    def test_attack_converged_when_trivially_met(self, telemetry_model,
                                                 telemetry_scenes, engine,
                                                 policy):
        events = self._events(
            telemetry_model, telemetry_scenes[0],
            make_config(engine, policy, target_accuracy=1.0))
        converged = [e for e in events if e["type"] == "attack_converged"]
        assert len(converged) == 1
        assert set(converged[0]) == _ENVELOPE | {"engine", "scene", "step"}
        assert converged[0]["engine"] == engine
        assert converged[0]["step"] == 1


# ---------------------------------------------------------------------- #
# attack_run events carry the per-run cache counters
# ---------------------------------------------------------------------- #
class TestAttackRunStats:
    def test_cache_stats_reported_per_run(self, telemetry_model,
                                          telemetry_scenes):
        from repro.accel import last_attack_cache_stats
        config = make_config("bounded", "fast")
        stream = io.StringIO()
        with trace_to(stream=stream):
            run_attack(telemetry_model, telemetry_scenes[0], config)
        events = _trace_events(stream)
        run_event = next(e for e in events if e["type"] == "attack_run")
        assert run_event["engine"] == "bounded"
        assert run_event["dur_s"] > 0
        cache = run_event["cache"]
        for key in ("exact_hits", "stale_hits", "misses", "tree_hits"):
            assert cache[key] >= 0
        # The event mirrors NeighborhoodCache.stats() of that run exactly.
        assert cache == last_attack_cache_stats()
        assert cache["misses"] >= 1     # first lookup is always a miss
        totals = cache_totals([run_event])
        assert totals["misses"] == cache["misses"]

    def test_counters_reset_between_runs(self, telemetry_model,
                                         telemetry_scenes):
        """Satellite 1: multi-cell runs must not accumulate stale totals."""
        config = make_config("bounded", "fast")
        stream = io.StringIO()
        with trace_to(stream=stream):
            run_attack(telemetry_model, telemetry_scenes[0], config)
            run_attack(telemetry_model, telemetry_scenes[0], config)
        runs = [e for e in _trace_events(stream) if e["type"] == "attack_run"]
        assert len(runs) == 2
        assert runs[0]["cache"] == runs[1]["cache"]

    def test_cpu_time_and_faults_reported_per_run(self, telemetry_model,
                                                   telemetry_scenes,
                                                   tmp_path):
        """``attack_run`` carries the block's user and system time and minor
        faults, and the engine table prints the system time."""
        path = tmp_path / "trace.jsonl"
        with trace_to(str(path)):
            run_attack(telemetry_model, telemetry_scenes[0],
                       make_config("bounded", "fast"))
        run_event = next(e for e in read_events(str(path))
                         if e["type"] == "attack_run")
        assert run_event["user_s"] >= 0 and run_event["sys_s"] >= 0
        assert isinstance(run_event["minflt"], int)
        assert run_event["minflt"] >= 0
        table = summarize_path(str(path)).split(
            "== attack engines ==\n")[1].split("\n\n")[0].splitlines()
        assert table[0].split() == ["engine", "runs", "steps", "events",
                                    "wall_s", "sys_s", "ms/step"]
        row = dict(zip(table[0].split(), table[1].split()))
        assert row["engine"] == "bounded"
        assert row["sys_s"] == f"{run_event['sys_s']:.2f}"


class TestStatsCollector:
    def test_collects_attack_and_ambient_deltas(self, telemetry_model,
                                                telemetry_scenes):
        config = make_config("bounded", "fast")
        with collect_stats() as collector:
            run_attack(telemetry_model, telemetry_scenes[0], config)
        stats = collector.as_dict()
        assert stats["attacks"] == 1
        assert stats["attack_steps"] >= 1
        assert stats["misses"] >= 1

    def test_ambient_diff_not_process_totals(self):
        from repro.accel.cache import _default_cache
        base = _default_cache.stats()
        with collect_stats() as outer:
            pass
        delta = outer.as_dict()
        # Nothing ran inside: the collector must report zero ambient traffic
        # even though the process-default cache has lived for many tests.
        assert delta["exact_hits"] == 0 and delta["misses"] == 0
        assert base == _default_cache.stats()


class TestCacheResetStats:
    def test_reset_zeroes_counters_not_step_clock(self):
        from repro.accel.cache import NeighborhoodCache
        cache = NeighborhoodCache(refresh_interval=3)
        cache.advance()
        cache.advance()
        step_before = cache.stats()["step"]
        cache.reset_stats()
        stats = cache.stats()
        assert stats["step"] == step_before
        for key in ("exact_hits", "stale_hits", "misses", "tree_hits"):
            assert stats[key] == 0


# ---------------------------------------------------------------------- #
# Scheduler + store integration
# ---------------------------------------------------------------------- #
@register_executor("tel:value")
def _tel_value(context, params, deps):
    return params["value"]


@register_executor("tel:sum")
def _tel_sum(context, params, deps):
    return sum(deps.values())


def _tel_graph() -> TaskGraph:
    graph = TaskGraph(result="total")
    graph.add(Task("one", "tel:value", {"value": 1}))
    graph.add(Task("two", "tel:value", {"value": 2}))
    graph.add(Task("total", "tel:sum", {}, deps=("one", "two")))
    return graph


class TestSchedulerTelemetry:
    def test_task_events_match_records(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        stream = io.StringIO()
        with trace_to(stream=stream):
            result = run_graph(_tel_graph(), {"seed": 0}, store=store)
        events = _trace_events(stream)
        tasks = [e for e in events if e["type"] == "task"]
        assert {e["task_id"] for e in tasks} == {"one", "two", "total"}
        assert all(e["status"] == RAN for e in tasks)
        total = next(e for e in tasks if e["task_id"] == "total")
        assert sorted(total["deps"]) == ["one", "two"]
        report = next(e for e in events if e["type"] == "run_report")
        assert report["jobs"] == 1
        assert report["counts"][RAN] == 3
        assert report["store"]["bytes_written"] > 0
        # Per-task spans must sum (within overhead) to the report wall time.
        busy = sum(e["elapsed"] for e in tasks)
        assert busy <= result.report.wall_time
        assert report["busy_s"] == pytest.approx(busy)

    def test_records_and_store_session_stats(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        first = run_graph(_tel_graph(), {"seed": 0}, store=store)
        assert all(r.stats is not None for r in first.report.records
                   if r.status == RAN)
        assert first.report.store_stats["misses"] >= 3
        assert first.report.store_stats["bytes_written"] > 0
        # Second run from the same store: all cached, session stats fresh.
        store2 = ResultStore(str(tmp_path / "store"))
        second = run_graph(_tel_graph(), {"seed": 0}, store=store2)
        assert second.report.count(CACHED) == 3
        assert second.report.store_stats["hits"] == 3
        assert second.report.store_stats["bytes_read"] > 0
        assert second.report.store_stats["bytes_written"] == 0
        assert "3 cached" in second.report.summary()
        assert "store 3 hits" in second.report.summary()

    def test_untraced_run_unchanged(self, tmp_path):
        result = run_graph(_tel_graph(), {"seed": 0})
        assert result.result == 3
        assert result.report.succeeded


class TestRunReportRollup:
    def test_cache_stats_aggregates_records(self):
        report = RunReport()
        report.add(TaskRecord("a", "k", RAN,
                              stats={"exact_hits": 3, "misses": 1,
                                     "attacks": 1, "attack_steps": 5}))
        report.add(TaskRecord("b", "k", RAN,
                              stats={"exact_hits": 2, "misses": 1,
                                     "stale_hits": 4}))
        report.add(TaskRecord("c", "k", CACHED))    # no stats: skipped
        totals = report.cache_stats()
        assert totals["exact_hits"] == 5
        assert totals["stale_hits"] == 4
        assert totals["misses"] == 2
        assert totals["attacks"] == 1 and totals["attack_steps"] == 5
        assert "nbr-cache 9/11 hits" in report.summary()


# ---------------------------------------------------------------------- #
# Satellite 2: progress reporter flushing
# ---------------------------------------------------------------------- #
class TestProgressReporter:
    def test_non_tty_stream_gets_flushed_lines(self):
        flushes = []

        class Recorder(io.StringIO):
            def flush(self):
                flushes.append(True)
                super().flush()

        stream = Recorder()
        reporter = ProgressReporter(total=2, stream=stream)
        assert reporter.is_tty is False
        reporter.task_done(TaskRecord("cell/a", "attack", RAN, elapsed=1.0))
        reporter.task_done(TaskRecord("cell/b", "attack", CACHED))
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0].endswith("(1.0s)")
        assert "cell/b" in lines[1]
        assert len(flushes) >= 2

    def test_broken_stream_never_raises(self):
        class Broken:
            def write(self, text):
                raise OSError("pipe closed")
            def isatty(self):
                raise ValueError("closed")

        reporter = ProgressReporter(total=1, stream=Broken())
        assert reporter.is_tty is False
        reporter.task_done(TaskRecord("cell/a", "attack", RAN))   # no raise
        assert reporter.done == 1

    def test_disabled_reporter_writes_nothing(self):
        stream = io.StringIO()
        reporter = ProgressReporter(total=1, stream=stream, enabled=False)
        reporter.task_done(TaskRecord("cell/a", "attack", RAN))
        assert stream.getvalue() == ""


# ---------------------------------------------------------------------- #
# Result-store session counters
# ---------------------------------------------------------------------- #
class TestStoreSessionStats:
    def test_put_get_contains_counting(self, tmp_path):
        store = ResultStore(str(tmp_path))
        assert store.session_stats() == {"hits": 0, "misses": 0,
                                         "quarantined": 0,
                                         "bytes_read": 0, "bytes_written": 0}
        key = "ab" + "0" * 62
        assert not store.contains(key)
        store.put(key, {"x": 1})
        assert store.contains(key)
        assert store.get(key) == {"x": 1}
        with pytest.raises(KeyError):
            store.get("cd" + "0" * 62)
        stats = store.session_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 2     # failed contains + failed get
        assert stats["bytes_written"] > 0
        assert stats["bytes_read"] > 0


# ---------------------------------------------------------------------- #
# Profiler
# ---------------------------------------------------------------------- #
class TestProfiler:
    def test_profile_ops_counts_forward_and_backward(self):
        from repro.nn import Tensor
        with profile_ops() as profile:
            x = Tensor(np.ones((4, 4)), requires_grad=True)
            y = ((x * 2.0) + 1.0).sum()
            y.backward()
        for name in ("mul", "add", "sum"):
            assert profile.forward[name][0] == 1
            assert profile.backward[name][0] == 1
        rows = profile.top(5)
        assert rows and all(len(row) == 4 for row in rows)
        assert "op" in profile.table(3)

    def test_free_functions_are_profiled_forward_and_backward(self):
        from repro.nn import Tensor, concatenate, gather_points, where
        rng = np.random.default_rng(0)
        with profile_ops() as profile:
            x = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
            picked = gather_points(x, rng.integers(0, 5, size=(2, 4, 2)))
            joined = concatenate([picked, picked * 2.0], axis=-1)
            kept = where(joined.data > 0, joined, joined * 0.5)
            kept.sum().backward()
        for name in ("where", "gather_points", "concatenate"):
            assert profile.forward[name][0] == 1
            assert profile.backward[name][0] == 1

    def test_methods_restored_after_context(self):
        """Each context wraps the ``OPS`` kernels and puts back the ones
        it found, so nested profiles unwind in order."""
        from repro.nn.ops import OPS

        def kernels():
            return {name: (op.forward, op.forward_out, op.vjp)
                    for name, op in OPS.items()}

        before = kernels()
        with profile_ops():
            inside = kernels()
            assert all(inside[name][0] is not before[name][0] for name in OPS)
            assert inside["matmul"][1] is None          # no out= kernel
            assert inside["detached_max"][2] is None    # no VJP
            with profile_ops():
                assert kernels() != inside
            assert kernels() == inside
        assert kernels() == before

    def test_emits_event_into_tracer(self):
        from repro.nn import Tensor
        stream = io.StringIO()
        tracer = Tracer(stream=stream)
        with profile_ops(tracer=tracer, label="unit"):
            (Tensor(np.ones(3)) * 2.0).sum()
        tracer.close()
        event = next(e for e in _trace_events(stream)
                     if e["type"] == "op_profile")
        assert event["label"] == "unit"
        ops = {row["op"] for row in event["ops"]}
        assert {"mul", "sum"} <= ops

    def test_profiled_attack_is_bit_identical(self, telemetry_model,
                                              telemetry_scenes, monkeypatch):
        config = make_config("bounded", "fast")
        plain = run_attack(telemetry_model, telemetry_scenes[0], config)
        monkeypatch.setenv("REPRO_PROFILE_OPS", "1")
        stream = io.StringIO()
        with trace_to(stream=stream):
            profiled = run_attack(telemetry_model, telemetry_scenes[0], config)
        np.testing.assert_array_equal(plain.adversarial_colors,
                                      profiled.adversarial_colors)
        assert plain.history == profiled.history
        events = _trace_events(stream)
        assert any(e["type"] == "op_profile" for e in events)

    def test_profiled_nes_cell_is_bit_identical_and_counts_replays(
            self, telemetry_model, telemetry_scenes, monkeypatch):
        """A colour NES cell replays its query forwards; the profile books
        a replay's matmuls exactly as it books an eager forward's."""
        from repro.accel import last_attack_plan_stats
        from repro.core import blackbox as blackbox_mod

        config = make_config("nes", "fast")

        def profiled_matmuls():
            stream = io.StringIO()
            with trace_to(stream=stream):
                result = run_attack(telemetry_model, telemetry_scenes[0],
                                    config)
            [event] = [e for e in _trace_events(stream)
                       if e["type"] == "op_profile"]
            rows = {row["op"]: row for row in event["ops"]}
            return result, rows["matmul"]["calls"]

        plain = run_attack(telemetry_model, telemetry_scenes[0], config)
        monkeypatch.setenv("REPRO_PROFILE_OPS", "1")
        profiled, replayed_matmuls = profiled_matmuls()
        assert last_attack_plan_stats()["replays"] > 0
        monkeypatch.setattr(blackbox_mod, "plan_cache", lambda: None)
        eager, eager_matmuls = profiled_matmuls()
        assert last_attack_plan_stats()["replays"] == 0
        for result in (profiled, eager):
            np.testing.assert_array_equal(plain.adversarial_colors,
                                          result.adversarial_colors)
            assert plain.history == result.history
        assert replayed_matmuls == eager_matmuls > 0


# ---------------------------------------------------------------------- #
# Summarize tool
# ---------------------------------------------------------------------- #
class TestSummarize:
    def _traced_attack(self, model, scenes, path):
        config = make_config("bounded", "fast")
        with trace_to(str(path), manifest=build_manifest(salt={"seed": 0})):
            run_attack(model, scenes[0], config)

    def test_sections_render(self, telemetry_model, telemetry_scenes,
                             tmp_path):
        path = tmp_path / "trace.jsonl"
        self._traced_attack(telemetry_model, telemetry_scenes, path)
        text = summarize_path(str(path))
        assert "== manifest ==" in text
        assert "== attack engines ==" in text
        assert "bounded" in text
        assert "== neighbourhood cache ==" in text
        assert "hit rate" in text
        assert "== step curves" in text

    def test_cache_section_matches_run_events(self, telemetry_model,
                                              telemetry_scenes, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._traced_attack(telemetry_model, telemetry_scenes, path)
        events = read_events(str(path))
        runs = [e for e in events if e["type"] == "attack_run"]
        totals = cache_totals(runs)
        text = summarize_path(str(path))
        assert f"misses {totals['misses']}" in text
        assert f"exact_hits {totals['exact_hits']}" in text

    def test_cache_section_splits_regimes(self, telemetry_model,
                                          telemetry_scenes, tmp_path):
        """A colour and a coordinate cell get a row each (the regime the
        ``attack_run`` event carries); their lookups add up to the total."""
        path = tmp_path / "trace.jsonl"
        with trace_to(str(path)):
            for field in ("color", "coordinate"):
                config = make_config("bounded", "fast", field=field)
                assert config.cache_regime == field
                run_attack(telemetry_model, telemetry_scenes[0], config)
        runs = [e for e in read_events(str(path)) if e["type"] == "attack_run"]
        assert [run["regime"] for run in runs] == ["color", "coordinate"]
        section = summarize_path(str(path)).split(
            "== neighbourhood cache ==\n")[1].split("\n\n")[0]
        rows = {line.split()[0]: line.split() for line in section.splitlines()}
        assert set(rows) >= {"regime", "color", "coordinate", "total"}
        assert "unknown" not in rows
        lookups = {name: int(rows[name][2])
                   for name in ("color", "coordinate", "total")}
        assert lookups["color"] > 0 and lookups["coordinate"] > 0
        assert lookups["color"] + lookups["coordinate"] == lookups["total"]
        for run in runs:
            cache = run["cache"]
            assert int(rows[run["regime"]][2]) == (
                cache["exact_hits"] + cache["stale_hits"] + cache["misses"])
        # A trace written before the field existed still renders.
        legacy = {key: value for key, value in runs[0].items()
                  if key != "regime"}
        assert "\nunknown " in summarize_events([legacy])

    def test_scheduler_section_and_critical_path(self, tmp_path):
        path = tmp_path / "sched.jsonl"
        with trace_to(str(path)):
            run_graph(_tel_graph(), {"seed": 0})
        text = summarize_path(str(path))
        assert "== scheduler ==" in text
        assert "worker utilization" in text
        assert "critical path" in text
        assert "total" in text      # result task appears in the path

    def test_malformed_lines_reported_not_fatal(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type":"task","task_id":"a","status":"ran",'
                        '"elapsed":1.0}\ngarbage\n[1,2]\n')
        text = summarize_path(str(path))
        assert "2 malformed lines skipped" in text

    def test_empty_trace(self):
        text = summarize_events([])
        assert "(no attack events)" in text
        assert "0 events" in text

    def test_cli_main(self, telemetry_model, telemetry_scenes, tmp_path,
                      capsys):
        path = tmp_path / "trace.jsonl"
        self._traced_attack(telemetry_model, telemetry_scenes, path)
        assert summarize_main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "== attack engines ==" in out


class TestEngineName:
    def test_engine_name_property(self):
        assert make_config("bounded", "fast").engine_name == "bounded"
        assert make_config("unbounded", "fast").engine_name == "unbounded"
        assert make_config("nes", "fast").engine_name == "nes"
        assert make_config("spsa", "fast").engine_name == "spsa"
        assert make_config("boundary", "fast").engine_name == "boundary"
        noise = make_config("bounded", "fast", method="noise")
        assert noise.engine_name == "noise"

    def test_cache_regime_property(self):
        for engine in ("nes", "spsa", "boundary"):
            assert make_config(engine, "fast").cache_regime == "blackbox"
        adaptive = make_config("bounded", "fast", adaptive=True,
                               defense="jitter", field="coordinate")
        assert adaptive.cache_regime == "eot"
        for field in ("color", "coordinate", "both"):
            for engine in ("bounded", "unbounded"):
                config = make_config(engine, "fast", field=field)
                assert config.cache_regime == field
