"""Tests for the fault-tolerance layer (``repro.pipeline.resilience``).

Driven almost entirely through deterministic fault injection: retry with
backoff until success, permanent-error fail-fast, budget exhaustion with
dependent skipping, wall-clock timeout kills, broken-pool rebuilds,
degradation to serial execution, store integrity (checksum verification,
quarantine, whole-store audit) — and the headline guarantee that a run
which retried its way through faults produces bit-for-bit the same cached
payloads as an unfaulted run.
"""

import os

import pytest

from repro.experiments import ExperimentConfig
from repro.pipeline import (FaultPlan, PipelineSession, ResultStore,
                            RetryPolicy, Task, TaskGraph, WorkerCrashError,
                            classify_error, config_salt, register_executor,
                            run_graph)
from repro.pipeline.progress import CACHED, FAILED, RAN, SKIPPED
from repro.pipeline.resilience import (PERMANENT, TRANSIENT, FaultSpec,
                                       InjectedFault, TaskTimeoutError,
                                       corrupt_payload_file,
                                       error_type_names)
from repro.pipeline.worker import run_task

# ---------------------------------------------------------------------- #
# Stub executors (registered at import so fork workers inherit them)
# ---------------------------------------------------------------------- #


@register_executor("res:value")
def _res_value(context, params, deps):
    return params["value"]


@register_executor("res:sum")
def _res_sum(context, params, deps):
    return sum(deps.values()) + params.get("add", 0)


@register_executor("res:boom")
def _res_boom(context, params, deps):
    raise RuntimeError("deterministic boom")


#: Fast-backoff policy used throughout, so retry tests don't sleep for real.
def _policy(**overrides):
    defaults = dict(max_attempts=2, backoff_base=0.01, backoff_max=0.05)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


def _diamond() -> TaskGraph:
    graph = TaskGraph(result="d")
    graph.add(Task("a", "res:value", {"value": 1}))
    graph.add(Task("b", "res:sum", {"add": 10}, deps=("a",)))
    graph.add(Task("c", "res:sum", {"add": 100}, deps=("a",)))
    graph.add(Task("d", "res:sum", {}, deps=("b", "c")))
    return graph


def _statuses(result):
    return {r.task_id: r.status for r in result.report.records}


def _attempts(result):
    return {r.task_id: r.attempts for r in result.report.records}


# ---------------------------------------------------------------------- #
# Units: policy, classification, fault plans
# ---------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_retryable_respects_budget(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.retryable(1) and policy.retryable(2)
        assert not policy.retryable(3)

    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=2.0,
                             backoff_max=3.0, jitter=0.0)
        assert policy.delay("t", 1) == 1.0
        assert policy.delay("t", 2) == 2.0
        assert policy.delay("t", 3) == 3.0      # capped, not 4.0
        assert policy.delay("t", 9) == 3.0

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=1.0, jitter=0.25)
        first = policy.delay("table3/pct/unbounded", 1)
        assert first == policy.delay("table3/pct/unbounded", 1)
        assert 0.75 <= first <= 1.25
        # Different tasks/attempts de-synchronise.
        others = {policy.delay("other/task", 1), policy.delay("t", 2)}
        assert first not in others

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(task_timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_pool_rebuilds=-1)


class TestClassification:
    def test_transient_families(self):
        assert classify_error(["BrokenProcessPool", "BrokenExecutor"]) \
            == TRANSIENT
        assert classify_error(["ConnectionResetError", "OSError"]) == TRANSIENT
        assert classify_error(error_type_names(InjectedFault("x"))) \
            == TRANSIENT
        assert classify_error(error_type_names(WorkerCrashError("x"))) \
            == TRANSIENT
        assert classify_error(error_type_names(TaskTimeoutError("x"))) \
            == TRANSIENT

    def test_deterministic_errors_are_permanent(self):
        assert classify_error(error_type_names(RuntimeError("boom"))) \
            == PERMANENT
        assert classify_error(error_type_names(ValueError("bad"))) == PERMANENT
        assert classify_error(None) == PERMANENT
        assert classify_error([]) == PERMANENT

    def test_error_type_names_walks_mro(self):
        names = error_type_names(InjectedFault("x"))
        assert names[0] == "InjectedFault"
        assert "TransientTaskError" in names and "RuntimeError" in names
        assert "object" not in names


class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = FaultPlan.parse("table3/*=crash, cell=fail:2 ;slow=hang:1:20")
        assert [s.mode for s in plan.specs] == ["crash", "fail", "hang"]
        assert plan.specs[1].times == 2
        assert plan.specs[2].seconds == 20.0
        rebuilt = FaultPlan.from_specs(plan.as_specs())
        assert rebuilt.as_specs() == plan.as_specs()
        assert FaultPlan.parse(plan.text()).as_specs() == plan.as_specs()

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("no-equals-sign")
        with pytest.raises(ValueError):
            FaultPlan.parse("t=explode")
        with pytest.raises(ValueError):
            FaultPlan.parse("t=fail:many")

    def test_empty_plans(self):
        assert not FaultPlan.parse("")
        assert FaultPlan.from_specs(None) is None
        assert FaultPlan.from_specs([]) is None

    def test_matching_is_attempt_bounded(self):
        spec = FaultSpec(task="table3/*", mode="fail", times=2)
        assert spec.matches("table3/pct/unbounded", 1)
        assert spec.matches("table3/pct/unbounded", 2)
        assert not spec.matches("table3/pct/unbounded", 3)
        assert not spec.matches("table6/noise", 1)

    def test_inject_fail_then_succeed(self):
        plan = FaultPlan.parse("t=fail:2")
        for attempt in (1, 2):
            with pytest.raises(InjectedFault):
                plan.inject("t", attempt)
        plan.inject("t", 3)                     # no fault: returns quietly
        plan.inject("other", 1)

    def test_inject_crash_in_process_raises(self):
        with pytest.raises(WorkerCrashError):
            FaultPlan.parse("t=crash").inject("t", 1, allow_exit=False)

    def test_take_corruption_consumes_budget(self):
        plan = FaultPlan.parse("cell=corrupt:2")
        assert plan.take_corruption("cell")
        assert plan.take_corruption("cell")
        assert not plan.take_corruption("cell")
        assert not plan.take_corruption("other")

    def test_corrupt_payload_flips_bytes_keeps_length(self, tmp_path):
        path = str(tmp_path / "payload.pkl")
        original = bytes(range(64))
        with open(path, "wb") as handle:
            handle.write(original)
        corrupt_payload_file(path)
        with open(path, "rb") as handle:
            damaged = handle.read()
        assert len(damaged) == len(original)
        assert damaged != original


# ---------------------------------------------------------------------- #
# Scheduler: serial retries
# ---------------------------------------------------------------------- #
class TestSerialRetries:
    def test_transient_failures_retry_then_succeed(self):
        result = run_graph(_diamond(), {}, retry=_policy(max_attempts=3),
                           faults=FaultPlan.parse("b=fail:2"))
        assert result.succeeded and result.result == 112
        assert _attempts(result)["b"] == 3
        assert result.report.retries == 2

    def test_injected_crash_is_transient_in_serial(self):
        result = run_graph(_diamond(), {}, retry=_policy(),
                           faults=FaultPlan.parse("c=crash:1"))
        assert result.succeeded and result.result == 112
        assert _attempts(result)["c"] == 2

    def test_permanent_errors_fail_fast(self):
        graph = TaskGraph()
        graph.add(Task("bad", "res:boom", {}))
        result = run_graph(graph, {}, retry=_policy(max_attempts=5))
        assert _statuses(result) == {"bad": FAILED}
        assert _attempts(result)["bad"] == 1    # no budget burned on retries
        assert result.report.retries == 0
        assert "deterministic boom" in result.report.failures()[0].error

    def test_budget_exhaustion_fails_and_skips_dependents(self):
        result = run_graph(_diamond(), {}, retry=_policy(max_attempts=2),
                           faults=FaultPlan.parse("b=fail:5"))
        statuses = _statuses(result)
        assert statuses["b"] == FAILED and statuses["d"] == SKIPPED
        assert statuses["a"] == RAN and statuses["c"] == RAN
        assert _attempts(result)["b"] == 2
        assert result.report.retries == 1

    def test_no_retries_when_budget_is_one(self):
        result = run_graph(_diamond(), {}, retry=_policy(max_attempts=1),
                           faults=FaultPlan.parse("b=fail:1"))
        assert _statuses(result)["b"] == FAILED
        assert result.report.retries == 0


# ---------------------------------------------------------------------- #
# Scheduler: parallel recovery
# ---------------------------------------------------------------------- #
class TestParallelRecovery:
    def test_transient_failure_retries_in_parallel(self):
        result = run_graph(_diamond(), {}, jobs=2,
                           retry=_policy(max_attempts=3),
                           faults=FaultPlan.parse("b=fail:2"))
        assert result.succeeded and result.result == 112
        assert _attempts(result)["b"] == 3
        assert result.report.retries == 2

    def test_worker_crash_rebuilds_pool_and_completes(self):
        result = run_graph(_diamond(), {}, jobs=2, retry=_policy(),
                           faults=FaultPlan.parse("b=crash:1"))
        assert result.succeeded and result.result == 112
        assert result.report.pool_rebuilds >= 1
        assert not result.report.degraded
        assert _attempts(result)["b"] == 2

    def test_hung_task_is_killed_at_deadline_and_retried(self):
        # Attempt 1 hangs far beyond the deadline; the scheduler terminates
        # its worker at ~1s, the attempt counts as a transient timeout, and
        # attempt 2 (fault exhausted) succeeds.
        result = run_graph(_diamond(), {}, jobs=2,
                           retry=_policy(max_attempts=2, task_timeout=1.0),
                           faults=FaultPlan.parse("c=hang:1:60"))
        assert result.succeeded and result.result == 112
        assert result.report.timeouts == 1
        assert _attempts(result)["c"] == 2

    def test_per_task_timeout_overrides_policy(self):
        graph = TaskGraph(result="slow")
        graph.add(Task("slow", "res:value", {"value": 7}, timeout=1.0))
        result = run_graph(graph, {}, jobs=2,
                           retry=_policy(max_attempts=2),
                           faults=FaultPlan.parse("slow=hang:1:60"))
        assert result.succeeded and result.result == 7
        assert result.report.timeouts == 1

    def test_timeout_exhaustion_fails_task(self):
        graph = TaskGraph()
        graph.add(Task("hang", "res:value", {"value": 1}))
        graph.add(Task("after", "res:sum", {}, deps=("hang",)))
        result = run_graph(graph, {}, jobs=2,
                           retry=_policy(max_attempts=1, task_timeout=0.5),
                           faults=FaultPlan.parse("hang=hang:5:60"))
        statuses = _statuses(result)
        assert statuses["hang"] == FAILED and statuses["after"] == SKIPPED
        assert "timed out" in result.report.failures()[0].error

    def test_persistent_crashes_degrade_to_serial(self):
        # The pool dies twice (budget: one rebuild), so the run degrades to
        # in-process execution, where the third crash fault raises
        # WorkerCrashError, is retried, and the task finally succeeds —
        # forward progress no matter how unhealthy the pool.
        result = run_graph(_diamond(), {}, jobs=2,
                           retry=_policy(max_attempts=5, max_pool_rebuilds=1),
                           faults=FaultPlan.parse("b=crash:3"))
        assert result.succeeded and result.result == 112
        assert result.report.degraded
        assert result.report.pool_rebuilds == 1
        assert _attempts(result)["b"] == 4
        assert "degraded to serial" in result.report.summary()

    def test_session_forwards_resilience_policy(self):
        session = PipelineSession(jobs=2, retry=_policy(max_attempts=3),
                                  faults=FaultPlan.parse("b=fail:1"))
        result = session.run(_diamond(), {})
        assert result.succeeded
        assert session.last_report.retries == 1


# ---------------------------------------------------------------------- #
# Store integrity
# ---------------------------------------------------------------------- #
class TestStoreIntegrity:
    def test_corrupt_entry_quarantined_on_get(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("ab" * 32, {"value": 41})
        corrupt_payload_file(store.payload_path("ab" * 32))
        with pytest.raises(KeyError):
            store.get("ab" * 32)
        # Entry is gone from the store but preserved for post-mortem.
        assert not store.contains("ab" * 32, count=False)
        quarantined = os.path.join(str(tmp_path), ResultStore.CORRUPT_DIR,
                                   "ab" * 32 + ".pkl")
        assert os.path.exists(quarantined)
        meta = os.path.join(str(tmp_path), ResultStore.CORRUPT_DIR,
                            "ab" * 32 + ".json")
        assert os.path.exists(meta)
        stats = store.session_stats()
        assert stats["quarantined"] == 1 and stats["misses"] == 1

    def test_put_records_checksum_and_size(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("cd" * 32, [1, 2, 3])
        meta = store.metadata("cd" * 32)
        assert meta["checksum"].startswith("sha256:")
        assert meta["payload_bytes"] > 0

    def test_verify_audits_whole_store(self, tmp_path):
        store = ResultStore(str(tmp_path))
        keys = [format(i, "02x") * 32 for i in range(4)]
        for key in keys:
            store.put(key, {"key": key})
        corrupt_payload_file(store.payload_path(keys[1]))
        audit = store.verify()
        assert audit["checked"] == 4 and audit["ok"] == 3
        assert audit["quarantined"] == [keys[1]]
        assert len(store) == 3
        # A second audit of the now-clean store finds nothing.
        assert store.verify() == {"checked": 3, "ok": 3, "quarantined": []}

    def test_verify_tolerates_pre_checksum_entries(self, tmp_path):
        """A sidecar without a checksum cannot verify its payload, so the
        audit quarantines the entry instead of serving it unverified.
        (The name predates store format 5, when such an entry counted as
        "unchecksummed" and was still served.)"""
        import json
        store = ResultStore(str(tmp_path))
        store.put("ef" * 32, "legacy")
        meta = store.metadata("ef" * 32)
        del meta["checksum"]
        with open(store._meta_path("ef" * 32), "w",
                  encoding="utf-8") as handle:
            json.dump(meta, handle)
        audit = store.verify()
        assert audit == {"checked": 1, "ok": 0, "quarantined": ["ef" * 32]}
        with pytest.raises(KeyError):
            store.get("ef" * 32)
        assert len(store) == 0

    def test_contains_count_opt_out(self, tmp_path):
        store = ResultStore(str(tmp_path))
        assert not store.contains("11" * 32, count=False)
        assert store.session_stats()["misses"] == 0
        assert not store.contains("11" * 32)      # counting is the default
        assert store.session_stats()["misses"] == 1

    def test_discard_does_not_inflate_misses(self, tmp_path):
        store = ResultStore(str(tmp_path))
        assert not store.discard("22" * 32)
        store.put("33" * 32, "x")
        assert store.discard("33" * 32)
        assert store.session_stats()["misses"] == 0


# ---------------------------------------------------------------------- #
# Corruption faults through the scheduler, and payload determinism
# ---------------------------------------------------------------------- #
class TestIntegrityThroughScheduler:
    def test_corrupt_fault_is_recomputed_on_next_run(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        faulted = run_graph(_diamond(), {}, store=store,
                            faults=FaultPlan.parse("b=corrupt:1"))
        assert faulted.succeeded
        # The rerun detects the damaged entry, quarantines it, recomputes
        # it, and still serves the clean entries from cache.
        rerun = run_graph(_diamond(), {}, store=store)
        statuses = _statuses(rerun)
        assert statuses["b"] == RAN
        assert statuses["a"] == CACHED and statuses["c"] == CACHED
        assert rerun.succeeded and rerun.result == 112
        assert rerun.report.store_stats["quarantined"] == 1
        assert "quarantined" in rerun.report.summary()
        # Third run: fully cached again, from the recomputed entry.
        third = run_graph(_diamond(), {}, store=store)
        assert set(_statuses(third).values()) == {CACHED}

    def test_faulted_run_payloads_bitwise_match_clean_run(self, tmp_path):
        clean_store = ResultStore(str(tmp_path / "clean"))
        clean = run_graph(_diamond(), {"seed": 7}, store=clean_store)
        faulted_store = ResultStore(str(tmp_path / "faulted"))
        faulted = run_graph(
            _diamond(), {"seed": 7}, store=faulted_store,
            retry=_policy(max_attempts=3),
            faults=FaultPlan.parse("b=fail:2,c=crash:1"))
        assert clean.succeeded and faulted.succeeded
        assert faulted.report.retries >= 3
        clean_keys = set(clean_store.keys())
        assert clean_keys == set(faulted_store.keys())
        for key in clean_keys:
            with open(clean_store.payload_path(key), "rb") as handle:
                expected = handle.read()
            with open(faulted_store.payload_path(key), "rb") as handle:
                assert handle.read() == expected


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    """One checkpoint cache for the end-to-end tests (models train once)."""
    return str(tmp_path_factory.mktemp("resilience_cache"))


class TestEndToEndDeterminism:
    @pytest.mark.parametrize("accel", ["fast", "exact"])
    def test_real_experiment_identical_under_faults(self, accel, shared_cache,
                                                    tmp_path, monkeypatch):
        """A chaos-tested table6 run caches bit-for-bit what a clean run does,
        under both compute policies (the store salt resolves the policy, so
        each parametrization compares within one policy)."""
        from repro.experiments.table67 import plan_table6

        monkeypatch.setenv("REPRO_ACCEL", accel)
        config = ExperimentConfig.tiny(cache_dir=shared_cache)
        clean_store = ResultStore(str(tmp_path / "clean"))
        clean = run_graph(plan_table6(config), config, store=clean_store)
        assert clean.succeeded

        faulted_store = ResultStore(str(tmp_path / "faulted"))
        faulted = run_graph(
            plan_table6(config), config, store=faulted_store,
            retry=_policy(max_attempts=3),
            faults=FaultPlan.parse("table6/*=fail:1,table6/noise=corrupt:1"))
        assert faulted.succeeded
        assert faulted.report.retries >= 2
        assert faulted.result.formatted() == clean.result.formatted()

        # The corrupt fault damaged one on-disk entry; a rerun quarantines
        # and recomputes it (self-healing), after which every payload must
        # be bit-for-bit what the clean run cached.
        healed = run_graph(plan_table6(config), config, store=faulted_store)
        assert healed.succeeded
        assert healed.report.store_stats["quarantined"] == 1

        keys = set(clean_store.keys())
        assert keys == set(faulted_store.keys()) and keys
        for key in keys:
            with open(clean_store.payload_path(key), "rb") as handle:
                expected = handle.read()
            with open(faulted_store.payload_path(key), "rb") as handle:
                assert handle.read() == expected
        # Retry/fault machinery must not leak into the content hashes.
        assert config_salt(config) == config_salt(config)


# ---------------------------------------------------------------------- #
# Worker protocol and CLI plumbing
# ---------------------------------------------------------------------- #
class TestWorkerProtocol:
    @pytest.fixture(autouse=True)
    def _worker_process(self):
        from repro.pipeline.worker import initialize_worker
        initialize_worker({})

    def test_run_task_returns_error_types_on_failure(self):
        task_id, ok, error_text, elapsed, stats, error_types = \
            run_task("t", "res:boom", {}, {})
        assert not ok and task_id == "t"
        assert "deterministic boom" in error_text
        assert error_types[0] == "RuntimeError"
        assert stats is None

    def test_run_task_success_tuple(self):
        task_id, ok, payload, elapsed, stats, error_types = \
            run_task("t", "res:value", {"value": 5}, {})
        assert ok and payload == 5 and error_types is None


class TestCli:
    def _options(self, argv):
        from repro.pipeline.cli import build_parser, resilience_options
        return resilience_options(build_parser().parse_args(argv))

    def test_defaults_mean_scheduler_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        retry, faults = self._options([])
        assert retry is None and faults is None

    def test_retries_and_timeout_build_policy(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        retry, faults = self._options(["--retries", "2",
                                       "--task-timeout", "5.5"])
        assert retry.max_attempts == 3
        assert retry.task_timeout == 5.5
        assert faults is None

    def test_zero_retries_disables_them(self):
        retry, _ = self._options(["--retries", "0"])
        assert retry.max_attempts == 1

    def test_fault_plan_flag_and_env_fallback(self, monkeypatch):
        _, faults = self._options(["--fault-plan", "t=fail:2"])
        assert faults.specs[0].times == 2
        monkeypatch.setenv("REPRO_FAULT_PLAN", "u=crash")
        _, env_faults = self._options([])
        assert env_faults.specs[0].mode == "crash"
        # An explicit flag wins over the environment.
        _, both = self._options(["--fault-plan", "v=hang:1:9"])
        assert both.specs[0].task == "v"

    def test_experiments_cli_delegates_on_resilience_flags(self, monkeypatch):
        """The resilience flags reach the scheduler at ``--jobs 1`` too."""
        from repro.experiments import run as experiments_run
        seen = {}

        def fake_run_graph(graph, config, **kwargs):
            seen.update(kwargs)
            raise RuntimeError("stop before running")

        monkeypatch.setattr("repro.pipeline.cli.run_graph", fake_run_graph)
        with pytest.raises(RuntimeError, match="stop before running"):
            experiments_run.main(["--experiment", "table6", "--scale",
                                  "tiny", "--no-store", "--retries", "2",
                                  "--fault-plan", "t=fail"])
        assert seen["jobs"] == 1
        assert seen["retry"].max_attempts == 3
        assert seen["faults"].specs[0].task == "t"

    @pytest.mark.parametrize("retries", ["0", "2"])
    def test_retries_mean_the_same_on_pipeline_and_serve(self, retries,
                                                        monkeypatch):
        """``--retries R`` is R retries (R + 1 attempts) on both CLIs."""
        from repro.pipeline.cli import retry_policy
        from repro.serve.__main__ import build_parser as serve_parser

        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        pipeline, _ = self._options(["--retries", retries])
        serve = retry_policy(serve_parser().parse_args(["--retries", retries]))
        assert pipeline.max_attempts == serve.max_attempts == int(retries) + 1

    def test_serve_defaults_to_three_attempts(self):
        """Without ``--retries`` the serve CLI builds the daemon's own
        default policy; the pipeline CLI's default is the scheduler's."""
        from repro.pipeline.cli import build_parser, retry_policy
        from repro.serve.__main__ import build_parser as serve_parser
        from repro.serve.server import DEFAULT_RETRY

        serve = retry_policy(serve_parser().parse_args([]))
        assert serve == DEFAULT_RETRY and serve.max_attempts == 3
        assert retry_policy(build_parser().parse_args([])) == RetryPolicy()
