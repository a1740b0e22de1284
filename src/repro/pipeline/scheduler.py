"""Scheduler: dispatch ready tasks onto an executor backend, with caching.

The scheduler walks a :class:`~repro.pipeline.graph.TaskGraph`, serving
completed tasks from a content-addressed store
(:class:`~repro.pipeline.store.StoreBackend`) and dispatching the rest
onto an :class:`~repro.pipeline.executors.ExecutorBackend`:

* ``serial`` — in-process execution (the ``jobs == 1`` default,
  optionally against a caller-provided ``ExperimentContext``);
* ``local`` — a ``ProcessPoolExecutor`` whose workers each own a
  private, lazily-built context (the ``jobs > 1`` default);
* ``remote`` — a fleet of ``repro.serve`` daemons scheduled depot-style
  (round-robin, host failover, straggler work-stealing).

One event loop serves all three: submit ready tasks, reap completions,
recover the substrate.  Failures are *classified*, not just isolated (see
:mod:`~repro.pipeline.resilience`): transient errors — a broken process
pool, an unreachable worker host, a task killed at its wall-clock
deadline, an injected fault — are retried with exponential backoff under a
:class:`~repro.pipeline.resilience.RetryPolicy`, while deterministic
executor exceptions fail fast after one attempt.  A task's transitive
dependents are only skipped once it has exhausted its attempt budget.  A
broken local pool is rebuilt (bounded times) with its in-flight tasks
resubmitted; if it keeps dying, the run degrades to the serial backend so
it always makes forward progress.  The returned :class:`PipelineResult`
carries every task output plus a per-task
:class:`~repro.pipeline.progress.RunReport` with per-worker attribution.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from concurrent.futures import FIRST_COMPLETED, wait
from typing import Any, Dict, Mapping, Optional, Sequence, Set, Union

from ..telemetry import get_tracer
from .executors import ExecutorBackend, SerialBackend, make_backend
from .graph import Task, TaskGraph
from .progress import (CACHED, FAILED, RAN, SKIPPED, ProgressReporter,
                       RunReport, TaskRecord)
from .resilience import (TRANSIENT, FaultPlan, RetryPolicy, TaskTimeoutError,
                         classify_error, error_type_names)
from .store import STORE_FORMAT_VERSION, StoreBackend

ConfigLike = Union[Mapping[str, Any], Any]


class PipelineError(RuntimeError):
    """Raised by strict callers when a run did not produce its result."""


@dataclass
class PipelineResult:
    """Outputs and bookkeeping of one scheduled run."""

    outputs: Dict[str, Any]
    report: RunReport
    result_id: Optional[str] = None

    @property
    def succeeded(self) -> bool:
        return self.report.succeeded

    @property
    def result(self) -> Any:
        """Output of the graph's designated result task."""
        if self.result_id is None:
            raise PipelineError("graph has no designated result task")
        if self.result_id not in self.outputs:
            raise PipelineError(self.describe_failure())
        return self.outputs[self.result_id]

    def describe_failure(self) -> str:
        failures = self.report.failures()
        if not failures:
            return f"result task {self.result_id!r} did not run"
        first = failures[0]
        message = f"{len(failures)} task(s) failed; first: {first.task_id}"
        if first.error:
            message += f"\n{first.error}"
        return message


def config_to_dict(config: ConfigLike) -> Dict[str, Any]:
    """Experiment configuration as a plain dict (for worker init)."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return dataclasses.asdict(config)
    return dict(config)


def config_salt(config: ConfigLike) -> Dict[str, Any]:
    """The configuration fields that participate in content hashing.

    ``cache_dir`` is a storage location, not an input of any computation,
    so it is excluded — moving the cache must not invalidate results.

    Configs may expose two duck-typed hooks (keeping this generic layer
    ignorant of attack semantics):

    * ``salt_exclusions()`` — names of further fields that are pure
      execution strategy (e.g. scene batching) and must not invalidate
      cached results;
    * ``compute_policy_salt()`` — a description of any run-wide compute
      policy (e.g. the resolved :mod:`repro.accel` policy, including
      environment overrides) that the config fields alone do not capture.
      Its value is folded into every task fingerprint, so a store populated
      under one policy is never served to another.

    Retry policies, fault plans and executor backends are deliberately
    *not* part of the salt: they are pure execution strategy over pure
    tasks, so a run that retried (or was chaos-tested, or ran on a remote
    fleet) must produce — and share — bit-for-bit the same cached
    payloads as a serial unfaulted run.
    """
    salt = config_to_dict(config)
    salt.pop("cache_dir", None)
    exclusions_hook = getattr(config, "salt_exclusions", None)
    if callable(exclusions_hook):
        for name in exclusions_hook():
            salt.pop(name, None)
    policy_hook = getattr(config, "compute_policy_salt", None)
    if callable(policy_hook):
        salt["compute_policy"] = policy_hook()
    return {"config": salt, "store_format": STORE_FORMAT_VERSION}


def run_graph(graph: TaskGraph, config: ConfigLike, *, jobs: int = 1,
              store: Optional[StoreBackend] = None, context: Any = None,
              reporter: Optional[ProgressReporter] = None,
              refresh: bool = False,
              retry: Optional[RetryPolicy] = None,
              faults: Optional[FaultPlan] = None,
              backend: Union[str, ExecutorBackend, None] = None,
              workers: Optional[Sequence[str]] = None) -> PipelineResult:
    """Execute ``graph`` and return every task output plus a run report.

    Parameters
    ----------
    config:
        The ``ExperimentConfig`` (or equivalent mapping) that parameterises
        every task; it seeds worker contexts and the content hashes.
    jobs:
        Worker process count (local pool) / concurrent dispatch bound
        (remote); ``1`` with the default backend executes serially in
        this process.
    store:
        Optional result store (on-disk :class:`~.store.ResultStore` or an
        HTTP :class:`~.store_http.RemoteStore`); cacheable tasks with a
        fresh fingerprint are served from it and newly-computed payloads
        are written back.
    context:
        Optional live ``ExperimentContext`` reused for serial execution
        (ignored by the process/remote backends — workers build their own).
    refresh:
        Recompute every task even when a cached payload exists (results are
        still written back to the store).
    retry:
        Retry/timeout/recovery policy (default: one retry for transient
        failures, no task deadline, two pool rebuilds — see
        :class:`~repro.pipeline.resilience.RetryPolicy`).
    faults:
        Optional deterministic fault-injection plan (chaos testing; see
        :class:`~repro.pipeline.resilience.FaultPlan`).
    backend:
        Executor backend: ``"serial"`` / ``"local"`` / ``"remote"``, a
        ready :class:`~.executors.ExecutorBackend`, or ``None``/"auto"
        (serial when ``jobs == 1``, local pool otherwise).
    workers:
        Worker daemon addresses (``host:port`` / socket paths) of the
        ``remote`` backend.
    """
    graph.validate()
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    retry = retry if retry is not None else RetryPolicy()
    tracer = get_tracer()
    executor = make_backend(backend, config=config, jobs=jobs,
                            workers=workers, context=context, faults=faults,
                            trace_path=tracer.path)
    fingerprints = graph.fingerprints(config_salt(config))
    report = RunReport(jobs=jobs, backend=executor.name)
    if reporter is None:
        reporter = ProgressReporter(total=len(graph), enabled=False)
    start = time.perf_counter()

    completed: Dict[str, Any] = {}
    failed: Set[str] = set()
    skipped: Set[str] = set()

    def finish(record: TaskRecord, task: Task) -> None:
        report.add(record)
        reporter.task_done(record)
        if tracer.enabled:
            tracer.emit("task", task_id=record.task_id, kind=record.kind,
                        status=record.status, elapsed=record.elapsed,
                        deps=list(task.deps), key=record.key,
                        stats=record.stats, attempts=record.attempts,
                        backend=report.backend, worker=record.worker)
            tracer.count(f"tasks.{record.status}", 1)

    def try_cache(task: Task) -> bool:
        if refresh or store is None or not task.cacheable:
            return False
        # One probe, one accounting site: ``get`` counts the hit or the
        # miss (including a corrupt entry it quarantined), so there is no
        # ``contains`` pre-check whose miss a later ``get`` double-counts.
        key = fingerprints[task.task_id]
        try:
            completed[task.task_id] = store.get(key)
        except KeyError:
            return False        # absent or quarantined: recompute
        finish(TaskRecord(task.task_id, task.kind, CACHED, key=key), task)
        return True

    def commit(task: Task, payload: Any, elapsed: float,
               stats: Optional[Dict[str, Any]] = None,
               attempts: int = 1, worker: Optional[str] = None) -> None:
        completed[task.task_id] = payload
        key = fingerprints[task.task_id]
        if store is not None and task.cacheable:
            metadata = {
                "task_id": task.task_id, "kind": task.kind,
                "params": task.params, "elapsed": elapsed,
            }
            if stats:
                metadata["stats"] = stats
            store.put(key, payload, metadata=metadata)
            if faults is not None and faults.take_corruption(task.task_id):
                # The chaos knob's "corrupt" clause: damage the bytes the
                # store just persisted, so integrity checking has to catch
                # it on the next read.  The in-memory payload this run
                # keeps using is untouched (as real bit rot would leave it).
                store.corrupt_entry(key)
        finish(TaskRecord(task.task_id, task.kind, RAN, elapsed=elapsed,
                          key=key, stats=stats, attempts=attempts,
                          worker=worker), task)

    def fail(task: Task, error: str, elapsed: float,
             attempts: int = 1, worker: Optional[str] = None) -> None:
        failed.add(task.task_id)
        finish(TaskRecord(task.task_id, task.kind, FAILED, elapsed=elapsed,
                          error=error, key=fingerprints[task.task_id],
                          attempts=attempts, worker=worker), task)

    def skip(task: Task) -> None:
        skipped.add(task.task_id)
        finish(TaskRecord(task.task_id, task.kind, SKIPPED,
                          key=fingerprints[task.task_id]), task)

    pending = {task.task_id: task for task in graph.topological_order()}

    _run_with_backend(executor, config, fingerprints, pending, completed,
                      failed, skipped, try_cache, commit, fail, skip,
                      retry, faults, report, reporter, tracer)

    report.wall_time = time.perf_counter() - start
    report.backend_stats = executor.counters() or None
    if store is not None:
        report.store_stats = store.session_stats()
    if tracer.enabled:
        busy = sum(record.elapsed for record in report.records)
        tracer.emit("run_report",
                    wall_time=report.wall_time, jobs=jobs, busy_s=busy,
                    tasks=len(report.records),
                    backend=report.backend,
                    hosts=report.host_breakdown() or None,
                    backend_stats=report.backend_stats,
                    counts={status: report.count(status)
                            for status in (RAN, CACHED, FAILED, SKIPPED)},
                    cache=report.cache_stats(), store=report.store_stats,
                    retries=report.retries, timeouts=report.timeouts,
                    pool_rebuilds=report.pool_rebuilds,
                    degraded=report.degraded)
    return PipelineResult(outputs=completed, report=report, result_id=graph.result)


def _emit_retry(report: RunReport, reporter: ProgressReporter, tracer,
                retry: RetryPolicy, task: Task, attempt: int,
                error_label: str, delay: float) -> None:
    """Record one retry everywhere it is surfaced (report, progress, trace)."""
    report.retries += 1
    reporter.task_retry(task.task_id, attempt, retry.max_attempts,
                        error_label, delay)
    if tracer.enabled:
        tracer.emit("task_retry", task_id=task.task_id, kind=task.kind,
                    attempt=attempt, max_attempts=retry.max_attempts,
                    error=error_label, classification=TRANSIENT,
                    delay_s=delay)
        tracer.count("tasks.retries", 1)


@dataclass
class _Flight:
    """One submitted attempt: the task, its ordinal, and its deadline."""

    task: Task
    attempt: int
    deadline: Optional[float]       # time.monotonic() deadline, or None
    timeout_s: Optional[float]      # the configured limit (for messages)


def _run_with_backend(backend: ExecutorBackend, config: ConfigLike,
                      fingerprints: Dict[str, str],
                      pending: Dict[str, Task], completed: Dict[str, Any],
                      failed: Set[str], skipped: Set[str],
                      try_cache, commit, fail, skip,
                      retry: RetryPolicy, faults: Optional[FaultPlan],
                      report: RunReport, reporter: ProgressReporter,
                      tracer) -> None:
    """Event loop: submit ready tasks, reap completions, recover the backend.

    One loop serves every backend.  A serial backend resolves its futures
    synchronously inside ``submit``, so the loop degenerates to ordered
    in-process execution; a preemptive backend (the local pool) gets
    wall-clock deadlines enforced by killing its workers; a remote
    backend encodes infrastructure failures as classified result tuples,
    so host failover and retry ride the ordinary failure path.

    Beyond the happy path this loop owns the resilience layer:

    * transient failures re-enter a backoff queue (``waiting``) and are
      resubmitted once their deterministic delay elapses;
    * tasks carrying a deadline are killed at it — the executor cannot
      cancel a running future, so the backend is interrupted and
      recovered, with every innocent in-flight task resubmitted
      (timeout-forced rebuilds do not count against the rebuild budget:
      they are controlled kills, not spontaneous pool deaths);
    * a broken substrate (worker OOM-killed, pool crashed hard) is
      rebuilt at most ``retry.max_pool_rebuilds`` times — a dead pool
      must not drip-fail every remaining submission one by one — after
      which the backend is swapped for a :class:`~.executors
      .SerialBackend` sharing the same attempt ordinals, so the run
      degrades instead of dying.
    """
    backend.start()
    attempts: Dict[str, int] = {}          # execution ordinals consumed
    inflight: Dict[Any, _Flight] = {}
    waiting: Dict[str, Task] = {}          # backoff queue
    ready_at: Dict[str, float] = {}        # task_id -> monotonic release time
    spontaneous_rebuilds = 0               # counted against the budget

    def submit(task: Task) -> None:
        attempt = attempts.get(task.task_id, 0) + 1
        attempts[task.task_id] = attempt
        deps_payload = {dep: completed[dep] for dep in task.deps}
        timeout_s = task.timeout if task.timeout is not None \
            else retry.task_timeout
        future = backend.submit(task, attempt, deps_payload,
                                timeout_s=timeout_s,
                                key=fingerprints[task.task_id])
        deadline = (time.monotonic() + timeout_s) \
            if (timeout_s and backend.preemptive) else None
        inflight[future] = _Flight(task, attempt, deadline, timeout_s)

    def schedule_retry(task: Task, attempt: int, error_label: str) -> None:
        delay = retry.delay(task.task_id, attempt)
        _emit_retry(report, reporter, tracer, retry, task, attempt,
                    error_label, delay)
        waiting[task.task_id] = task
        ready_at[task.task_id] = time.monotonic() + delay

    def handle_failure(task: Task, attempt: int, error_text: str,
                       error_types, elapsed: float,
                       worker: Optional[str] = None) -> None:
        """One failed attempt: retry if transient with budget left."""
        label = error_types[0] if error_types else "unknown"
        if classify_error(error_types) == TRANSIENT and \
                retry.retryable(attempt):
            schedule_retry(task, attempt, label)
        else:
            fail(task, error_text, elapsed, attempts=attempt, worker=worker)

    def degrade(reason: str) -> None:
        """Swap the broken backend for in-process serial execution.

        The shared ``attempts`` ordinals keep fault clauses and retry
        budgets deterministic across the boundary, and the backoff queue
        merges straight back into ``pending`` — the serial tail proceeds
        immediately instead of sleeping out backoffs that were scheduled
        for a pool that no longer exists.
        """
        nonlocal backend
        report.degraded = True
        reporter.note(f"worker pool keeps dying ({reason}); degrading the "
                      f"remaining tasks to in-process serial execution")
        if tracer.enabled:
            tracer.emit("pool_rebuild", action="degrade", reason=reason,
                        count=report.pool_rebuilds)
        backend.shutdown(wait=False)
        backend = SerialBackend(config, faults=faults)
        backend.start()
        pending.update(waiting)
        waiting.clear()
        ready_at.clear()

    def recover_backend(reason: str, timed_out: Set[str] = frozenset()) -> None:
        """Interrupt the backend, disposition its flights, rebuild (or
        degrade).

        Timed-out flights are budgeted failures (they consume an attempt
        and may exhaust their task); every other in-flight task is a
        casualty of the substrate, not of its own code, so it is always
        requeued — a pool death can never exhaust an innocent task into
        FAILED, and the loop stays bounded because pool deaths themselves
        are bounded by the rebuild budget.
        """
        nonlocal spontaneous_rebuilds
        backend.interrupt()
        flights = list(inflight.values())
        inflight.clear()
        for flight in flights:
            task = flight.task
            if task.task_id in timed_out:
                report.timeouts += 1
                if tracer.enabled:
                    tracer.emit("task_timeout", task_id=task.task_id,
                                kind=task.kind, attempt=flight.attempt,
                                timeout_s=flight.timeout_s)
                    tracer.count("tasks.timeouts", 1)
                message = (f"task {task.task_id!r} timed out after "
                           f"{flight.timeout_s:.1f}s (attempt "
                           f"{flight.attempt}/{retry.max_attempts}); "
                           f"its worker was terminated")
                handle_failure(task, flight.attempt, message,
                               error_type_names(TaskTimeoutError(message)),
                               flight.timeout_s or 0.0)
            else:
                schedule_retry(task, flight.attempt, reason)
        if reason.startswith("timeout"):
            rebuild = True                  # controlled kill: not budgeted
        else:
            spontaneous_rebuilds += 1
            rebuild = spontaneous_rebuilds <= retry.max_pool_rebuilds
        if rebuild and backend.recoverable:
            report.pool_rebuilds += 1
            reporter.note(f"worker pool rebuilt ({reason}; "
                          f"rebuild #{report.pool_rebuilds})")
            if tracer.enabled:
                tracer.emit("pool_rebuild", action="rebuild", reason=reason,
                            count=report.pool_rebuilds)
                tracer.count("pool.rebuilds", 1)
            backend.recover(reason)
        else:
            degrade(reason)

    while pending or inflight or waiting:
        progressed = False
        now = time.monotonic()
        # Release tasks whose backoff elapsed back into the submit set.
        for task_id in [tid for tid in waiting if ready_at[tid] <= now]:
            pending[task_id] = waiting.pop(task_id)
            ready_at.pop(task_id, None)
            progressed = True

        broken_submit = False
        for task_id in list(pending):
            task = pending[task_id]
            if any(dep in failed or dep in skipped for dep in task.deps):
                del pending[task_id]
                skip(task)
                progressed = True
                continue
            if not all(dep in completed for dep in task.deps):
                continue
            del pending[task_id]
            progressed = True
            if try_cache(task):
                continue
            try:
                submit(task)
            except Exception as error:  # noqa: BLE001 — substrate broken
                # A dead pool must not drip-fail every remaining task one
                # by one: put the task back, stop submitting, and recover
                # the backend wholesale.
                attempts[task.task_id] -= 1      # the attempt never started
                pending[task_id] = task
                broken_submit = True
                if tracer.enabled:
                    tracer.emit("pool_submit_failed", task_id=task_id,
                                error=repr(error))
                break
        if broken_submit:
            recover_backend("worker pool broke on submit")
            continue

        if inflight:
            deadlines = [flight.deadline for flight in inflight.values()
                         if flight.deadline is not None]
            wakeups = deadlines + [ready_at[tid] for tid in waiting]
            timeout = None
            if wakeups:
                timeout = max(0.01, min(wakeups) - time.monotonic())
            done, _ = wait(list(inflight), timeout=timeout,
                           return_when=FIRST_COMPLETED)
            broken = False
            for future in done:
                flight = inflight[future]
                worker = backend.worker_of(future)
                try:
                    _, ok, payload_or_error, elapsed, stats, error_types = \
                        future.result()
                except BaseException as error:  # worker died hard
                    names = error_type_names(error)
                    if "BrokenProcessPool" in names or \
                            "BrokenExecutor" in names:
                        # Every sibling future is about to fail the same
                        # way; recover the backend wholesale below.
                        broken = True
                        continue
                    del inflight[future]
                    handle_failure(flight.task, flight.attempt, repr(error),
                                   names, 0.0, worker=worker)
                    continue
                del inflight[future]
                if ok:
                    commit(flight.task, payload_or_error, elapsed,
                           stats=stats, attempts=flight.attempt,
                           worker=worker)
                else:
                    handle_failure(flight.task, flight.attempt,
                                   payload_or_error, error_types, elapsed,
                                   worker=worker)
            if broken:
                recover_backend("worker pool broke mid-task")
                continue
            # Deadline sweep: anything still running past its deadline is
            # hung — the executor cannot cancel a running future, so the
            # worker is killed with the backend and the backend recovered.
            if backend.preemptive:
                now = time.monotonic()
                expired = {flight.task.task_id
                           for flight in inflight.values()
                           if flight.deadline is not None
                           and now >= flight.deadline}
                if expired:
                    recover_backend("timeout", timed_out=expired)
                    continue
        elif waiting:
            # Nothing running, nothing submittable: sleep out the shortest
            # backoff (capped so newly-ready work is picked up promptly).
            delay = min(ready_at[tid] for tid in waiting) - time.monotonic()
            if delay > 0:
                time.sleep(min(delay, 0.5))
        elif not progressed:
            # No ready work and nothing running: validate() rules out
            # cycles, so this is unreachable — but never spin forever.
            for task_id in list(pending):
                skip(pending.pop(task_id))

    backend.shutdown(wait=True)


@dataclass
class PipelineSession:
    """Reusable execution policy: worker count, store, verbosity, retries.

    Attach one to an ``ExperimentContext`` (``ExperimentContext(config,
    pipeline=session)``) and every ``run_table*`` call submits its task
    graph through the scheduler instead of executing inline — enabling
    parallelism, store-backed resume, distributed execution and
    fault-tolerant runs without changing call sites.
    """

    jobs: int = 1
    store: Optional[StoreBackend] = None
    quiet: bool = True
    refresh: bool = False
    retry: Optional[RetryPolicy] = None
    faults: Optional[FaultPlan] = None
    backend: Union[str, ExecutorBackend, None] = None
    workers: Optional[Sequence[str]] = None
    last_report: Optional[RunReport] = field(default=None, repr=False)

    def run(self, graph: TaskGraph, config: ConfigLike,
            context: Any = None) -> PipelineResult:
        reporter = ProgressReporter(total=len(graph), enabled=not self.quiet)
        result = run_graph(graph, config, jobs=self.jobs, store=self.store,
                           context=context if self.jobs == 1 else None,
                           reporter=reporter, refresh=self.refresh,
                           retry=self.retry, faults=self.faults,
                           backend=self.backend, workers=self.workers)
        self.last_report = result.report
        return result


__all__ = [
    "PipelineError",
    "PipelineResult",
    "PipelineSession",
    "run_graph",
    "config_to_dict",
    "config_salt",
]
