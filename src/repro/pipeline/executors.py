"""Pluggable executor backends: where the scheduler's tasks actually run.

The scheduler (:mod:`.scheduler`) owns *policy* — readiness, caching,
retry classification, backoff, deadlines — and delegates *mechanism* to an
:class:`ExecutorBackend`:

* :class:`SerialBackend` — in-process execution (the historical
  ``jobs == 1`` path, and the degradation target when a worker pool keeps
  dying);
* :class:`LocalPoolBackend` — the multiprocessing pool of a single host;
* :class:`RemoteBackend` — a fleet of ``repro.serve`` daemons reached over
  the JSON socket protocol, scheduled depot-style: round-robin across
  healthy hosts, failover to the next host when one refuses a connection,
  and work-stealing of straggler shards onto a second host.

Every backend returns the same worker tuple as
:func:`~repro.pipeline.worker.run_task` — ``(task_id, ok,
payload_or_error, elapsed, stats, error_types)`` — through a
``concurrent.futures.Future``, so the scheduler's event loop, retry
machinery and telemetry attribution are backend-agnostic.  Remote
failures surface as *classified* error-type lists (a dead host is
transient, a config-salt mismatch is permanent), reusing the
:mod:`.resilience` vocabulary end to end.
"""

from __future__ import annotations

import base64
import multiprocessing
import pickle
import sys
import threading
import time
import traceback
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .graph import Task
from .resilience import FaultPlan, TaskTimeoutError, error_type_names
from .worker import execute_task, initialize_worker, run_task

#: The worker result tuple every backend resolves its futures to.
ResultTuple = Tuple[str, bool, Any, float,
                    Optional[Dict[str, Any]], Optional[List[str]]]

#: Names accepted by :func:`make_backend` (and the ``--backend`` flags).
BACKEND_NAMES = ("auto", "serial", "local", "remote")


def encode_deps(deps: Mapping[str, Any]) -> str:
    """Dependency payloads as a base64 pickle blob for the wire.

    The serve protocol is JSON lines; task dependencies are arbitrary
    Python payloads (numpy arrays, dataclasses), so they cross as an
    opaque blob.  Pickle implies a *trusted fleet*: worker daemons are
    operated by whoever runs the scheduler (see ``docs/SERVING.md``).
    """
    return base64.b64encode(
        pickle.dumps(dict(deps), protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode_deps(blob: Optional[str]) -> Dict[str, Any]:
    if not blob:
        return {}
    return pickle.loads(base64.b64decode(blob))


class ExecutorBackend:
    """Contract between the scheduler's event loop and an execution
    substrate.

    Attributes
    ----------
    name:
        Stable label stamped onto task telemetry and the run report.
    preemptive:
        Whether the scheduler may enforce wall-clock deadlines by killing
        this backend's workers (:meth:`interrupt` + :meth:`recover`).
        Non-preemptive backends bound runaway tasks themselves (the
        remote backend turns the deadline into a request timeout; serial
        execution cannot be preempted at all).
    recoverable:
        Whether :meth:`recover` can rebuild the substrate after a
        breakage.  When it cannot (or the rebuild budget is exhausted)
        the scheduler degrades to a :class:`SerialBackend`.
    """

    name: str = "backend"
    preemptive: bool = False
    recoverable: bool = False

    def start(self) -> None:
        """Acquire resources (pools, sockets, watchdogs)."""

    def submit(self, task: Task, attempt: int, deps: Mapping[str, Any],
               timeout_s: Optional[float] = None,
               key: Optional[str] = None) -> "Future[ResultTuple]":
        """Dispatch one attempt; the future resolves to a result tuple.

        ``key`` is the task's store fingerprint — backends with access to
        a shared store (the remote daemons) use it for remote-side dedup.
        May raise when the substrate is broken (a dead local pool refuses
        submissions) — the scheduler treats that as a recovery trigger,
        never as a task failure.
        """
        raise NotImplementedError

    def worker_of(self, future: "Future[ResultTuple]") -> str:
        """Attribution label of the worker that resolved ``future``."""
        return self.name

    def interrupt(self) -> None:
        """Forcefully stop all in-flight work (preemptive backends)."""

    def recover(self, reason: str) -> None:
        """Rebuild the substrate after :meth:`interrupt`."""

    def shutdown(self, wait: bool = True) -> None:
        """Release resources; ``wait=False`` must not block on hung work."""

    def counters(self) -> Dict[str, int]:
        """Backend-level tallies for the run report (steals, failovers)."""
        return {}


# ---------------------------------------------------------------------- #
# Serial
# ---------------------------------------------------------------------- #
class SerialBackend(ExecutorBackend):
    """Execute tasks synchronously in the scheduler's own process.

    ``submit`` returns an already-resolved future, so the generic event
    loop degenerates to serial execution with zero special-casing.  The
    historical serial semantics are preserved: an optional caller-provided
    context is borrowed instead of rebuilt, fault injection never really
    exits the process (``crash`` raises
    :class:`~.resilience.WorkerCrashError`), and deadlines are not
    enforced — in-process execution cannot be preempted.
    """

    name = "serial"

    def __init__(self, config: Any, context: Any = None,
                 faults: Optional[FaultPlan] = None) -> None:
        self._config = config
        self._context = context
        self._faults = faults

    @property
    def context(self) -> Any:
        """The borrowed context, or one built lazily from the config."""
        if self._context is None:
            from .scheduler import config_to_dict
            from ..experiments.context import (ExperimentConfig,
                                               ExperimentContext)
            self._context = ExperimentContext(
                ExperimentConfig(**config_to_dict(self._config)))
        return self._context

    def submit(self, task: Task, attempt: int, deps: Mapping[str, Any],
               timeout_s: Optional[float] = None,
               key: Optional[str] = None) -> "Future[ResultTuple]":
        from ..telemetry import collect_stats
        future: "Future[ResultTuple]" = Future()
        start = time.perf_counter()
        try:
            if self._faults is not None:
                self._faults.inject(task.task_id, attempt, allow_exit=False)
            with collect_stats() as collector:
                payload = execute_task(task.kind, task.params, deps,
                                       context=self.context)
        except BaseException as error:  # noqa: BLE001 — isolation by design
            future.set_result((task.task_id, False, traceback.format_exc(),
                               time.perf_counter() - start, None,
                               error_type_names(error)))
        else:
            future.set_result((task.task_id, True, payload,
                               time.perf_counter() - start,
                               collector.as_dict(), None))
        return future


# ---------------------------------------------------------------------- #
# Local multiprocessing pool
# ---------------------------------------------------------------------- #
def terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Forcefully stop a pool whose workers are dead or must die.

    ``shutdown(wait=True)`` can block forever behind a hung worker, so
    worker processes are terminated (then killed) first and the executor
    is released without waiting.  ``_processes`` is private but stable
    across supported CPythons; a missing attribute degrades to a plain
    non-waiting shutdown.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for process in processes:
        try:
            process.terminate()
        except Exception:  # noqa: BLE001
            pass
    for process in processes:
        try:
            process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
        except Exception:  # noqa: BLE001
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # noqa: BLE001
        pass


def pool_mp_context():
    """Prefer fork on Linux: workers inherit the executor registry
    (including any test-registered kinds) and the imported modules.
    Elsewhere use spawn — forking after BLAS/ObjC initialisation is unsafe
    on macOS — and rely on the lazy domain-executor import in the worker."""
    methods = multiprocessing.get_all_start_methods()
    use_fork = sys.platform.startswith("linux") and "fork" in methods
    return multiprocessing.get_context("fork" if use_fork else "spawn")


class LocalPoolBackend(ExecutorBackend):
    """The single-host ``ProcessPoolExecutor`` substrate.

    Workers are initialized once with the run's config/trace/fault plan
    and build their experiment context lazily; the scheduler enforces
    deadlines by interrupting the pool (``preemptive``) and rebuilds it
    through :meth:`recover` within its budget.
    """

    name = "local"
    preemptive = True
    recoverable = True

    def __init__(self, config: Any, jobs: int,
                 faults: Optional[FaultPlan] = None,
                 trace_path: Optional[str] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        from .scheduler import config_to_dict
        self.jobs = jobs
        self._config_dict = config_to_dict(config)
        self._fault_specs = faults.as_specs() if faults is not None else None
        self._trace_path = trace_path
        self._pool: Optional[ProcessPoolExecutor] = None

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=pool_mp_context(),
            initializer=initialize_worker,
            initargs=(self._config_dict, self._trace_path,
                      self._fault_specs))

    def start(self) -> None:
        if self._pool is None:
            self._pool = self._make_pool()

    def submit(self, task: Task, attempt: int, deps: Mapping[str, Any],
               timeout_s: Optional[float] = None,
               key: Optional[str] = None) -> "Future[ResultTuple]":
        return self._pool.submit(run_task, task.task_id, task.kind,
                                 dict(task.params), dict(deps), attempt)

    def interrupt(self) -> None:
        if self._pool is not None:
            terminate_pool(self._pool)
            self._pool = None

    def recover(self, reason: str) -> None:
        self.interrupt()
        self._pool = self._make_pool()

    def shutdown(self, wait: bool = True) -> None:
        if self._pool is None:
            return
        if wait:
            self._pool.shutdown(wait=True)
            self._pool = None
        else:
            self.interrupt()


# ---------------------------------------------------------------------- #
# Remote fleet of repro.serve daemons
# ---------------------------------------------------------------------- #
class _Dispatch:
    """One task attempt travelling through the remote backend."""

    __slots__ = ("task", "attempt", "deps_blob", "timeout_s", "key",
                 "cacheable", "future", "started", "primary_host", "stolen")

    def __init__(self, task: Task, attempt: int, deps_blob: str,
                 timeout_s: Optional[float], key: Optional[str],
                 cacheable: bool, future: "Future[ResultTuple]") -> None:
        self.task = task
        self.attempt = attempt
        self.deps_blob = deps_blob
        self.timeout_s = timeout_s
        self.key = key
        self.cacheable = cacheable
        self.future = future
        self.started: Optional[float] = None    # set when dispatch begins
        self.primary_host: Optional[str] = None
        self.stolen = False


class _HostDown(Exception):
    """Connection-level failure: try the next host in the ring."""


class _RequestTimeout(Exception):
    """The socket timed out waiting for a daemon's answer.

    Carries the terminal result tuple; unlike a server-reported task
    timeout this says nothing definitive about the task itself (the
    host may simply have gone silent), so a *stolen* dispatch discards
    it while a primary dispatch still resolves with it.
    """

    def __init__(self, result: ResultTuple) -> None:
        super().__init__(result[2])
        self.result = result


class RemoteBackend(ExecutorBackend):
    """Dispatch tasks to a fleet of ``repro.serve`` daemons.

    Depot-style scheduling: hosts form a ring walked round-robin; a host
    that refuses connections is cooled down and skipped until its
    ``down_cooldown`` elapses (every host gets another chance once all
    are cooling).  A dispatch that cannot reach *any* host resolves to a
    transient failure, so the scheduler's :class:`~.resilience
    .RetryPolicy` backs off and redrives it — by which time a host may be
    back.  Stragglers are *stolen*: a watchdog duplicates a task that has
    been in flight longer than ``steal_after`` seconds onto a second
    host, and the first terminal result wins (tasks are deterministic and
    store writes canonical, so duplicate execution is harmless).

    The backend never raises out of :meth:`submit` and is therefore not
    ``recoverable`` — host failure is handled inside the dispatch path,
    not by the scheduler's pool-rebuild machinery.

    Parameters
    ----------
    workers:
        Worker daemon addresses (``host:port`` or unix-socket paths).
    config:
        The run's experiment config; its salt hash is attached to every
        dispatch so a daemon serving a different configuration rejects
        the task instead of silently computing the wrong thing.
    parallelism:
        Concurrent dispatches (defaults to 2 per host).
    steal_after:
        Straggler threshold in seconds (``None`` disables stealing).
    request_timeout:
        Socket timeout of one dispatch when the task carries no deadline.
    down_cooldown:
        Seconds a connection-refusing host is skipped in the ring.
    """

    name = "remote"
    preemptive = False
    recoverable = False

    def __init__(self, workers: Sequence[str], config: Any, *,
                 parallelism: Optional[int] = None,
                 steal_after: Optional[float] = 30.0,
                 request_timeout: float = 3600.0,
                 down_cooldown: float = 5.0) -> None:
        hosts = [str(worker).strip() for worker in workers
                 if str(worker).strip()]
        if not hosts:
            raise ValueError("remote backend needs at least one worker "
                             "address (host:port)")
        self.hosts = hosts
        self.salt_hash = compute_salt_hash(config)
        self.parallelism = parallelism or max(2 * len(hosts), 2)
        self.steal_after = steal_after
        self.request_timeout = request_timeout
        self.down_cooldown = down_cooldown
        self._lock = threading.Lock()
        self._ring = 0
        self._down: Dict[str, float] = {}       # host -> monotonic retry time
        self._threads: Optional[ThreadPoolExecutor] = None
        self._watchdog: Optional[threading.Thread] = None
        self._inflight: Set[_Dispatch] = set()
        self._workers_by_future: Dict[Any, str] = {}
        self._counters = {"dispatches": 0, "failovers": 0, "steals": 0,
                          "host_failures": 0, "remote_hits": 0}
        self._closed = threading.Event()
        self._open_sockets: Set[Any] = set()

    # -------------------------------------------------------------- #
    # Ring management
    # -------------------------------------------------------------- #
    def _healthy_hosts(self) -> List[str]:
        now = time.monotonic()
        with self._lock:
            return [host for host in self.hosts
                    if self._down.get(host, 0.0) <= now]

    def _next_host(self, exclude: Set[str]) -> Optional[str]:
        candidates = [host for host in self._healthy_hosts()
                      if host not in exclude]
        if not candidates:
            # Everyone is cooling down (or excluded): give the cooled
            # hosts another chance rather than stalling the ring.
            candidates = [host for host in self.hosts
                          if host not in exclude]
        if not candidates:
            return None
        with self._lock:
            self._ring += 1
            return candidates[self._ring % len(candidates)]

    def _mark_down(self, host: str, error: Exception) -> None:
        with self._lock:
            self._down[host] = time.monotonic() + self.down_cooldown
            self._counters["host_failures"] += 1
        from ..telemetry import get_tracer
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit("remote_host_down", host=host, error=repr(error),
                        cooldown_s=self.down_cooldown)

    # -------------------------------------------------------------- #
    # Lifecycle
    # -------------------------------------------------------------- #
    def start(self) -> None:
        if self._threads is None:
            self._threads = ThreadPoolExecutor(
                max_workers=self.parallelism + 1,
                thread_name_prefix="remote-dispatch")
        if self.steal_after and self._watchdog is None:
            self._watchdog = threading.Thread(
                target=self._watch_stragglers, name="remote-steal",
                daemon=True)
            self._watchdog.start()

    def shutdown(self, wait: bool = True) -> None:
        import socket

        self._closed.set()
        # Abort requests still on the wire: once the scheduler is done
        # with the backend their results are unneeded, and a half-dead
        # host (accepted connection, no answer) must not pin shutdown
        # for up to ``request_timeout`` seconds.
        with self._lock:
            lingering = list(self._open_sockets)
            self._open_sockets.clear()
        for sock in lingering:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if self._threads is not None:
            self._threads.shutdown(wait=wait, cancel_futures=not wait)
            self._threads = None

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    # -------------------------------------------------------------- #
    # Dispatch
    # -------------------------------------------------------------- #
    def submit(self, task: Task, attempt: int, deps: Mapping[str, Any],
               timeout_s: Optional[float] = None,
               key: Optional[str] = None) -> "Future[ResultTuple]":
        future: "Future[ResultTuple]" = Future()
        dispatch = _Dispatch(task, attempt, encode_deps(deps), timeout_s,
                             key, task.cacheable, future)
        with self._lock:
            self._counters["dispatches"] += 1
        self._threads.submit(self._dispatch, dispatch, steal=False)
        return future

    def worker_of(self, future: "Future[ResultTuple]") -> str:
        return self._workers_by_future.pop(future, self.name)

    def _resolve(self, dispatch: _Dispatch, result: ResultTuple,
                 worker: str, *, steal: bool, infra_failure: bool) -> None:
        """First terminal result wins; late duplicates are dropped.

        A *stolen* dispatch may only resolve the task with real execution
        outcomes — its own infrastructure failures (host unreachable) are
        discarded, because the primary dispatch is still in flight and
        may well succeed.
        """
        if steal and infra_failure:
            return
        with self._lock:
            if dispatch.future.done():
                return
            self._workers_by_future[dispatch.future] = worker
            self._inflight.discard(dispatch)
            dispatch.future.set_result(result)

    def _dispatch(self, dispatch: _Dispatch, steal: bool,
                  exclude: Optional[Set[str]] = None) -> None:
        if dispatch.future.done() or self._closed.is_set():
            return
        dispatch.started = time.monotonic()
        if not steal:
            with self._lock:
                self._inflight.add(dispatch)
        tried: Set[str] = set(exclude or ())
        while not dispatch.future.done() and not self._closed.is_set():
            host = self._next_host(tried)
            if host is None:
                message = (f"no worker daemon reachable for "
                           f"{dispatch.task.task_id!r} (tried "
                           f"{sorted(tried) or self.hosts})")
                self._resolve(
                    dispatch,
                    (dispatch.task.task_id, False, message, 0.0, None,
                     ["HostUnavailableError", "TransientTaskError",
                      "RuntimeError"]),
                    worker="unreachable", steal=steal, infra_failure=True)
                return
            if not steal and dispatch.primary_host is None:
                dispatch.primary_host = host
            tried.add(host)
            try:
                result = self._request(host, dispatch)
            except _HostDown as error:
                self._mark_down(host, error)
                with self._lock:
                    self._counters["failovers"] += 1
                continue
            except _RequestTimeout as error:
                # A silent host is indistinguishable from a slow task:
                # terminal for the primary dispatch, but a steal must not
                # overrule a primary that may still answer.
                self._resolve(dispatch, error.result, worker=host,
                              steal=steal, infra_failure=True)
                return
            self._resolve(dispatch, result, worker=host, steal=steal,
                          infra_failure=False)
            return

    def _request(self, host: str, dispatch: _Dispatch) -> ResultTuple:
        """One ``task`` op against one daemon.

        Connection-level failures raise :class:`_HostDown` (failover);
        everything else — success, a task that failed remotely, a request
        that timed out — is a terminal result for the scheduler to
        classify.
        """
        import socket

        from ..serve.client import Client, ServeError
        from ..serve.protocol import ProtocolError, parse_address

        task = dispatch.task
        timeout = dispatch.timeout_s or self.request_timeout
        try:
            parsed_host, port, unix_path = parse_address(host)
        except ValueError as error:
            raise _HostDown(error) from None
        address: Any = unix_path if unix_path else (parsed_host, port)
        client = Client(address, timeout=timeout)
        message = {"op": "task", "task_id": task.task_id, "kind": task.kind,
                   "params": dict(task.params), "attempt": dispatch.attempt,
                   "deps": dispatch.deps_blob, "key": dispatch.key,
                   "cacheable": dispatch.cacheable, "salt": self.salt_hash,
                   "timeout": dispatch.timeout_s}
        started = time.perf_counter()
        tracked: List[Any] = []

        def _register(sock: Any) -> None:
            # Shutdown aborts whatever is registered here, so a blocked
            # recv can never outlive the backend (see :meth:`shutdown`).
            tracked.append(sock)
            with self._lock:
                self._open_sockets.add(sock)

        try:
            try:
                response = client.request(message, on_socket=_register)
            finally:
                with self._lock:
                    for sock in tracked:
                        self._open_sockets.discard(sock)
        except ServeError as error:
            response = error.response
            error_types = response.get("error_types") or ["RemoteTaskError"]
            return (task.task_id, False,
                    str(response.get("error", "remote task failed")),
                    float(response.get("elapsed") or 0.0), None,
                    list(error_types))
        except socket.timeout:
            message_text = (f"remote task {task.task_id!r} on {host} "
                            f"exceeded its {timeout:.1f}s deadline")
            raise _RequestTimeout(
                (task.task_id, False, message_text,
                 time.perf_counter() - started, None,
                 error_type_names(TaskTimeoutError(message_text)))) from None
        except (ConnectionError, ProtocolError, OSError) as error:
            raise _HostDown(error) from None
        if response.get("hit"):
            with self._lock:
                self._counters["remote_hits"] += 1
        try:
            payload = pickle.loads(base64.b64decode(response["blob"]))
        except (KeyError, ValueError, pickle.UnpicklingError, EOFError) \
                as error:
            return (task.task_id, False,
                    f"undecodable remote payload from {host}: {error!r}",
                    time.perf_counter() - started, None,
                    ["RemotePayloadError", "TransientTaskError",
                     "RuntimeError"])
        return (task.task_id, True, payload,
                float(response.get("elapsed") or 0.0),
                response.get("stats"), None)

    # -------------------------------------------------------------- #
    # Work-stealing watchdog
    # -------------------------------------------------------------- #
    def _watch_stragglers(self) -> None:
        interval = max(min(self.steal_after / 4.0, 0.5), 0.05)
        while not self._closed.wait(interval):
            now = time.monotonic()
            with self._lock:
                stragglers = [d for d in self._inflight
                              if not d.stolen and d.started is not None
                              and now - d.started >= self.steal_after]
            if not stragglers:
                continue
            healthy = self._healthy_hosts()
            for dispatch in stragglers:
                if dispatch.future.done():
                    continue
                # Steal only when another host can plausibly do better:
                # either a second healthy host exists, or the straggler's
                # own primary has since been marked down (its socket may
                # never answer — re-running elsewhere is the only rescue).
                primary_down = (dispatch.primary_host is not None
                                and dispatch.primary_host not in healthy)
                if len(healthy) < 2 and not primary_down:
                    continue
                dispatch.stolen = True
                with self._lock:
                    self._counters["steals"] += 1
                exclude = ({dispatch.primary_host}
                           if dispatch.primary_host else set())
                from ..telemetry import get_tracer
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.emit("remote_steal",
                                task_id=dispatch.task.task_id,
                                primary=dispatch.primary_host,
                                inflight_s=now - (dispatch.started or now))
                if self._threads is not None:
                    self._threads.submit(self._dispatch, dispatch,
                                         steal=True, exclude=exclude)


# ---------------------------------------------------------------------- #
# Factory
# ---------------------------------------------------------------------- #
def compute_salt_hash(config: Any) -> str:
    """Content hash of the run's full config/compute-policy salt.

    Attached to every remote dispatch and checked by the daemon, so a
    fleet member running a different configuration rejects work instead
    of computing (and caching) the wrong thing.
    """
    from .hashing import content_hash
    from .scheduler import config_salt
    return content_hash(config_salt(config))


def make_backend(spec: Any, *, config: Any, jobs: int = 1,
                 workers: Optional[Sequence[str]] = None,
                 context: Any = None, faults: Optional[FaultPlan] = None,
                 trace_path: Optional[str] = None,
                 steal_after: Optional[float] = 30.0) -> ExecutorBackend:
    """Build an executor backend from a name (or pass one through).

    ``auto`` (or ``None``) preserves the historical behaviour: serial for
    ``jobs == 1``, the local pool otherwise.  ``remote`` requires
    ``workers`` — the daemon addresses of the fleet.
    """
    if isinstance(spec, ExecutorBackend):
        return spec
    name = (spec or "auto").lower() if isinstance(spec, str) or spec is None \
        else spec
    if name == "auto":
        name = "serial" if jobs == 1 else "local"
    if name == "serial":
        return SerialBackend(config, context=context, faults=faults)
    if name == "local":
        return LocalPoolBackend(config, jobs=jobs, faults=faults,
                                trace_path=trace_path)
    if name == "remote":
        if not workers:
            raise ValueError("--backend remote requires worker addresses "
                             "(--workers host:port,host:port,...)")
        worker_list = list(workers)
        return RemoteBackend(worker_list, config,
                             parallelism=max(jobs, len(worker_list)),
                             steal_after=steal_after)
    raise ValueError(f"unknown executor backend {spec!r}; expected one of "
                     f"{BACKEND_NAMES}")


__all__ = [
    "BACKEND_NAMES",
    "ExecutorBackend",
    "LocalPoolBackend",
    "RemoteBackend",
    "SerialBackend",
    "compute_salt_hash",
    "decode_deps",
    "encode_deps",
    "make_backend",
    "pool_mp_context",
    "terminate_pool",
]
