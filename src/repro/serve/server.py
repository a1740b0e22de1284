"""The attack-as-a-service daemon: a warm worker pool behind a socket.

:class:`AttackServer` owns the three pieces a batch CLI run pays for on
every invocation and a service pays for once:

* a **persistent worker pool** (``ProcessPoolExecutor``) whose processes
  build their :class:`~repro.experiments.context.ExperimentContext` lazily
  and keep it — datasets, trained victim models and the neighbourhood
  cache stay warm across jobs (the pool initializer is the pipeline's own
  :func:`~repro.pipeline.worker.initialize_worker`, wrapped by
  :func:`~repro.serve.events.initialize_serve_worker`);
* a **content-addressed result store** shared with the batch pipeline, so
  completed work — whoever computed it — is served back in milliseconds;
* a **job table** keyed by the store salt: identical submissions collapse
  onto one in-flight computation (pending-jobs map) or one cached payload
  (:meth:`~repro.pipeline.store.ResultStore.contains`), so N clients
  asking for the same cell cost one attack.

Every call into the pool — a job attempt or a ``task`` op — goes through
one coroutine, :meth:`AttackServer._attempt`, which turns a timeout, a
broken pool or a rebuild casualty into a classified failure and rebuilds
the pool when needed.  Jobs retry transient failures under a
:class:`~repro.pipeline.resilience.RetryPolicy` with deterministic
backoff, and the client only ever sees ``queued → running →
done|failed``.  A malformed request gets an ``ok: false`` answer naming
what is wrong, never a dropped connection.  Progress streams ride the
telemetry bridge (:mod:`repro.serve.events`): every engine ``attack_step``
lands in the subscribing clients' ``watch`` streams in emission order.

The architecture follows the stateful-server-over-expensive-backend shape
of production database engines (a compiler/result cache fronting a pool of
warm backend connections); see ``docs/SERVING.md`` for the protocol and
operational guide.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import logging
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from ..pipeline.executors import (compute_salt_hash, decode_deps,
                                  pool_mp_context, terminate_pool)
from ..pipeline.resilience import (TRANSIENT, RetryPolicy, TaskTimeoutError,
                                   classify_error, error_type_names)
from ..pipeline.scheduler import config_to_dict
from ..pipeline.store import canonical_payload_bytes, open_store
from ..pipeline.worker import run_task
from ..telemetry import get_tracer
from . import protocol
from .events import initialize_serve_worker, serve_run_task
from .jobs import (CANCELLED, DONE, FAILED, QUEUED, RUNNING, Job, JobError,
                   JobSpec, job_key)

#: Event types that terminate a ``watch`` stream.
TERMINAL_EVENTS = frozenset({"job_done", "job_failed", "job_cancelled"})

#: Default server-side wait bound of a blocking ``result`` request.
DEFAULT_RESULT_TIMEOUT = 3600.0

#: Retry policy of a daemon given none: three attempts per job, no deadline.
DEFAULT_RETRY = RetryPolicy(max_attempts=3)


def _positive(message: Dict[str, Any], name: str,
              kind: Any = (int, float)) -> Any:
    """Optional positive number ``message[name]``; a bad one is refused
    with a :class:`~repro.serve.jobs.JobError` that names the field."""
    value = message.get(name)
    if value is not None and (isinstance(value, bool)
                              or not isinstance(value, kind)
                              or not value > 0):
        noun = "integer" if kind is int else "number"
        raise JobError(f"{name!r} must be a positive {noun}, got {value!r}")
    return value


async def _discard_frame(reader: asyncio.StreamReader) -> None:
    """Read past an oversized frame: closing a socket on unread input
    resets the connection, which can destroy the error answer."""
    while True:
        chunk = await reader.read(1 << 16)
        if not chunk or b"\n" in chunk:
            return


class AttackServer:
    """Long-lived asyncio job server over a warm attack worker pool.

    Parameters
    ----------
    config:
        The :class:`~repro.experiments.context.ExperimentConfig` every job
        runs under.  One server serves one configuration: warm worker
        state is only warm because the config never changes mid-flight,
        and the config salt is what keys the dedup guarantees.
    jobs:
        Worker process count (and the bound on concurrently running jobs).
    store:
        A :class:`~repro.pipeline.store.StoreBackend`, a path, an
        ``http(s)://`` URL of a shared store daemon (``python -m
        repro.pipeline store-serve``), or ``None`` for the config's
        default ``<cache_dir>/results`` — deliberately the same default
        as the batch pipeline, so the two share one memoisation layer.
    retry:
        :class:`~repro.pipeline.resilience.RetryPolicy`; the default gives
        every job three attempts and no wall-clock deadline.
    host / port / unix_path:
        Listening address; ``port=0`` binds an ephemeral port (see
        :attr:`address` after :meth:`start`).  ``unix_path`` switches to a
        UNIX domain socket.
    trace_path:
        Optional JSONL telemetry sink forwarded to the workers, exactly
        like a traced pipeline run.
    """

    def __init__(self, config: Any, *, jobs: int = 2,
                 store: Any = None, retry: Optional[RetryPolicy] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 unix_path: Optional[str] = None,
                 trace_path: Optional[str] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.config = config
        self.jobs = jobs
        if store is None:
            store = os.path.join(config.cache_dir, "results")
        # A StoreBackend passes through; an ``http(s)://`` URL becomes a
        # RemoteStore, so a whole fleet of daemons can share one
        # content-addressed memoisation layer (see docs/SERVING.md).
        self.store = open_store(store)
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self._host = host
        self._port = port
        self._unix_path = unix_path
        self._trace_path = trace_path

        self.started_at: Optional[float] = None
        self.counters: Dict[str, int] = {
            "submitted": 0, "computed": 0, "dedup_inflight": 0,
            "dedup_store": 0, "done": 0, "failed": 0, "cancelled": 0,
            "rejected": 0, "retries": 0, "timeouts": 0, "pool_rebuilds": 0,
            "events": 0, "tasks": 0, "task_hits": 0,
        }
        self._salt_hash: Optional[str] = None
        self._jobs: Dict[str, Job] = {}
        self._job_tasks: Dict[str, asyncio.Task] = {}
        self._connections: "set[asyncio.Task]" = set()
        self._barriers: Dict[Any, asyncio.Event] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_generation = 0
        self._pool_lock: Optional[asyncio.Lock] = None
        self._events: Any = None
        self._pump_thread: Optional[threading.Thread] = None
        self._stopping = False
        self._stopped: Optional[asyncio.Event] = None  # created in start()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> Any:
        """``(host, port)`` of the TCP listener, or the UNIX socket path."""
        if self._unix_path is not None:
            return self._unix_path
        return (self._host, self._port)

    @property
    def salt_hash(self) -> str:
        """Content hash of this daemon's config salt (fleet fingerprint).

        Remote dispatches carry the scheduler's salt hash; a mismatch is
        refused rather than silently computing under a different
        configuration (and poisoning a shared store).
        """
        if self._salt_hash is None:
            self._salt_hash = compute_salt_hash(self.config)
        return self._salt_hash

    def _make_pool(self) -> ProcessPoolExecutor:
        # ``initialize_serve_worker`` resolves in this module's namespace
        # each time a pool is built, so a wrapper installed on it (the
        # traced benchmark's worker-start span) reaches rebuilt pools too.
        return ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=pool_mp_context(),
            initializer=initialize_serve_worker,
            initargs=(config_to_dict(self.config), self._trace_path,
                      self._events))

    async def start(self) -> None:
        """Bind the socket, start the pool and the event pump."""
        self._loop = asyncio.get_running_loop()
        self._semaphore = asyncio.Semaphore(self.jobs)
        self._pool_lock = asyncio.Lock()
        self._stopped = asyncio.Event()
        self._events = pool_mp_context().Queue()
        self._pool = self._make_pool()
        self._pump_thread = threading.Thread(
            target=self._pump, name="serve-event-pump", daemon=True)
        self._pump_thread.start()
        if self._unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=self._unix_path,
                limit=protocol.MAX_LINE_BYTES)
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=self._host, port=self._port,
                limit=protocol.MAX_LINE_BYTES)
            self._port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.time()

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` (or a ``shutdown`` request) completes."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()

    async def stop(self, drain: bool = True) -> None:
        """Graceful shutdown.

        ``drain=True`` lets every in-flight *and queued* job finish while
        rejecting new submissions; ``drain=False`` additionally cancels the
        jobs still queued (running workers are never preempted — their
        results are stored on completion as usual).
        """
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        if not drain:
            for job in self._jobs.values():
                if job.state == QUEUED:
                    job.cancel_requested = True
        if self._job_tasks:
            await asyncio.gather(*list(self._job_tasks.values()),
                                 return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Let in-flight connections (synchronous ``task`` ops, watches)
        # write their responses before the loop dies under them —
        # otherwise a remote scheduler is left waiting on an open socket
        # until its own timeout.  New connections are already refused.
        me = asyncio.current_task()
        while True:
            # A connection accepted just before the listener closed may
            # not have taken its first handler step yet (so it has not
            # registered in ``_connections``): yield once so late
            # registrations land, then re-scan until the set drains.
            await asyncio.sleep(0)
            remaining = [task for task in self._connections
                         if task is not me and not task.done()]
            if not remaining:
                break
            await asyncio.gather(*remaining, return_exceptions=True)
        try:
            self._events.put(None)      # pump sentinel
        except Exception:  # noqa: BLE001
            pass
        if self._pump_thread is not None:
            self._pump_thread.join(timeout=2.0)
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        if self._unix_path is not None:
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass
        self._stopped.set()

    # ------------------------------------------------------------------ #
    # Event pump: worker queue -> loop -> per-job subscribers
    # ------------------------------------------------------------------ #
    def _pump(self) -> None:
        while True:
            try:
                item = self._events.get()
            except (EOFError, OSError):
                return
            if item is None:
                return
            try:
                kind, key, event = item
            except (TypeError, ValueError):
                continue
            if kind == "event":
                self._loop.call_soon_threadsafe(self._dispatch_event, key,
                                                event)
            elif kind == "barrier":
                self._loop.call_soon_threadsafe(self._dispatch_barrier, key,
                                                event)

    def _dispatch_event(self, key: str, event: Dict[str, Any]) -> None:
        job = self._jobs.get(key)
        if job is None:
            return
        self.counters["events"] += 1
        job.publish(event)

    def _dispatch_barrier(self, key: str, attempt: int) -> None:
        barrier = self._barriers.get((key, attempt))
        if barrier is not None:
            barrier.set()

    def _publish(self, job: Job, event_type: str, **fields: Any) -> None:
        """Server-side lifecycle event into the job's stream (+ tracer)."""
        event = {"type": event_type, "ts": time.time(), "job_id": job.job_id}
        event.update(fields)
        job.publish(event)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit("serve_" + event_type, job=job.job_id,
                        label=job.spec.label, **fields)

    # ------------------------------------------------------------------ #
    # Job execution
    # ------------------------------------------------------------------ #
    async def _rebuild_pool(self, failed_generation: int, reason: str) -> None:
        """Replace a dead (or deliberately killed) pool exactly once.

        Concurrent jobs all observe the same failure; the generation
        counter makes the first one rebuild and the rest reuse the fresh
        pool instead of stampeding.
        """
        async with self._pool_lock:
            if self._pool_generation != failed_generation:
                return
            self._pool_generation += 1
            self.counters["pool_rebuilds"] += 1
            terminate_pool(self._pool)
            self._pool = self._make_pool()
            tracer = get_tracer()
            if tracer.enabled:
                tracer.emit("pool_rebuild", action="rebuild", reason=reason,
                            count=self.counters["pool_rebuilds"])

    async def _attempt(self, what: str, attempt: int, timeout: Optional[float],
                       call: Any, *args: Any, barrier: Optional[str] = None
                       ) -> Tuple[bool, Any, float, Optional[Dict[str, Any]],
                                  Optional[List[str]]]:
        """Run one worker call on the pool under ``timeout``.

        Returns ``(ok, payload_or_error, elapsed, stats, error_types)``:
        the worker's result, or a classified failure.  A timeout rebuilds
        the pool (killing the hung worker), a future cancelled by a
        sibling's rebuild is transient, and a broken pool is rebuilt once
        per pool generation.

        ``barrier`` (a job key) makes a finished call wait for the
        worker's end-of-task barrier: ``Queue.put`` in the worker is
        asynchronous, so the result can overtake the task's own progress
        events, and the barrier rides the same FIFO behind them.  The wait
        is bounded, because a worker that died mid-pipe sends none.
        """
        generation = self._pool_generation
        started = time.perf_counter()
        if barrier is not None:
            drained = self._barriers[(barrier, attempt)] = asyncio.Event()
        try:
            future = self._pool.submit(call, *args)
            result = await asyncio.wait_for(asyncio.wrap_future(future),
                                            timeout=timeout)
            if barrier is not None:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(drained.wait(), timeout=5.0)
            return result[1:]
        except asyncio.TimeoutError:
            self.counters["timeouts"] += 1
            message = (f"{what} timed out after {timeout:.1f}s (attempt "
                       f"{attempt}); its worker was terminated")
            await self._rebuild_pool(generation, "timeout")
            error_types = error_type_names(TaskTimeoutError(message))
        except asyncio.CancelledError:
            if self._stopping:
                raise
            message = "worker pool was rebuilt under this attempt"
            error_types = ["TransientTaskError"]
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as error:  # noqa: BLE001 — pool broke
            error_types = error_type_names(error)
            if "BrokenProcessPool" in error_types or \
                    "BrokenExecutor" in error_types:
                await self._rebuild_pool(generation, "worker pool broke")
            message = repr(error)
        finally:
            if barrier is not None:
                self._barriers.pop((barrier, attempt), None)
        return False, message, time.perf_counter() - started, None, error_types

    async def _store_result(self, key: str, task_id: str, kind: str,
                            params: Dict[str, Any], payload: Any,
                            elapsed: float,
                            stats: Optional[Dict[str, Any]]) -> None:
        """Write one computed result to the store, off the event loop."""
        metadata = {"task_id": task_id, "kind": kind, "params": dict(params),
                    "elapsed": elapsed, "served_by": "repro.serve"}
        if stats:
            metadata["stats"] = stats
        await asyncio.to_thread(self.store.put, key, payload, metadata)

    async def _run_job(self, job: Job) -> None:
        try:
            await self._execute_job(job)
        finally:
            self._job_tasks.pop(job.key, None)

    async def _execute_job(self, job: Job) -> None:
        """The job's retry loop: attempts until success, a permanent
        failure, or an exhausted :class:`RetryPolicy` budget."""
        async with self._semaphore:
            if job.cancel_requested:
                self._finish(job, CANCELLED, "job_cancelled")
                return
            job.state = RUNNING
            self.counters["computed"] += 1
            self._publish(job, "job_started")
            spec = job.spec
            while True:
                job.attempts += 1
                ok, payload_or_error, elapsed, stats, error_types = \
                    await self._attempt(
                        f"job {spec.label!r}", job.attempts,
                        self.retry.task_timeout, serve_run_task, job.key,
                        spec.label, spec.kind, dict(spec.params),
                        job.attempts, barrier=job.key)
                if ok:
                    if spec.cacheable:
                        await self._store_result(
                            job.key, spec.label, spec.kind, spec.params,
                            payload_or_error, elapsed, stats)
                    else:
                        job.payload = payload_or_error
                    job.elapsed = elapsed
                    self._finish(job, DONE, "job_done", elapsed=elapsed,
                                 attempts=job.attempts)
                    return
                if classify_error(error_types) == TRANSIENT and \
                        self.retry.retryable(job.attempts):
                    job.retries += 1
                    self.counters["retries"] += 1
                    delay = self.retry.delay(job.key, job.attempts)
                    self._publish(job, "job_retry", attempt=job.attempts,
                                  max_attempts=self.retry.max_attempts,
                                  error=(error_types or ["unknown"])[0],
                                  delay_s=delay)
                    await asyncio.sleep(delay)
                    continue
                job.error = str(payload_or_error)
                job.elapsed = elapsed
                self._finish(job, FAILED, "job_failed", error=job.error,
                             attempts=job.attempts)
                return

    def _finish(self, job: Job, state: str, event_type: str,
                **fields: Any) -> None:
        """Enter a terminal state, publish its event, wake the waiters."""
        job.state = state
        job.finished_at = time.time()
        self.counters[state] += 1
        self._publish(job, event_type, **fields)
        job.done_event.set()

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #
    def _submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        if self._stopping:
            self.counters["rejected"] += 1
            return protocol.error_response("server is shutting down",
                                           state="stopping")
        try:
            spec = JobSpec.from_wire(payload)
            spec.validate_kind()
        except JobError as error:
            return protocol.error_response(str(error))
        key = job_key(spec, self.config)
        self.counters["submitted"] += 1

        existing = self._jobs.get(key)
        if existing is not None and existing.state not in (FAILED, CANCELLED):
            # In-flight (or already completed) duplicate: one computation.
            existing.submissions += 1
            self.counters["dedup_inflight"] += 1
            return protocol.ok_response(job_id=existing.job_id,
                                        state=existing.state,
                                        deduped=True, cached=existing.cached)

        job = Job(spec, key) if existing is None else existing
        if existing is not None:        # resubmission of a failed job
            job.submissions += 1
            job.state = QUEUED
            job.error = None
            job.cancel_requested = False
        job.done_event = asyncio.Event()
        self._jobs[key] = job

        if spec.cacheable and self.store.contains(key, count=False):
            # Completed dedup: somebody (this server, an earlier run, the
            # batch pipeline) already stored this exact computation.
            job.cached = True
            self.counters["dedup_store"] += 1
            self._finish(job, DONE, "job_done", cached=True)
            return protocol.ok_response(job_id=job.job_id, state=job.state,
                                        deduped=False, cached=True)

        self._publish(job, "job_queued", label=spec.label)
        self._job_tasks[key] = self._loop.create_task(self._run_job(job))
        return protocol.ok_response(job_id=job.job_id, state=job.state,
                                    deduped=False, cached=False)

    def _get_job(self, message: Dict[str, Any]) -> Job:
        job = self._jobs.get(str(message.get("id", "")))
        if job is None:
            raise JobError(f"unknown job {message.get('id')!r}")
        return job

    async def _result(self, job: Job, wait: bool,
                      timeout: Optional[float]) -> Dict[str, Any]:
        if wait and not job.finished:
            try:
                await asyncio.wait_for(
                    job.done_event.wait(),
                    timeout=timeout if timeout else DEFAULT_RESULT_TIMEOUT)
            except asyncio.TimeoutError:
                return protocol.error_response(
                    "timed out waiting for the job", state=job.state,
                    job_id=job.job_id)
        if job.state != DONE:
            return protocol.error_response(
                job.error or f"job is {job.state}", state=job.state,
                job_id=job.job_id)
        if job.payload is not None:
            payload = job.payload
        else:
            try:
                payload = self.store.get(job.key)
            except KeyError as error:
                return protocol.error_response(
                    f"stored result vanished or was quarantined: {error}",
                    state=job.state, job_id=job.job_id)
        response = protocol.ok_response(job_id=job.job_id, state=job.state,
                                        cached=job.cached,
                                        result=protocol.wire_payload(payload))
        return response

    def _cancel(self, job: Job) -> Dict[str, Any]:
        if job.finished:
            return protocol.error_response(f"job already {job.state}",
                                           state=job.state)
        if job.state == RUNNING:
            return protocol.error_response(
                "job is running; a warm worker is never preempted",
                state=job.state)
        job.cancel_requested = True
        return protocol.ok_response(job_id=job.job_id, state=job.state,
                                    cancelling=True)

    async def _task(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one pipeline task synchronously (the ``task`` op).

        The distributed scheduler's hot path: one attempt on the warm
        pool, no server-side retry — retry, backoff and host failover are
        the dispatching scheduler's job, and double-retrying here would
        multiply attempt budgets.  Cacheable results are written to this
        daemon's store and returned as a base64 pickle blob either way;
        a store hit skips the pool entirely.
        """
        if self._stopping:
            self.counters["rejected"] += 1
            return protocol.error_response("server is shutting down",
                                           state="stopping",
                                           error_types=["TransientTaskError"])
        salt = message.get("salt")
        if salt is not None and salt != self.salt_hash:
            return protocol.error_response(
                f"config salt mismatch: this daemon runs {self.salt_hash}, "
                f"the scheduler sent {salt}; point --workers at daemons "
                f"started with the same configuration",
                error_types=["ConfigSaltMismatch"])
        task_id = str(message.get("task_id", ""))
        kind = str(message.get("kind", ""))
        params = message.get("params") or {}
        if not isinstance(params, dict):
            raise JobError(f"'params' must be a JSON object, got {params!r}")
        attempt = _positive(message, "attempt", int) or 1
        timeout = _positive(message, "timeout") or self.retry.task_timeout
        key = message.get("key")
        cacheable = bool(message.get("cacheable", True))
        self.counters["tasks"] += 1
        if key and cacheable:
            try:
                blob = await asyncio.to_thread(self.store.get_bytes, key)
            except KeyError:
                pass        # absent (or quarantined): compute it
            else:
                self.counters["task_hits"] += 1
                return protocol.ok_response(
                    hit=True, blob=base64.b64encode(blob).decode("ascii"),
                    elapsed=0.0)
        try:
            deps = decode_deps(message.get("deps"))
        except Exception as error:  # noqa: BLE001 — malformed blob
            return protocol.error_response(
                f"undecodable deps blob: {error!r}",
                error_types=["TaskPayloadError"])
        async with self._semaphore:
            ok, payload_or_error, elapsed, stats, error_types = \
                await self._attempt(f"task {task_id!r}", attempt, timeout,
                                    run_task, task_id, kind, dict(params),
                                    deps, attempt)
        if not ok:
            return protocol.error_response(str(payload_or_error),
                                           elapsed=elapsed,
                                           error_types=error_types)
        if key and cacheable:
            await self._store_result(key, task_id, kind, params,
                                     payload_or_error, elapsed, stats)
        blob = canonical_payload_bytes(payload_or_error)
        return protocol.ok_response(
            hit=False, blob=base64.b64encode(blob).decode("ascii"),
            elapsed=elapsed, stats=stats)

    def _identity(self) -> Dict[str, Any]:
        uptime = time.time() - self.started_at if self.started_at else 0.0
        return {"server": "repro.serve", "version": protocol.PROTOCOL_VERSION,
                "pid": os.getpid(), "uptime_s": uptime}

    def _stats(self) -> Dict[str, Any]:
        states: Dict[str, int] = {}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        store_stats = dict(self.store.session_stats())
        store_stats["root"] = self.store.root
        return protocol.ok_response(
            **self._identity(), jobs=dict(self.counters), states=states,
            pool={"workers": self.jobs,
                  "generation": self._pool_generation,
                  "rebuilds": self.counters["pool_rebuilds"],
                  "task_timeout": self.retry.task_timeout,
                  "max_attempts": self.retry.max_attempts},
            store=store_stats)

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        connection = asyncio.current_task()
        if connection is not None:
            self._connections.add(connection)
        try:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as error:
                line = error.partial            # EOF ends the frame too
            except asyncio.LimitOverrunError:
                await _discard_frame(reader)
                writer.write(protocol.encode(protocol.error_response(
                    f"request frame exceeds {protocol.MAX_LINE_BYTES} "
                    f"bytes")))
                return
            if not line.strip():
                return
            try:
                message = protocol.decode(line)
            except protocol.ProtocolError as error:
                writer.write(protocol.encode(
                    protocol.error_response(str(error))))
                return
            await self._dispatch(message, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if connection is not None:
                self._connections.discard(connection)
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(self, message: Dict[str, Any],
                        writer: asyncio.StreamWriter) -> None:
        op = message.get("op")
        try:
            if op == "ping":
                response = protocol.ok_response(**self._identity())
            elif op == "submit":
                response = self._submit(message.get("job") or {})
            elif op == "status":
                response = protocol.ok_response(
                    **self._get_job(message).snapshot())
            elif op == "result":
                response = await self._result(
                    self._get_job(message),
                    wait=bool(message.get("wait", True)),
                    timeout=_positive(message, "timeout"))
            elif op == "cancel":
                response = self._cancel(self._get_job(message))
            elif op == "task":
                response = await self._task(message)
            elif op == "stats":
                response = self._stats()
            elif op == "watch":
                await self._watch(self._get_job(message), writer)
                return
            elif op == "shutdown":
                drain = bool(message.get("drain", True))
                self._loop.create_task(self.stop(drain=drain))
                response = protocol.ok_response(stopping=True, drain=drain)
            else:
                response = protocol.error_response(
                    f"unknown op {op!r}; expected one of "
                    f"{protocol.OPERATIONS}")
        except JobError as error:
            response = protocol.error_response(str(error))
        except (ConnectionResetError, BrokenPipeError):
            raise                   # the peer is gone: nobody to answer
        except Exception as error:  # noqa: BLE001 — answer, never hang up
            logging.getLogger(__name__).exception("%r request failed", op)
            # error_types keep the retry classification: an unreachable
            # shared store (StoreUnavailableError) stays transient.
            response = protocol.error_response(
                f"{op!r} request failed: {error!r}",
                error_types=error_type_names(error))
        writer.write(protocol.encode(response))

    async def _watch(self, job: Job, writer: asyncio.StreamWriter) -> None:
        """Stream the job's events: history replay, then live tail."""
        queue: asyncio.Queue = asyncio.Queue()
        # Snapshot + subscribe without awaiting in between: the event loop
        # is single-threaded, so no event can slip into the gap.
        backlog = list(job.history)
        finished = job.finished
        if not finished:
            job.subscribers.append(queue)
        try:
            if job.history_truncated:
                writer.write(protocol.encode(protocol.ok_response(
                    event={"type": "history_truncated"})))
            terminal_seen = False
            for event in backlog:
                writer.write(protocol.encode(protocol.ok_response(event=event)))
                terminal_seen |= event.get("type") in TERMINAL_EVENTS
            await writer.drain()
            while not terminal_seen and not finished:
                event = await queue.get()
                writer.write(protocol.encode(protocol.ok_response(event=event)))
                await writer.drain()
                terminal_seen = event.get("type") in TERMINAL_EVENTS
            writer.write(protocol.encode(protocol.ok_response(
                done=True, state=job.state, job_id=job.job_id)))
        finally:
            if queue in job.subscribers:
                job.subscribers.remove(queue)


class ServerThread:
    """Run an :class:`AttackServer` on a background thread.

    The blocking entry point of tests, the example client and the serve
    benchmark: ``start()`` returns once the socket is bound (so
    :attr:`address` is immediately connectable), ``stop()`` drains and
    joins.  Usable as a context manager::

        with ServerThread(AttackServer(config, jobs=2)) as address:
            client = Client(address)
            ...
    """

    def __init__(self, server: AttackServer) -> None:
        self.server = server
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as error:  # noqa: BLE001 — surfaced in start()
            self._error = error
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_until_complete(self.server.serve_forever())
        finally:
            loop.close()

    def start(self) -> Any:
        """Start the server; returns its bound :attr:`AttackServer.address`."""
        self._thread = threading.Thread(target=self._run, name="repro-serve",
                                        daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            raise self._error
        return self.server.address

    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Gracefully stop the server and join its thread."""
        if self._loop is None or self._thread is None:
            return
        if self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.server.stop(drain=drain), self._loop)
            try:
                future.result(timeout=timeout)
            except Exception:  # noqa: BLE001 — loop may already be closing
                pass
        self._thread.join(timeout=timeout)

    def __enter__(self) -> Any:
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


__all__ = ["AttackServer", "DEFAULT_RESULT_TIMEOUT", "DEFAULT_RETRY",
           "ServerThread", "TERMINAL_EVENTS"]
