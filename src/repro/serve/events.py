"""Progress-event bridging between warm workers and job subscribers.

The attack engines already emit structured telemetry (``attack_step``,
``attack_converged``, ``attack_run`` — see :mod:`repro.telemetry.tracer`)
behind the process-wide tracer.  The serving layer reuses that exact
instrumentation instead of adding a second progress channel: each worker
process installs a :class:`QueueTracer` that forwards every event — tagged
with the job key the worker is currently executing — onto a
``multiprocessing`` queue, and the server pumps that queue into per-job
subscriber queues on its event loop.

Ordering guarantee: one job executes on one worker at a time, and the
queue preserves per-producer FIFO order, so a job's subscribers observe
its events in exactly the order the engine emitted them (asserted by
``tests/test_serve.py``).
"""

from __future__ import annotations

import os
import stat
import time
from typing import Any, Dict, Optional, Sequence, Tuple

from ..pipeline.worker import initialize_worker, run_task
from ..telemetry import NullTracer, get_tracer, install_tracer
from ..telemetry.tracer import _jsonable

#: Job key of the task currently executing in *this* worker process
#: (set around :func:`serve_run_task`; ``None`` between tasks).
_CURRENT_JOB: Optional[str] = None

#: The worker's event queue (set by :func:`initialize_serve_worker`);
#: used by :func:`serve_run_task` to send the end-of-task barrier.
_EVENT_QUEUE: Any = None


class QueueTracer(NullTracer):
    """Tracer that forwards events onto a multiprocessing queue.

    Installed as the process-wide tracer inside serve workers, so every
    instrumented site (engines, ``attack_compute``, the result store) feeds
    the job's progress stream with zero extra plumbing.  Events emitted
    outside any job (warm-up, idle maintenance) are dropped.

    A ``delegate`` tracer (the JSONL file tracer of a ``--trace`` run)
    receives every event as well, so serving and file tracing compose.
    """

    enabled = True

    def __init__(self, queue: Any, delegate: Optional[NullTracer] = None
                 ) -> None:
        self._queue = queue
        self._delegate = delegate

    def emit(self, event_type: str, **fields: Any) -> None:
        job = _CURRENT_JOB
        if job is not None:
            record: Dict[str, Any] = {"type": event_type, "ts": time.time(),
                                      "pid": os.getpid()}
            record.update(fields)
            try:
                self._queue.put(("event", job, _wire_safe(record)))
            except Exception:  # noqa: BLE001 — a dying queue must not
                pass           # take the task down with it
        if self._delegate is not None and self._delegate.enabled:
            self._delegate.emit(event_type, **fields)

    def count(self, name: str, value: float = 1) -> None:
        if self._delegate is not None:
            self._delegate.count(name, value)

    def close(self) -> None:
        if self._delegate is not None:
            self._delegate.close()


def _wire_safe(record: Dict[str, Any]) -> Dict[str, Any]:
    """Coerce event fields to JSON-safe plain types (numpy scalars etc.)."""
    safe: Dict[str, Any] = {}
    for key, value in record.items():
        if value is None or isinstance(value, (bool, int, float, str)):
            safe[key] = value
        elif isinstance(value, dict):
            safe[key] = _wire_safe(value)
        elif isinstance(value, (list, tuple)):
            safe[key] = [_jsonable(item) if not isinstance(
                item, (bool, int, float, str)) else item for item in value]
        else:
            safe[key] = _jsonable(value)
    return safe


# ---------------------------------------------------------------------- #
# Worker lifecycle
# ---------------------------------------------------------------------- #
def _release_inherited_sockets() -> None:
    """Point every socket descriptor above stderr at ``/dev/null``.

    The pool forks its workers on the first submit after each build,
    inside whichever request made it, so a worker starts with copies of
    the listener and of every open client connection; without this, a
    client reading to EOF after its answer waits until the worker exits.
    ``dup2`` rather than ``close``, because the socket objects copied from
    the parent still own those descriptor numbers and close them when
    collected.  The standard streams stay (under a service manager they
    may be its log socket).  Spawn-started workers (no ``/proc``) inherit
    no sockets.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:
        return
    null = os.open(os.devnull, os.O_RDWR)
    for fd in fds:
        try:
            if fd > 2 and stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.dup2(null, fd)
        except OSError:     # the listing's own descriptor, closed since
            pass
    os.close(null)


def initialize_serve_worker(config_dict: Dict[str, Any],
                            trace_path: Optional[str] = None,
                            event_queue: Any = None) -> None:
    """Pool initializer of the serving layer.

    Releases the client sockets a forked worker inherits, reuses the
    pipeline's :func:`~repro.pipeline.worker.initialize_worker` (lazy warm
    context, compute-thread pinning, optional JSONL tracer), then installs
    the :class:`QueueTracer` bridge on top so engine events flow back to
    the server.
    """
    global _EVENT_QUEUE
    _release_inherited_sockets()
    initialize_worker(config_dict, trace_path)
    if event_queue is not None:
        _EVENT_QUEUE = event_queue
        delegate = get_tracer()
        install_tracer(QueueTracer(
            event_queue, delegate if delegate.enabled else None))


def serve_run_task(job_key: str, task_id: str, kind: str,
                   params: Dict[str, Any], attempt: int = 1
                   ) -> Tuple[str, bool, Any, float,
                              Optional[Dict[str, Any]], Optional[Sequence[str]]]:
    """Worker entry point: tag the job, then run the task dependency-free.

    Wraps :func:`repro.pipeline.worker.run_task` (which never raises) so a
    failed job travels back as data, and brackets execution with the
    current-job marker the :class:`QueueTracer` stamps onto every event.

    On the way out it sends an end-of-task *barrier* onto the event queue.
    ``Queue.put`` is asynchronous (a feeder thread drains into the pipe),
    so the task's result future can complete before its last events reach
    the server; the barrier — queued after every event, on the same FIFO
    pipe — lets the server delay the terminal ``job_done``/``job_failed``
    publication until the stream is complete.
    """
    global _CURRENT_JOB
    _CURRENT_JOB = job_key
    try:
        return run_task(task_id, kind, params, {}, attempt)
    finally:
        _CURRENT_JOB = None
        if _EVENT_QUEUE is not None:
            try:
                _EVENT_QUEUE.put(("barrier", job_key, attempt))
            except Exception:  # noqa: BLE001 — never fail the task
                pass


__all__ = [
    "QueueTracer",
    "initialize_serve_worker",
    "serve_run_task",
]
