"""Process-wide structured tracing: JSONL events, timing spans, counters.

One :class:`Tracer` serves a whole process.  Every event is a single JSON
object written as one line (newline-delimited JSON) to the sink, so traces
are greppable, stream-parseable, and — because the sink is opened in append
mode and each event is one short ``write()`` — safely shared by the worker
processes of a parallel pipeline run on POSIX systems (``O_APPEND`` keeps
short single writes atomic).

The default tracer is a :class:`NullTracer`: every method is a no-op and
``enabled`` is ``False``, so instrumented hot loops guard any extra metric
computation behind ``if tracer.enabled`` and pay nothing when tracing is
off.  Telemetry only ever *reads* values — it never touches RNG streams or
mutates arrays — so trajectories are bit-for-bit identical with tracing on
or off (the golden regression suite asserts exactly that).

Event vocabulary (see the README schema table):

``manifest``
    First line of a trace: config salt, compute policy, git describe, host.
``attack_step``
    One optimisation step of one scene inside an attack engine.
``attack_converged``
    A scene satisfied its ``Converge(·)`` criterion.
``attack_run``
    One engine run: duration, CPU time and minor faults, steps, and the
    per-run cache counters.
``task`` / ``run_report``
    Scheduler bookkeeping: per-task spans and the end-of-run rollup.
``task_retry`` / ``task_timeout`` / ``pool_rebuild``
    Resilience layer: a transiently-failed attempt entering backoff, a
    task killed at its wall-clock deadline, and a broken worker pool being
    rebuilt (``action="rebuild"``) or the run degrading to serial
    execution (``action="degrade"``).
``store_quarantine``
    The result store moved a corrupt entry (checksum mismatch, missing
    sidecar, undecodable payload) into ``<root>/corrupt/`` instead of
    serving it.
``span``
    Generic named timing span (``Tracer.span``).
``counters``
    Monotonic counter totals, flushed when the tracer closes.
``op_profile``
    Per-op autograd timings (see :mod:`repro.telemetry.profiler`).
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, IO, Iterator, List, Optional

#: Bump when the event vocabulary changes incompatibly.
TRACE_SCHEMA_VERSION = 1


def _jsonable(value: Any) -> Any:
    """Last-resort JSON coercion (numpy scalars/arrays, paths, ...)."""
    for attr in ("item", "tolist"):
        converter = getattr(value, attr, None)
        if callable(converter):
            try:
                return converter()
            except (TypeError, ValueError):
                continue    # e.g. .item() on a multi-element array
    return str(value)


class NullTracer:
    """Disabled tracer: every call is a no-op.

    ``enabled`` is the flag hot paths check before computing anything that
    exists only to be traced; with the null tracer installed the whole
    telemetry layer costs one attribute read per guarded site.
    """

    enabled: bool = False
    path: Optional[str] = None

    def emit(self, event_type: str, **fields: Any) -> None:
        pass

    @contextmanager
    def span(self, name: str, **fields: Any) -> Iterator["NullTracer"]:
        yield self

    def count(self, name: str, value: float = 1) -> None:
        pass

    def counters(self) -> Dict[str, float]:
        return {}

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class Tracer(NullTracer):
    """JSONL tracer writing one event per line to ``path`` (or ``stream``).

    Parameters
    ----------
    path:
        Sink file, opened in append mode so several processes (the
        scheduler's workers) can share one trace.
    stream:
        Alternative: write to an existing text stream (tests).  The stream
        is not closed by :meth:`close`.
    manifest:
        Optional run-manifest mapping, emitted as the trace's first event
        (see :func:`repro.telemetry.manifest.build_manifest`).
    """

    enabled = True

    def __init__(self, path: Optional[str] = None,
                 stream: Optional[IO[str]] = None,
                 manifest: Optional[Dict[str, Any]] = None) -> None:
        if (path is None) == (stream is None):
            raise ValueError("exactly one of path / stream is required")
        self.path = path
        self._owns_stream = stream is None
        if stream is None:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            stream = open(path, "a", encoding="utf-8")
        self._stream: IO[str] = stream
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._closed = False
        if manifest is not None:
            self.emit("manifest", schema=TRACE_SCHEMA_VERSION, **manifest)

    # -------------------------------------------------------------- #
    def emit(self, event_type: str, **fields: Any) -> None:
        """Write one event: ``type`` + timestamp + pid + ``fields``."""
        record: Dict[str, Any] = {"type": event_type, "ts": time.time(),
                                  "pid": os.getpid()}
        record.update(fields)
        line = json.dumps(record, separators=(",", ":"), default=_jsonable)
        with self._lock:
            if self._closed:
                return
            # One write per event keeps concurrent appends line-atomic.
            self._stream.write(line + "\n")
            self._stream.flush()

    @contextmanager
    def span(self, name: str, **fields: Any) -> Iterator["Tracer"]:
        """Emit a ``span`` event with the wall-clock duration of the body."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.emit("span", name=name,
                      dur_s=time.perf_counter() - start, **fields)

    # -------------------------------------------------------------- #
    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to a monotonically-aggregated counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def counters(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._counters)

    # -------------------------------------------------------------- #
    def flush(self) -> None:
        with self._lock:
            if not self._closed:
                self._stream.flush()

    def close(self) -> None:
        """Flush counter totals as a final ``counters`` event and close."""
        totals = self.counters()
        if totals:
            self.emit("counters", values=totals)
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._owns_stream:
                self._stream.close()


# ------------------------------------------------------------------ #
# Process-global tracer (mirrors repro.accel.cache's active-cache idiom)
# ------------------------------------------------------------------ #
_NULL = NullTracer()
_tracer: NullTracer = _NULL


def get_tracer() -> NullTracer:
    """The process-wide tracer (a disabled :class:`NullTracer` by default)."""
    return _tracer


def install_tracer(tracer: Optional[NullTracer]) -> NullTracer:
    """Install ``tracer`` (``None`` restores the null tracer); returns the
    previously installed one so callers can restore it."""
    global _tracer
    previous = _tracer
    _tracer = tracer if tracer is not None else _NULL
    return previous


@contextmanager
def trace_to(path: Optional[str] = None, stream: Optional[IO[str]] = None,
             manifest: Optional[Dict[str, Any]] = None) -> Iterator[Tracer]:
    """Context manager: trace everything in the body to ``path``/``stream``."""
    tracer = Tracer(path=path, stream=stream, manifest=manifest)
    previous = install_tracer(tracer)
    try:
        yield tracer
    finally:
        install_tracer(previous)
        tracer.close()


def read_events(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL trace; malformed lines are skipped, not fatal."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict):
                events.append(event)
    return events


__all__ = [
    "TRACE_SCHEMA_VERSION",
    "NullTracer",
    "Tracer",
    "get_tracer",
    "install_tracer",
    "trace_to",
    "read_events",
]
