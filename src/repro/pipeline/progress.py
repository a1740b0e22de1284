"""Run bookkeeping and progress reporting for pipeline executions."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TextIO

#: Terminal task states.
RAN = "ran"
CACHED = "cached"
FAILED = "failed"
SKIPPED = "skipped"


@dataclass
class TaskRecord:
    """What happened to one task during a run."""

    task_id: str
    kind: str
    status: str                      # one of RAN / CACHED / FAILED / SKIPPED
    elapsed: float = 0.0
    error: Optional[str] = None      # traceback text for FAILED tasks
    key: Optional[str] = None        # result-store key (content fingerprint)
    stats: Optional[Dict[str, Any]] = None  # telemetry: cache/attack counters
    attempts: int = 1                # execution attempts consumed (retries + 1)
    worker: Optional[str] = None     # executing worker (remote host, "serial")


@dataclass
class RunReport:
    """Aggregate outcome of one pipeline run."""

    records: List[TaskRecord] = field(default_factory=list)
    wall_time: float = 0.0
    jobs: int = 1
    backend: Optional[str] = None  # executor backend (serial/local/remote)
    store_stats: Optional[Dict[str, Any]] = None  # ResultStore.session_stats()
    # Backend-level tallies (remote steals/failovers; empty for local runs).
    backend_stats: Optional[Dict[str, int]] = None
    # Resilience rollups (see repro.pipeline.resilience).
    retries: int = 0            # transient-failure retries across all tasks
    timeouts: int = 0           # attempts killed at their deadline
    pool_rebuilds: int = 0      # broken worker pools rebuilt mid-run
    degraded: bool = False      # pool kept dying; finished in-process serial

    def add(self, record: TaskRecord) -> TaskRecord:
        self.records.append(record)
        return record

    def count(self, status: str) -> int:
        return sum(1 for record in self.records if record.status == status)

    @property
    def succeeded(self) -> bool:
        return self.count(FAILED) == 0 and self.count(SKIPPED) == 0

    def failures(self) -> List[TaskRecord]:
        return [record for record in self.records if record.status == FAILED]

    def host_breakdown(self) -> Dict[str, int]:
        """Executed-task counts per worker label (remote host breakdown)."""
        hosts: Dict[str, int] = {}
        for record in self.records:
            if record.worker and record.status in (RAN, FAILED):
                hosts[record.worker] = hosts.get(record.worker, 0) + 1
        return hosts

    def cache_stats(self) -> Dict[str, int]:
        """Neighbourhood-cache counters summed over all task records."""
        totals: Dict[str, int] = {"exact_hits": 0, "stale_hits": 0,
                                  "misses": 0, "tree_hits": 0,
                                  "attacks": 0, "attack_steps": 0}
        for record in self.records:
            if not record.stats:
                continue
            for name in totals:
                value = record.stats.get(name)
                if isinstance(value, (int, float)):
                    totals[name] += int(value)
        return totals

    def summary(self) -> str:
        """One-line human summary, e.g. ``18 tasks: 12 ran, 6 cached``."""
        detail = ", ".join(f"{self.count(status)} {status}"
                           for status in (RAN, CACHED, FAILED, SKIPPED)
                           if self.count(status))
        mode = f"jobs={self.jobs}"
        if self.backend and self.backend not in ("serial", "local"):
            mode += f", backend={self.backend}"
        line = f"{len(self.records)} tasks: {detail or 'nothing to do'} " \
               f"in {self.wall_time:.1f}s ({mode})"
        if self.backend == "remote":
            hosts = self.host_breakdown()
            if hosts:
                line += "; hosts " + ", ".join(
                    f"{host}:{count}"
                    for host, count in sorted(hosts.items()))
        cache = self.cache_stats()
        lookups = cache["exact_hits"] + cache["stale_hits"] + cache["misses"]
        if lookups:
            hits = cache["exact_hits"] + cache["stale_hits"]
            line += (f"; nbr-cache {hits}/{lookups} hits "
                     f"({100.0 * hits / lookups:.0f}%)")
        if self.store_stats:
            line += (f"; store {self.store_stats.get('hits', 0)} hits / "
                     f"{self.store_stats.get('misses', 0)} misses")
            if self.store_stats.get("quarantined"):
                line += (f" / {self.store_stats['quarantined']} quarantined")
        resilience = []
        if self.retries:
            resilience.append(f"{self.retries} retries")
        if self.timeouts:
            resilience.append(f"{self.timeouts} timeouts")
        if self.pool_rebuilds:
            resilience.append(f"{self.pool_rebuilds} pool rebuilds")
        if resilience:
            line += "; " + ", ".join(resilience)
        if self.degraded:
            line += " (degraded to serial)"
        return line


class ProgressReporter:
    """Prints one status line per completed task.

    The scheduler calls :meth:`task_done` from the main process as results
    arrive, so output order reflects completion order, not submission order.
    """

    _MARKS = {RAN: "+", CACHED: "=", FAILED: "!", SKIPPED: "-"}

    def __init__(self, total: int, stream: Optional[TextIO] = None,
                 enabled: bool = True) -> None:
        self.total = total
        self.stream = stream or sys.stdout
        self.enabled = enabled
        self.done = 0
        # When the stream is not a terminal (piped logs, CI), stay on plain
        # line-buffered output: one full line per update, flushed immediately,
        # so a follower (``tail -f``) never sees a torn or stalled line.
        try:
            self.is_tty = bool(self.stream.isatty())
        except (AttributeError, ValueError, OSError):
            self.is_tty = False
        self._flush_ok = True

    def _emit(self, text: str) -> None:
        """Write one line and flush; a dead stream disables future flushes."""
        try:
            self.stream.write(text + "\n")
            if self._flush_ok:
                self.stream.flush()
        except (ValueError, OSError):
            # Closed/broken pipe: progress output is best-effort, never fatal.
            self._flush_ok = False

    def task_done(self, record: TaskRecord) -> None:
        self.done += 1
        if not self.enabled:
            return
        mark = self._MARKS.get(record.status, "?")
        line = (f"[{self.done:3d}/{self.total}] {mark} {record.status:<7s} "
                f"{record.task_id}")
        if record.status == RAN:
            line += f" ({record.elapsed:.1f}s)"
        if record.attempts > 1:
            line += f" [attempt {record.attempts}]"
        self._emit(line)
        if record.status == FAILED and record.error:
            self._emit("\n".join(f"    {l}"
                                 for l in record.error.splitlines()))

    def task_retry(self, task_id: str, attempt: int, max_attempts: int,
                   error: str, delay: float) -> None:
        """One line per retry, so a stuttering run is visible as it happens."""
        if not self.enabled:
            return
        self._emit(f"[{self.done:3d}/{self.total}] ~ retry   {task_id} "
                   f"(attempt {attempt}/{max_attempts} failed: {error}; "
                   f"backoff {delay:.2f}s)")

    def note(self, message: str) -> None:
        """Free-form run-level message (pool rebuilds, degradation)."""
        if self.enabled:
            self._emit(f"[{self.done:3d}/{self.total}] * {message}")


__all__ = ["TaskRecord", "RunReport", "ProgressReporter",
           "RAN", "CACHED", "FAILED", "SKIPPED"]
