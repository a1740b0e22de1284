"""Job bookkeeping of the serving layer: specs, states, dedup keys.

A *job* is one unit of submittable work — a single executor invocation
(``kind`` + ``params``, the same vocabulary as pipeline tasks) or a whole
experiment by name (sugar for the ``experiment`` executor).  Jobs carry no
dependency payloads: the warm worker contexts own datasets and trained
models, which is exactly what makes a long-lived server cheaper than a
batch CLI run.

Every job is keyed by the same content hash the pipeline result store
uses — ``content_hash({kind, params, deps: {}, salt: config_salt(config)})``
— so the dedup guarantees are inherited rather than reinvented:

* identical submissions **share one key**, and therefore one computation
  (the server's pending-jobs map) and one stored payload;
* the salt carries the resolved compute policy, ``attack_mode``, the EOT
  knobs and the store format version, so jobs that compute different
  things can never collide (see ``docs/ARCHITECTURE.md`` for the full
  salt-rules table).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from ..pipeline.hashing import content_hash
from ..pipeline.scheduler import config_salt

#: Job lifecycle states (terminal: done / failed / cancelled).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: Executor kinds a job may not submit: they read dependency payloads,
#: which serve jobs deliberately do not carry.
_DEP_PARAMS = ("match_l2_from",)

#: Cap on the per-job event history kept for late ``watch`` subscribers.
EVENT_HISTORY_LIMIT = 1024


class JobError(ValueError):
    """Raised for malformed job specifications."""


@dataclass(frozen=True)
class JobSpec:
    """One submittable unit of work: an executor kind plus its parameters.

    Build one directly, or from the wire form via :meth:`from_wire`, which
    also accepts the ``{"experiment": "table3"}`` sugar for whole-experiment
    jobs (the ``experiment`` executor).
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.kind or not isinstance(self.kind, str):
            raise JobError("job kind must be a non-empty string")
        if not isinstance(self.params, Mapping):
            raise JobError("job params must be a mapping")
        object.__setattr__(self, "params", dict(self.params))
        for name in _DEP_PARAMS:
            if name in self.params or name in dict(
                    self.params.get("attack") or {}):
                raise JobError(
                    f"job param {name!r} requires a dependency payload; "
                    f"dependency-coupled cells must run through the "
                    f"pipeline scheduler, not the serve layer")

    # ------------------------------------------------------------------ #
    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "JobSpec":
        """Parse the protocol form of a job.

        Accepted shapes::

            {"experiment": "table3"}                     # whole experiment
            {"kind": "attack_cell", "params": {...}}     # one executor call
        """
        if not isinstance(payload, Mapping):
            raise JobError("job must be a JSON object")
        if "experiment" in payload:
            name = payload["experiment"]
            if not isinstance(name, str) or not name:
                raise JobError("experiment name must be a non-empty string")
            return cls(kind="experiment", params={"name": name})
        if "kind" not in payload:
            raise JobError("job needs either 'experiment' or 'kind'")
        return cls(kind=payload["kind"], params=payload.get("params") or {})

    def validate_kind(self) -> None:
        """Check the kind against the executor registry (imports plans)."""
        from ..pipeline.worker import available_executors
        known = available_executors()
        if self.kind not in known:
            raise JobError(f"unknown job kind {self.kind!r}; "
                           f"known kinds: {known}")
        if self.kind == "experiment":
            from ..experiments.plans import available_experiments
            name = self.params.get("name")
            if name not in available_experiments():
                raise JobError(f"unknown experiment {name!r}; "
                               f"choose from {available_experiments()}")

    # ------------------------------------------------------------------ #
    @property
    def cacheable(self) -> bool:
        """Whether the payload may be served from / written to the store.

        Mirrors the pipeline plan registry: experiments that measure
        wall-clock or write figure files as a side effect must re-run.
        """
        if self.kind == "experiment":
            from ..experiments.plans import _NEVER_CACHE
            return self.params.get("name") not in _NEVER_CACHE
        return True

    @property
    def label(self) -> str:
        """Human-readable id, also used as the worker-side task id."""
        if self.kind == "experiment":
            return f"experiment:{self.params.get('name')}"
        return self.kind


def job_key(spec: JobSpec, config: Any) -> str:
    """Content hash identifying one job under one server configuration.

    Identical to the fingerprint a dependency-free single-task pipeline
    graph would produce: the executor kind, its parameters, an empty
    dependency map, and the full config salt (compute policy, attack mode,
    EOT knobs, store format version).  Submitting the same work twice —
    from any client, at any time — therefore lands on the same key.
    """
    return content_hash({
        "kind": spec.kind,
        "params": spec.params,
        "deps": {},
        "salt": config_salt(config),
    })


class Job:
    """One deduplicated computation and its subscribers.

    Identical submissions share a single ``Job`` (and its ``job_id``, which
    *is* the content key).  All mutation happens on the server's event
    loop; snapshots are plain JSON-safe dicts.
    """

    def __init__(self, spec: JobSpec, key: str) -> None:
        self.spec = spec
        self.key = key
        self.cached = False          # served straight from the result store
        self.submissions = 1         # how many submits landed on this job
        self.payload: Any = None     # in-memory result (uncacheable jobs)
        self.subscribers: List[Any] = []     # asyncio.Queue per watcher
        self.done_event: Any = None          # asyncio.Event, set by server
        self.start_run()

    def start_run(self) -> None:
        """Reset the fields of one run, as a failed or cancelled job's
        resubmission starts a fresh one: its attempts, retries, times and
        event history count from here (``submissions`` keeps counting), so
        ``watch`` replays only the current run."""
        self.events_seen = 0
        self.history: List[Dict[str, Any]] = []
        self.history_truncated = False
        self.state = QUEUED
        self.attempts = 0
        self.retries = 0
        self.error: Optional[str] = None
        self.elapsed: Optional[float] = None
        self.created_at = time.time()
        self.finished_at: Optional[float] = None
        self.cancel_requested = False

    # ------------------------------------------------------------------ #
    @property
    def job_id(self) -> str:
        return self.key

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe status view shipped to clients."""
        return {
            "job_id": self.job_id,
            "label": self.spec.label,
            "kind": self.spec.kind,
            "state": self.state,
            "cached": self.cached,
            "attempts": self.attempts,
            "submissions": self.submissions,
            "retries": self.retries,
            "events": self.events_seen,
            "error": self.error,
            "elapsed": self.elapsed,
            "created_at": self.created_at,
            "finished_at": self.finished_at,
        }

    # ------------------------------------------------------------------ #
    def publish(self, event: Dict[str, Any]) -> None:
        """Fan an event out to every watcher and into the replay history.

        Must run on the server's event loop.  The history is bounded so a
        runaway per-step stream cannot grow without limit; late watchers
        are told when the replay was truncated.
        """
        self.events_seen += 1
        if len(self.history) >= EVENT_HISTORY_LIMIT:
            self.history_truncated = True
            del self.history[: EVENT_HISTORY_LIMIT // 2]
        self.history.append(event)
        for queue in list(self.subscribers):
            try:
                queue.put_nowait(event)
            except Exception:  # noqa: BLE001 — a full/closed watcher queue
                pass           # must never stall the job


__all__ = [
    "CANCELLED",
    "DONE",
    "EVENT_HISTORY_LIMIT",
    "FAILED",
    "QUEUED",
    "RUNNING",
    "TERMINAL_STATES",
    "Job",
    "JobError",
    "JobSpec",
    "job_key",
]
