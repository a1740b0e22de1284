"""Wire protocol of the serve daemon: newline-delimited JSON requests.

One request per connection: the client sends a single JSON object on one
line, the server answers with one JSON object per line — exactly one line
for every operation except ``watch``, which streams events (one per line)
and terminates with a ``{"done": true, ...}`` line.  Requests and
responses are UTF-8; the framing is trivially inspectable with ``nc`` and
stream-parseable with any JSONL tooling.  A request line longer than
:data:`MAX_LINE_BYTES`, or not completed within :data:`FRAME_TIMEOUT`
seconds, is answered ``ok: false``.  Payloads travel as the codec's JSON
(:mod:`repro.pipeline.hashing`), never as pickle.

Operations
----------
``ping``
    Liveness probe; returns server identity and uptime.
``submit``
    ``{"op": "submit", "job": {...}}`` — register a job (see
    :class:`~repro.serve.jobs.JobSpec.from_wire` for the job shapes).
    Returns the job id (= content key), its state, and whether the
    submission deduplicated against an in-flight job (``deduped``) or a
    completed store entry (``cached``).
``status``
    ``{"op": "status", "id": JOB}`` — JSON snapshot of one job.
``result``
    ``{"op": "result", "id": JOB, "wait": true, "timeout": SECONDS}`` —
    block (server-side) until the job finishes, then return its payload
    (see :func:`wire_payload`).
``cancel``
    ``{"op": "cancel", "id": JOB}`` — cancel a queued job.  A running
    worker is never preempted: cancelling a running job is refused.
``watch``
    ``{"op": "watch", "id": JOB}`` — replay the job's event history, then
    stream live events until the job finishes.
``task``
    ``{"op": "task", "task_id": ..., "kind": ..., "params": {...},
    "deps": {...}, "attempt": N, "key": KEY, "cacheable": true,
    "salt": HASH, "timeout": SECONDS}`` — execute one pipeline task
    synchronously (the distributed-scheduler hot path; see
    :class:`repro.pipeline.executors.RemoteBackend`).  ``deps`` maps
    dependency task ids to payloads in the codec's JSON form (a type
    outside its allow-list is refused with ``TaskPayloadError``); the
    response carries the result the same way (``payload``) plus ``hit``
    when it was served from the daemon's result store, and
    ``elapsed``/``stats`` when computed.  ``salt`` must match the daemon's
    config salt hash — a mismatch is refused (permanently) rather than
    silently computing against a different configuration.
``stats``
    Server counters: job/dedup totals, pool state, store traffic.
``shutdown``
    ``{"op": "shutdown", "drain": true}`` — stop accepting submissions,
    let in-flight jobs finish (``drain=false`` cancels queued jobs), then
    exit.

Every response carries ``"ok"``; failures carry ``"error"``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from ..pipeline.hashing import canonicalize

#: Protocol revision, echoed by ``ping``; bump on incompatible changes.
PROTOCOL_VERSION = 1

#: Upper bound on one request/response line (a formatted table result is
#: a few KiB; attack-cell payloads are compact by design).
MAX_LINE_BYTES = 32 * 1024 * 1024

#: Seconds a client has to send its whole request line; a stalled one is
#: answered ``ok: false`` instead of holding its connection open.
FRAME_TIMEOUT = 30.0

#: Operations a server understands (mirrored by the client methods).
OPERATIONS = ("ping", "submit", "status", "result", "cancel", "watch",
              "task", "stats", "shutdown")


class ProtocolError(RuntimeError):
    """Raised on malformed frames (oversized lines, invalid JSON)."""


def encode(message: Dict[str, Any]) -> bytes:
    """One message as one UTF-8 JSON line."""
    return (json.dumps(message, separators=(",", ":"), default=str)
            + "\n").encode("utf-8")


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one frame; raises :class:`ProtocolError` on garbage."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"frame exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"malformed frame: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError("frame must be a JSON object")
    return message


def error_response(message: str, **extra: Any) -> Dict[str, Any]:
    response = {"ok": False, "error": message}
    response.update(extra)
    return response


def ok_response(**fields: Any) -> Dict[str, Any]:
    response: Dict[str, Any] = {"ok": True}
    response.update(fields)
    return response


def wire_payload(payload: Any) -> Dict[str, Any]:
    """Ship a job result over JSON.

    ``value`` is the payload codec's JSON form (an ``AttackOutcome`` is an
    object tagged with its class name, which
    :func:`repro.pipeline.hashing.revive` rebuilds); richer results (a
    ``TableResult``) additionally carry their human-readable rendering.
    """
    out: Dict[str, Any] = {"value": canonicalize(payload)}
    formatted = getattr(payload, "formatted", None)
    if callable(formatted):
        try:
            out["formatted"] = formatted()
        except Exception:  # noqa: BLE001 — rendering is best-effort
            pass
    return out


def parse_address(text: str) -> "tuple[Optional[str], Optional[int], Optional[str]]":
    """``host:port`` or a filesystem path → ``(host, port, unix_path)``."""
    if "/" in text or text.startswith("@"):
        return None, None, text
    host, sep, port = text.rpartition(":")
    if not sep:
        raise ValueError(f"address {text!r} is neither host:port nor a path")
    return host or "127.0.0.1", int(port), None


__all__ = [
    "FRAME_TIMEOUT",
    "MAX_LINE_BYTES",
    "OPERATIONS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "decode",
    "encode",
    "error_response",
    "ok_response",
    "parse_address",
    "wire_payload",
]
