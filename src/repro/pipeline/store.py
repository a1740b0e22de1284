"""Content-addressed result stores with payload integrity checking.

Task outputs are filed under their content hash (see :mod:`.hashing` and
:meth:`..pipeline.graph.TaskGraph.fingerprints`), so re-running the same
experiment — or resuming an interrupted run — skips every task whose inputs
are unchanged.  Payloads are canonical JSON (:func:`.hashing.canonical_json`,
read back through :func:`.hashing.revive`), so their bytes depend only on
their value and decoding them never constructs anything outside the
payload allow-list; a JSON sidecar keeps human-inspectable metadata per
entry, including a SHA-256 checksum of the payload bytes.

Two implementations sit behind the :class:`StoreBackend` interface:

* :class:`ResultStore` — the on-disk store every single-host run uses;
* :class:`~repro.pipeline.store_http.RemoteStore` — an HTTP client against
  a shared store daemon, so a fleet of workers (and any number of
  schedulers and ``repro.serve`` daemons) shares one memoisation layer.
  Sharing is safe by construction: every key carries the full config /
  compute-policy salt, so entries computed under different policies can
  never collide.

Writes are atomic (temp file + ``os.replace``) so concurrent workers and
interrupted runs never leave a truncated entry behind.  Reads verify the
checksum: an entry whose bytes no longer match (bit rot, a torn copy, an
injected ``corrupt`` fault) is *quarantined* — moved to ``<root>/corrupt/``
for post-mortem inspection rather than silently deleted — and reported as a
miss so the scheduler recomputes it.  A sidecar that is missing, cannot be
parsed or carries no checksum is treated the same way: damaged on-disk
state must disable the entry, never the integrity check.
:meth:`ResultStore.verify` audits a whole store; :meth:`ResultStore.gc`
evicts least-recently-used entries against a byte/entry budget so a
long-lived shared store can run indefinitely.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..ioutils import atomic_write_bytes
from .hashing import canonical_json, revive

#: Bump to invalidate every existing store entry on a payload format change.
#: v2: attack cells gained the repro.accel compute policy (fast-math
#: defaults), so results cached by the v1 (pre-accel) code are not
#: interchangeable with post-accel runs.
#: v3: the adversarial-loss head computes its constants in the policy dtype
#: (float32 under fast-math, previously always float64), shifting fast-mode
#: trajectories by low-order bits — cached fast-mode cells from v2 are not
#: interchangeable.  Exactness-mode arithmetic is unchanged.
#: v4: the ``tensor_backend`` and ``graph_capture`` knobs are gone, so the
#: resolved compute policy no longer salts a backend and every content
#: hash changes; payloads themselves are unchanged.
#: v5: payloads are canonical JSON instead of pickle, and every entry has
#: a checksummed sidecar (an entry without one is quarantined).
#: v6: the fast policy runs ResGCN's EdgeConv projection-first and takes
#: the closed-form softmax VJP (PCT, RandLA-Net), which moves fast-mode
#: trajectories by low-order bits; exact-policy arithmetic is unchanged.
STORE_FORMAT_VERSION = 6


_KEY = re.compile(r"[0-9a-f]{64}")


def check_key(key: Any) -> str:
    """``key`` if it is a store key (what
    :func:`~.hashing.content_hash` returns: 64 lowercase hex digits);
    ``ValueError`` otherwise, so no key can name a path or URL outside
    its entry."""
    if not isinstance(key, str) or not _KEY.fullmatch(key):
        raise ValueError(f"store keys are 64 lowercase hex digits, got "
                         f"{key!r}")
    return key


def _payload_checksum(blob: bytes) -> str:
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def _integrity_problem(blob: bytes,
                       meta: Optional[Dict[str, Any]]) -> Optional[str]:
    """Why an entry must not be served, or ``None`` when it verifies."""
    if meta is None:
        return "missing or unreadable metadata sidecar"
    if meta.get("checksum") != _payload_checksum(blob):
        return "checksum mismatch"
    return None


class StoreBackend:
    """What the scheduler and the serve layer require of a result store.

    The contract is value-oriented (:meth:`get` / :meth:`put`, written
    once here over the payload codec) with a byte-level escape hatch
    (:meth:`get_bytes` / :meth:`put_bytes`) that implementations provide
    for transports and bitwise comparisons.  The bytes stored for a
    payload are its :func:`~.hashing.canonical_json`, so they depend only
    on its value.
    """

    def contains(self, key: str, count: bool = True) -> bool:
        raise NotImplementedError

    def get(self, key: str) -> Any:
        """Load, verify (see :meth:`get_bytes`) and decode a payload; a
        payload that does not decode is quarantined and reported a miss."""
        blob = self.get_bytes(key)
        try:
            payload = revive(json.loads(blob))
        except ValueError as error:
            self._quarantine(key, f"undecodable payload: {error}")
            self._session["misses"] += 1
            raise KeyError(f"{key} (corrupt entry: {error})") from None
        self._session["hits"] += 1
        self._session["bytes_read"] += len(blob)
        return payload

    def put(self, key: str, payload: Any,
            metadata: Optional[Dict[str, Any]] = None) -> str:
        """Write ``payload`` as canonical JSON (see :meth:`put_bytes`)."""
        return self.put_bytes(key, canonical_json(payload).encode("utf-8"),
                              metadata=metadata)

    def _quarantine(self, key: str, reason: str) -> None:
        """Set a corrupt entry aside.  A remote client cannot: its daemon
        quarantines what fails the checksum, and a recompute's ``put``
        replaces a payload that does not decode."""

    def get_bytes(self, key: str) -> bytes:
        raise NotImplementedError

    def put_bytes(self, key: str, blob: bytes,
                  metadata: Optional[Dict[str, Any]] = None) -> str:
        raise NotImplementedError

    def metadata(self, key: str) -> Dict[str, Any]:
        raise NotImplementedError

    def discard(self, key: str) -> bool:
        raise NotImplementedError

    def keys(self) -> Iterator[str]:
        raise NotImplementedError

    def verify(self) -> Dict[str, Any]:
        raise NotImplementedError

    def gc(self, max_bytes: Optional[int] = None,
           max_entries: Optional[int] = None) -> Dict[str, Any]:
        raise NotImplementedError

    def stats(self) -> Dict[str, Any]:
        raise NotImplementedError

    def session_stats(self) -> Dict[str, int]:
        raise NotImplementedError

    def corrupt_entry(self, key: str) -> None:
        """Chaos hook: damage the stored payload bytes in place.

        Backs the fault plan's ``corrupt`` clause wherever the bytes
        actually live, so integrity checking can be exercised against
        on-disk and remote stores alike.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release transport resources (no-op for on-disk stores)."""

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def clear(self) -> int:
        removed = 0
        for key in list(self.keys()):
            removed += bool(self.discard(key))
        return removed


class ResultStore(StoreBackend):
    """On-disk key/value store addressed by task content hashes."""

    #: Subdirectory quarantined (corrupt) entries are moved into.
    CORRUPT_DIR = "corrupt"

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        # Runtime traffic of *this* store handle (not the on-disk totals of
        # :meth:`stats`): hits/misses, bytes moved and entries quarantined,
        # surfaced per run in the ``RunReport`` and the telemetry
        # ``run_report`` event.
        self._session = {"hits": 0, "misses": 0, "quarantined": 0,
                         "bytes_read": 0, "bytes_written": 0}

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #
    def _shard(self, key: str) -> str:
        return os.path.join(self.root, check_key(key)[:2])

    def payload_path(self, key: str) -> str:
        return os.path.join(self._shard(key), f"{key}.pkl")

    def _meta_path(self, key: str) -> str:
        return os.path.join(self._shard(key), f"{key}.json")

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def contains(self, key: str, count: bool = True) -> bool:
        """Whether a payload exists for ``key``.

        ``count=False`` makes the check free of session-stats side effects:
        pre-checks (the scheduler's cache probe, ``--status`` listings,
        :meth:`discard`) must not record a miss that a following
        :meth:`get` will record again — or that never corresponds to a
        failed payload read at all.
        """
        present = os.path.exists(self.payload_path(key))
        if not present and count:
            self._session["misses"] += 1
        return present

    __contains__ = contains

    def get_bytes(self, key: str) -> bytes:
        """Load and checksum-verify a payload's raw bytes.

        Raises ``KeyError`` on a missing entry and on a corrupt one — a
        sidecar that is missing, unreadable or disagrees with the bytes —
        after moving it into ``<root>/corrupt/`` (quarantine).
        """
        path = self.payload_path(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            self._session["misses"] += 1
            raise KeyError(key) from None
        except OSError as error:
            self._session["misses"] += 1
            raise KeyError(f"{key} (unreadable entry: {error})") from None
        meta = self._load_metadata(key)
        problem = _integrity_problem(blob, meta)
        if problem:
            self._quarantine(key, problem)
            self._session["misses"] += 1
            raise KeyError(f"{key} (corrupt entry: {problem}; quarantined)")
        self._touch(key, path, meta)
        return blob

    def put_bytes(self, key: str, blob: bytes,
                  metadata: Optional[Dict[str, Any]] = None) -> str:
        """Atomically write canonical payload bytes and their JSON sidecar.

        The sidecar (with the checksum :meth:`get_bytes` verifies) lands
        first, so a reader never finds a payload without its checksum.
        """
        path = self.payload_path(key)
        meta = dict(metadata or {})     # the store's own fields win
        meta.update({"key": key, "format_version": STORE_FORMAT_VERSION,
                     "created_at": time.time(),
                     "checksum": _payload_checksum(blob),
                     "payload_bytes": len(blob)})
        atomic_write_bytes(self._meta_path(key),
                           json.dumps(meta, indent=2, default=str).encode("utf-8"))
        atomic_write_bytes(path, blob)
        self._session["bytes_written"] += len(blob)
        return path

    def _load_metadata(self, key: str) -> Optional[Dict[str, Any]]:
        """The sidecar, or ``None`` when it is missing or unreadable."""
        path = self._meta_path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except (ValueError, OSError):
            return None
        return meta if isinstance(meta, dict) else None

    def metadata(self, key: str) -> Dict[str, Any]:
        return self._load_metadata(key) or {}

    def discard(self, key: str) -> bool:
        """Remove one entry; returns whether a payload existed.

        The existence probe is side-effect free: discarding an absent
        entry is not a cache miss and must not inflate session stats.
        """
        existed = self.contains(key, count=False)
        for path in (self.payload_path(key), self._meta_path(key)):
            try:
                os.remove(path)
            except FileNotFoundError:
                pass
        return existed

    def _touch(self, key: str, path: str,
               meta: Optional[Dict[str, Any]] = None) -> None:
        """Stamp an access time for LRU eviction (best-effort).

        The authoritative recency signal is ``last_access`` in the metadata
        sidecar, rewritten atomically on every verified read: file atimes
        are frozen on ``noatime`` mounts and only move once a day under
        ``relatime``, so :meth:`gc` ordering by ``st_atime`` alone would
        degenerate to oldest-*written*-first and evict a fleet's hottest
        entries.  ``os.utime`` is still applied to the payload so external
        tooling sees the access too; a read-only store simply never
        reorders its LRU queue.
        """
        meta = dict(self.metadata(key) if meta is None else meta)
        meta["last_access"] = time.time()
        try:
            atomic_write_bytes(self._meta_path(key),
                               json.dumps(meta, indent=2,
                                          default=str).encode("utf-8"))
            os.utime(path)
        except OSError:
            pass

    # ------------------------------------------------------------------ #
    # Integrity
    # ------------------------------------------------------------------ #
    def corrupt_entry(self, key: str) -> None:
        from .resilience import corrupt_payload_file
        corrupt_payload_file(self.payload_path(key))

    def _quarantine(self, key: str, reason: str) -> str:
        """Move a corrupt entry into ``<root>/corrupt/`` and report it.

        Returns the quarantined payload path.  The sidecar travels along,
        annotated with the quarantine reason and time, so the on-disk
        evidence is self-describing.
        """
        corrupt_dir = os.path.join(self.root, self.CORRUPT_DIR)
        os.makedirs(corrupt_dir, exist_ok=True)
        target = os.path.join(corrupt_dir, f"{key}.pkl")
        try:
            os.replace(self.payload_path(key), target)
        except OSError:
            pass
        meta = self.metadata(key)
        meta.update({"quarantined_at": time.time(),
                     "quarantine_reason": reason})
        try:
            atomic_write_bytes(os.path.join(corrupt_dir, f"{key}.json"),
                               json.dumps(meta, indent=2,
                                          default=str).encode("utf-8"))
            os.remove(self._meta_path(key))
        except OSError:
            pass
        self._session["quarantined"] += 1
        from ..telemetry import get_tracer
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit("store_quarantine", key=key, reason=reason,
                        path=target)
            tracer.count("store.quarantined", 1)
        return target

    def verify(self) -> Dict[str, Any]:
        """Audit every entry's checksum; quarantine the corrupt ones.

        Returns ``checked``, ``ok`` (entries whose checksum verified) and
        ``quarantined`` (the keys that failed); ``ok + len(quarantined) ==
        checked`` always holds.
        """
        checked = ok = 0
        quarantined: List[str] = []
        for key in list(self.keys()):
            checked += 1
            try:
                with open(self.payload_path(key), "rb") as handle:
                    problem = _integrity_problem(handle.read(),
                                                 self._load_metadata(key))
            except OSError:
                problem = "unreadable payload"
            if problem:
                self._quarantine(key, problem)
                quarantined.append(key)
            else:
                ok += 1
        return {"checked": checked, "ok": ok, "quarantined": quarantined}

    # ------------------------------------------------------------------ #
    # Garbage collection
    # ------------------------------------------------------------------ #
    def gc(self, max_bytes: Optional[int] = None,
           max_entries: Optional[int] = None) -> Dict[str, Any]:
        """Evict least-recently-used entries down to the given budgets.

        Recency is the ``last_access`` stamp :meth:`get_bytes` rewrites
        into the metadata sidecar on every verified read — an explicit
        signal that survives ``noatime``/``relatime`` mounts, where the
        payload file's atime freezes at creation and LRU-by-atime would
        silently evict the entries a fleet reads most.  Entries never read
        through this code fall back to the sidecar's ``created_at``, then
        to ``st_atime``.  With no budget given this is a no-op inventory
        pass.  Returns the eviction summary (kept/evicted counts, bytes
        before and after).
        """
        if (max_bytes is not None and max_bytes < 0) or \
                (max_entries is not None and max_entries < 0):
            raise ValueError("gc budgets must be >= 0")
        entries: List[Tuple[float, int, str]] = []   # (last_access, size, key)
        total = 0
        for key in self.keys():
            try:
                info = os.stat(self.payload_path(key))
            except OSError:
                continue
            meta = self.metadata(key)
            recency = meta.get("last_access", meta.get("created_at",
                                                       info.st_atime))
            try:
                recency = float(recency)
            except (TypeError, ValueError):
                recency = info.st_atime
            entries.append((recency, info.st_size, key))
            total += info.st_size
        entries.sort()                               # oldest access first
        before = total
        evicted: List[str] = []
        over_bytes = (lambda: max_bytes is not None and total > max_bytes)
        over_count = (lambda: max_entries is not None
                      and len(entries) - len(evicted) > max_entries)
        for atime, size, key in entries:
            if not over_bytes() and not over_count():
                break
            self.discard(key)
            evicted.append(key)
            total -= size
        summary = {"evicted": evicted, "kept": len(entries) - len(evicted),
                   "bytes_before": before, "bytes_after": total}
        from ..telemetry import get_tracer
        tracer = get_tracer()
        if tracer.enabled and evicted:
            tracer.emit("store_gc", evicted=len(evicted),
                        kept=summary["kept"], bytes_before=before,
                        bytes_after=total)
            tracer.count("store.evicted", len(evicted))
        return summary

    # ------------------------------------------------------------------ #
    # Inventory
    # ------------------------------------------------------------------ #
    def keys(self) -> Iterator[str]:
        for shard in sorted(os.listdir(self.root)):
            shard_path = os.path.join(self.root, shard)
            if shard == self.CORRUPT_DIR or not os.path.isdir(shard_path):
                continue
            for name in sorted(os.listdir(shard_path)):
                if name.endswith(".pkl") and _KEY.fullmatch(name[:-4]):
                    yield name[:-4]

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def session_stats(self) -> Dict[str, int]:
        """Traffic through *this* handle: hits/misses, bytes, quarantines.

        Unlike :meth:`stats` (which walks the on-disk inventory), these
        counters cover only the lifetime of this ``ResultStore`` object, so a
        pipeline run can report its own reuse rate without being polluted by
        entries written by earlier runs.
        """
        return dict(self._session)

    def stats(self) -> Dict[str, Any]:
        entries = 0
        total_bytes = 0
        for key in self.keys():
            entries += 1
            try:
                total_bytes += os.path.getsize(self.payload_path(key))
            except OSError:
                pass
        return {"root": self.root, "entries": entries, "bytes": total_bytes}

    def clear(self) -> int:
        removed = 0
        for key in list(self.keys()):
            removed += bool(self.discard(key))
        return removed


def open_store(spec: Any) -> StoreBackend:
    """Build a store from a location spec.

    ``http://host:port`` (or ``https://``) opens a
    :class:`~repro.pipeline.store_http.RemoteStore` against a shared store
    daemon; anything else is an on-disk :class:`ResultStore` directory.
    An existing :class:`StoreBackend` passes through unchanged.
    """
    if isinstance(spec, StoreBackend):
        return spec
    text = str(spec)
    if text.startswith(("http://", "https://")):
        from .store_http import RemoteStore
        return RemoteStore(text)
    return ResultStore(text)


__all__ = ["ResultStore", "StoreBackend", "STORE_FORMAT_VERSION",
           "check_key", "open_store"]
