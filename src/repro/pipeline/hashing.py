"""Canonical JSON: content hashes of task specifications and the payload codec.

The result store is *content addressed*: a task's output is filed under a
hash of everything that determines it — attack parameters, model and dataset
scale, seeds, and the fingerprints of its dependencies.  Two invocations that
describe the same computation therefore share one store entry, regardless of
dictionary ordering, tuple-vs-list spelling or numpy scalar types.

Canonical JSON is also the one format task payloads take in the result
store and on the serve wire (``task``/``result`` ops): :func:`revive`
rebuilds their tagged dataclasses from an allow-list and refuses any other.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from enum import Enum
from typing import Any, Dict

import numpy as np

#: Key that marks a JSON object as a dataclass, naming its class.
DATACLASS_TAG = "__dataclass__"


def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to plain JSON types with a deterministic layout.

    * mappings become dicts (``json.dumps`` sorts the keys),
    * sequences become lists,
    * enums collapse to their ``value``,
    * numpy scalars/arrays collapse to python numbers / nested lists,
    * dataclass instances become dicts of their fields, tagged with the
      class name under :data:`DATACLASS_TAG` (see :func:`revive`).

    Anything else must already be JSON serialisable; unsupported objects
    raise ``TypeError`` so unhashable specs fail loudly rather than
    colliding silently.
    """
    if isinstance(value, Enum):
        return canonicalize(value.value)
    if isinstance(value, np.ndarray):
        return canonicalize(value.tolist())
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {field.name: canonicalize(getattr(value, field.name))
                  for field in dataclasses.fields(value)}
        return {DATACLASS_TAG: type(value).__name__, **fields}
    if isinstance(value, dict):
        return {str(key): canonicalize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [canonicalize(item) for item in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot canonicalize {type(value).__name__!r} for hashing")


def canonical_json(value: Any) -> str:
    """Deterministic JSON rendering of ``value`` (sorted keys, no spaces,
    round-trip float ``repr``): payload bytes depend only on the value."""
    return json.dumps(canonicalize(value), sort_keys=True,
                      separators=(",", ":"), allow_nan=True)


def content_hash(value: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``value``."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def _payload_types() -> Dict[str, type]:
    """The allow-list: every dataclass in the experiments' task outputs
    (imported on first use, so hashing stays import-light)."""
    from ..core.transfer import TransferOutcome
    from ..experiments.reporting import TableResult
    from ..metrics.attack_metrics import AttackOutcome
    from ..metrics.summary import BestAverageWorst, CaseSummary
    from ..visualization.figures import FigureArtifacts
    return {cls.__name__: cls for cls in (
        AttackOutcome, BestAverageWorst, CaseSummary, FigureArtifacts,
        TableResult, TransferOutcome)}


def revive(value: Any) -> Any:
    """Inverse of :func:`canonicalize` on parsed JSON: rebuilds tagged
    dataclasses from the allow-list; any other tag, or a field its class
    lacks, raises ``ValueError``."""
    if isinstance(value, list):
        return [revive(item) for item in value]
    if not isinstance(value, dict):
        return value
    fields = {key: revive(item) for key, item in value.items()
              if key != DATACLASS_TAG}
    if DATACLASS_TAG not in value:
        return fields
    name = value[DATACLASS_TAG]
    cls = _payload_types().get(name) if isinstance(name, str) else None
    if cls is None:
        raise ValueError(f"payload type {name!r} is not on the allow-list")
    try:
        return cls(**fields)
    except TypeError as error:
        raise ValueError(f"malformed {name} payload: {error}") from None


__all__ = ["DATACLASS_TAG", "canonical_json", "canonicalize", "content_hash",
           "revive"]
