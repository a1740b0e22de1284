"""Compute policy: the dtype / staleness knobs of the acceleration layer.

A :class:`ComputePolicy` bundles the two global trade-offs the framework
exposes:

* ``dtype`` — the floating dtype every :class:`repro.nn.Tensor` operation
  computes in.  ``float32`` roughly halves memory traffic on the attack hot
  path; ``float64`` (the default outside attacks) reproduces the seed
  implementation bit for bit.
* ``neighbor_refresh`` — the staleness interval ``R`` of the
  :class:`repro.accel.cache.NeighborhoodCache`: neighbourhood graphs are
  recomputed every ``R`` attack steps instead of every forward pass.
  ``R = 1`` recomputes whenever the coordinates actually changed
  (exactness mode); larger ``R`` trades a slightly stale aggregation graph
  for skipping most kd-tree work.

The active policy is process-global (the pipeline parallelises across
processes, not threads) and is consulted by ``repro.nn.tensor`` every time a
tensor is created, so the lookup must stay cheap: :func:`compute_dtype` reads
a module-level variable.

``REPRO_ACCEL=fast|exact`` overrides the per-attack-config policy globally,
which lets the benchmark harness switch modes without touching any code.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

_DTYPES = {"float32": np.float32, "float64": np.float64}


@dataclass(frozen=True)
class ComputePolicy:
    """Immutable bundle of compute trade-off knobs.

    ``smoothness_neighbors`` selects the Eq. 9 neighbour source of the
    norm-unbounded attack ("current" = the seed's per-step recompute from
    the perturbed cloud, "clean" = fixed to the clean cloud); it rides on
    the policy so the ``REPRO_ACCEL=exact`` override restores the *complete*
    seed behaviour, not just the arithmetic.
    """

    dtype: np.dtype = np.dtype(np.float64)
    neighbor_refresh: int = 1
    smoothness_neighbors: str = "current"

    def __post_init__(self) -> None:
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError("dtype must be float32 or float64")
        if self.neighbor_refresh < 1:
            raise ValueError("neighbor_refresh must be >= 1")
        if self.smoothness_neighbors not in ("clean", "current"):
            raise ValueError("smoothness_neighbors must be 'clean' or 'current'")

    @property
    def is_exact(self) -> bool:
        """Whether the per-operation arithmetic matches the seed bit-for-bit.

        This gates the fast-math rewrites: the folded BatchNorm eval,
        ResGCN's projection-first EdgeConv and the closed-form softmax VJP.
        Full seed-identical attack trajectories additionally need
        ``smoothness_neighbors == "current"`` in the unbounded engine.
        """
        return self.dtype == np.dtype(np.float64) and self.neighbor_refresh == 1

    # -------------------------------------------------------------- #
    @classmethod
    def fast(cls) -> "ComputePolicy":
        """float32 fast-math, 5-step refresh, clean-cloud smoothness graph."""
        return cls(dtype=np.float32, neighbor_refresh=5,
                   smoothness_neighbors="clean")

    @classmethod
    def exact(cls) -> "ComputePolicy":
        """The seed implementation's behaviour, bit for bit."""
        return cls(dtype=np.float64, neighbor_refresh=1,
                   smoothness_neighbors="current")

    @classmethod
    def from_attack_config(cls, config) -> "ComputePolicy":
        """Derive the policy for an attack from its :class:`AttackConfig`.

        The ``REPRO_ACCEL`` environment variable ("fast" / "exact")
        overrides the configuration, so a whole benchmark or pipeline run
        can be forced into either mode externally.
        """
        override = os.environ.get("REPRO_ACCEL", "").strip().lower()
        if override == "fast":
            return cls.fast()
        if override == "exact":
            return cls.exact()
        if override:
            # A typo must not silently fall back to fast-math in a workflow
            # that believes it is verifying exactness.
            raise ValueError(
                f"REPRO_ACCEL={override!r} is not recognised; use 'fast', "
                f"'exact' or unset")
        return cls(dtype=_DTYPES[config.compute_dtype],
                   neighbor_refresh=config.neighbor_refresh,
                   smoothness_neighbors=config.smoothness_neighbors)


# ------------------------------------------------------------------ #
# Active policy (process-global; consulted on every Tensor creation)
# ------------------------------------------------------------------ #
_policy_stack: List[ComputePolicy] = [ComputePolicy.exact()]
_current_dtype: np.dtype = _policy_stack[-1].dtype


def current_policy() -> ComputePolicy:
    """The policy currently in effect."""
    return _policy_stack[-1]


def compute_dtype() -> np.dtype:
    """The floating dtype new tensors are created with (hot-path lookup)."""
    return _current_dtype


@contextmanager
def use_policy(policy: ComputePolicy) -> Iterator[ComputePolicy]:
    """Make ``policy`` the active compute policy for the duration."""
    global _current_dtype
    _policy_stack.append(policy)
    _current_dtype = policy.dtype
    try:
        yield policy
    finally:
        _policy_stack.pop()
        _current_dtype = _policy_stack[-1].dtype


# ------------------------------------------------------------------ #
# Model dtype casting and parameter freezing
# ------------------------------------------------------------------ #
@contextmanager
def cast_model(model, dtype) -> Iterator:
    """Temporarily view a model's parameters and buffers in ``dtype``.

    The original float64 arrays are retained and restored afterwards, so a
    float32 attack never degrades the stored weights (no double-rounding on
    repeated casts).  A no-op when the model already matches ``dtype``.
    """
    dtype = np.dtype(dtype)
    saved_params: List[Tuple[object, np.ndarray]] = []
    saved_buffers: List[Tuple[object, str, np.ndarray]] = []
    for _, param in model.named_parameters():
        if param.data.dtype != dtype:
            saved_params.append((param, param.data))
            param.data = param.data.astype(dtype)
    for module in model.modules():
        for name in getattr(module, "_buffers", ()):
            buffer = getattr(module, name)
            if isinstance(buffer, np.ndarray) and buffer.dtype != dtype:
                saved_buffers.append((module, name, buffer))
                setattr(module, name, buffer.astype(dtype))
    try:
        yield model
    finally:
        for param, original in saved_params:
            param.data = original
        for module, name, original in saved_buffers:
            setattr(module, name, original)


@contextmanager
def freeze_parameters(model) -> Iterator:
    """Temporarily set ``requires_grad = False`` on every model parameter.

    Attacks differentiate with respect to the *input*, never the weights;
    freezing lets the autograd engine skip every weight-gradient product in
    the backward pass (roughly half the work of each Linear layer).
    """
    frozen = []
    for _, param in model.named_parameters():
        if param.requires_grad:
            frozen.append(param)
            param.requires_grad = False
    try:
        yield model
    finally:
        for param in frozen:
            param.requires_grad = True


__all__ = [
    "ComputePolicy",
    "current_policy",
    "compute_dtype",
    "use_policy",
    "cast_model",
    "freeze_parameters",
]
