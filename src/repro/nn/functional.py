"""Functional neural-network operations built on :mod:`repro.nn.tensor`."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..accel.cache import neighborhoods
from ..accel.policy import compute_dtype
from ..geometry.knn import query_workers
from .ops import OPS
from .tensor import (Tensor, _apply, as_tensor, detached_max, gather_points,
                     maximum, where)


def softmax(logits: Tensor, axis: int = -1,
            scale: Optional[float] = None) -> Tensor:
    """Numerically stable softmax of ``logits * scale`` along ``axis``.

    One fused registry op (``OPS["softmax"]``).  It computes the same bits
    as the composite ``shifted = x * scale - max(x * scale)``,
    ``exp(shifted) / exp(shifted).sum(axis)`` chain, with and without
    autograd, but runs it one cache-sized block of rows at a time and keeps
    none of the chain's intermediates for the backward pass.
    """
    params = {"axis": axis, "scale": None if scale is None
              else np.asarray(scale, dtype=compute_dtype())}
    return _apply(OPS["softmax"], (as_tensor(logits),), params)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    logits = as_tensor(logits)
    shifted = logits - detached_max(logits, axis=axis)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode an integer label array (as a plain NumPy constant)."""
    labels = np.asarray(labels, dtype=np.int64)
    eye = np.eye(num_classes, dtype=compute_dtype())
    return eye[labels]


def cross_entropy(
    logits: Tensor,
    labels: np.ndarray,
    weight: Optional[np.ndarray] = None,
    label_smoothing: float = 0.0,
) -> Tensor:
    """Mean cross-entropy loss over all leading dimensions.

    Parameters
    ----------
    logits:
        Tensor of shape ``(..., num_classes)``.
    labels:
        Integer array of shape ``(...)``.
    weight:
        Optional per-class weights of shape ``(num_classes,)``.
    label_smoothing:
        Amount of probability mass spread uniformly over non-target classes.
    """
    logits = as_tensor(logits)
    num_classes = logits.shape[-1]
    log_probs = log_softmax(logits, axis=-1)
    targets = one_hot(labels, num_classes)
    if label_smoothing > 0.0:
        targets = targets * (1.0 - label_smoothing) + label_smoothing / num_classes
    if weight is not None:
        targets = targets * np.asarray(weight)[..., :]
    per_point = -(log_probs * Tensor(targets)).sum(axis=-1)
    return per_point.mean()


def nll_loss(log_probs: Tensor, labels: np.ndarray) -> Tensor:
    """Negative log-likelihood of integer ``labels`` under ``log_probs``."""
    log_probs = as_tensor(log_probs)
    targets = one_hot(labels, log_probs.shape[-1])
    return -(log_probs * Tensor(targets)).sum(axis=-1).mean()


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    diff = as_tensor(prediction) - as_tensor(target)
    return (diff * diff).mean()


def hinge(value: Tensor) -> Tensor:
    """``max(value, 0)`` — the hinge used by the adversarial losses."""
    return maximum(value, Tensor(np.zeros(1)))


def masked_mean(values: Tensor, mask: np.ndarray) -> Tensor:
    """Mean of ``values`` over positions where boolean ``mask`` is true."""
    mask = np.asarray(mask, dtype=compute_dtype())
    total = float(mask.sum())
    if total == 0:
        return Tensor(np.zeros(()))
    return (values * Tensor(mask)).sum() / total


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or ``rate`` is zero."""
    if not training or rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(compute_dtype()) / keep
    return x * Tensor(mask)


def _dense_nearest(source: np.ndarray, target: np.ndarray,
                   k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``k`` nearest sources of each target and their squared distances,
    by sorting every target's full distance row."""
    diff = target[..., :, None, :] - source[..., None, :, :]
    dist2 = np.sum(diff ** 2, axis=-1)
    idx = np.argsort(dist2, axis=-1)[..., :k]
    return idx, np.take_along_axis(dist2, idx, axis=-1)


#: Relative gap, in machine epsilons, by which a kd-tree row's k-th
#: re-ranked distance must undercut the tree's farthest candidate before
#: the candidates are taken as the exact k nearest.  Either distance
#: formula errs by a few units in the last place.
_TREE_MARGIN_EPS = 16


def _nearest_sources(source: np.ndarray, target: np.ndarray, k: int,
                     tree) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_dense_nearest` for one cloud, through a kd-tree.

    The tree proposes ``k + 1`` candidates per target, which are re-ranked
    with the dense distance formula.  A row keeps them when its ``k``
    re-ranked distances strictly increase and the ``k``-th undercuts the
    tree's farthest candidate by :data:`_TREE_MARGIN_EPS` epsilons: then no
    other source can come closer, and no tie leaves the order to the sort
    algorithm.  Other rows (duplicate sources, near-ties) take the dense
    sort, so every row equals the dense result bit for bit.
    """
    if k >= len(source):
        return _dense_nearest(source, target, k)
    tree_dist, candidates = tree.query(target, k=k + 1,
                                       workers=query_workers())
    dist2 = np.sum((target[:, None, :] - source[candidates]) ** 2, axis=-1)
    order = np.argsort(dist2, axis=-1, kind="stable")
    ranked = np.take_along_axis(dist2, order, axis=-1)
    margin = _TREE_MARGIN_EPS * np.finfo(dist2.dtype).eps
    proven = ((ranked[:, k - 1] < ranked[:, k])
              & (ranked[:, k - 1] < tree_dist[:, k] ** 2 * (1.0 - margin))
              & np.all(ranked[:, 1:k] > ranked[:, :k - 1], axis=-1))
    idx = np.take_along_axis(candidates, order[:, :k], axis=-1)
    nearest = ranked[:, :k]
    rows = np.flatnonzero(~proven)
    if rows.size:
        idx[rows], nearest[rows] = _dense_nearest(source, target[rows], k)
    return idx, nearest


def _interpolation_weights(source_coords: np.ndarray, target_coords: np.ndarray,
                           k: int, eps: float) -> Tuple[np.ndarray, np.ndarray]:
    """Neighbour indices and inverse-distance weights for interpolation.

    Equal, bit for bit, to sorting every target's dense distance row; the
    candidates come from the active cache's shared kd-tree of each cloud.
    """
    cache = neighborhoods()
    pairs = [_nearest_sources(source, target, k, cache.tree(source))
             for source, target in zip(source_coords, target_coords)]
    idx = np.stack([pair[0] for pair in pairs])
    nearest = np.stack([pair[1] for pair in pairs])
    weights = 1.0 / (nearest + eps)
    weights = weights / weights.sum(axis=-1, keepdims=True)
    return idx, weights


def knn_interpolate(
    features: Tensor,
    source_coords: np.ndarray,
    target_coords: np.ndarray,
    k: int = 3,
    eps: float = 1e-8,
    slot: Optional[tuple] = None,
) -> Tensor:
    """Inverse-distance weighted interpolation of features onto new points.

    This is the feature-propagation step of PointNet++: each target point
    receives a weighted average of the features of its ``k`` nearest source
    points, weighted by inverse distance.  Neighbour indices and weights are
    computed outside the autograd graph (they depend only on coordinates,
    which are treated as constants for this step).

    Parameters
    ----------
    features:
        ``(B, M, C)`` features at the source points.
    source_coords:
        ``(B, M, 3)`` coordinates of the source points.
    target_coords:
        ``(B, N, 3)`` coordinates of the points to interpolate onto.
    slot:
        Optional stable call-site label; when given, the indices and weights
        are served from the active :class:`~repro.accel.NeighborhoodCache`
        (exact hits on unchanged coordinates, stale reuse in fast mode).
    """
    features = as_tensor(features)
    source_coords = np.asarray(source_coords)
    target_coords = np.asarray(target_coords)
    k = min(k, source_coords.shape[1])

    idx, weights = neighborhoods().memo(
        ("interp", k, eps),
        (source_coords, target_coords),
        lambda: _interpolation_weights(source_coords, target_coords, k, eps),
        slot=slot,
    )

    gathered = gather_points(features, idx)            # (B, N, k, C)
    weighted = gathered * Tensor(weights[..., None])
    return weighted.sum(axis=2)


__all__ = [
    "softmax",
    "log_softmax",
    "one_hot",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "hinge",
    "masked_mean",
    "dropout",
    "knn_interpolate",
    "where",
]
