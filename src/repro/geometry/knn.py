"""Nearest-neighbour search utilities.

All search routines operate on plain NumPy coordinate arrays and return
integer index arrays; they are used both inside the models (to build
aggregation neighbourhoods) and by the attack framework (smoothness penalty,
SOR defense).

Performance notes (the attack hot path calls these every step):

* a kd-tree query fans out over :func:`query_workers` threads: all cores
  (``-1``) in a lone process, 1 in pipeline and serve workers and in any
  process that calls :func:`repro.accel.threads.pin_compute_threads`;
  ``REPRO_KNN_WORKERS``, when set, overrides both;
* SciPy is imported by :func:`build_tree`, at the first tree a process
  builds, so importing the framework does not load it (fork-mode worker
  pools import it in the parent, see
  :func:`repro.pipeline.executors.pool_mp_context`);
* callers that issue several queries against the same point set (different
  ``k``, different dilations) can build the tree once with
  :func:`build_tree` and pass it back in — the
  :class:`repro.accel.cache.NeighborhoodCache` does exactly that;
* the ``include_self=False`` clean-up is fully vectorised (the seed
  implementation looped over rows in Python).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

#: Thread fan-out of cKDTree.query: -1 = all cores (right for a single
#: process).  The pipeline sets this to 1 inside its worker processes so N
#: attack workers do not each spawn an all-core query pool; override
#: explicitly with REPRO_KNN_WORKERS.
_QUERY_WORKERS = int(os.environ.get("REPRO_KNN_WORKERS", "-1"))


def set_query_workers(workers: int) -> None:
    """Set the thread count used by every kd-tree query in this process."""
    global _QUERY_WORKERS
    _QUERY_WORKERS = int(workers)


def query_workers() -> int:
    return _QUERY_WORKERS


def build_tree(points: np.ndarray) -> cKDTree:
    """Build a kd-tree over ``(N, D)`` points (reusable across queries)."""
    from scipy.spatial import cKDTree
    return cKDTree(np.asarray(points, dtype=np.float64))


def pairwise_squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between two point sets.

    Parameters
    ----------
    a:
        ``(N, D)`` array.
    b:
        ``(M, D)`` array.

    Returns
    -------
    ``(N, M)`` array of squared distances.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a2 = np.sum(a ** 2, axis=1)[:, None]
    b2 = np.sum(b ** 2, axis=1)[None, :]
    d2 = a2 + b2 - 2.0 * a @ b.T
    return np.maximum(d2, 0.0)


def knn_indices(points: np.ndarray, k: int, queries: np.ndarray | None = None,
                include_self: bool = True,
                tree: cKDTree | None = None) -> np.ndarray:
    """Indices of the ``k`` nearest neighbours of each query point.

    Parameters
    ----------
    points:
        ``(N, D)`` reference point set.
    k:
        Number of neighbours to return.  Clamped to ``N``.
    queries:
        ``(M, D)`` query points.  Defaults to ``points`` (self-neighbourhoods).
    include_self:
        When querying a point set against itself, whether the point itself may
        appear in its own neighbour list.
    tree:
        Optional pre-built kd-tree over ``points`` (see :func:`build_tree`);
        when several queries hit the same point set, building the tree once
        and passing it in avoids the dominant construction cost.

    Returns
    -------
    ``(M, k)`` integer array.
    """
    points = np.asarray(points, dtype=np.float64)
    self_query = queries is None
    queries = points if self_query else np.asarray(queries, dtype=np.float64)
    n = points.shape[0]
    k = min(k, n if (include_self or not self_query) else n - 1)
    k = max(k, 1)

    if tree is None:
        tree = build_tree(points)
    if self_query and not include_self:
        wide_k = min(k + 1, n)
        _, idx = tree.query(queries, k=wide_k, workers=_QUERY_WORKERS)
        idx = np.atleast_2d(idx)
        m = queries.shape[0]
        if wide_k == 1:
            # Degenerate single-point cloud: the only neighbour is the point
            # itself; return it rather than crash.
            return idx.reshape(m, 1)[:, :1].astype(np.int64)
        # Drop each row's own index where present, else the furthest column
        # (equivalent to the seed's per-row Python filter, vectorised).
        self_hits = idx == np.arange(m)[:, None]
        drop = np.where(self_hits.any(axis=1), self_hits.argmax(axis=1),
                        wide_k - 1)
        keep = np.ones(idx.shape, dtype=bool)
        keep[np.arange(m), drop] = False
        return idx[keep].reshape(m, wide_k - 1)[:, :k].astype(np.int64)
    _, idx = tree.query(queries, k=k, workers=_QUERY_WORKERS)
    idx = np.atleast_2d(idx)
    if k == 1 and idx.shape != (queries.shape[0], 1):
        idx = idx.reshape(-1, 1)
    return idx.astype(np.int64)


def knn_indices_batch(points: np.ndarray, k: int,
                      queries: np.ndarray | None = None) -> np.ndarray:
    """Batched :func:`knn_indices` for arrays of shape ``(B, N, D)``.

    One tree is built per batch item and queried for the whole item at once
    (the per-query fan-out happens inside SciPy, see :func:`query_workers`).
    """
    points = np.asarray(points, dtype=np.float64)
    if queries is None:
        return np.stack([knn_indices(points[b], k) for b in range(points.shape[0])])
    queries = np.asarray(queries, dtype=np.float64)
    return np.stack([
        knn_indices(points[b], k, queries[b]) for b in range(points.shape[0])
    ])


def dilated_knn_indices(points: np.ndarray, k: int, dilation: int = 1,
                        rng: np.random.Generator | None = None,
                        stochastic: bool = False,
                        tree: cKDTree | None = None) -> np.ndarray:
    """Dilated k-NN as used by DeepGCN/ResGCN.

    The ``k * dilation`` nearest neighbours are computed and every
    ``dilation``-th one is kept, enlarging the receptive field without
    increasing ``k``.  With ``stochastic=True`` a random subset of size ``k``
    is drawn instead (the paper's ResGCN-28 uses stochastic epsilon 0.2).
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    wide_k = min(k * max(dilation, 1), n)
    idx = knn_indices(points, wide_k, tree=tree)
    if dilation <= 1:
        return idx[:, :k]
    if stochastic:
        rng = rng or np.random.default_rng(0)
        choice = np.sort(rng.choice(wide_k, size=min(k, wide_k), replace=False))
        return idx[:, choice]
    return idx[:, ::dilation][:, :k]


def ball_query(points: np.ndarray, centroids: np.ndarray, radius: float,
               max_samples: int) -> np.ndarray:
    """Group points within ``radius`` of each centroid (PointNet++ grouping).

    Each centroid receives exactly ``max_samples`` neighbour indices; when a
    ball contains fewer points, the first in-ball index is repeated, matching
    the reference PointNet++ implementation.
    """
    points = np.asarray(points, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    d2 = pairwise_squared_distances(centroids, points)
    r2 = radius * radius
    order = np.argsort(d2, axis=1)
    sorted_d2 = np.take_along_axis(d2, order, axis=1)
    result = np.empty((centroids.shape[0], max_samples), dtype=np.int64)
    for row in range(centroids.shape[0]):
        in_ball = order[row][sorted_d2[row] <= r2]
        if in_ball.size == 0:
            in_ball = order[row][:1]
        if in_ball.size >= max_samples:
            result[row] = in_ball[:max_samples]
        else:
            padding = np.full(max_samples - in_ball.size, in_ball[0], dtype=np.int64)
            result[row] = np.concatenate([in_ball, padding])
    return result


__all__ = [
    "build_tree",
    "set_query_workers",
    "query_workers",
    "pairwise_squared_distances",
    "knn_indices",
    "knn_indices_batch",
    "dilated_knn_indices",
    "ball_query",
]
