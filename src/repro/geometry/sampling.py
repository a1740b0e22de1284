"""Point-sampling strategies used by the three PCSS model families.

The paper emphasises (Section II-A and Finding 1) that the *sampling step* of
each model is what makes coordinate perturbations hard to control: PointNet++
uses farthest-point sampling, ResGCN aggregates k-NN neighbourhoods, and
RandLA-Net uses random sampling.  These routines implement those steps.
"""

from __future__ import annotations

import numpy as np

from .knn import pairwise_squared_distances


def farthest_point_sampling(points: np.ndarray, num_samples: int,
                            seed: int | None = 0) -> np.ndarray:
    """Iterative farthest-point sampling (FPS).

    Parameters
    ----------
    points:
        ``(N, 3)`` coordinates.
    num_samples:
        Number of points to keep (clamped to ``N``).
    seed:
        Seed selecting the initial point; ``None`` starts from point 0.

    Returns
    -------
    ``(num_samples,)`` integer indices into ``points``.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    num_samples = min(num_samples, n)
    selected = np.empty(num_samples, dtype=np.int64)
    rng = np.random.default_rng(seed) if seed is not None else None
    selected[0] = int(rng.integers(n)) if rng is not None else 0
    # One contiguous row per coordinate and two preallocated buffers: the
    # loop allocates nothing.  ``(dx·dx + dy·dy) + dz·dz`` adds in the order
    # ``np.sum(diff ** 2, axis=1)`` does, so the distances are bit-identical.
    columns = np.ascontiguousarray(points.T)
    d2, term = np.empty(n), np.empty(n)
    min_d2 = np.full(n, np.inf)
    for i in range(num_samples):
        if i:
            selected[i] = np.argmax(min_d2)
        index = selected[i]
        np.subtract(columns[0], columns[0, index], out=d2)
        np.multiply(d2, d2, out=d2)
        for column in columns[1:]:
            np.subtract(column, column[index], out=term)
            np.multiply(term, term, out=term)
            np.add(d2, term, out=d2)
        np.minimum(min_d2, d2, out=min_d2)
        # Earlier picks stay -inf through np.minimum; mask the new one, so
        # no index is picked twice.
        min_d2[index] = -np.inf
    return selected


def random_sampling(num_points: int, num_samples: int,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """Uniform random sub-sampling without replacement (RandLA-Net style)."""
    rng = rng or np.random.default_rng(0)
    num_samples = min(num_samples, num_points)
    return np.sort(rng.choice(num_points, size=num_samples, replace=False))


def grid_subsampling(points: np.ndarray, cell_size: float) -> np.ndarray:
    """Keep one representative point per voxel of size ``cell_size``.

    Used as a pre-processing option for very large outdoor clouds
    (Semantic3D-style).  Returns the indices of the kept points (the point
    closest to each occupied voxel centre).
    """
    points = np.asarray(points, dtype=np.float64)
    if cell_size <= 0:
        raise ValueError("cell_size must be positive")
    voxel = np.floor(points / cell_size).astype(np.int64)
    _, first_indices = np.unique(voxel, axis=0, return_index=True)
    return np.sort(first_indices)


def duplicate_to_size(num_points: int, target: int,
                      rng: np.random.Generator | None = None) -> np.ndarray:
    """Indices that resize a cloud to exactly ``target`` points.

    RandLA-Net "regenerates the point clouds ... by randomly duplicating and
    selecting the points"; this returns the index map implementing that step.
    """
    rng = rng or np.random.default_rng(0)
    if num_points >= target:
        return np.sort(rng.choice(num_points, size=target, replace=False))
    extra = rng.choice(num_points, size=target - num_points, replace=True)
    return np.concatenate([np.arange(num_points), np.sort(extra)])


def simple_random_sampling_removal(num_points: int, num_removed: int,
                                   rng: np.random.Generator | None = None) -> np.ndarray:
    """Indices *kept* after removing ``num_removed`` random points (SRS defense).

    The removal count is clamped to ``[0, num_points]``: asking for more
    removals than the cloud holds removes everything (an empty result), it
    does not raise and it does not silently keep an arbitrary survivor.
    """
    rng = rng or np.random.default_rng(0)
    num_removed = min(max(num_removed, 0), num_points)
    removed = set(rng.choice(num_points, size=num_removed, replace=False).tolist())
    return np.array([i for i in range(num_points) if i not in removed], dtype=np.int64)


def neighbourhood_change_ratio(original: np.ndarray, perturbed: np.ndarray,
                               k: int = 16) -> float:
    """Fraction of k-NN neighbourhood membership changed by a perturbation.

    Reproduces the paper's supporting measurement for Finding 1 ("over 88 % of
    the neighbourhood points are changed after coordinate-based perturbation").
    """
    from .knn import knn_indices

    original_idx = knn_indices(np.asarray(original), k)
    perturbed_idx = knn_indices(np.asarray(perturbed), k)
    changed = 0
    total = original_idx.shape[0] * original_idx.shape[1]
    for row in range(original_idx.shape[0]):
        before = set(original_idx[row].tolist())
        after = set(perturbed_idx[row].tolist())
        changed += len(before - after)
    return changed / total


__all__ = [
    "farthest_point_sampling",
    "random_sampling",
    "grid_subsampling",
    "duplicate_to_size",
    "simple_random_sampling_removal",
    "neighbourhood_change_ratio",
    "pairwise_squared_distances",
]
