"""Random-rotation defense: rotate the cloud about its vertical axis.

Segmentation features built on local neighbourhood geometry shift under a
rigid rotation, so a perturbation optimised for one orientation loses part
of its effect in another — the randomized-transform defense family.  The
rotation is about the cloud centroid so the defended cloud stays inside the
model's value box for moderate angles.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .base import Defense, EOTSample


class RandomRotation(Defense):
    """Rotate coordinates by a uniform random angle about the z axis.

    Parameters
    ----------
    max_angle_deg:
        The angle is drawn uniformly from ``[-max_angle_deg, max_angle_deg]``
        (degrees).
    seed:
        Reseed used whenever no explicit generator is passed, keeping
        repeated evaluations deterministic.
    """

    name = "rotation"
    kind = "transformation"
    stochastic = True

    def __init__(self, max_angle_deg: float = 15.0, seed: int = 0) -> None:
        if max_angle_deg < 0:
            raise ValueError("max_angle_deg must be non-negative")
        self.max_angle_deg = float(max_angle_deg)
        self.seed = seed

    # ------------------------------------------------------------------ #
    def _matrix(self, rng: np.random.Generator) -> np.ndarray:
        limit = np.deg2rad(self.max_angle_deg)
        angle = rng.uniform(-limit, limit)
        cos, sin = np.cos(angle), np.sin(angle)
        return np.array([[cos, sin, 0.0],
                         [-sin, cos, 0.0],
                         [0.0, 0.0, 1.0]])

    @staticmethod
    def _center(coords: np.ndarray) -> np.ndarray:
        if coords.shape[0] == 0:
            return np.zeros((1, 3))
        return coords.mean(axis=0, keepdims=True)

    def transform(self, coords: np.ndarray, colors: np.ndarray,
                  rng: Optional[np.random.Generator] = None
                  ) -> Tuple[np.ndarray, np.ndarray]:
        rng = rng or np.random.default_rng(self.seed)
        coords = np.asarray(coords, dtype=np.float64)
        matrix = self._matrix(rng)
        center = self._center(coords)
        return (coords - center) @ matrix + center, np.asarray(colors)

    def sample_eot(self, coords: np.ndarray, colors: np.ndarray,
                   rng: np.random.Generator) -> EOTSample:
        coords = np.asarray(coords, dtype=np.float64)
        matrix = self._matrix(rng)
        center = self._center(coords)
        # (x - c) @ R + c  ==  x @ R + (c - c @ R): the centroid is treated
        # as a constant of the current cloud (its gradient is neglected).
        return EOTSample(coord_matrix=matrix,
                         coord_offset=center - center @ matrix)


__all__ = ["RandomRotation"]
