"""Voxel-quantization defense: snap coordinates to a voxel grid.

Quantizing every coordinate to the centre of its voxel destroys the
sub-voxel structure an attacker's coordinate perturbation relies on, at the
cost of some geometric fidelity.  This is a *transformation* defense: every
point survives, only the coordinates change.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .base import Defense, EOTSample


def _quantize(coords: np.ndarray, cell_size: float) -> np.ndarray:
    coords = np.asarray(coords, dtype=np.float64)
    return (np.floor(coords / cell_size) + 0.5) * cell_size


class VoxelQuantization(Defense):
    """Snap every coordinate to the centre of its ``cell_size`` voxel.

    Deterministic: quantization consumes no randomness, so repeated
    evaluations and adaptive-attack samples agree exactly.  The adaptive
    attacker sees it as a straight-through estimator — the sample's offset
    snaps the values while the gradient passes through unchanged (the
    quantizer's true gradient is zero almost everywhere).
    """

    name = "voxel"
    kind = "transformation"

    def __init__(self, cell_size: float = 0.05) -> None:
        if not cell_size > 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)

    def transform(self, coords: np.ndarray, colors: np.ndarray,
                  rng: Optional[np.random.Generator] = None
                  ) -> Tuple[np.ndarray, np.ndarray]:
        return _quantize(coords, self.cell_size), np.asarray(colors)

    def sample_eot(self, coords: np.ndarray, colors: np.ndarray,
                   rng: np.random.Generator) -> EOTSample:
        coords = np.asarray(coords, dtype=np.float64)
        return EOTSample(coord_offset=_quantize(coords, self.cell_size) - coords)


__all__ = ["VoxelQuantization"]
