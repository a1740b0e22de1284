"""Gaussian-jitter defense: add small random noise before segmentation.

Randomized smoothing in miniature: i.i.d. Gaussian noise on the coordinates
(and optionally the colours) washes out perturbations that sit close to the
decision boundary.  A *transformation* defense — every point survives.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .base import Defense, EOTSample


class GaussianJitter(Defense):
    """Add ``N(0, sigma²)`` noise to coordinates (and colours if configured).

    Parameters
    ----------
    sigma:
        Coordinate noise scale (model units).
    color_sigma:
        Colour noise scale; ``0`` leaves the colours untouched (and draws
        nothing from the stream, so configurations with and without colour
        noise stay independently reproducible).
    seed:
        Reseed used whenever no explicit generator is passed.
    """

    name = "jitter"
    kind = "transformation"
    stochastic = True

    def __init__(self, sigma: float = 0.02, color_sigma: float = 0.0,
                 seed: int = 0) -> None:
        if sigma < 0 or color_sigma < 0:
            raise ValueError("noise scales must be non-negative")
        self.sigma = float(sigma)
        self.color_sigma = float(color_sigma)
        self.seed = seed

    def _draw(self, shape: Tuple[int, ...], rng: np.random.Generator
              ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        coord_noise = rng.standard_normal(shape) * self.sigma
        color_noise = (rng.standard_normal(shape) * self.color_sigma
                       if self.color_sigma > 0 else None)
        return coord_noise, color_noise

    def transform(self, coords: np.ndarray, colors: np.ndarray,
                  rng: Optional[np.random.Generator] = None
                  ) -> Tuple[np.ndarray, np.ndarray]:
        rng = rng or np.random.default_rng(self.seed)
        coords = np.asarray(coords, dtype=np.float64)
        colors = np.asarray(colors)
        coord_noise, color_noise = self._draw(coords.shape, rng)
        jittered_colors = (np.asarray(colors, dtype=np.float64) + color_noise
                           if color_noise is not None else colors)
        return coords + coord_noise, jittered_colors

    def sample_eot(self, coords: np.ndarray, colors: np.ndarray,
                   rng: np.random.Generator) -> EOTSample:
        coord_noise, color_noise = self._draw(np.asarray(coords).shape, rng)
        return EOTSample(coord_offset=coord_noise, color_offset=color_noise)


__all__ = ["GaussianJitter"]
