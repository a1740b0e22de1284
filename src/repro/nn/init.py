"""Weight initialisation helpers."""

from __future__ import annotations

import numpy as np


def kaiming_uniform(shape, rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming uniform initialisation (suited to ReLU activations)."""
    fan_in = shape[0]
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape)


def ones(shape) -> np.ndarray:
    return np.ones(shape)


__all__ = ["kaiming_uniform", "zeros", "ones"]
