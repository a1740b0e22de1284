"""Common interface for the point-cloud semantic-segmentation models."""

from __future__ import annotations

import numpy as np

from ..accel import ComputePolicy, freeze_parameters, neighborhoods, use_policy
from ..geometry.transforms import NormalizationSpec
from ..nn import Module, Tensor


class SegmentationModel(Module):
    """Base class for PCSS models.

    Every model maps a batch of point clouds — given as separate coordinate
    and colour tensors so attacks can differentiate with respect to either
    field independently — to per-point class logits:

    ``forward(coords: (B, N, 3), colors: (B, N, 3)) -> logits (B, N, num_classes)``

    Sub-classes must set :attr:`num_classes`, :attr:`spec` (the input
    normalisation convention) and :attr:`model_name`.
    """

    model_name: str = "segmentation-model"

    def __init__(self, num_classes: int, spec: NormalizationSpec) -> None:
        super().__init__()
        self.num_classes = num_classes
        self.spec = spec

    # ------------------------------------------------------------------ #
    # Convenience inference helpers (NumPy in / NumPy out)
    # ------------------------------------------------------------------ #
    def logits_numpy(self, coords: np.ndarray, colors: np.ndarray) -> np.ndarray:
        """Per-point logits for normalised inputs, with autograd disabled.

        Results are memoised content-keyed (inputs *and* every parameter
        array participate in the key), so e.g. re-scoring the same clean
        cloud for each attack method of a table costs one forward pass.
        The evaluation-mode forward is side-effect free, which is what makes
        the memoisation sound.  Parameters are frozen for the forward, so
        it builds no backward closures and takes the fused kernels.
        """
        coords = np.asarray(coords, dtype=np.float64)
        colors = np.asarray(colors, dtype=np.float64)

        def compute() -> np.ndarray:
            was_training = self.training
            self.eval()
            # Reporting always runs in float64, whatever policy is active.
            with use_policy(ComputePolicy.exact()), freeze_parameters(self):
                logits = self.forward(Tensor(coords), Tensor(colors)).data
            if was_training:
                self.train()
            return logits

        state = [param.data for _, param in self.named_parameters()]
        state.extend(np.asarray(buffer) for _, buffer in self.named_buffers())
        return neighborhoods().memo(("logits", id(self)),
                                    (coords, colors, *state), compute)

    def predict(self, coords: np.ndarray, colors: np.ndarray) -> np.ndarray:
        """Per-point predicted labels ``(B, N)`` for normalised inputs."""
        return np.argmax(self.logits_numpy(coords, colors), axis=-1)

    def predict_single(self, coords: np.ndarray, colors: np.ndarray) -> np.ndarray:
        """Predicted labels ``(N,)`` for a single (unbatched) cloud."""
        coords = np.asarray(coords)
        colors = np.asarray(colors)
        return self.predict(coords[None], colors[None])[0]

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """One-line human readable description."""
        return (f"{self.model_name}: {self.num_classes} classes, "
                f"{self.num_parameters()} parameters, "
                f"coords in [{self.spec.coord_low}, {self.spec.coord_high}], "
                f"colors in [{self.spec.color_low}, {self.spec.color_high}]")


def check_inputs(coords: Tensor, colors: Tensor) -> None:
    """Validate the standard ``(B, N, 3)`` input shapes."""
    if coords.ndim != 3 or coords.shape[-1] != 3:
        raise ValueError(f"coords must have shape (B, N, 3), got {coords.shape}")
    if colors.ndim != 3 or colors.shape[-1] != 3:
        raise ValueError(f"colors must have shape (B, N, 3), got {colors.shape}")
    if coords.shape[:2] != colors.shape[:2]:
        raise ValueError("coords and colors must agree on batch and point dimensions")


__all__ = ["SegmentationModel", "check_inputs"]
