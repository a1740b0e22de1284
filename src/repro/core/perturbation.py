"""Perturbation specification: which field is attacked, on which points.

The paper's framework supports three attacked fields — point **coordinates**,
point **colour features**, or **both** — and, for the object-hiding attack, a
subset ``T`` of target points.  :class:`PerturbationSpec` captures those
choices together with the valid value box of each field (which depends on the
victim model's normalisation convention).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from ..geometry.transforms import NormalizationSpec


class AttackField(str, Enum):
    """Which point attribute the adversary perturbs."""

    COLOR = "color"
    COORDINATE = "coordinate"
    BOTH = "both"

    @property
    def perturbs_color(self) -> bool:
        return self in (AttackField.COLOR, AttackField.BOTH)

    @property
    def perturbs_coordinate(self) -> bool:
        return self in (AttackField.COORDINATE, AttackField.BOTH)


@dataclass
class PerturbationSpec:
    """Describes what the attacker is allowed to change.

    Attributes
    ----------
    field:
        Attacked field (colour, coordinate or both).
    target_mask:
        Boolean array ``(N,)`` marking the attacked points ``T``.  For the
        performance-degradation attack this is all points.
    color_box:
        Valid value range ``[a, b]`` of the colour field in model space.
    coord_box:
        Valid value range ``[a, b]`` of the coordinate field in model space.
    """

    field: AttackField
    target_mask: np.ndarray
    color_box: Tuple[float, float] = (0.0, 1.0)
    coord_box: Tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self) -> None:
        self.field = AttackField(self.field)
        self.target_mask = np.asarray(self.target_mask, dtype=bool)
        if self.target_mask.ndim != 1:
            raise ValueError("target_mask must be a 1-D boolean array")
        if not self.target_mask.any():
            raise ValueError("target_mask must select at least one point")

    @property
    def num_targets(self) -> int:
        return int(self.target_mask.sum())

    @classmethod
    def for_model(cls, field: AttackField | str, target_mask: np.ndarray,
                  spec: NormalizationSpec) -> "PerturbationSpec":
        """Build a spec whose value boxes match a model's normalisation."""
        return cls(
            field=AttackField(field),
            target_mask=target_mask,
            color_box=spec.color_range,
            coord_box=spec.coord_range,
        )

    def box_for(self, field_name: str) -> Tuple[float, float]:
        """Value box of ``"color"`` or ``"coordinate"``."""
        if field_name == "color":
            return self.color_box
        if field_name == "coordinate":
            return self.coord_box
        raise ValueError(f"unknown field {field_name!r}")


@dataclass
class PreparedScene:
    """One scene, normalised and ready for an attack engine's ``run_batched``."""

    coords: np.ndarray
    colors: np.ndarray
    labels: np.ndarray
    spec: PerturbationSpec
    target_labels: Optional[np.ndarray]
    rng: Optional[np.random.Generator]
    scene_name: str = ""

    @property
    def num_points(self) -> int:
        return int(np.asarray(self.coords).shape[0])


def full_mask(num_points: int) -> np.ndarray:
    """Target mask selecting every point (performance-degradation attack)."""
    return np.ones(num_points, dtype=bool)


def class_mask(labels: np.ndarray, class_index: int) -> np.ndarray:
    """Target mask selecting all points of a semantic class (object hiding)."""
    return np.asarray(labels) == class_index


__all__ = ["AttackField", "PerturbationSpec", "PreparedScene", "full_mask",
           "class_mask"]
