"""Random-noise baseline (Section V-C).

The paper compares its attacks against a baseline that simply adds random
noise to the colour channels with the *same L2 budget* as the real attack.
The baseline is also used on Semantic3D (Table VI).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..models.base import SegmentationModel
from .config import AttackConfig, AttackResult
from .evaluation import build_result
from .perturbation import PerturbationSpec, PreparedScene


class RandomNoiseBaseline:
    """Adds norm-matched random noise to the attacked field."""

    def __init__(self, model: SegmentationModel, config: AttackConfig) -> None:
        self.model = model
        self.config = config

    def run(self, coords: np.ndarray, colors: np.ndarray, labels: np.ndarray,
            spec: PerturbationSpec, target_labels: Optional[np.ndarray] = None,
            rng: Optional[np.random.Generator] = None,
            scene_name: str = "",
            target_l2: Optional[float] = None) -> AttackResult:
        """Perturb one cloud with random noise.

        Parameters
        ----------
        target_l2:
            Desired squared-L2 budget (Eq. 6) over the attacked points.  When
            omitted, a budget derived from ``config.epsilon`` is used.
        """
        config = self.config
        rng = rng or np.random.default_rng(config.seed)
        coords = np.asarray(coords, dtype=np.float64)
        colors = np.asarray(colors, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        mask = spec.target_mask
        num_targets = int(mask.sum())

        if target_l2 is None:
            # ε-sized noise on every channel of every attacked point.
            target_l2 = float(num_targets * 3 * config.epsilon ** 2)

        adv_coords = coords.copy()
        adv_colors = colors.copy()

        def _noised(values: np.ndarray, box: tuple) -> np.ndarray:
            noise = rng.normal(size=values.shape)
            noise[~mask] = 0.0
            norm = np.sqrt(np.sum(noise ** 2))
            if norm > 0:
                noise = noise * np.sqrt(target_l2) / norm
            return np.clip(values + noise, box[0], box[1])

        if spec.field.perturbs_color:
            adv_colors = _noised(adv_colors, spec.color_box)
        if spec.field.perturbs_coordinate:
            adv_coords = _noised(adv_coords, spec.coord_box)

        return build_result(
            model=self.model, config=config,
            original_coords=coords, original_colors=colors,
            adversarial_coords=adv_coords, adversarial_colors=adv_colors,
            labels=labels, target_labels=target_labels, target_mask=mask,
            iterations=1, converged=False, history=[],
            scene_name=scene_name,
        )

    def run_batched(self, scenes: Sequence[PreparedScene]) -> List[AttackResult]:
        """Perturb each prepared cloud in turn: one model query per scene."""
        return [self.run(s.coords, s.colors, s.labels, s.spec,
                         target_labels=s.target_labels, rng=s.rng,
                         scene_name=s.scene_name)
                for s in scenes]


__all__ = ["RandomNoiseBaseline"]
