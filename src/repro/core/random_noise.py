"""Random-noise baseline (Section V-C).

The paper compares its attacks against a baseline that simply adds random
noise to the colour channels with the *same L2 budget* as the real attack.
The baseline is also used on Semantic3D (Table VI).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .batch import AttackEngine, SceneBatch
from .config import AttackResult
from .perturbation import PerturbationSpec, PreparedScene


class RandomNoiseBaseline(AttackEngine):
    """Adds norm-matched random noise to the attacked field."""

    def run(self, coords: np.ndarray, colors: np.ndarray, labels: np.ndarray,
            spec: PerturbationSpec, target_labels: Optional[np.ndarray] = None,
            rng: Optional[np.random.Generator] = None,
            scene_name: str = "",
            target_l2: Optional[float] = None) -> AttackResult:
        """Perturb one cloud with random noise (see :meth:`run_batched`)."""
        return self.run_batched([PreparedScene(coords, colors, labels, spec,
                                               target_labels, rng,
                                               scene_name)],
                                target_l2=target_l2)[0]

    def run_batched(self, scenes: Sequence[PreparedScene],
                    target_l2: Optional[float] = None) -> List[AttackResult]:
        """Perturb each prepared cloud: one model query per scene.

        ``target_l2`` is the squared-L2 budget (Eq. 6) over each scene's
        attacked points; when omitted, each scene gets ε-sized noise on every
        channel of every attacked point (``3·ε²`` per point).
        """
        batch = SceneBatch(self, scenes)
        spec = batch.spec
        adv_coords = batch.coords.copy()
        adv_colors = batch.colors.copy()
        for b, rng in enumerate(batch.rngs):
            mask = batch.mask[b]
            budget = (float(int(mask.sum()) * 3 * self.config.epsilon ** 2)
                      if target_l2 is None else target_l2)

            def noised(values: np.ndarray, box: tuple) -> np.ndarray:
                noise = rng.normal(size=values.shape)
                noise[~mask] = 0.0
                norm = np.sqrt(np.sum(noise ** 2))
                if norm > 0:
                    noise = noise * np.sqrt(budget) / norm
                return np.clip(values + noise, box[0], box[1])

            # Colour first, then coordinates, from the scene's own stream.
            if spec.field.perturbs_color:
                adv_colors[b] = noised(adv_colors[b], spec.color_box)
            if spec.field.perturbs_coordinate:
                adv_coords[b] = noised(adv_coords[b], spec.coord_box)
        batch.iterations[:] = 1
        return batch.results(adv_coords, adv_colors)


__all__ = ["RandomNoiseBaseline"]
