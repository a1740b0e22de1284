"""Norm-bounded attack (Algorithm 1) — the PGD adaptation to PCSS.

The attack iteratively adds sign-of-gradient noise to the attacked field of
the attacked points, keeps the total perturbation inside an ``ε`` box
(L∞-projected, as in PGD), and clips values to the model's valid range.
Unlike image PGD it does not use the cross-entropy loss: it optimises the
logit-margin losses of Equations 10 / 11 restricted to the attacked points,
and checks the attacker's ``Converge(·)`` criterion each step.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..accel import attack_compute
from ..nn import Tensor
from .batch import AttackEngine, SceneBatch
from .config import AttackResult
from .eot import eot_refresh
from .objectives import adversarial_loss
from .perturbation import PreparedScene


class NormBoundedAttack(AttackEngine):
    """PGD-style attack with an explicit perturbation budget ``ε``."""

    def run_batched(self, scenes: Sequence[PreparedScene]) -> List[AttackResult]:
        """Attack several same-size prepared clouds in one PGD loop.

        One forward/backward serves every scene per step while the random
        starts, target masks, min-impact selectors and the ``Converge(·)``
        early stop all stay per-scene, so each result is bit-for-bit
        identical to a one-scene run of that scene.  Converged scenes are
        frozen (their sign-step mask drops to zero) and the loop exits once
        all scenes are done.
        """
        config = self.config
        batch = SceneBatch(self, scenes)
        coords, colors, mask, spec = batch.coords, batch.colors, batch.mask, batch.spec
        mask3 = mask[:, :, None]
        adv_coords = coords.copy()
        adv_colors = colors.copy()
        epsilon = config.epsilon

        # Per-scene PGD random starts, drawn from each scene's own stream
        # (colour first, then coordinates).
        for b, rng in enumerate(batch.rngs):
            if spec.field.perturbs_color:
                adv_colors[b] = adv_colors[b] + mask3[b] * rng.uniform(
                    -epsilon, epsilon, size=colors[b].shape) * 0.5
                adv_colors[b] = np.clip(adv_colors[b], *spec.color_box)
            if spec.field.perturbs_coordinate:
                adv_coords[b] = adv_coords[b] + mask3[b] * rng.uniform(
                    -epsilon, epsilon, size=coords[b].shape) * 0.5
                adv_coords[b] = np.clip(adv_coords[b], *spec.coord_box)

        def pnorm(b: int) -> float:
            return float(np.sum(((adv_colors[b] - colors[b]) * mask3[b]) ** 2)
                         + np.sum(((adv_coords[b] - coords[b]) * mask3[b]) ** 2))

        with attack_compute(self.model, config,
                            neighbor_refresh=eot_refresh(batch.eot)) as cache:
            for step in range(1, config.bounded_steps + 1):
                batch.iterations[batch.active] = step
                cache.advance()
                coords_t = Tensor(adv_coords,
                                  requires_grad=spec.field.perturbs_coordinate)
                colors_t = Tensor(adv_colors,
                                  requires_grad=spec.field.perturbs_color)
                if batch.eot is None:
                    report = self.model(coords_t, colors_t)
                    loss = adversarial_loss(config.objective, report,
                                            batch.labels, batch.target_labels,
                                            mask, per_scene=True)
                else:
                    # Defense samples drawn at the float64 clouds; convergence
                    # keeps judging the raw cloud.
                    loss, report = batch.eot_loss(coords_t, colors_t,
                                                  adv_coords, adv_colors)
                predictions = np.argmax(report.data, axis=-1)            # (B, N)
                converges = batch.converges(predictions)
                # Only the sign step reads this gradient, and a step at
                # which every scene still attacking converges takes none.
                reads_gradient = not np.array_equal(converges, batch.active)
                if reads_gradient:
                    loss.sum().backward()

                loss_vals = np.asarray(loss.data, dtype=np.float64)
                for b in np.flatnonzero(batch.active):
                    batch.log_step(b, step, {
                        "step": float(step), "loss": float(loss_vals[b]),
                        "gain": batch.gain(b, predictions[b])},
                        pnorm=lambda: pnorm(b))
                    if converges[b]:
                        batch.stop(b, step)
                if not reads_gradient:
                    # The graph the skipped backward would have consumed is
                    # still held here: drop it before the reporting forwards
                    # allocate theirs.
                    report = loss = None
                    break

                # Sign-of-gradient step, masked to each scene's attacked
                # set.  Frozen scenes keep their previous arrays untouched:
                # re-projecting an already projected cloud is not bitwise
                # idempotent (``orig + clip(adv - orig)`` re-rounds), so the
                # update is computed for the whole batch and merged back only
                # into the active rows.
                keep3 = batch.active[:, None, None]
                if spec.field.perturbs_color and colors_t.grad is not None:
                    gradient = colors_t.grad
                    updated = adv_colors - config.step_size * np.sign(gradient) * mask3
                    updated = self._project(updated, colors, epsilon,
                                            spec.color_box)
                    adv_colors = np.where(keep3, updated, adv_colors)
                if spec.field.perturbs_coordinate and coords_t.grad is not None:
                    gradient = coords_t.grad
                    updated = (adv_coords - config.step_size * np.sign(gradient)
                               * batch.allowed()[:, :, None])
                    updated = self._project(updated, coords, epsilon,
                                            spec.coord_box)
                    adv_coords = np.where(keep3, updated, adv_coords)
                    for b, selector in enumerate(batch.selectors):
                        if not batch.active[b] or not selector.active:
                            continue
                        pruned = selector.prune(gradient[b],
                                                adv_coords[b] - coords[b])
                        if pruned.size:
                            adv_coords[b][pruned] = coords[b][pruned]

        return batch.results(adv_coords, adv_colors)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _project(adversarial: np.ndarray, original: np.ndarray,
                 epsilon: float, box: tuple) -> np.ndarray:
        """Project onto the ε-ball around the original and the valid box."""
        delta = np.clip(adversarial - original, -epsilon, epsilon)
        return np.clip(original + delta, box[0], box[1])


__all__ = ["NormBoundedAttack"]
