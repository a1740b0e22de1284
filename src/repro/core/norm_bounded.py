"""Norm-bounded attack (Algorithm 1) — the PGD adaptation to PCSS.

The attack iteratively adds sign-of-gradient noise to the attacked field of
the attacked points, keeps the total perturbation inside an ``ε`` box
(L∞-projected, as in PGD), and clips values to the model's valid range.
Unlike image PGD it does not use the cross-entropy loss: it optimises the
logit-margin losses of Equations 10 / 11 restricted to the attacked points,
and checks the attacker's ``Converge(·)`` criterion each step.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..accel import attack_compute
from ..models.base import SegmentationModel
from ..nn import Tensor
from ..telemetry import get_tracer
from .config import AttackConfig, AttackObjective, AttackResult
from .convergence import ConvergenceCheck
from .eot import averaged_eot_loss, build_eot, eot_refresh, stack_samples
from .evaluation import build_result
from .minimp import MinImpactSelector
from .objectives import adversarial_loss
from .perturbation import PerturbationSpec, PreparedScene


class NormBoundedAttack:
    """PGD-style attack with an explicit perturbation budget ``ε``."""

    def __init__(self, model: SegmentationModel, config: AttackConfig) -> None:
        self.model = model
        self.config = config
        self.check = ConvergenceCheck(config, model.num_classes)

    # ------------------------------------------------------------------ #
    def _adversarial_loss(self, logits, labels, target_labels, mask,
                          per_scene: bool = False):
        return adversarial_loss(self.config.objective, logits, labels,
                                target_labels, mask, per_scene=per_scene)

    # ------------------------------------------------------------------ #
    def run(self, coords: np.ndarray, colors: np.ndarray, labels: np.ndarray,
            spec: PerturbationSpec, target_labels: Optional[np.ndarray] = None,
            rng: Optional[np.random.Generator] = None,
            scene_name: str = "") -> AttackResult:
        """Attack a single prepared cloud (all arrays in model space)."""
        return self.run_batched([PreparedScene(coords, colors, labels, spec,
                                               target_labels, rng,
                                               scene_name)])[0]

    # ------------------------------------------------------------------ #
    def run_batched(self, scenes: Sequence) -> List[AttackResult]:
        """Attack several same-size prepared clouds in one PGD loop.

        ``scenes`` is a sequence of :class:`PreparedScene` records.  One
        forward/backward serves every scene per step while the random
        starts, target masks, min-impact selectors and the ``Converge(·)``
        early stop all stay per-scene, so each result is bit-for-bit
        identical to a one-scene run of that scene.  Converged scenes are
        frozen (their sign-step mask drops to zero) and the loop exits once
        all scenes are done.
        """
        config = self.config
        batch = len(scenes)
        coords = np.stack([np.asarray(s.coords, dtype=np.float64) for s in scenes])
        colors = np.stack([np.asarray(s.colors, dtype=np.float64) for s in scenes])
        labels = np.stack([np.asarray(s.labels, dtype=np.int64) for s in scenes])
        mask = np.stack([s.spec.target_mask for s in scenes])              # (B, N)
        mask3 = mask[:, :, None]
        rngs = [s.rng or np.random.default_rng(config.seed) for s in scenes]
        spec = scenes[0].spec
        if config.objective is AttackObjective.OBJECT_HIDING:
            if any(s.target_labels is None for s in scenes):
                raise ValueError("object hiding requires target labels")
            target_labels = np.stack([np.asarray(s.target_labels, dtype=np.int64)
                                      for s in scenes])
        else:
            target_labels = None
        targets = [None] * batch if target_labels is None else list(target_labels)

        self.model.eval()
        clean_predictions = [self.model.predict_single(coords[b], colors[b])
                             for b in range(batch)]

        adv_coords = coords.copy()
        adv_colors = colors.copy()
        epsilon = config.epsilon

        # Per-scene PGD random starts, drawn from each scene's own stream
        # (colour first, then coordinates).
        for b in range(batch):
            if spec.field.perturbs_color:
                adv_colors[b] = adv_colors[b] + mask3[b] * rngs[b].uniform(
                    -epsilon, epsilon, size=colors[b].shape) * 0.5
                adv_colors[b] = np.clip(adv_colors[b], *spec.color_box)
            if spec.field.perturbs_coordinate:
                adv_coords[b] = adv_coords[b] + mask3[b] * rngs[b].uniform(
                    -epsilon, epsilon, size=coords[b].shape) * 0.5
                adv_coords[b] = np.clip(adv_coords[b], *spec.coord_box)

        selectors = ([MinImpactSelector(mask[b], config.min_impact_points,
                                        config.min_impact_floor)
                      for b in range(batch)]
                     if spec.field.perturbs_coordinate else None)

        histories: List[List[Dict[str, float]]] = [[] for _ in range(batch)]
        converged = np.zeros(batch, dtype=bool)
        active = np.ones(batch, dtype=bool)
        iterations = np.zeros(batch, dtype=np.int64)
        # Adaptive mode pins the neighbourhood cache to content-exact keying
        # (as the black-box engines do): the defended forwards move the
        # coordinates every step, and slot staleness would depend on how
        # the samples are packed into forwards.
        eot = build_eot(config)
        refresh = eot_refresh(eot)
        tracer = get_tracer()

        with attack_compute(self.model, config, neighbor_refresh=refresh) as cache:
            for step in range(1, config.bounded_steps + 1):
                iterations[active] = step
                cache.advance()
                coords_t = Tensor(adv_coords,
                                  requires_grad=spec.field.perturbs_coordinate)
                colors_t = Tensor(adv_colors,
                                  requires_grad=spec.field.perturbs_color)
                if eot is None:
                    logits = self.model(coords_t, colors_t)
                    loss = self._adversarial_loss(logits, labels, target_labels,
                                                  mask, per_scene=True)
                    predictions = np.argmax(logits.data, axis=-1)        # (B, N)
                else:
                    # Expectation over transformation: per-scene defense
                    # samples drawn from each scene's own stream, stacked
                    # into one defended forward per EOT sample; convergence
                    # keeps judging the raw cloud.
                    step_samples = [eot.draw_all(adv_coords[b], adv_colors[b],
                                                 rngs[b])
                                    for b in range(batch)]
                    loss, raw_logits = averaged_eot_loss(
                        self.model, config.objective, coords_t, colors_t,
                        [stack_samples([step_samples[b][k]
                                        for b in range(batch)])
                         for k in range(eot.samples)],
                        labels, target_labels,
                        restrict=lambda stacked: stacked.restrict(mask),
                        per_scene=True)
                    report = (raw_logits if raw_logits is not None
                              else self.model(Tensor(adv_coords),
                                              Tensor(adv_colors)))
                    predictions = np.argmax(report.data, axis=-1)        # (B, N)
                converges = np.array([
                    active[b] and self.check.converged(
                        predictions[b], labels[b], targets[b], mask[b])
                    for b in range(batch)])
                # Only the sign step reads this gradient, and a step at
                # which every scene still attacking converges takes none.
                reads_gradient = not np.array_equal(converges, active)
                if reads_gradient:
                    loss.sum().backward()

                loss_vals = np.asarray(loss.data, dtype=np.float64)
                for b in range(batch):
                    if not active[b]:
                        continue
                    gain = self.check.gain(predictions[b], labels[b],
                                           targets[b], mask[b])
                    histories[b].append({"step": float(step),
                                         "loss": float(loss_vals[b]),
                                         "gain": gain})
                    if tracer.enabled:
                        pnorm = float(
                            np.sum(((adv_colors[b] - colors[b]) * mask3[b]) ** 2)
                            + np.sum(((adv_coords[b] - coords[b]) * mask3[b]) ** 2))
                        tracer.emit("attack_step", engine=config.engine_name,
                                    scene=scenes[b].scene_name, step=step,
                                    loss=float(loss_vals[b]), gain=gain,
                                    pnorm=pnorm)
                    if converges[b]:
                        converged[b] = True
                        active[b] = False
                        if tracer.enabled:
                            tracer.emit("attack_converged",
                                        engine=config.engine_name,
                                        scene=scenes[b].scene_name, step=step)
                if not reads_gradient:
                    # The graph the skipped backward would have consumed is
                    # still held here: drop it before build_result's
                    # reporting forwards allocate theirs.
                    logits = raw_logits = report = loss = None
                    break

                # Sign-of-gradient step, masked to each scene's attacked
                # set.  Frozen scenes keep their previous arrays untouched:
                # re-projecting an already projected cloud is not bitwise
                # idempotent (``orig + clip(adv - orig)`` re-rounds), so the
                # update is computed for the whole batch and merged back only
                # into the active rows.
                keep3 = active[:, None, None]
                if spec.field.perturbs_color and colors_t.grad is not None:
                    gradient = colors_t.grad
                    updated = adv_colors - config.step_size * np.sign(gradient) * mask3
                    updated = self._project(updated, colors, epsilon,
                                            spec.color_box)
                    adv_colors = np.where(keep3, updated, adv_colors)
                if spec.field.perturbs_coordinate and coords_t.grad is not None:
                    gradient = coords_t.grad
                    allowed = (np.stack([sel.allowed_mask() for sel in selectors])
                               if selectors is not None else mask)
                    updated = (adv_coords
                               - config.step_size * np.sign(gradient) * allowed[:, :, None])
                    updated = self._project(updated, coords, epsilon,
                                            spec.coord_box)
                    adv_coords = np.where(keep3, updated, adv_coords)
                    if selectors is not None:
                        for b, selector in enumerate(selectors):
                            if not active[b] or not selector.active:
                                continue
                            pruned = selector.prune(gradient[b],
                                                    adv_coords[b] - coords[b])
                            if pruned.size:
                                adv_coords[b][pruned] = coords[b][pruned]

        return [
            build_result(
                model=self.model, config=config,
                original_coords=coords[b], original_colors=colors[b],
                adversarial_coords=adv_coords[b], adversarial_colors=adv_colors[b],
                labels=labels[b],
                target_labels=None if target_labels is None else target_labels[b],
                target_mask=mask[b],
                iterations=int(iterations[b]), converged=bool(converged[b]),
                history=histories[b], scene_name=scenes[b].scene_name,
                clean_prediction=clean_predictions[b],
            )
            for b in range(batch)
        ]

    # ------------------------------------------------------------------ #
    @staticmethod
    def _project(adversarial: np.ndarray, original: np.ndarray,
                 epsilon: float, box: tuple) -> np.ndarray:
        """Project onto the ε-ball around the original and the valid box."""
        delta = np.clip(adversarial - original, -epsilon, epsilon)
        return np.clip(original + delta, box[0], box[1])


__all__ = ["NormBoundedAttack"]
