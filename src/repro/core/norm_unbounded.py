"""Norm-unbounded attack — the C&W adaptation to PCSS.

Instead of enforcing a perturbation budget, the attack minimises a weighted
sum of (a) the perturbation distance (Eq. 6 / 8), (b) the adversarial loss
(Eq. 10 / 11) and (c) the smoothness penalty (Eq. 9):

    minimise  D(R) + λ1 · L(X', ·) + λ2 · S(X')

The attacked field is re-parameterised through the tanh box map (Eq. 7) so
the optimiser — Adam with the paper's learning rate 0.01 — can move freely
without leaving the valid value range.  If the attack makes no progress for
``plateau_patience`` steps, uniform random noise is added to the optimisation
variable (the paper's restart heuristic).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..accel import attack_compute, current_policy
from ..models.base import SegmentationModel
from ..nn import Adam, Tensor, where
from ..telemetry import get_tracer
from .config import AttackConfig, AttackObjective, AttackResult
from .convergence import ConvergenceCheck
from .distance import l2_distance
from .eot import averaged_eot_loss, build_eot, eot_refresh, stack_samples
from .evaluation import build_result
from .minimp import MinImpactSelector
from .objectives import adversarial_loss
from .perturbation import PerturbationSpec, PreparedScene
from .reparam import BoxReparam
from .smoothness import smoothness_penalty


class NormUnboundedAttack:
    """C&W-style attack optimising perturbation size and attack success jointly."""

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
        """Attack several same-size prepared clouds in one optimisation loop.

        ``scenes`` is a sequence of :class:`PreparedScene` records, all
        clouds sharing one point count.  A single forward/backward serves
        the whole batch, but every scene keeps its own target mask, RNG
        stream, plateau counter, min-impact selector and early-stopping
        decision, so each returned :class:`AttackResult` is bit-for-bit
        identical to the one a one-scene run produces for that scene.  Scenes that converge early are frozen in place (their
        best snapshot is already taken) while the rest of the batch keeps
        optimising; the loop exits once every scene has converged.
        """
        config = self.config
        batch = len(scenes)
        coords = np.stack([np.asarray(s.coords, dtype=np.float64) for s in scenes])
        colors = np.stack([np.asarray(s.colors, dtype=np.float64) for s in scenes])
        labels = np.stack([np.asarray(s.labels, dtype=np.int64) for s in scenes])
        mask = np.stack([s.spec.target_mask for s in scenes])              # (B, N)
        mask3 = np.broadcast_to(mask[:, :, None], colors.shape)
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
        # Clean predictions stay per-scene: they run under the float64
        # reporting policy and are content-memoised.
        clean_predictions = [self.model.predict_single(coords[b], colors[b])
                             for b in range(batch)]

        color_reparam = BoxReparam(*spec.color_box)
        coord_reparam = BoxReparam(*spec.coord_box)
        selectors = ([MinImpactSelector(mask[b], config.min_impact_points,
                                        config.min_impact_floor)
                      for b in range(batch)]
                     if spec.field.perturbs_coordinate else None)

        best_gain = np.full(batch, -np.inf)
        best_adversarial_loss = np.full(batch, np.inf)
        best_total_loss = np.full(batch, np.inf)
        best_colors = colors.copy()
        best_coords = coords.copy()
        best_predictions: List[Optional[np.ndarray]] = [None] * batch
        plateau = np.zeros(batch, dtype=np.int64)
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
            smooth_source = (coords
                             if current_policy().smoothness_neighbors == "clean"
                             else None)
            # Reporting forwards (SegmentationModel.logits_numpy) run under
            # ComputePolicy.exact; a step under the same arithmetic, on the
            # same cloud, yields the same float64 logits, so the best step's
            # prediction is the reported one.
            reuse_prediction = current_policy().is_exact

            variables = []
            w_color = w_coord = None
            if spec.field.perturbs_color:
                w_color = Tensor(color_reparam.from_box(colors), requires_grad=True)
                variables.append(w_color)
            if spec.field.perturbs_coordinate:
                w_coord = Tensor(coord_reparam.from_box(coords), requires_grad=True)
                variables.append(w_coord)
            optimizer = Adam(variables, lr=config.learning_rate)

            colors_const = Tensor(colors)
            coords_const = Tensor(coords)

            for step in range(1, config.unbounded_steps + 1):
                iterations[active] = step
                cache.advance()

                optimizer.zero_grad()
                if w_color is not None:
                    color_values = color_reparam.to_box(w_color)
                    adv_colors_t = where(mask3, color_values, colors_const)
                else:
                    adv_colors_t = colors_const
                if w_coord is not None:
                    coord_values = coord_reparam.to_box(w_coord)
                    allowed = (np.stack([sel.allowed_mask()
                                         for sel in selectors])
                               if selectors is not None else mask)
                    coord_mask3 = np.broadcast_to(allowed[:, :, None],
                                                  coords.shape)
                    adv_coords_t = where(coord_mask3, coord_values,
                                         coords_const)
                else:
                    adv_coords_t = coords_const

                # The model and the smoothness penalty each get their own
                # identity-reshape view of the adversarial cloud, so each
                # consumer's many gradient contributions are summed inside
                # its own pass-through node before reaching the
                # optimisation variable.  That summation tree is the one
                # the seed implementation used; feeding the shared tensor
                # directly would interleave the additions and shift the
                # result by an ulp.
                if eot is None:
                    logits = self.model(
                        adv_coords_t.reshape(adv_coords_t.shape),
                        adv_colors_t.reshape(adv_colors_t.shape))
                    adversarial = None
                else:
                    # Expectation over transformation: the adversarial term
                    # averages over this step's defense samples, drawn in
                    # scene order from each scene's stream at the *current*
                    # adversarial values.  The distance and smoothness terms
                    # keep judging the raw cloud, and so does convergence —
                    # the reporting forward carries no gradient.
                    adv_np = np.asarray(adv_coords_t.data)
                    col_np = np.asarray(adv_colors_t.data)
                    step_samples = [eot.draw_all(adv_np[b], col_np[b],
                                                 rngs[b])
                                    for b in range(batch)]
                    adversarial, raw_logits = averaged_eot_loss(
                        self.model, config.objective, adv_coords_t,
                        adv_colors_t,
                        [stack_samples([step_samples[b][k]
                                        for b in range(batch)])
                         for k in range(eot.samples)],
                        labels, target_labels,
                        restrict=lambda stacked: stacked.restrict(mask),
                        wrap=lambda tensor: tensor.reshape(tensor.shape),
                        per_scene=True)
                    logits = (raw_logits if raw_logits is not None
                              else self.model(Tensor(adv_np),
                                              Tensor(col_np)))

                # Objective: distance + λ1 · adversarial + λ2 · smoothness.
                distance_terms = []
                if w_color is not None:
                    distance_terms.append(
                        l2_distance(adv_colors_t - colors_const,
                                    mask, per_scene=True))
                if w_coord is not None:
                    distance_terms.append(
                        l2_distance(adv_coords_t - coords_const,
                                    mask, per_scene=True))
                distance = distance_terms[0]
                for term in distance_terms[1:]:
                    distance = distance + term

                if adversarial is None:
                    adversarial = self._adversarial_loss(
                        logits, labels, target_labels, mask,
                        per_scene=True)

                smooth = smoothness_penalty(
                    adv_coords_t.reshape(adv_coords_t.shape),
                    adv_colors_t.reshape(adv_colors_t.shape),
                    alpha=config.smoothness_alpha,
                    neighbor_source=smooth_source,
                    per_scene=True)
                total = (distance + config.lambda1 * adversarial
                         + config.lambda2 * smooth)

                predictions = np.argmax(logits.data, axis=-1)            # (B, N)
                converges = np.array([
                    active[b] and self.check.converged(
                        predictions[b], labels[b], targets[b], mask[b])
                    for b in range(batch)])
                # Only a later step reads this gradient (through Adam and
                # min-impact pruning): the last step, and a step at which
                # every scene still attacking converges, skip the backward.
                reads_gradient = (step < config.unbounded_steps
                                  and not np.array_equal(converges, active))
                if reads_gradient:
                    # Summing the per-scene objectives routes a gradient of
                    # 1.0 into every scene's term while scenes stay
                    # independent end to end.
                    total.sum().backward()
                    if (config.alternating_fields and w_color is not None
                            and w_coord is not None):
                        if step % 2 == 1 and w_coord.grad is not None:
                            w_coord.grad = np.zeros_like(w_coord.grad)
                        elif step % 2 == 0 and w_color.grad is not None:
                            w_color.grad = np.zeros_like(w_color.grad)

                distance_vals = np.asarray(distance.data, dtype=np.float64)
                adversarial_vals = np.asarray(adversarial.data, dtype=np.float64)
                total_vals = np.asarray(total.data, dtype=np.float64)

                for b in range(batch):
                    if not active[b]:
                        continue
                    gain = self.check.gain(predictions[b], labels[b],
                                           targets[b], mask[b])
                    adversarial_loss = float(adversarial_vals[b])
                    total_loss = float(total_vals[b])
                    histories[b].append({
                        "step": float(step), "loss": total_loss,
                        "distance": float(distance_vals[b]), "gain": gain,
                    })
                    if tracer.enabled:
                        tracer.emit("attack_step", engine=config.engine_name,
                                    scene=scenes[b].scene_name, step=step,
                                    loss=total_loss, gain=gain,
                                    pnorm=float(distance_vals[b]))
                    improved = (gain > best_gain[b]
                                or (gain == best_gain[b]
                                    and adversarial_loss < best_adversarial_loss[b]))
                    if improved:
                        best_gain[b] = gain
                        best_adversarial_loss[b] = adversarial_loss
                        best_predictions[b] = predictions[b]
                        best_colors[b] = (np.where(mask3[b], adv_colors_t.data[b],
                                                   colors[b])
                                          if w_color is not None else colors[b])
                        best_coords[b] = (np.where(coord_mask3[b], adv_coords_t.data[b],
                                                   coords[b])
                                          if w_coord is not None else coords[b])
                    if improved or total_loss < best_total_loss[b] - 1e-9:
                        plateau[b] = 0
                    else:
                        plateau[b] += 1
                    best_total_loss[b] = min(best_total_loss[b], total_loss)

                    if converges[b]:
                        converged[b] = True
                        active[b] = False
                        if tracer.enabled:
                            tracer.emit("attack_converged",
                                        engine=config.engine_name,
                                        scene=scenes[b].scene_name, step=step)
                        continue

                    if plateau[b] >= config.plateau_patience:
                        for w in variables:
                            noise = rngs[b].uniform(0.0, 1.0,
                                                    size=w.data[b].shape) * mask3[b]
                            w.data[b] += noise
                        plateau[b] = 0

                if not reads_gradient:
                    # The graph the skipped backward would have consumed is
                    # still held here: drop it before build_result's
                    # reporting forwards allocate theirs.
                    logits = raw_logits = adversarial = smooth = total = None
                    break

                optimizer.step()

                if (w_coord is not None and selectors is not None
                        and w_coord.grad is not None):
                    for b, selector in enumerate(selectors):
                        if not active[b] or not selector.active:
                            continue
                        perturbation = (coord_reparam.to_box_numpy(w_coord.data[b])
                                        - coords[b])
                        pruned = selector.prune(w_coord.grad[b], perturbation)
                        if pruned.size:
                            w_coord.data[b][pruned] = coord_reparam.from_box(
                                coords[b][pruned])

        return [
            build_result(
                model=self.model, config=config,
                original_coords=coords[b], original_colors=colors[b],
                adversarial_coords=best_coords[b], adversarial_colors=best_colors[b],
                labels=labels[b],
                target_labels=None if target_labels is None else target_labels[b],
                target_mask=mask[b],
                iterations=int(iterations[b]), converged=bool(converged[b]),
                history=histories[b], scene_name=scenes[b].scene_name,
                clean_prediction=clean_predictions[b],
                adversarial_prediction=(best_predictions[b] if reuse_prediction
                                        else None),
            )
            for b in range(batch)
        ]


__all__ = ["NormUnboundedAttack"]
