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

from typing import List, Optional, Sequence

import numpy as np

from ..accel import attack_compute, current_policy
from ..nn import Adam, Tensor, where
from .batch import AttackEngine, SceneBatch
from .config import AttackResult
from .distance import l2_distance
from .eot import eot_refresh
from .objectives import adversarial_loss
from .perturbation import PreparedScene
from .reparam import BoxReparam
from .smoothness import smoothness_penalty


class NormUnboundedAttack(AttackEngine):
    """C&W-style attack optimising perturbation size and attack success jointly."""

    def run_batched(self, scenes: Sequence[PreparedScene]) -> List[AttackResult]:
        """Attack several same-size prepared clouds in one optimisation loop.

        A single forward/backward serves the whole batch, but every scene
        keeps its own target mask, RNG stream, plateau counter, min-impact
        selector and early-stopping decision, so each returned
        :class:`AttackResult` is bit-for-bit identical to the one a
        one-scene run produces for that scene.  Scenes that converge early
        are frozen in place (their best snapshot is already taken) while the
        rest of the batch keeps optimising; the loop exits once every scene
        has converged.
        """
        config = self.config
        batch = SceneBatch(self, scenes)
        coords, colors, mask, spec = batch.coords, batch.colors, batch.mask, batch.spec
        mask3 = np.broadcast_to(mask[:, :, None], colors.shape)
        color_reparam = BoxReparam(*spec.color_box)
        coord_reparam = BoxReparam(*spec.coord_box)

        best_gain = np.full(batch.size, -np.inf)
        best_adversarial_loss = np.full(batch.size, np.inf)
        best_total_loss = np.full(batch.size, np.inf)
        best_colors = colors.copy()
        best_coords = coords.copy()
        best_predictions: List[Optional[np.ndarray]] = [None] * batch.size
        plateau = np.zeros(batch.size, dtype=np.int64)

        with attack_compute(self.model, config,
                            neighbor_refresh=eot_refresh(batch.eot)) as cache:
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
                batch.iterations[batch.active] = step
                cache.advance()

                optimizer.zero_grad()
                if w_color is not None:
                    color_values = color_reparam.to_box(w_color)
                    adv_colors_t = where(mask3, color_values, colors_const)
                else:
                    adv_colors_t = colors_const
                if w_coord is not None:
                    coord_values = coord_reparam.to_box(w_coord)
                    coord_mask3 = np.broadcast_to(batch.allowed()[:, :, None],
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
                if batch.eot is None:
                    logits = self.model(
                        adv_coords_t.reshape(adv_coords_t.shape),
                        adv_colors_t.reshape(adv_colors_t.shape))
                    adversarial = adversarial_loss(
                        config.objective, logits, batch.labels,
                        batch.target_labels, mask, per_scene=True)
                else:
                    # Defense samples drawn at the policy-dtype adversarial
                    # values.  The distance and smoothness terms keep judging
                    # the raw cloud, and so does convergence.
                    adversarial, logits = batch.eot_loss(
                        adv_coords_t, adv_colors_t,
                        np.asarray(adv_coords_t.data),
                        np.asarray(adv_colors_t.data),
                        wrap=lambda tensor: tensor.reshape(tensor.shape))

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

                smooth = smoothness_penalty(
                    adv_coords_t.reshape(adv_coords_t.shape),
                    adv_colors_t.reshape(adv_colors_t.shape),
                    alpha=config.smoothness_alpha,
                    neighbor_source=smooth_source,
                    per_scene=True)
                total = (distance + config.lambda1 * adversarial
                         + config.lambda2 * smooth)

                predictions = np.argmax(logits.data, axis=-1)            # (B, N)
                converges = batch.converges(predictions)
                # Only a later step reads this gradient (through Adam and
                # min-impact pruning): the last step, and a step at which
                # every scene still attacking converges, skip the backward.
                reads_gradient = (step < config.unbounded_steps
                                  and not np.array_equal(converges, batch.active))
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

                for b in np.flatnonzero(batch.active):
                    gain = batch.gain(b, predictions[b])
                    adversarial_loss_b = float(adversarial_vals[b])
                    total_loss = float(total_vals[b])
                    batch.log_step(b, step, {
                        "step": float(step), "loss": total_loss,
                        "distance": float(distance_vals[b]), "gain": gain,
                    }, pnorm=lambda: float(distance_vals[b]))
                    improved = (gain > best_gain[b]
                                or (gain == best_gain[b]
                                    and adversarial_loss_b < best_adversarial_loss[b]))
                    if improved:
                        best_gain[b] = gain
                        best_adversarial_loss[b] = adversarial_loss_b
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
                        batch.stop(b, step)
                        continue

                    if plateau[b] >= config.plateau_patience:
                        for w in variables:
                            noise = batch.rngs[b].uniform(
                                0.0, 1.0, size=w.data[b].shape) * mask3[b]
                            w.data[b] += noise
                        plateau[b] = 0

                if not reads_gradient:
                    # The graph the skipped backward would have consumed is
                    # still held here: drop it before the reporting forwards
                    # allocate theirs.
                    logits = adversarial = smooth = total = None
                    break

                optimizer.step()

                if w_coord is not None and w_coord.grad is not None:
                    for b, selector in enumerate(batch.selectors):
                        if not batch.active[b] or not selector.active:
                            continue
                        perturbation = (coord_reparam.to_box_numpy(w_coord.data[b])
                                        - coords[b])
                        pruned = selector.prune(w_coord.grad[b], perturbation)
                        if pruned.size:
                            w_coord.data[b][pruned] = coord_reparam.from_box(
                                coords[b][pruned])

        return batch.results(best_coords, best_colors,
                             best_predictions if reuse_prediction else None)


__all__ = ["NormUnboundedAttack"]
