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

from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..accel import attack_compute, current_policy
from ..models.base import SegmentationModel
from ..nn import Adam, Tensor, plan_cache, where
from ..telemetry import get_tracer
from .config import AttackConfig, AttackObjective, AttackResult
from .convergence import ConvergenceCheck
from .distance import l2_distance
from .eot import averaged_eot_loss, build_eot, eot_refresh, stack_samples
from .evaluation import build_result
from .minimp import MinImpactSelector
from .objectives import adversarial_loss
from .perturbation import PerturbationSpec
from .reparam import BoxReparam
from .smoothness import smoothness_penalty


def _logits_match_reporting() -> bool:
    """Whether step logits are bit-for-bit what a reporting forward computes.

    Reporting forwards (:meth:`SegmentationModel.logits_numpy`) run the
    numpy kernels under :meth:`ComputePolicy.exact`; a step under the same
    arithmetic, on the same cloud, yields the same float64 logits.
    """
    policy = current_policy()
    return policy.is_exact and policy.tensor_backend == "numpy"


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
        config = self.config
        rng = rng or np.random.default_rng(config.seed)
        coords = np.asarray(coords, dtype=np.float64)
        colors = np.asarray(colors, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        mask = spec.target_mask
        mask3 = np.broadcast_to(mask[:, None], colors.shape)

        if config.objective is AttackObjective.OBJECT_HIDING and target_labels is None:
            raise ValueError("object hiding requires target labels")

        self.model.eval()
        clean_prediction = self.model.predict_single(coords, colors)

        color_reparam = BoxReparam(*spec.color_box)
        coord_reparam = BoxReparam(*spec.coord_box)

        coord_selector = (MinImpactSelector(mask, config.min_impact_points,
                                            config.min_impact_floor)
                          if spec.field.perturbs_coordinate else None)

        best_gain = -np.inf
        best_adversarial_loss = np.inf
        best_colors = colors.copy()
        best_coords = coords.copy()
        best_total_loss = np.inf
        best_prediction = None
        plateau = 0
        history: List[Dict[str, float]] = []
        converged = False
        iterations = 0
        # Adaptive mode pins the neighbourhood cache to content-exact keying
        # (see the black-box engines): the defended forwards move the
        # coordinates every step and slot staleness would depend on how the
        # samples are packed into forwards.
        eot = build_eot(config)
        refresh = eot_refresh(eot)
        tracer = get_tracer()

        with attack_compute(self.model, config, neighbor_refresh=refresh) as cache:
            # Eq. 9 neighbourhoods: fixed to the clean cloud by default (the
            # structure the attacker wants to preserve — and a guaranteed
            # cache hit on every step), or recomputed from the perturbed
            # cloud with ``smoothness_neighbors="current"`` (the seed
            # behaviour).  Read from the active policy, not the config, so
            # the ``REPRO_ACCEL`` override restores full seed behaviour.
            smooth_source = (coords[None]
                             if current_policy().smoothness_neighbors == "clean"
                             else None)
            reuse_prediction = _logits_match_reporting()

            # Free optimisation variables, initialised from the clean values
            # through the inverse of Eq. 7 (created inside the compute
            # context so they carry the policy dtype, as does the Adam state).
            variables = []
            w_color = w_coord = None
            if spec.field.perturbs_color:
                w_color = Tensor(color_reparam.from_box(colors), requires_grad=True)
                variables.append(w_color)
            if spec.field.perturbs_coordinate:
                w_coord = Tensor(coord_reparam.from_box(coords), requires_grad=True)
                variables.append(w_coord)
            optimizer = Adam(variables, lr=config.learning_rate)

            # Constant tensors reused by every step's graph.
            colors_const = Tensor(colors)
            coords_const = Tensor(coords)

            plans = plan_cache()
            program = None
            if (plans is not None and eot is None and w_coord is None
                    and w_color is not None):
                # A colour-only non-adaptive objective is one static graph
                # from the free variable to the total loss (coordinates,
                # masks and Eq. 9 neighbourhoods all constant): capture it
                # once and replay the compiled plan on ``w_color``'s current
                # data — Adam and the plateau restarts mutate it in place.
                program = plans.program(
                    ("unbounded", scene_name, colors.shape),
                    lambda: {"w_color": w_color})

            for step in range(1, config.unbounded_steps + 1):
                iterations = step
                cache.advance()

                optimizer.zero_grad()
                replayed = program.replay() if program is not None else None
                if replayed is not None:
                    logits_data = replayed["logits"]
                    adv_colors_data = replayed["adv_colors"]
                    adv_coords_data = None            # w_coord is None here
                    step_distance = float(replayed["distance"])
                    adversarial_value = float(replayed["adversarial"])
                    total_value = float(replayed["total"])
                else:
                    with (program.capture() if program is not None
                          else nullcontext(False)):
                        # Current adversarial values of each field (graph
                        # tensors).
                        if w_color is not None:
                            color_values = color_reparam.to_box(w_color)
                            adv_colors_t = where(mask3, color_values, colors_const)
                        else:
                            adv_colors_t = colors_const
                        if w_coord is not None:
                            coord_values = coord_reparam.to_box(w_coord)
                            allowed = (coord_selector.allowed_mask()
                                       if coord_selector is not None else mask)
                            coord_mask3 = np.broadcast_to(allowed[:, None],
                                                          coords.shape)
                            adv_coords_t = where(coord_mask3, coord_values,
                                                 coords_const)
                        else:
                            adv_coords_t = coords_const

                        if eot is None:
                            logits = self.model(adv_coords_t.expand_dims(0),
                                                adv_colors_t.expand_dims(0))
                            adversarial = None
                        else:
                            # Expectation over transformation: the adversarial
                            # term averages over this step's defense samples
                            # (drawn from the scene's own stream on the
                            # *current* adversarial values); the distance and
                            # smoothness terms keep judging the raw cloud, and
                            # so does convergence — the reporting forward below
                            # carries no gradient.
                            adv_np = np.asarray(adv_coords_t.data)
                            col_np = np.asarray(adv_colors_t.data)
                            adversarial, raw_logits = averaged_eot_loss(
                                self.model, config.objective, adv_coords_t,
                                adv_colors_t, eot.draw_all(adv_np, col_np, rng),
                                labels[None],
                                None if target_labels is None else target_labels[None],
                                restrict=lambda sample: sample.restrict(mask)[None],
                                wrap=lambda tensor: tensor.expand_dims(0))
                            logits = (raw_logits if raw_logits is not None
                                      else self.model(Tensor(adv_np[None]),
                                                      Tensor(col_np[None])))

                        # Objective: distance + λ1 · adversarial + λ2 · smoothness.
                        distance_terms = []
                        if w_color is not None:
                            distance_terms.append(
                                l2_distance(adv_colors_t - colors_const, mask))
                        if w_coord is not None:
                            distance_terms.append(
                                l2_distance(adv_coords_t - coords_const, mask))
                        distance = distance_terms[0]
                        for term in distance_terms[1:]:
                            distance = distance + term

                        if adversarial is None:
                            adversarial = self._adversarial_loss(
                                logits, labels[None],
                                None if target_labels is None else target_labels[None],
                                mask[None])

                        smooth = smoothness_penalty(
                            adv_coords_t.expand_dims(0),
                            adv_colors_t.expand_dims(0),
                            alpha=config.smoothness_alpha,
                            neighbor_source=smooth_source)
                        total = (distance + config.lambda1 * adversarial
                                 + config.lambda2 * smooth)
                    if program is not None:
                        program.finalize(
                            {"logits": logits, "adv_colors": adv_colors_t,
                             "distance": distance, "adversarial": adversarial,
                             "total": total}, root=total)
                    total.backward()
                    logits_data = logits.data
                    adv_colors_data = (adv_colors_t.data
                                       if w_color is not None else None)
                    adv_coords_data = (adv_coords_t.data
                                       if w_coord is not None else None)
                    step_distance = float(distance.item())
                    adversarial_value = float(adversarial.item())
                    total_value = float(total.item())

                # Alternating update schedule for the "both fields" ablation: only
                # one field's variable receives a gradient in each iteration.
                if (config.alternating_fields and w_color is not None
                        and w_coord is not None):
                    if step % 2 == 1 and w_coord.grad is not None:
                        w_coord.grad = np.zeros_like(w_coord.grad)
                    elif step % 2 == 0 and w_color.grad is not None:
                        w_color.grad = np.zeros_like(w_color.grad)

                # Progress tracking on the values used for this forward pass.  The
                # "best" snapshot prefers higher attack gain first and, at equal
                # gain, a lower adversarial loss (closer to flipping more points).
                prediction = np.argmax(logits_data[0], axis=-1)
                gain = self.check.gain(prediction, labels, target_labels, mask)
                adversarial_loss = adversarial_value
                total_loss = total_value
                history.append({
                    "step": float(step), "loss": total_loss,
                    "distance": step_distance, "gain": gain,
                })
                if tracer.enabled:
                    tracer.emit("attack_step", engine=config.engine_name,
                                scene=scene_name, step=step, loss=total_loss,
                                gain=gain, pnorm=step_distance)
                improved = (gain > best_gain
                            or (gain == best_gain
                                and adversarial_loss < best_adversarial_loss))
                if improved:
                    best_gain = gain
                    best_adversarial_loss = adversarial_loss
                    best_prediction = prediction
                    # Recompose from the original float64 arrays so every
                    # point not carrying a perturbation stays a bit-exact
                    # original even under a float32 compute policy.  The
                    # coordinate snapshot uses this step's *allowed* mask:
                    # points restored by Eq. 12 pruning must not retain
                    # float32-rounding residue, which would inflate the
                    # reported L0 (Eq. 8).
                    best_colors = (np.where(mask3, adv_colors_data, colors)
                                   if w_color is not None else colors)
                    best_coords = (np.where(coord_mask3, adv_coords_data, coords)
                                   if w_coord is not None else coords)
                # The plateau counter resets whenever the optimiser still makes
                # progress on the overall objective, even if no new point flipped.
                if improved or total_loss < best_total_loss - 1e-9:
                    plateau = 0
                else:
                    plateau += 1
                best_total_loss = min(best_total_loss, total_loss)

                if self.check.converged(prediction, labels, target_labels, mask):
                    converged = True
                    if tracer.enabled:
                        tracer.emit("attack_converged",
                                    engine=config.engine_name,
                                    scene=scene_name, step=step)
                    break

                # Plateau restart: add uniform noise to the free variable (paper §IV-B).
                if plateau >= config.plateau_patience:
                    for w in variables:
                        noise = rng.uniform(0.0, 1.0, size=w.shape) * mask3
                        w.data += noise   # in place, preserving the policy dtype
                    plateau = 0

                optimizer.step()

                # Coordinate attacks: restore the least impactful points (Eq. 12).
                if (w_coord is not None and coord_selector is not None
                        and coord_selector.active and w_coord.grad is not None):
                    perturbation = coord_reparam.to_box_numpy(w_coord.data) - coords
                    pruned = coord_selector.prune(w_coord.grad, perturbation)
                    if pruned.size:
                        w_coord.data[pruned] = coord_reparam.from_box(coords[pruned])

        return build_result(
            model=self.model, config=config,
            original_coords=coords, original_colors=colors,
            adversarial_coords=best_coords, adversarial_colors=best_colors,
            labels=labels, target_labels=target_labels, target_mask=mask,
            iterations=iterations, converged=converged, history=history,
            scene_name=scene_name, clean_prediction=clean_prediction,
            adversarial_prediction=(best_prediction if reuse_prediction
                                    else None),
        )

    # ------------------------------------------------------------------ #
    def run_batched(self, scenes: Sequence) -> List[AttackResult]:
        """Attack several same-size prepared clouds in one optimisation loop.

        ``scenes`` is a sequence of prepared-scene records (see
        :class:`repro.core.attack.PreparedScene`): per-scene ``coords`` /
        ``colors`` / ``labels`` / ``spec`` / ``target_labels`` / ``rng`` /
        ``scene_name``, all clouds sharing one point count.  A single
        forward/backward serves the whole batch, but every scene keeps its
        own target mask, RNG stream, plateau counter, min-impact selector
        and early-stopping decision, so each returned :class:`AttackResult`
        is bit-for-bit identical to the one a serial ``run`` produces for
        that scene.  Scenes that converge early are frozen in place (their
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

        self.model.eval()
        # Clean predictions stay per-scene: they run under the float64
        # reporting policy and are content-memoised, exactly as in `run`.
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
        eot = build_eot(config)
        refresh = eot_refresh(eot)
        tracer = get_tracer()

        with attack_compute(self.model, config, neighbor_refresh=refresh) as cache:
            smooth_source = (coords
                             if current_policy().smoothness_neighbors == "clean"
                             else None)
            reuse_prediction = _logits_match_reporting()

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

            plans = plan_cache()
            program = None
            if (plans is not None and eot is None and w_coord is None
                    and w_color is not None):
                # Same replay regime as the serial path; one plan serves the
                # whole batch (frozen scenes ride along, so the shape and
                # the recorded op sequence never change).
                names = tuple(s.scene_name for s in scenes)
                program = plans.program(
                    ("unbounded_batch", names, colors.shape),
                    lambda: {"w_color": w_color})

            for step in range(1, config.unbounded_steps + 1):
                if not active.any():
                    break
                iterations[active] = step
                cache.advance()

                optimizer.zero_grad()
                replayed = program.replay() if program is not None else None
                if replayed is not None:
                    logits_data = replayed["logits"]
                    adv_colors_data = replayed["adv_colors"]
                    adv_coords_data = None            # w_coord is None here
                    distance_data = replayed["distance"]
                    adversarial_data = replayed["adversarial"]
                    total_data = replayed["total"]
                else:
                    with (program.capture() if program is not None
                          else nullcontext(False)):
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

                        # The serial path hands the model and the smoothness
                        # penalty *separate* ``expand_dims`` views of the
                        # adversarial cloud, so each consumer's many gradient
                        # contributions are summed inside its own pass-through
                        # node before reaching the optimisation variable.  The
                        # identity reshapes below reproduce that exact
                        # summation tree — feeding the shared tensor directly
                        # would interleave the additions and shift the result
                        # by an ulp, breaking bit-equality with serial runs.
                        if eot is None:
                            logits = self.model(
                                adv_coords_t.reshape(adv_coords_t.shape),
                                adv_colors_t.reshape(adv_colors_t.shape))
                            adversarial = None
                        else:
                            # Per-scene defense samples, drawn in serial order
                            # from each scene's stream.  The identity reshapes
                            # stand in for the serial path's per-sample
                            # ``expand_dims`` pass-through, keeping the
                            # gradient summation tree of every scene identical
                            # to its serial run.
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
                        # Summing the per-scene objectives routes a gradient
                        # of 1.0 into every scene's term — the same seed a
                        # serial backward starts from — while scenes stay
                        # independent end to end.
                        grand_total = total.sum()
                    if program is not None:
                        program.finalize(
                            {"logits": logits, "adv_colors": adv_colors_t,
                             "distance": distance, "adversarial": adversarial,
                             "total": total}, root=grand_total)
                    grand_total.backward()
                    logits_data = logits.data
                    adv_colors_data = (adv_colors_t.data
                                       if w_color is not None else None)
                    adv_coords_data = (adv_coords_t.data
                                       if w_coord is not None else None)
                    distance_data = distance.data
                    adversarial_data = adversarial.data
                    total_data = total.data

                if (config.alternating_fields and w_color is not None
                        and w_coord is not None):
                    if step % 2 == 1 and w_coord.grad is not None:
                        w_coord.grad = np.zeros_like(w_coord.grad)
                    elif step % 2 == 0 and w_color.grad is not None:
                        w_color.grad = np.zeros_like(w_color.grad)

                predictions = np.argmax(logits_data, axis=-1)            # (B, N)
                distance_vals = np.asarray(distance_data, dtype=np.float64)
                adversarial_vals = np.asarray(adversarial_data, dtype=np.float64)
                total_vals = np.asarray(total_data, dtype=np.float64)

                for b in range(batch):
                    if not active[b]:
                        continue
                    scene_targets = None if target_labels is None else target_labels[b]
                    gain = self.check.gain(predictions[b], labels[b],
                                           scene_targets, mask[b])
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
                        best_colors[b] = (np.where(mask3[b], adv_colors_data[b],
                                                   colors[b])
                                          if w_color is not None else colors[b])
                        best_coords[b] = (np.where(coord_mask3[b], adv_coords_data[b],
                                                   coords[b])
                                          if w_coord is not None else coords[b])
                    if improved or total_loss < best_total_loss[b] - 1e-9:
                        plateau[b] = 0
                    else:
                        plateau[b] += 1
                    best_total_loss[b] = min(best_total_loss[b], total_loss)

                    if self.check.converged(predictions[b], labels[b],
                                            scene_targets, mask[b]):
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

                if not active.any():
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
