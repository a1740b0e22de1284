"""Black-box attack engines: query-budgeted, gradient-free PCSS attacks.

The white-box engines of the paper assume full gradient access.  This module
adds the score-based and decision-based threat models behind the very same
``_build_engine`` dispatch:

* :class:`NESAttack` — natural-evolution-strategies gradient estimation
  (Ilyas et al. style): antithetic Gaussian probes around the current cloud,
  loss differences weighted back onto the directions, then the same
  ε-projected sign step as the norm-bounded white-box attack.
* :class:`SPSAAttack` — simultaneous-perturbation stochastic approximation:
  Rademacher (±1) probe directions and the classic two-query SPSA estimator,
  averaged over ``samples_per_step`` draws.
* :class:`BoundaryAttack` — decision-based boundary walk: only the predicted
  labels are observed.  The attack hunts for an adversarial random start
  inside the valid value box, then repeatedly contracts toward the original
  cloud with orthogonal exploration noise, accepting only proposals that stay
  adversarial (the attacker's own ``Converge(·)`` criterion).

All three engines run on the same :class:`~repro.core.batch.SceneBatch` as
the white-box engines, which owns each scene's clouds, masks, labels, RNG
stream, EOT sampler, ``Converge(·)`` check, history, trace events and
result.  The engines keep only what is theirs: one stacked ``(B, N, 3)``
array of adversarial values per attacked field, each scene's paid queries
and the boundary walk's bookkeeping.  Every model evaluation stacks the
active scenes' clouds into one ``(rows, N, 3)`` forward.  Because
evaluation-mode forwards are batch-position independent and every
per-scene decision consumes only that scene's RNG stream and loss values,
serial and batched runs are bit-for-bit identical by construction — the
engine-contract suite asserts exactly that.

Query accounting: every cloud the victim model evaluates for the attacker
costs one query from ``config.query_budget``.  A NES/SPSA step spends one
query on the convergence check plus ``2 * samples_per_step`` on antithetic
probes; a boundary step spends one query per proposal.  The clean prediction
and the final report evaluation are bookkeeping, not attacker queries.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..accel import attack_compute
from ..models.base import SegmentationModel
from ..nn import Tensor, plan_cache
from .batch import AttackEngine, SceneBatch
from .config import AttackConfig, AttackMode, AttackObjective, AttackResult
from .norm_bounded import NormBoundedAttack
from .perturbation import PreparedScene

#: Scene ``b``'s values of the attacked fields, keyed ``"color"`` and
#: ``"coordinate"`` (colour first), as an ``(N, 3)`` array each.
Candidate = Dict[str, np.ndarray]


def _margin_loss(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray,
                 objective: AttackObjective) -> float:
    """Eq. 10/11 hinge-margin loss of one cloud, computed in float64.

    ``labels`` is the ground truth for performance degradation and the
    attacker's target labels for object hiding.  The estimators only need
    loss *values*, so this NumPy mirror of :mod:`repro.core.objectives`
    keeps the probe arithmetic out of the autograd graph (and independent of
    how probes were packed into the forward batch).
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    label_logit = np.take_along_axis(logits, labels[:, None], axis=-1)[:, 0]
    others = logits.copy()
    np.put_along_axis(others, labels[:, None], -np.inf, axis=-1)
    other_max = others.max(axis=-1)
    if objective is AttackObjective.OBJECT_HIDING:
        margin = other_max - label_logit
    else:
        margin = label_logit - other_max
    return float(np.sum(np.maximum(margin, 0.0) * mask))


def _cloud(batch: SceneBatch, b: int, values: Candidate
           ) -> Tuple[np.ndarray, np.ndarray]:
    """Scene ``b``'s ``(coords, colors)`` with ``values`` on its attacked fields."""
    return (values.get("coordinate", batch.coords[b]),
            values.get("color", batch.colors[b]))


def _original(batch: SceneBatch, name: str) -> np.ndarray:
    """The clean ``(B, N, 3)`` values of field ``name``."""
    return batch.colors if name == "color" else batch.coords


def _perturbation_l2(batch: SceneBatch, b: int, values: Candidate) -> float:
    """Masked squared-L2 size of scene ``b``'s attacked-field move."""
    total = 0.0
    for name, value in values.items():
        delta = (value - _original(batch, name)[b])[batch.mask[b]]
        total += float(np.sum(delta ** 2))
    return total


def _draw_eot(batch: SceneBatch, b: int, values: Candidate) -> List:
    """Scene ``b``'s defense samples at ``values`` (``[None]`` when static).

    Samples are drawn at the cloud being judged from the scene's own stream
    — the standard sample-at-anchor EOT estimator, matching the white-box
    engines' treatment.  Every defended forward costs one query.
    """
    if batch.eot is None:
        return [None]
    return batch.eot.draw_all(*_cloud(batch, b, values), batch.rngs[b])


class _BlackBoxAttack(AttackEngine):
    """Shared driver: stacked forward evaluation over a :class:`SceneBatch`."""

    #: The run's forward-only plan cache, set while ``run_batched`` runs.
    _plans = None

    #: Rows per stacked inference forward.  Adaptive mode multiplies the
    #: probe population by ``eot_samples``, so one unbounded forward could
    #: exhaust memory at paper scale; evaluation-mode forwards are
    #: batch-position independent (the PR-3 invariant the serial/batched
    #: contract already relies on), so chunking never changes a result.
    max_eval_rows = 256

    # -------------------------------------------------------------- #
    def _evaluate(self, clouds: Sequence[Tuple[np.ndarray, np.ndarray]],
                  plan_key: Optional[tuple] = None) -> np.ndarray:
        """Policy-dtype logits ``(rows, N, C)`` for a stack of clouds.

        No tensor requires a gradient: black-box engines are pure inference,
        so a forward-only plan (when ``plan_key`` names one) is captured on
        the first stack with this key and replayed thereafter.
        Engines pass a key only when the stacked composition is stable and
        the forward's neighbourhood indices cannot drift (color-only field,
        static defense); chunked oversize stacks always run eager because
        the chunk boundaries depend on the transient row count.
        """
        if len(clouds) > self.max_eval_rows:
            return np.concatenate(
                [self._evaluate(clouds[offset:offset + self.max_eval_rows])
                 for offset in range(0, len(clouds), self.max_eval_rows)])
        coords = np.stack([c for c, _ in clouds])
        colors = np.stack([c for _, c in clouds])
        if plan_key is None or self._plans is None:
            return self.model(Tensor(coords), Tensor(colors)).data
        return self._plans.run(plan_key + (coords.shape,), self.model,
                               coords=coords, colors=colors)

    @staticmethod
    def _plan_key(batch: SceneBatch, phase: str,
                  scenes: Sequence[int]) -> Optional[tuple]:
        """The plan key of one stacked forward over ``scenes``, or ``None``.

        Replay bakes the capture step's neighbourhood gather indices into
        the plan, so it is only sound when coordinates never move
        (color-only perturbation field) and every forward sees the raw
        cloud (static defense — adaptive EOT samples drop points and
        reshuffle the stacked rows).
        """
        if batch.eot is not None or batch.spec.field.perturbs_coordinate:
            return None
        return (phase,) + tuple(batch.scenes[b].scene_name for b in scenes)

    # -------------------------------------------------------------- #
    def run_batched(self, scenes: Sequence[PreparedScene]) -> List[AttackResult]:
        """Attack several same-size prepared clouds through shared forwards."""
        batch = SceneBatch(self, scenes)
        # The adversarial values of the attacked fields, colour first: the
        # order every scene's stream draws them in.
        adv: Dict[str, np.ndarray] = {}
        if batch.spec.field.perturbs_color:
            adv["color"] = batch.colors.copy()
        if batch.spec.field.perturbs_coordinate:
            adv["coordinate"] = batch.coords.copy()
        with attack_compute(self.model, self.config, neighbor_refresh=1) as cache:
            self._plans = plan_cache()
            self._drive(batch, adv, cache)
            self._plans = None
        return batch.results(adv.get("coordinate", batch.coords),
                             adv.get("color", batch.colors))

    def _drive(self, batch: SceneBatch, adv: Dict[str, np.ndarray],
               cache) -> None:
        raise NotImplementedError


class _FiniteDifferenceAttack(_BlackBoxAttack):
    """ε-bounded sign-step loop on a finite-difference gradient estimate.

    Subclasses only choose the probe directions and the estimator weights;
    the update is exactly the norm-bounded attack's masked sign step with
    L∞ projection onto the ε-ball and the valid value box.
    """

    def _directions(self, rng: np.random.Generator,
                    shape: Tuple[int, ...]) -> np.ndarray:
        raise NotImplementedError

    # -------------------------------------------------------------- #
    def _drive(self, batch: SceneBatch, adv: Dict[str, np.ndarray],
               cache) -> None:
        config = self.config
        mask3 = batch.mask[:, :, None]
        loss_labels = (batch.labels if batch.target_labels is None
                       else batch.target_labels)
        queries = [0] * batch.size
        # Every scene shares the configuration, so the (possibly collapsed —
        # deterministic defenses yield one sample) EOT view count is uniform.
        eot_k = batch.eot.samples if batch.eot is not None else 1
        pair_cost = 2 * config.samples_per_step * eot_k
        while True:
            # Phase 1 — convergence check on every scene's current cloud
            # (one query each).  Scenes that cannot afford the check stop.
            for b in range(batch.size):
                if batch.active[b] and queries[b] + 1 > config.query_budget:
                    batch.active[b] = False
            checking = [b for b in range(batch.size) if batch.active[b]]
            if not checking:
                break
            current = [{name: values[b] for name, values in adv.items()}
                       for b in range(batch.size)]
            cache.advance()
            logits = self._evaluate(
                [_cloud(batch, b, current[b]) for b in checking],
                plan_key=self._plan_key(batch, "check", checking))
            predictions = np.argmax(logits, axis=-1)
            for row, b in enumerate(checking):
                queries[b] += 1
                batch.iterations[b] += 1
                step = int(batch.iterations[b])
                batch.log_step(b, step, {
                    "step": float(step),
                    "loss": _margin_loss(logits[row], loss_labels[b],
                                         batch.mask[b], config.objective),
                    "gain": batch.gain(b, predictions[row]),
                    "queries": float(queries[b]),
                }, pnorm=lambda: _perturbation_l2(batch, b, current[b]),
                    queries=queries[b])
                if batch.adversarial(b, predictions[row]):
                    batch.stop(b, step)
                elif queries[b] + pair_cost > config.query_budget:
                    batch.active[b] = False    # cannot afford a probe round

            probing = [b for b in range(batch.size) if batch.active[b]]
            if not probing:
                continue

            # Phase 2 — antithetic probes, one stacked forward for all
            # scenes.  Directions (and, in adaptive mode, this step's
            # defense samples — drawn first, shared by every direction of
            # the step) come from each scene's own stream in a fixed order,
            # so the draw sequence matches a serial run.  Each probe is
            # evaluated through every defense sample; the ± losses are the
            # per-sample means, and every defended forward costs one query.
            probes: List[Tuple[np.ndarray, np.ndarray]] = []
            directions: List[List[Candidate]] = []
            eot_by_scene: List[List] = []
            for b in probing:
                scene_samples = _draw_eot(batch, b, current[b])
                eot_by_scene.append(scene_samples)
                scene_directions = []
                for _ in range(config.samples_per_step):
                    direction = {
                        name: self._directions(batch.rngs[b], value.shape)
                        * mask3[b]
                        for name, value in current[b].items()
                    }
                    scene_directions.append(direction)
                    for sign in (1.0, -1.0):
                        probe_coords, probe_colors = _cloud(batch, b, {
                            name: value + sign * config.fd_sigma
                            * direction[name]
                            for name, value in current[b].items()
                        })
                        for sample in scene_samples:
                            probes.append(
                                (probe_coords, probe_colors) if sample is None
                                else sample.apply_arrays(probe_coords,
                                                         probe_colors))
                directions.append(scene_directions)
            logits = self._evaluate(
                probes, plan_key=self._plan_key(batch, "probes", probing))

            row = 0
            for b, scene_directions, scene_samples in zip(
                    probing, directions, eot_by_scene):
                estimate = {name: np.zeros_like(value)
                            for name, value in current[b].items()}
                samples_k = float(len(scene_samples))
                masks = [batch.mask[b] if sample is None
                         else sample.restrict(batch.mask[b])
                         for sample in scene_samples]
                for direction in scene_directions:
                    loss_pair = []
                    for _sign in (1.0, -1.0):
                        total = 0.0
                        for mask in masks:
                            total += _margin_loss(logits[row], loss_labels[b],
                                                  mask, config.objective)
                            row += 1
                        loss_pair.append(total / samples_k)
                    weight = (loss_pair[0] - loss_pair[1]) / (2.0 * config.fd_sigma)
                    for name in estimate:
                        estimate[name] += weight * direction[name]
                queries[b] += pair_cost
                for name, values in adv.items():
                    updated = (values[b]
                               - config.step_size * np.sign(estimate[name])
                               * mask3[b])
                    values[b] = NormBoundedAttack._project(
                        updated, _original(batch, name)[b], config.epsilon,
                        batch.spec.box_for(name))


class NESAttack(_FiniteDifferenceAttack):
    """NES gradient estimation: antithetic Gaussian probe directions."""

    def _directions(self, rng: np.random.Generator,
                    shape: Tuple[int, ...]) -> np.ndarray:
        return rng.standard_normal(shape)


class SPSAAttack(_FiniteDifferenceAttack):
    """SPSA: Rademacher (±1) simultaneous-perturbation directions."""

    def _directions(self, rng: np.random.Generator,
                    shape: Tuple[int, ...]) -> np.ndarray:
        return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0


class _BoundaryScene:
    """Boundary-walk bookkeeping of scene ``b`` of a :class:`SceneBatch`."""

    __slots__ = ("b", "phase", "tries", "best", "best_l2", "best_gain",
                 "best_effort", "source_step")

    def __init__(self, b: int, source_step: float) -> None:
        self.b = b
        self.phase = "init"
        self.tries = 0
        self.best: Optional[Candidate] = None
        self.best_l2 = np.inf
        self.best_gain = -np.inf
        self.best_effort: Optional[Candidate] = None
        self.source_step = source_step


class BoundaryAttack(_BlackBoxAttack):
    """Decision-based boundary walk (label access only).

    The attack first hunts for an adversarial starting point — the attacked
    field redrawn uniformly inside its valid box — then walks toward the
    original cloud: every proposal contracts the perturbation by
    ``boundary_source_step`` after adding orthogonal exploration noise
    scaled by ``boundary_noise_step`` times the current perturbation norm.
    Proposals that keep the cloud adversarial (the ``Converge(·)`` criterion
    itself) are accepted and the contraction step grows; rejections shrink
    it.  The reported cloud is the smallest-L2 adversarial candidate seen;
    if no adversarial start was found within ``boundary_init_tries``, the
    highest-gain candidate is reported with ``converged = False``.
    """

    def _propose(self, batch: SceneBatch, adv: Dict[str, np.ndarray],
                 walk: _BoundaryScene) -> Candidate:
        b = walk.b
        rng = batch.rngs[b]
        mask3 = batch.mask[b][:, None]
        candidate: Candidate = {}
        if walk.phase == "init":
            for name in adv:
                original = _original(batch, name)[b]
                drawn = rng.uniform(*batch.spec.box_for(name),
                                    size=original.shape)
                candidate[name] = np.where(mask3, drawn, original)
            return candidate
        for name, values in adv.items():
            original = _original(batch, name)[b]
            delta = values[b] - original
            noise = rng.standard_normal(delta.shape) * mask3
            delta_norm = float(np.sqrt(np.sum(delta ** 2)))
            noise_norm = float(np.sqrt(np.sum(noise ** 2)))
            if noise_norm > 0.0:
                noise *= (self.config.boundary_noise_step * delta_norm
                          / noise_norm)
            contracted = (delta + noise) * (1.0 - walk.source_step)
            candidate[name] = np.clip(original + contracted,
                                      *batch.spec.box_for(name))
        return candidate

    def _decide(self, batch: SceneBatch, adv: Dict[str, np.ndarray],
                queries: List[int], walk: _BoundaryScene,
                candidate: Candidate, predictions: np.ndarray,
                samples: List) -> None:
        """Judge one proposal from its defended view(s).

        Static mode sees one raw view.  Adaptive mode sees ``eot_samples``
        defended views (each a paid query): the proposal counts as
        adversarial when a strict majority of views satisfies the
        criterion, and the recorded gain is the mean over views.
        """
        config = self.config
        b = walk.b
        views = len(samples)
        queries[b] += views
        batch.iterations[b] += 1
        step = int(batch.iterations[b])
        votes = 0
        informative = 0
        gain_total = 0.0
        for prediction, sample in zip(predictions, samples):
            mask = (batch.mask[b] if sample is None
                    else sample.restrict(batch.mask[b]))
            if not mask.any():
                # The defense sample dropped every attacked point: the view
                # carries no information about them.  It must NOT vote
                # "adversarial" (the empty-slice accuracy of 0.0 would
                # trivially satisfy Converge(·) and score gain 1.0 — the
                # same empty-equals-success degeneracy the defended
                # evaluation semantics rule out).
                continue
            informative += 1
            if batch.adversarial(b, prediction, mask=mask):
                votes += 1
            gain_total += batch.gain(b, prediction, mask=mask)
        # Acceptance demands a strict majority of ALL views (uninformative
        # views never endorse), but the gain averages over the informative
        # ones only — dividing by the full view count would rank proposals
        # by how many surviving views they drew, not by attack progress.
        adversarial = 2 * votes > views
        gain = gain_total / float(informative) if informative else 0.0
        candidate_l2 = _perturbation_l2(batch, b, candidate)
        batch.log_step(b, step, {
            "step": float(step), "loss": candidate_l2,
            "gain": gain, "queries": float(queries[b]),
        }, pnorm=lambda: candidate_l2, queries=queries[b])
        if gain > walk.best_gain:
            walk.best_gain = gain
            walk.best_effort = candidate
        if adversarial:
            for name, value in candidate.items():
                adv[name][b] = value
        if walk.phase == "init":
            walk.tries += 1
            if adversarial:
                walk.best, walk.best_l2 = candidate, candidate_l2
                walk.phase = "walk"
                batch.mark_converged(b, step)
            elif walk.tries >= config.boundary_init_tries:
                batch.active[b] = False        # give up: report best effort
        elif adversarial:
            if candidate_l2 < walk.best_l2:
                walk.best, walk.best_l2 = candidate, candidate_l2
            walk.source_step = min(walk.source_step * 1.5, 0.9)
        else:
            walk.source_step = max(walk.source_step * 0.7, 1e-3)
        # Budget enforcement lives in _drive's affordability gate, which
        # re-checks every walk before the next proposal.

    def _drive(self, batch: SceneBatch, adv: Dict[str, np.ndarray],
               cache) -> None:
        walks = [_BoundaryScene(b, self.config.boundary_source_step)
                 for b in range(batch.size)]
        queries = [0] * batch.size
        views = batch.eot.samples if batch.eot is not None else 1
        while True:
            # Affordability gate: a proposal costs one query per defended
            # view, and a walk that cannot pay for a full proposal stops
            # *before* proposing — recorded queries never exceed the budget
            # even when the budget is smaller than the view count.
            for walk in walks:
                if (batch.active[walk.b]
                        and queries[walk.b] + views > self.config.query_budget):
                    batch.active[walk.b] = False
            pending = [walk for walk in walks if batch.active[walk.b]]
            if not pending:
                break
            cache.advance()
            # Proposals first, then (adaptive mode) the defense samples of
            # each proposal — drawn at the candidate itself, since the
            # decision is about the candidate's defended prediction.  The
            # per-scene stream order (proposal draws, then sample draws)
            # matches serial runs.
            clouds: List[Tuple[np.ndarray, np.ndarray]] = []
            proposals: List[Tuple[Candidate, List]] = []
            for walk in pending:
                candidate = self._propose(batch, adv, walk)
                scene_samples = _draw_eot(batch, walk.b, candidate)
                proposals.append((candidate, scene_samples))
                coords, colors = _cloud(batch, walk.b, candidate)
                for sample in scene_samples:
                    clouds.append((coords, colors) if sample is None
                                  else sample.apply_arrays(coords, colors))
            logits = self._evaluate(
                clouds, plan_key=self._plan_key(
                    batch, "walk", [walk.b for walk in pending]))
            predictions = np.argmax(logits, axis=-1)
            row = 0
            for walk, (candidate, scene_samples) in zip(pending, proposals):
                views_b = len(scene_samples)
                self._decide(batch, adv, queries, walk, candidate,
                             predictions[row:row + views_b], scene_samples)
                row += views_b
        for walk in walks:
            chosen = walk.best if walk.best is not None else walk.best_effort
            if chosen is not None:
                for name, value in chosen.items():
                    adv[name][walk.b] = value


_ENGINES = {
    AttackMode.NES: NESAttack,
    AttackMode.SPSA: SPSAAttack,
    AttackMode.BOUNDARY: BoundaryAttack,
}


def build_blackbox_engine(model: SegmentationModel,
                          config: AttackConfig) -> _BlackBoxAttack:
    """The black-box engine selected by ``config.attack_mode``."""
    try:
        engine = _ENGINES[config.attack_mode]
    except KeyError:
        raise ValueError(f"{config.attack_mode!r} is not a black-box mode")
    return engine(model, config)


__all__ = [
    "BoundaryAttack",
    "NESAttack",
    "SPSAAttack",
    "build_blackbox_engine",
]
