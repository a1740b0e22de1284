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

All three engines are built as *per-scene state machines driven by stacked
forward passes*: ``run_batched`` drives B states (``run`` is a one-scene
batch), and every model evaluation stacks the active scenes' clouds into one
``(rows, N, 3)`` forward.  Because evaluation-mode forwards are
batch-position independent (the PR-3 invariant) and every per-scene decision
consumes only that scene's RNG stream and loss values, serial and batched
runs are bit-for-bit identical by construction — the engine-contract suite
asserts exactly that.

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
from ..telemetry import get_tracer
from .batch import AttackEngine
from .config import AttackConfig, AttackMode, AttackObjective, AttackResult
from .convergence import ConvergenceCheck
from .eot import build_eot
from .evaluation import build_result
from .norm_bounded import NormBoundedAttack
from .perturbation import PerturbationSpec


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


class _SceneState:
    """Everything one scene carries through a black-box optimisation loop."""

    def __init__(self, config: AttackConfig, check: ConvergenceCheck,
                 coords: np.ndarray, colors: np.ndarray, labels: np.ndarray,
                 spec: PerturbationSpec, target_labels: Optional[np.ndarray],
                 rng: Optional[np.random.Generator], scene_name: str) -> None:
        self.config = config
        self.check = check
        self.coords = np.asarray(coords, dtype=np.float64)
        self.colors = np.asarray(colors, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.spec = spec
        self.mask = np.asarray(spec.target_mask, dtype=bool)
        self.mask3 = self.mask[:, None]
        self.target_labels = (None if target_labels is None
                              else np.asarray(target_labels, dtype=np.int64))
        if (config.objective is AttackObjective.OBJECT_HIDING
                and self.target_labels is None):
            raise ValueError("object hiding requires target labels")
        self.rng = rng or np.random.default_rng(config.seed)
        self.scene_name = scene_name
        # Adaptive mode: the attacker's own sampler of the deployed defense
        # (None when static).  Every defended forward costs one query.
        self.eot = build_eot(config)

        self.fields = []
        if spec.field.perturbs_color:
            self.fields.append("color")
        if spec.field.perturbs_coordinate:
            self.fields.append("coordinate")
        self.original = {"color": self.colors, "coordinate": self.coords}
        self.boxes = {"color": spec.color_box, "coordinate": spec.coord_box}
        self.adv = {name: self.original[name].copy() for name in self.fields}

        self.queries = 0
        self.iterations = 0
        self.converged = False
        self.active = True
        self.history: List[Dict[str, float]] = []

    # -------------------------------------------------------------- #
    @property
    def loss_labels(self) -> np.ndarray:
        """Labels the adversarial loss is computed against."""
        if self.config.objective is AttackObjective.OBJECT_HIDING:
            return self.target_labels
        return self.labels

    def cloud(self, overrides: Optional[Dict[str, np.ndarray]] = None
              ) -> Tuple[np.ndarray, np.ndarray]:
        """The (coords, colors) pair for the current or a probe cloud."""
        values = {"coordinate": self.coords, "color": self.colors}
        values.update(self.adv)
        if overrides:
            values.update(overrides)
        return values["coordinate"], values["color"]

    def perturbation_l2(self, candidate: Dict[str, np.ndarray]) -> float:
        """Masked squared-L2 size of a candidate's attacked-field move."""
        total = 0.0
        for name in self.fields:
            delta = (candidate[name] - self.original[name])[self.mask]
            total += float(np.sum(delta ** 2))
        return total

    def is_adversarial(self, prediction: np.ndarray,
                       mask: Optional[np.ndarray] = None) -> bool:
        return self.check.converged(prediction, self.labels,
                                    self.target_labels,
                                    self.mask if mask is None else mask)

    def gain(self, prediction: np.ndarray,
             mask: Optional[np.ndarray] = None) -> float:
        return self.check.gain(prediction, self.labels, self.target_labels,
                               self.mask if mask is None else mask)

    def draw_eot(self, overrides: Optional[Dict[str, np.ndarray]] = None
                 ) -> List:
        """This round's defense samples (``[None]`` when static).

        Samples are drawn at the current adversarial cloud (or at the
        candidate passed via ``overrides``) from the scene's own stream —
        the standard sample-at-anchor EOT estimator, matching the white-box
        engines' treatment.
        """
        if self.eot is None:
            return [None]
        coords, colors = self.cloud(overrides)
        return self.eot.draw_all(coords, colors, self.rng)

    def defended(self, coords: np.ndarray, colors: np.ndarray, sample
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """A cloud as one defense sample sees it (identity when static)."""
        if sample is None:
            return coords, colors
        return sample.apply_arrays(coords, colors)

    def sample_mask(self, sample) -> np.ndarray:
        """The loss mask restricted to the sample's surviving points."""
        if sample is None:
            return self.mask
        return sample.restrict(self.mask)


class _BlackBoxAttack(AttackEngine):
    """Shared driver: stacked forward evaluation over per-scene states."""

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

    def _replayable(self, states: Sequence[_SceneState]) -> bool:
        """Whether stacked forwards may be compiled for these scenes.

        Replay bakes the capture step's neighbourhood gather indices into
        the plan, so it is only sound when coordinates never move
        (color-only perturbation field) and every forward sees the raw
        cloud (static defense — adaptive EOT samples drop points and
        reshuffle the stacked rows).
        """
        state = states[0]
        return (state.eot is None
                and not state.spec.field.perturbs_coordinate)

    def _make_state(self, scene) -> _SceneState:
        return _SceneState(self.config, self.check, scene.coords, scene.colors,
                           scene.labels, scene.spec, scene.target_labels,
                           scene.rng, scene.scene_name)

    def _finish(self, state: _SceneState) -> AttackResult:
        coords, colors = state.cloud()
        return build_result(
            model=self.model, config=self.config,
            original_coords=state.coords, original_colors=state.colors,
            adversarial_coords=coords, adversarial_colors=colors,
            labels=state.labels, target_labels=state.target_labels,
            target_mask=state.mask, iterations=state.iterations,
            converged=state.converged, history=state.history,
            scene_name=state.scene_name,
        )

    # -------------------------------------------------------------- #
    def run_batched(self, scenes: Sequence) -> List[AttackResult]:
        """Attack several same-size prepared clouds through shared forwards."""
        states = [self._make_state(scene) for scene in scenes]
        self.model.eval()
        with attack_compute(self.model, self.config, neighbor_refresh=1) as cache:
            self._plans = plan_cache()
            self._drive(states, cache)
            self._plans = None
        return [self._finish(state) for state in states]

    def _drive(self, states: List[_SceneState], cache) -> None:
        raise NotImplementedError


class _FiniteDifferenceAttack(_BlackBoxAttack):
    """ε-bounded sign-step loop on a finite-difference gradient estimate.

    Subclasses only choose the probe directions and the estimator weights;
    the update is exactly the norm-bounded attack's masked sign step with
    L∞ projection onto the ε-ball and the valid value box.
    """

    def _directions(self, state: _SceneState, shape: Tuple[int, ...]) -> np.ndarray:
        raise NotImplementedError

    # -------------------------------------------------------------- #
    def _drive(self, states: List[_SceneState], cache) -> None:
        config = self.config
        tracer = get_tracer()
        # Every scene shares the configuration, so the (possibly collapsed —
        # deterministic defenses yield one sample) EOT view count is uniform.
        eot_k = states[0].eot.samples if states[0].eot is not None else 1
        pair_cost = 2 * config.samples_per_step * eot_k
        replayable = self._replayable(states)
        while True:
            # Phase 1 — convergence check on every scene's current cloud
            # (one query each).  Scenes that cannot afford the check stop.
            for state in states:
                if state.active and state.queries + 1 > config.query_budget:
                    state.active = False
            checking = [state for state in states if state.active]
            if not checking:
                break
            cache.advance()
            logits = self._evaluate(
                [state.cloud() for state in checking],
                plan_key=(("check",) + tuple(s.scene_name for s in checking)
                          if replayable else None))
            predictions = np.argmax(logits, axis=-1)
            for row, state in enumerate(checking):
                state.queries += 1
                state.iterations += 1
                loss = _margin_loss(logits[row], state.loss_labels, state.mask,
                                    config.objective)
                state.history.append({
                    "step": float(state.iterations), "loss": loss,
                    "gain": state.gain(predictions[row]),
                    "queries": float(state.queries),
                })
                if tracer.enabled:
                    tracer.emit("attack_step", engine=config.engine_name,
                                scene=state.scene_name,
                                step=state.iterations, loss=loss,
                                gain=state.history[-1]["gain"],
                                queries=state.queries,
                                pnorm=state.perturbation_l2(state.adv))
                if state.is_adversarial(predictions[row]):
                    state.converged = True
                    state.active = False
                    if tracer.enabled:
                        tracer.emit("attack_converged",
                                    engine=config.engine_name,
                                    scene=state.scene_name,
                                    step=state.iterations)
                elif state.queries + pair_cost > config.query_budget:
                    state.active = False       # cannot afford a probe round

            probing = [state for state in states if state.active]
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
            directions: List[List[Dict[str, np.ndarray]]] = []
            eot_by_scene: List[List] = []
            for state in probing:
                scene_samples = state.draw_eot()
                eot_by_scene.append(scene_samples)
                scene_directions = []
                for _ in range(config.samples_per_step):
                    direction = {
                        name: self._directions(state, state.adv[name].shape)
                        * state.mask3
                        for name in state.fields
                    }
                    scene_directions.append(direction)
                    for sign in (1.0, -1.0):
                        probe = {
                            name: state.adv[name]
                            + sign * config.fd_sigma * direction[name]
                            for name in state.fields
                        }
                        probe_coords, probe_colors = state.cloud(probe)
                        for sample in scene_samples:
                            probes.append(state.defended(probe_coords,
                                                         probe_colors, sample))
                directions.append(scene_directions)
            logits = self._evaluate(
                probes,
                plan_key=(("probes",) + tuple(s.scene_name for s in probing)
                          if replayable else None))

            row = 0
            for state, scene_directions, scene_samples in zip(
                    probing, directions, eot_by_scene):
                estimate = {name: np.zeros_like(state.adv[name])
                            for name in state.fields}
                samples_k = float(len(scene_samples))
                for direction in scene_directions:
                    loss_pair = []
                    for _sign in (1.0, -1.0):
                        total = 0.0
                        for sample in scene_samples:
                            total += _margin_loss(logits[row],
                                                  state.loss_labels,
                                                  state.sample_mask(sample),
                                                  config.objective)
                            row += 1
                        loss_pair.append(total / samples_k)
                    weight = (loss_pair[0] - loss_pair[1]) / (2.0 * config.fd_sigma)
                    for name in state.fields:
                        estimate[name] += weight * direction[name]
                state.queries += pair_cost
                for name in state.fields:
                    updated = (state.adv[name]
                               - config.step_size * np.sign(estimate[name])
                               * state.mask3)
                    state.adv[name] = NormBoundedAttack._project(
                        updated, state.original[name], config.epsilon,
                        state.boxes[name])


class NESAttack(_FiniteDifferenceAttack):
    """NES gradient estimation: antithetic Gaussian probe directions."""

    def _directions(self, state: _SceneState, shape: Tuple[int, ...]) -> np.ndarray:
        return state.rng.standard_normal(shape)


class SPSAAttack(_FiniteDifferenceAttack):
    """SPSA: Rademacher (±1) simultaneous-perturbation directions."""

    def _directions(self, state: _SceneState, shape: Tuple[int, ...]) -> np.ndarray:
        return state.rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0


class _BoundaryScene:
    """Boundary-walk bookkeeping layered on top of a :class:`_SceneState`."""

    __slots__ = ("state", "phase", "tries", "best", "best_l2", "best_gain",
                 "best_effort", "source_step", "candidate")

    def __init__(self, state: _SceneState, source_step: float) -> None:
        self.state = state
        self.phase = "init"
        self.tries = 0
        self.best: Optional[Dict[str, np.ndarray]] = None
        self.best_l2 = np.inf
        self.best_gain = -np.inf
        self.best_effort: Optional[Dict[str, np.ndarray]] = None
        self.source_step = source_step
        self.candidate: Optional[Dict[str, np.ndarray]] = None


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

    def _propose(self, walk: _BoundaryScene) -> Dict[str, np.ndarray]:
        state = walk.state
        candidate: Dict[str, np.ndarray] = {}
        if walk.phase == "init":
            for name in state.fields:
                low, high = state.boxes[name]
                drawn = state.rng.uniform(low, high,
                                          size=state.original[name].shape)
                candidate[name] = np.where(state.mask3, drawn,
                                           state.original[name])
            return candidate
        for name in state.fields:
            delta = walk.state.adv[name] - state.original[name]
            noise = state.rng.standard_normal(delta.shape) * state.mask3
            delta_norm = float(np.sqrt(np.sum(delta ** 2)))
            noise_norm = float(np.sqrt(np.sum(noise ** 2)))
            if noise_norm > 0.0:
                noise *= (self.config.boundary_noise_step * delta_norm
                          / noise_norm)
            contracted = (delta + noise) * (1.0 - walk.source_step)
            candidate[name] = np.clip(state.original[name] + contracted,
                                      *state.boxes[name])
        return candidate

    def _decide(self, walk: _BoundaryScene, predictions: np.ndarray,
                samples: List) -> None:
        """Judge one proposal from its defended view(s).

        Static mode sees one raw view.  Adaptive mode sees ``eot_samples``
        defended views (each a paid query): the proposal counts as
        adversarial when a strict majority of views satisfies the
        criterion, and the recorded gain is the mean over views.
        """
        config = self.config
        state = walk.state
        candidate = walk.candidate
        views = len(samples)
        state.queries += views
        state.iterations += 1
        votes = 0
        informative = 0
        gain_total = 0.0
        for prediction, sample in zip(predictions, samples):
            mask = state.sample_mask(sample)
            if not mask.any():
                # The defense sample dropped every attacked point: the view
                # carries no information about them.  It must NOT vote
                # "adversarial" (the empty-slice accuracy of 0.0 would
                # trivially satisfy Converge(·) and score gain 1.0 — the
                # same empty-equals-success degeneracy the defended
                # evaluation semantics rule out).
                continue
            informative += 1
            if state.is_adversarial(prediction, mask=mask):
                votes += 1
            gain_total += state.gain(prediction, mask=mask)
        # Acceptance demands a strict majority of ALL views (uninformative
        # views never endorse), but the gain averages over the informative
        # ones only — dividing by the full view count would rank proposals
        # by how many surviving views they drew, not by attack progress.
        adversarial = 2 * votes > views
        gain = gain_total / float(informative) if informative else 0.0
        candidate_l2 = state.perturbation_l2(candidate)
        state.history.append({
            "step": float(state.iterations), "loss": candidate_l2,
            "gain": gain, "queries": float(state.queries),
        })
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit("attack_step", engine=config.engine_name,
                        scene=state.scene_name, step=state.iterations,
                        loss=candidate_l2, gain=gain, queries=state.queries,
                        pnorm=candidate_l2)
        if gain > walk.best_gain:
            walk.best_gain = gain
            walk.best_effort = candidate
        if walk.phase == "init":
            walk.tries += 1
            if adversarial:
                state.adv = {name: value.copy()
                             for name, value in candidate.items()}
                walk.best, walk.best_l2 = candidate, candidate_l2
                state.converged = True
                walk.phase = "walk"
                if tracer.enabled:
                    tracer.emit("attack_converged",
                                engine=config.engine_name,
                                scene=state.scene_name,
                                step=state.iterations)
            elif walk.tries >= config.boundary_init_tries:
                state.active = False           # give up: report best effort
        else:
            if adversarial:
                state.adv = {name: value.copy()
                             for name, value in candidate.items()}
                if candidate_l2 < walk.best_l2:
                    walk.best, walk.best_l2 = candidate, candidate_l2
                walk.source_step = min(walk.source_step * 1.5, 0.9)
            else:
                walk.source_step = max(walk.source_step * 0.7, 1e-3)
        # Budget enforcement lives in _drive's affordability gate, which
        # re-checks every walk before the next proposal.
        walk.candidate = None

    def _drive(self, states: List[_SceneState], cache) -> None:
        walks = [_BoundaryScene(state, self.config.boundary_source_step)
                 for state in states]
        views = states[0].eot.samples if states[0].eot is not None else 1
        replayable = self._replayable(states)
        while True:
            # Affordability gate: a proposal costs one query per defended
            # view, and a walk that cannot pay for a full proposal stops
            # *before* proposing — recorded queries never exceed the budget
            # even when the budget is smaller than the view count.
            for walk in walks:
                if (walk.state.active
                        and walk.state.queries + views > self.config.query_budget):
                    walk.state.active = False
            pending = [walk for walk in walks if walk.state.active]
            if not pending:
                break
            cache.advance()
            # Proposals first, then (adaptive mode) the defense samples of
            # each proposal — drawn at the candidate itself, since the
            # decision is about the candidate's defended prediction.  The
            # per-scene stream order (proposal draws, then sample draws)
            # matches serial runs.
            clouds: List[Tuple[np.ndarray, np.ndarray]] = []
            samples_by_walk: List[List] = []
            for walk in pending:
                walk.candidate = self._propose(walk)
                scene_samples = walk.state.draw_eot(walk.candidate)
                samples_by_walk.append(scene_samples)
                coords, colors = walk.state.cloud(walk.candidate)
                for sample in scene_samples:
                    clouds.append(walk.state.defended(coords, colors, sample))
            logits = self._evaluate(
                clouds,
                plan_key=(("walk",) + tuple(w.state.scene_name for w in pending)
                          if replayable else None))
            predictions = np.argmax(logits, axis=-1)
            row = 0
            for walk, scene_samples in zip(pending, samples_by_walk):
                slice_width = len(scene_samples)
                self._decide(walk, predictions[row:row + slice_width],
                             scene_samples)
                row += slice_width
        for walk in walks:
            chosen = walk.best if walk.best is not None else walk.best_effort
            if chosen is not None:
                walk.state.adv = chosen


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
