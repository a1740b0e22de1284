"""The engine base class and the scene batch the batched loops run on.

:class:`AttackEngine` holds what every engine shares: the victim model, the
configuration, the ``Converge(·)`` check and ``run`` (a one-scene
``run_batched``).  :class:`SceneBatch` holds the per-scene rules of one
batched run, so every engine (bounded, unbounded, noise and the black-box
NES, SPSA and boundary walk) keeps only its update rules.  Every per-scene
decision reads only that scene's values and RNG stream, so each result is
bit-for-bit the one a one-scene run gives.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..models.base import SegmentationModel
from ..nn import Tensor
from ..telemetry import get_tracer
from .config import AttackConfig, AttackObjective, AttackResult
from .convergence import ConvergenceCheck
from .eot import averaged_eot_loss, build_eot, stack_samples
from .evaluation import build_result
from .minimp import MinImpactSelector
from .perturbation import PerturbationSpec, PreparedScene


class AttackEngine:
    """Base of every attack engine: model, configuration, ``Converge(·)``."""

    def __init__(self, model: SegmentationModel, config: AttackConfig) -> None:
        self.model = model
        self.config = config
        self.check = ConvergenceCheck(config, model.num_classes)

    def run(self, coords: np.ndarray, colors: np.ndarray, labels: np.ndarray,
            spec: PerturbationSpec, target_labels: Optional[np.ndarray] = None,
            rng: Optional[np.random.Generator] = None,
            scene_name: str = "") -> AttackResult:
        """Attack a single prepared cloud (all arrays in model space)."""
        return self.run_batched([PreparedScene(coords, colors, labels, spec,
                                               target_labels, rng,
                                               scene_name)])[0]

    def run_batched(self, scenes: Sequence[PreparedScene]) -> List[AttackResult]:
        """Attack several same-size prepared clouds; one result per scene."""
        raise NotImplementedError


class SceneBatch:
    """Same-size prepared scenes stacked for one engine loop.

    Holds the float64 clouds, int64 labels, target masks, each scene's RNG
    stream (seeded ``config.seed`` when it has none), the object-hiding
    target labels, the clean predictions, the min-impact selectors, the EOT
    sampler and the per-scene histories and flags: ``converged`` marks the
    scenes that met ``Converge(·)`` and ``active`` those still attacking;
    :meth:`mark_converged` sets the first, :meth:`stop` also clears the
    second.
    """

    def __init__(self, engine: AttackEngine,
                 scenes: Sequence[PreparedScene]) -> None:
        config = engine.config
        self.model = engine.model
        self.config = config
        self.check = engine.check
        self.scenes = scenes
        self.size = len(scenes)
        self.coords = np.stack([np.asarray(s.coords, dtype=np.float64)
                                for s in scenes])
        self.colors = np.stack([np.asarray(s.colors, dtype=np.float64)
                                for s in scenes])
        self.labels = np.stack([np.asarray(s.labels, dtype=np.int64)
                                for s in scenes])
        self.mask = np.stack([s.spec.target_mask for s in scenes])     # (B, N)
        self.rngs = [s.rng or np.random.default_rng(config.seed)
                     for s in scenes]
        self.spec = scenes[0].spec
        self.target_labels: Optional[np.ndarray] = None
        if config.objective is AttackObjective.OBJECT_HIDING:
            if any(s.target_labels is None for s in scenes):
                raise ValueError("object hiding requires target labels")
            self.target_labels = np.stack(
                [np.asarray(s.target_labels, dtype=np.int64) for s in scenes])
        self.targets = ([None] * self.size if self.target_labels is None
                        else list(self.target_labels))

        self.model.eval()
        # Clean predictions stay per-scene: they run under the float64
        # reporting policy and are content-memoised.
        self.clean_predictions = [
            self.model.predict_single(self.coords[b], self.colors[b])
            for b in range(self.size)]

        self.selectors = ([MinImpactSelector(self.mask[b],
                                             config.min_impact_points,
                                             config.min_impact_floor)
                           for b in range(self.size)]
                          if self.spec.field.perturbs_coordinate else None)
        self.histories: List[List[Dict[str, float]]] = [
            [] for _ in range(self.size)]
        self.converged = np.zeros(self.size, dtype=bool)
        self.active = np.ones(self.size, dtype=bool)
        self.iterations = np.zeros(self.size, dtype=np.int64)
        self.eot = build_eot(config)
        self.tracer = get_tracer()

    # ------------------------------------------------------------------ #
    def allowed(self) -> np.ndarray:
        """``(B, N)`` points each scene may still move in its coordinates."""
        if self.selectors is None:
            return self.mask
        return np.stack([selector.allowed_mask() for selector in self.selectors])

    def eot_loss(self, coords_t: Tensor, colors_t: Tensor, coords: np.ndarray,
                 colors: np.ndarray, wrap: Optional[Callable] = None):
        """Expectation over transformation for one step.

        Draws each scene's defense samples at ``(coords, colors)`` from its
        own stream, stacks the scenes' ``k``-th draws into one defended
        forward, and returns the per-scene mean adversarial loss with the
        raw-cloud logits: the forward the samples shared, else a reporting
        forward on ``(coords, colors)`` that carries no gradient.
        """
        draws = [self.eot.draw_all(coords[b], colors[b], self.rngs[b])
                 for b in range(self.size)]
        loss, raw_logits = averaged_eot_loss(
            self.model, self.config.objective, coords_t, colors_t,
            [stack_samples([draws[b][k] for b in range(self.size)])
             for k in range(self.eot.samples)],
            self.labels, self.target_labels,
            restrict=lambda stacked: stacked.restrict(self.mask),
            wrap=wrap, per_scene=True)
        if raw_logits is None:
            raw_logits = self.model(Tensor(coords), Tensor(colors))
        return loss, raw_logits

    def adversarial(self, b: int, prediction: np.ndarray,
                    mask: Optional[np.ndarray] = None) -> bool:
        """Whether scene ``b``'s ``(N,)`` prediction meets ``Converge(·)``.

        ``mask``, here and in :meth:`gain`, replaces the scene's target mask
        (an EOT view judges only its surviving points).
        """
        return self.check.converged(prediction, self.labels[b], self.targets[b],
                                    self.mask[b] if mask is None else mask)

    def converges(self, predictions: np.ndarray) -> np.ndarray:
        """Which active scenes meet ``Converge(·)`` at ``(B, N)`` predictions."""
        return np.array([self.active[b] and self.adversarial(b, predictions[b])
                         for b in range(self.size)])

    def gain(self, b: int, prediction: np.ndarray,
             mask: Optional[np.ndarray] = None) -> float:
        """Scene ``b``'s attack progress at its ``(N,)`` prediction."""
        return self.check.gain(prediction, self.labels[b], self.targets[b],
                               self.mask[b] if mask is None else mask)

    def log_step(self, b: int, step: int, entry: Dict[str, float],
                 pnorm: Callable[[], float], **fields) -> None:
        """Append scene ``b``'s history entry and trace its ``attack_step``.

        ``pnorm`` is called only while tracing is on; ``fields`` are further
        event fields (the black-box engines' paid ``queries``).
        """
        self.histories[b].append(entry)
        if self.tracer.enabled:
            self.tracer.emit("attack_step", engine=self.config.engine_name,
                             scene=self.scenes[b].scene_name, step=step,
                             loss=entry["loss"], gain=entry["gain"], **fields,
                             pnorm=pnorm())

    def mark_converged(self, b: int, step: int) -> None:
        """Scene ``b`` met ``Converge(·)`` at ``step``: flag and trace it.

        The scene stays active; the boundary walk keeps shrinking its
        perturbation inside the adversarial region.
        """
        self.converged[b] = True
        if self.tracer.enabled:
            self.tracer.emit("attack_converged", engine=self.config.engine_name,
                             scene=self.scenes[b].scene_name, step=step)

    def stop(self, b: int, step: int) -> None:
        """Scene ``b`` converged at ``step``: freeze it and trace the event."""
        self.mark_converged(b, step)
        self.active[b] = False

    def results(self, coords: np.ndarray, colors: np.ndarray,
                predictions: Optional[Sequence] = None) -> List[AttackResult]:
        """One evaluated :class:`AttackResult` per scene.

        ``predictions`` holds each scene's adversarial prediction when the
        engine already has what ``model.predict_single`` would return for
        it; the reporting forwards run otherwise.
        """
        return [
            build_result(
                model=self.model, config=self.config,
                original_coords=self.coords[b], original_colors=self.colors[b],
                adversarial_coords=coords[b], adversarial_colors=colors[b],
                labels=self.labels[b],
                target_labels=(None if self.target_labels is None
                               else self.target_labels[b]),
                target_mask=self.mask[b],
                iterations=int(self.iterations[b]),
                converged=bool(self.converged[b]),
                history=self.histories[b],
                scene_name=self.scenes[b].scene_name,
                clean_prediction=self.clean_predictions[b],
                adversarial_prediction=(None if predictions is None
                                        else predictions[b]),
            )
            for b in range(self.size)
        ]


__all__ = ["AttackEngine", "SceneBatch"]
