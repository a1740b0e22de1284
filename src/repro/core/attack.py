"""Attack orchestration: run any of the 8 configurations on raw scenes.

:func:`run_attack` is the main public entry point of the framework.  It
normalises a scene for the victim model, derives the target point set and
target labels from the configuration, dispatches to the configured attack
engine, and returns a fully evaluated :class:`AttackResult`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datasets.base import PointCloudScene
from ..datasets.splits import prepare_scene
from ..models.base import SegmentationModel
from .blackbox import build_blackbox_engine
from .config import (AttackConfig, AttackMethod, AttackMode, AttackObjective,
                     AttackResult)
from .norm_bounded import NormBoundedAttack
from .norm_unbounded import NormUnboundedAttack
from .perturbation import (PerturbationSpec, PreparedScene, class_mask,
                           full_mask)
from .random_noise import RandomNoiseBaseline


def build_perturbation_spec(config: AttackConfig, labels: np.ndarray,
                            model: SegmentationModel) -> PerturbationSpec:
    """Derive the attacked point set and value boxes from the configuration."""
    labels = np.asarray(labels)
    if config.objective is AttackObjective.OBJECT_HIDING:
        if config.source_class is None:
            raise ValueError("object hiding requires source_class")
        mask = class_mask(labels, config.source_class)
        if not mask.any():
            raise ValueError(
                f"scene contains no points of source class {config.source_class}"
            )
    else:
        mask = full_mask(labels.shape[0])
    return PerturbationSpec.for_model(config.field, mask, model.spec)


def build_target_labels(config: AttackConfig, labels: np.ndarray) -> Optional[np.ndarray]:
    """Per-point target labels ``Y_T`` for the object-hiding attack."""
    if config.objective is not AttackObjective.OBJECT_HIDING:
        return None
    return np.full_like(np.asarray(labels), config.target_class)


def _build_engine(model: SegmentationModel, config: AttackConfig):
    # The random-noise baseline needs no model access, so it is the same
    # under every threat model and wins the dispatch regardless of
    # ``attack_mode`` (tables keep their baseline rows in black-box runs).
    if config.method is AttackMethod.RANDOM_NOISE:
        return RandomNoiseBaseline(model, config)
    if config.attack_mode is not AttackMode.WHITEBOX:
        return build_blackbox_engine(model, config)
    if config.method is AttackMethod.NORM_BOUNDED:
        return NormBoundedAttack(model, config)
    return NormUnboundedAttack(model, config)


def run_attack_on_arrays(model: SegmentationModel, config: AttackConfig,
                         coords: np.ndarray, colors: np.ndarray,
                         labels: np.ndarray,
                         rng: Optional[np.random.Generator] = None,
                         scene_name: str = "",
                         target_l2: Optional[float] = None) -> AttackResult:
    """Attack a cloud already normalised to the victim model's input space."""
    spec = build_perturbation_spec(config, labels, model)
    target_labels = build_target_labels(config, labels)
    engine = _build_engine(model, config)
    kwargs = {}
    if config.method is AttackMethod.RANDOM_NOISE and target_l2 is not None:
        kwargs["target_l2"] = target_l2
    return engine.run(coords, colors, labels, spec, target_labels=target_labels,
                      rng=rng, scene_name=scene_name, **kwargs)


def run_attack(model: SegmentationModel, scene: PointCloudScene,
               config: AttackConfig,
               rng: Optional[np.random.Generator] = None,
               num_points: Optional[int] = None,
               target_l2: Optional[float] = None) -> AttackResult:
    """Attack a raw scene with the victim model's own pre-processing.

    Parameters
    ----------
    model:
        The victim segmentation model (white-box access).
    scene:
        Raw scene (metric coordinates, 0–255 colours).
    config:
        One of the framework's attack configurations.
    num_points:
        Optional resize of the cloud (RandLA-Net style duplication/selection).
    target_l2:
        For the random-noise baseline: the L2 budget to match.
    """
    rng = rng or np.random.default_rng(config.seed)
    prepared = prepare_scene(scene, model.spec, num_points=num_points, rng=rng)
    return run_attack_on_arrays(
        model, config, prepared.coords, prepared.colors, prepared.labels,
        rng=rng, scene_name=scene.name, target_l2=target_l2,
    )


def _prepare_for_batch(model: SegmentationModel, scene: PointCloudScene,
                       config: AttackConfig, scene_rng: np.random.Generator,
                       num_points: Optional[int]) -> PreparedScene:
    """Mirror ``run_attack``'s pre-engine work for one scene.

    The RNG consumption order matches ``run_attack`` exactly:
    ``prepare_scene`` draws first, and the same generator object is then
    handed to the engine for its random starts / plateau restarts.  Raises
    ``ValueError`` when an object-hiding scene lacks the source class.
    """
    prepared = prepare_scene(scene, model.spec, num_points=num_points,
                             rng=scene_rng)
    spec = build_perturbation_spec(config, prepared.labels, model)
    target_labels = build_target_labels(config, prepared.labels)
    return PreparedScene(prepared.coords, prepared.colors, prepared.labels,
                         spec, target_labels, scene_rng, scene.name)


def run_attack_batch(model: SegmentationModel, scenes: Sequence[PointCloudScene],
                     config: AttackConfig,
                     num_points: Optional[int] = None,
                     skip_missing_source: bool = True,
                     start_index: int = 0) -> List[AttackResult]:
    """Attack several scenes and collect the results.

    Scenes that do not contain the object-hiding source class are skipped
    when ``skip_missing_source`` is true (mirroring the paper's selection of
    clouds that contain enough points of the source class).

    Each scene gets an independent generator seeded by ``(config.seed,
    start_index + position)`` rather than a single stream threaded through
    the loop, so a scene's result depends only on its index — not on how
    many earlier scenes were skipped.  To shard one logical batch across
    workers without changing any numbers, pass each shard's global offset
    as ``start_index`` (e.g. shard ``scenes[k:]`` with ``start_index=k``).

    Same-size scenes are coalesced into groups of up to
    ``config.batch_scenes`` and each group runs through the engine's batched
    loop — one forward/backward per step for the whole group.  Per-scene
    seeds, masks and early stopping are preserved, so the returned results
    are identical at any ``batch_scenes``, in the same order.  Only the
    preparation may skip a scene; an error raised inside an engine loop
    always propagates.
    """
    prepared: List[Tuple[int, PreparedScene]] = []
    for scene_index, scene in enumerate(scenes, start=start_index):
        scene_rng = np.random.default_rng([config.seed, scene_index])
        try:
            prepared.append((scene_index,
                             _prepare_for_batch(model, scene, config,
                                                scene_rng, num_points)))
        except ValueError:
            if not skip_missing_source:
                raise
    return _dispatch_batched(model, config, prepared)


def run_attack_group(model: SegmentationModel,
                     scenes: Sequence[PointCloudScene],
                     config: AttackConfig,
                     num_points: Optional[int] = None) -> List[AttackResult]:
    """Attack each scene exactly as a bare ``run_attack`` call would.

    Unlike :func:`run_attack_batch`, every scene draws from a fresh
    generator seeded ``config.seed`` (the ``run_attack`` default), so this
    is a drop-in replacement for ``[run_attack(model, s, config) for s in
    scenes]`` — used by the defense and transferability cells — that
    coalesces same-size scenes into batched engine loops of up to
    ``config.batch_scenes``, without changing a single number.
    """
    prepared = [
        (position,
         _prepare_for_batch(model, scene, config,
                            np.random.default_rng(config.seed), num_points))
        for position, scene in enumerate(scenes)
    ]
    return _dispatch_batched(model, config, prepared)


def _dispatch_batched(model: SegmentationModel, config: AttackConfig,
                      prepared: List[Tuple[int, PreparedScene]]
                      ) -> List[AttackResult]:
    """Group prepared scenes by size and run each chunk batched, in order.

    Same-size scenes share batched loops of up to ``config.batch_scenes``;
    odd sizes fall into their own (possibly singleton) groups.  Results are
    re-emitted in scene order.
    """
    batch_scenes = config.batch_scenes
    groups: Dict[int, List[Tuple[int, PreparedScene]]] = {}
    for position, item in prepared:
        groups.setdefault(item.num_points, []).append((position, item))

    engine = _build_engine(model, config)
    by_position: Dict[int, AttackResult] = {}
    for members in groups.values():
        for offset in range(0, len(members), batch_scenes):
            chunk = members[offset:offset + batch_scenes]
            outcomes = engine.run_batched([item for _, item in chunk])
            for (position, _), outcome in zip(chunk, outcomes):
                by_position[position] = outcome
    return [by_position[position] for position in sorted(by_position)]


__all__ = [
    "PreparedScene",
    "run_attack",
    "run_attack_batch",
    "run_attack_group",
    "run_attack_on_arrays",
    "build_perturbation_spec",
    "build_target_labels",
]
