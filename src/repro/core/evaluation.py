"""Shared post-attack evaluation: builds :class:`AttackResult` from raw arrays."""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..metrics.attack_metrics import (
    AttackOutcome,
    out_of_band_accuracy,
    out_of_band_iou,
    point_success_rate,
)
from ..metrics.segmentation import accuracy_score, average_iou
from ..models.base import SegmentationModel
from .config import AttackConfig, AttackObjective, AttackResult
from .distance import l0_distance_numpy, l2_distance_numpy, linf_distance_numpy
from .perturbation import AttackField


def attacked_perturbation(config: AttackConfig,
                          coord_delta: np.ndarray,
                          color_delta: np.ndarray) -> np.ndarray:
    """The perturbation array of the attacked field(s), ``(N, channels)``."""
    if config.field is AttackField.COLOR:
        return color_delta
    if config.field is AttackField.COORDINATE:
        return coord_delta
    return np.concatenate([coord_delta, color_delta], axis=-1)


def build_result(model: SegmentationModel,
                 config: AttackConfig,
                 original_coords: np.ndarray,
                 original_colors: np.ndarray,
                 adversarial_coords: np.ndarray,
                 adversarial_colors: np.ndarray,
                 labels: np.ndarray,
                 target_labels: Optional[np.ndarray],
                 target_mask: np.ndarray,
                 iterations: int,
                 converged: bool,
                 history: Optional[List[Dict[str, float]]] = None,
                 scene_name: str = "",
                 clean_prediction: Optional[np.ndarray] = None,
                 adversarial_prediction: Optional[np.ndarray] = None
                 ) -> AttackResult:
    """Evaluate an adversarial cloud and wrap everything into an AttackResult.

    ``clean_prediction`` and ``adversarial_prediction`` skip their reporting
    forwards; a caller passes them only when they equal what
    ``model.predict_single`` returns for the cloud.
    """
    original_coords = np.asarray(original_coords, dtype=np.float64)
    original_colors = np.asarray(original_colors, dtype=np.float64)
    adversarial_coords = np.asarray(adversarial_coords, dtype=np.float64)
    adversarial_colors = np.asarray(adversarial_colors, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    target_mask = np.asarray(target_mask, dtype=bool)

    if clean_prediction is None:
        clean_prediction = model.predict_single(original_coords, original_colors)
    if adversarial_prediction is None:
        adversarial_prediction = model.predict_single(adversarial_coords,
                                                      adversarial_colors)

    coord_delta = adversarial_coords - original_coords
    color_delta = adversarial_colors - original_colors
    perturbation = attacked_perturbation(config, coord_delta, color_delta)

    clean_accuracy = accuracy_score(clean_prediction, labels)
    clean_aiou = average_iou(clean_prediction, labels, model.num_classes)
    accuracy = accuracy_score(adversarial_prediction, labels)
    aiou = average_iou(adversarial_prediction, labels, model.num_classes)

    psr = None
    oob_accuracy = None
    oob_aiou = None
    if config.objective is AttackObjective.OBJECT_HIDING and target_labels is not None:
        psr = point_success_rate(adversarial_prediction, target_labels, target_mask)
        oob_accuracy = out_of_band_accuracy(adversarial_prediction, labels, target_mask)
        oob_aiou = out_of_band_iou(adversarial_prediction, labels, target_mask,
                                   model.num_classes)

    outcome = AttackOutcome(
        distance=l2_distance_numpy(perturbation, target_mask),
        accuracy=accuracy,
        aiou=aiou,
        clean_accuracy=clean_accuracy,
        clean_aiou=clean_aiou,
        psr=psr,
        oob_accuracy=oob_accuracy,
        oob_aiou=oob_aiou,
        iterations=iterations,
        converged=converged,
    )

    return AttackResult(
        config=config,
        original_coords=original_coords,
        original_colors=original_colors,
        adversarial_coords=adversarial_coords,
        adversarial_colors=adversarial_colors,
        labels=labels,
        target_labels=None if target_labels is None else np.asarray(target_labels),
        target_mask=target_mask,
        clean_prediction=np.asarray(clean_prediction),
        adversarial_prediction=np.asarray(adversarial_prediction),
        l2=l2_distance_numpy(perturbation, target_mask),
        l0=l0_distance_numpy(perturbation),
        linf=linf_distance_numpy(perturbation),
        iterations=iterations,
        converged=converged,
        outcome=outcome,
        history=history or [],
        scene_name=scene_name,
    )


__all__ = ["build_result", "attacked_perturbation"]
