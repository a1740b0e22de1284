"""Defense interface: pre-processors applied to a cloud before the model.

Two defense subtypes share one interface:

* **removal** defenses inspect a (possibly adversarial) cloud and return the
  indices of the points they keep (SRS, SOR); the model is then evaluated on
  the filtered cloud.
* **transformation** defenses return *modified* coordinates/colours for the
  same point set (voxel quantization, random rotation, Gaussian jitter) —
  every point survives, so labels and indices are untouched.

Both kinds also describe themselves to the adaptive (defense-aware) attack
engines through :meth:`Defense.sample_eot`: one stochastic draw of the
defense as a canonical affine-plus-mask :class:`EOTSample` the engines can
fold into their optimisation loops (expectation over transformation).

Empty-defended-cloud semantics
------------------------------
A defense may drop *every* point (e.g. SRS with a removal count at the cloud
size).  The model is never called on a 0-point cloud: the evaluation reports
``accuracy = aiou = NaN`` (explicitly "no points survived" — not an attack
success, which the former ``accuracy_score`` empty → ``0.0`` convention
silently claimed).  Aggregators are expected to ``nanmean`` over scenes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..metrics.segmentation import accuracy_score, average_iou
from ..models.base import SegmentationModel


@dataclass
class EOTSample:
    """One stochastic draw of a defense, in canonical affine-plus-mask form.

    The adaptive attack engines consume this instead of the defense itself:
    the coordinate map is ``coords @ coord_matrix + coord_offset`` (either
    part optional), colours get an additive ``color_offset``, and removal
    defenses contribute a ``keep_mask`` restricting the adversarial loss to
    the points that survive.  Offsets may be computed from the *current*
    adversarial cloud (voxel quantization uses this as a straight-through
    estimator: the offset snaps values while the gradient passes unchanged).
    """

    coord_matrix: Optional[np.ndarray] = None   # (3, 3)
    coord_offset: Optional[np.ndarray] = None   # broadcastable to (N, 3)
    color_offset: Optional[np.ndarray] = None   # broadcastable to (N, 3)
    keep_mask: Optional[np.ndarray] = None      # (N,) bool

    def apply_arrays(self, coords: np.ndarray, colors: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Apply the transform parts to plain arrays (black-box engines)."""
        coords = np.asarray(coords, dtype=np.float64)
        colors = np.asarray(colors, dtype=np.float64)
        if self.coord_matrix is not None:
            coords = coords @ self.coord_matrix
        if self.coord_offset is not None:
            coords = coords + self.coord_offset
        if self.color_offset is not None:
            colors = colors + self.color_offset
        return coords, colors

    def restrict(self, mask: np.ndarray) -> np.ndarray:
        """The adversarial-loss mask restricted to the surviving points."""
        if self.keep_mask is None:
            return mask
        return np.asarray(mask, dtype=bool) & self.keep_mask


class Defense:
    """Base class for the anomaly-detection / input-sanitisation defenses.

    Subclasses implement :meth:`keep_indices` (``kind = "removal"``) or
    :meth:`transform` (``kind = "transformation"``); :meth:`apply` then
    works for either kind, one cloud per call.  ``stochastic`` marks
    defenses whose decision consumes randomness — these reseed from their
    own ``seed`` whenever no explicit generator is passed, so repeated
    evaluations are deterministic.
    """

    name = "defense"
    kind = "removal"            # "removal" | "transformation"
    stochastic = False

    # ------------------------------------------------------------------ #
    # Subtype hooks
    # ------------------------------------------------------------------ #
    def keep_indices(self, coords: np.ndarray, colors: np.ndarray,
                     rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Indices of the points that survive a removal defense."""
        raise NotImplementedError

    def transform(self, coords: np.ndarray, colors: np.ndarray,
                  rng: Optional[np.random.Generator] = None
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """Modified ``(coords, colors)`` of a transformation defense."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Shared API
    # ------------------------------------------------------------------ #
    def apply(self, coords: np.ndarray, colors: np.ndarray, labels: np.ndarray,
              rng: Optional[np.random.Generator] = None) -> Dict[str, np.ndarray]:
        """Run the defense on one cloud.

        Returns the defended ``coords`` / ``colors`` / ``labels`` plus
        ``indices`` — the surviving original indices (``arange(N)`` for
        transformation defenses, which never drop points).
        """
        coords = np.asarray(coords)
        colors = np.asarray(colors)
        labels = np.asarray(labels)
        if self.kind == "transformation":
            new_coords, new_colors = self.transform(coords, colors, rng=rng)
            return {"coords": np.asarray(new_coords),
                    "colors": np.asarray(new_colors),
                    "labels": labels,
                    "indices": np.arange(coords.shape[0], dtype=np.int64)}
        kept = self.keep_indices(coords, colors, rng=rng)
        return {"coords": coords[kept], "colors": colors[kept],
                "labels": labels[kept], "indices": kept}

    # ------------------------------------------------------------------ #
    # Adaptive-attack hook
    # ------------------------------------------------------------------ #
    def sample_eot(self, coords: np.ndarray, colors: np.ndarray,
                   rng: np.random.Generator) -> EOTSample:
        """One draw of the defense for the adaptive attacker.

        Removal defenses contribute a keep mask (the attacker restricts its
        loss to the points that would survive); transformation defenses
        override this with their affine / straight-through parameters.
        """
        kept = self.keep_indices(np.asarray(coords, dtype=np.float64),
                                 np.asarray(colors, dtype=np.float64), rng=rng)
        keep_mask = np.zeros(np.asarray(coords).shape[0], dtype=bool)
        keep_mask[kept] = True
        return EOTSample(keep_mask=keep_mask)


class ChainedDefense(Defense):
    """Apply several defenses in sequence (e.g. voxel quantization + SOR).

    ``apply`` threads the cloud through every member in order, composing
    the surviving ``indices`` back to the original cloud.  ``sample_eot``
    composes the members' affine transforms and intersects their keep
    masks, so the adaptive attacker sees the chain as one canonical sample.
    """

    kind = "chained"

    def __init__(self, defenses: Sequence[Defense]) -> None:
        members = list(defenses)
        if not members:
            raise ValueError("ChainedDefense requires at least one defense")
        self.defenses = members
        self.name = "+".join(defense.name for defense in members)
        self.stochastic = any(defense.stochastic for defense in members)

    def apply(self, coords: np.ndarray, colors: np.ndarray, labels: np.ndarray,
              rng: Optional[np.random.Generator] = None) -> Dict[str, np.ndarray]:
        coords = np.asarray(coords)
        colors = np.asarray(colors)
        labels = np.asarray(labels)
        indices = np.arange(coords.shape[0], dtype=np.int64)
        for defense in self.defenses:
            out = defense.apply(coords, colors, labels, rng=rng)
            indices = indices[out["indices"]]
            coords, colors, labels = out["coords"], out["colors"], out["labels"]
        return {"coords": coords, "colors": colors, "labels": labels,
                "indices": indices}

    def sample_eot(self, coords: np.ndarray, colors: np.ndarray,
                   rng: np.random.Generator) -> EOTSample:
        coords = np.asarray(coords, dtype=np.float64)
        colors = np.asarray(colors, dtype=np.float64)
        matrix: Optional[np.ndarray] = None
        coord_offset: Optional[np.ndarray] = None
        color_offset: Optional[np.ndarray] = None
        keep_mask: Optional[np.ndarray] = None
        for defense in self.defenses:
            sample = defense.sample_eot(coords, colors, rng)
            if sample.coord_matrix is not None:
                matrix = (sample.coord_matrix if matrix is None
                          else matrix @ sample.coord_matrix)
                if coord_offset is not None:
                    coord_offset = coord_offset @ sample.coord_matrix
            if sample.coord_offset is not None:
                coord_offset = (sample.coord_offset if coord_offset is None
                                else coord_offset + sample.coord_offset)
            if sample.color_offset is not None:
                color_offset = (sample.color_offset if color_offset is None
                                else color_offset + sample.color_offset)
            if sample.keep_mask is not None:
                keep_mask = (sample.keep_mask if keep_mask is None
                             else keep_mask & sample.keep_mask)
            # Later members judge the cloud *after* the earlier transforms
            # (removal members never shrink it here — the adaptive attacker
            # models removal as a loss mask, keeping N fixed).
            coords, colors = sample.apply_arrays(coords, colors)
        return EOTSample(coord_matrix=matrix, coord_offset=coord_offset,
                         color_offset=color_offset, keep_mask=keep_mask)


@dataclass
class DefenseEvaluation:
    """Model quality on a defended (filtered / transformed) cloud.

    ``accuracy`` and ``aiou`` are NaN when the defense dropped every point
    (see the module docstring); ``defended_points`` makes that state
    explicit for aggregators.
    """

    accuracy: float
    aiou: float
    points_removed: int
    defense_name: str
    defended_points: int = -1


def evaluate_with_defense(model: SegmentationModel, defense: Optional[Defense],
                          coords: np.ndarray, colors: np.ndarray,
                          labels: np.ndarray,
                          rng: Optional[np.random.Generator] = None) -> DefenseEvaluation:
    """Run ``defense`` (possibly none) then the model, and score the prediction.

    When the defense drops every point the model is *not* called and the
    scores are NaN — an empty defended cloud is "nothing left to segment",
    not a perfectly successful attack.
    """
    coords = np.asarray(coords)
    colors = np.asarray(colors)
    labels = np.asarray(labels)
    if defense is None:
        filtered = {"coords": coords, "colors": colors, "labels": labels,
                    "indices": np.arange(coords.shape[0])}
        name = "none"
    else:
        filtered = defense.apply(coords, colors, labels, rng=rng)
        name = defense.name
    defended_points = int(filtered["coords"].shape[0])
    if defended_points == 0:
        return DefenseEvaluation(
            accuracy=float("nan"), aiou=float("nan"),
            points_removed=int(coords.shape[0]), defense_name=name,
            defended_points=0,
        )
    prediction = model.predict_single(filtered["coords"], filtered["colors"])
    return DefenseEvaluation(
        accuracy=accuracy_score(prediction, filtered["labels"]),
        aiou=average_iou(prediction, filtered["labels"], model.num_classes),
        points_removed=coords.shape[0] - defended_points,
        defense_name=name,
        defended_points=defended_points,
    )


def evaluate_results_with_defense(model: SegmentationModel,
                                  defense: Optional[Defense],
                                  results: Sequence,
                                  rng: Optional[np.random.Generator] = None
                                  ) -> List[DefenseEvaluation]:
    """Score the adversarial clouds of a sequence of ``AttackResult``s."""
    return [evaluate_with_defense(model, defense, result.adversarial_coords,
                                  result.adversarial_colors, result.labels,
                                  rng=rng)
            for result in results]


__all__ = [
    "ChainedDefense",
    "Defense",
    "DefenseEvaluation",
    "EOTSample",
    "evaluate_with_defense",
    "evaluate_results_with_defense",
]
