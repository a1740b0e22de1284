"""Expectation-over-transformation (EOT) support for defense-aware attacks.

An adaptive attacker (``AttackConfig.adaptive``) knows the deployed defense
and optimises *through* it: every optimisation step draws ``eot_samples``
stochastic samples of the defense and averages the adversarial loss over
them.  This module turns a defense registry name into a
:class:`DefenseSampler` and applies its canonical
:class:`~repro.defenses.base.EOTSample` draws inside the autograd graph:

* affine coordinate maps (random rotation) become a ``matmul`` the gradient
  flows through exactly;
* additive offsets (Gaussian jitter, and voxel quantization's
  straight-through snap, whose offset is recomputed from the current cloud
  so the values quantize while the gradient passes unchanged) become adds;
* removal defenses (SRS, SOR) contribute a keep mask restricting the
  adversarial loss to the points that would survive — the point count stays
  fixed, which is what keeps serial and ``batch_scenes`` runs structurally
  identical.

Batched engines stack per-scene samples (drawn from each scene's own RNG
stream, in the same order as a serial run) into one batched sample, so the
defended forward stays a single stacked call and every scene's gradients are
bit-for-bit equal to its serial counterpart.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..defenses.base import EOTSample
from ..defenses.registry import build_defense
from ..nn import Tensor
from .config import AttackConfig
from .objectives import adversarial_loss


class DefenseSampler:
    """The adaptive attacker's handle on the configured defense."""

    def __init__(self, config: AttackConfig) -> None:
        if config.defense is None:
            raise ValueError("adaptive attacks require a defense name")
        self.defense = build_defense(config.defense, **dict(config.defense_kwargs))
        # A deterministic defense yields bit-identical samples, so averaging
        # K of them buys nothing: one sample gives the same gradient for a
        # K-th of the forwards — and, in black-box mode, of the *paid*
        # queries.  Only stochastic defenses use the full sample count.
        self.samples = (int(config.eot_samples) if self.defense.stochastic
                        else 1)

    def draw(self, coords: np.ndarray, colors: np.ndarray,
             rng: np.random.Generator) -> EOTSample:
        """One defense sample for the current adversarial cloud."""
        return self.defense.sample_eot(coords, colors, rng)

    def draw_all(self, coords: np.ndarray, colors: np.ndarray,
                 rng: np.random.Generator) -> List[EOTSample]:
        """This step's ``eot_samples`` draws, in stream order."""
        return [self.draw(coords, colors, rng) for _ in range(self.samples)]


def build_eot(config: AttackConfig) -> Optional[DefenseSampler]:
    """The sampler of an adaptive configuration, or ``None`` when static."""
    if not config.adaptive:
        return None
    return DefenseSampler(config)


def eot_refresh(eot: Optional[DefenseSampler]) -> Optional[int]:
    """The ``attack_compute`` neighbourhood-refresh override for ``eot``.

    Adaptive mode pins the cache to content-exact keying (as the black-box
    engines do): defended forwards move the coordinates every step and slot
    staleness would depend on how samples are packed into forwards.
    """
    return 1 if eot is not None else None


def stack_samples(samples: Sequence[EOTSample]) -> EOTSample:
    """Stack per-scene samples into one batched sample.

    All scenes of a cell run the same defense configuration, so each part
    is present for every scene or for none — mixing would force identity
    padding, whose extra float ops would break serial/batched bit-equality.
    """
    def _stack(parts):
        present = [part is not None for part in parts]
        if not any(present):
            return None
        if not all(present):
            raise ValueError("EOT samples of one batch must be homogeneous")
        return np.stack(parts)

    return EOTSample(
        coord_matrix=_stack([s.coord_matrix for s in samples]),
        coord_offset=_stack([s.coord_offset for s in samples]),
        color_offset=_stack([s.color_offset for s in samples]),
        keep_mask=_stack([s.keep_mask for s in samples]),
    )


def averaged_eot_loss(model, objective, coords_t: Tensor, colors_t: Tensor,
                      samples: Sequence[EOTSample], labels, target_labels,
                      restrict, wrap=None, per_scene: bool = False):
    """Mean adversarial loss over one step's defense samples, in-graph.

    The single implementation behind every white-box engine's EOT step
    (bounded and unbounded):

    * ``restrict(sample)`` shapes the loss mask of one (stacked) sample;
    * ``wrap`` is the call site's pass-through view added between the
      defended tensors and the model (an identity ``reshape`` in the
      unbounded engine, which keeps the model's gradient contributions
      summed in their own node) — applied *after* the sample transform;
    * tensor-neutral samples (keep-mask-only, e.g. SRS draws) share one
      forward: the loss is linear in the mask, so K identical forwards
      would waste (K-1)/K of the step's compute for the same gradients.

    Returns ``(loss, raw_logits)``: ``raw_logits`` is the shared raw-cloud
    forward when one was run (keep-mask-only samples) so the engine can
    reuse it for its convergence prediction instead of paying a second,
    value-identical forward; ``None`` otherwise.
    """
    wrap = wrap if wrap is not None else (lambda tensor: tensor)
    loss = None
    shared_logits = None
    for sample in samples:
        def_coords, def_colors = apply_sample_tensors(sample, coords_t,
                                                      colors_t)
        if def_coords is coords_t and def_colors is colors_t:
            if shared_logits is None:
                shared_logits = model(wrap(coords_t), wrap(colors_t))
            logits = shared_logits
        else:
            logits = model(wrap(def_coords), wrap(def_colors))
        term = adversarial_loss(objective, logits, labels, target_labels,
                                restrict(sample), per_scene=per_scene)
        loss = term if loss is None else loss + term
    return loss * (1.0 / len(samples)), shared_logits


def apply_sample_tensors(sample: EOTSample, coords_t: Tensor, colors_t: Tensor
                         ) -> Tuple[Tensor, Tensor]:
    """Apply one (possibly batched) sample inside the autograd graph.

    Constants are cast to the tensors' dtype so a float32 compute policy is
    not silently promoted to float64 by float64 sample parameters.
    """
    if sample.coord_matrix is not None:
        matrix = np.asarray(sample.coord_matrix, dtype=coords_t.data.dtype)
        coords_t = coords_t @ Tensor(matrix)
    if sample.coord_offset is not None:
        offset = np.asarray(sample.coord_offset, dtype=coords_t.data.dtype)
        coords_t = coords_t + Tensor(offset)
    if sample.color_offset is not None:
        offset = np.asarray(sample.color_offset, dtype=colors_t.data.dtype)
        colors_t = colors_t + Tensor(offset)
    return coords_t, colors_t


__all__ = ["DefenseSampler", "apply_sample_tensors", "averaged_eot_loss",
           "build_eot", "eot_refresh", "stack_samples"]
