"""Point Cloud Transformer (PCT)-style segmentation model.

Section VI of the paper argues the attacks should extend to any
gradient-producing architecture and names the Point Cloud Transformer
(Guo et al., 2021) as the obvious next target.  This module implements a
small PCT-style network — per-point embedding, a stack of self-attention
blocks over the whole cloud with a learned positional encoding, and a
per-point classification head — so that claim can be tested inside this
repository (see ``repro.experiments.extensions``).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..geometry.transforms import NormalizationSpec
from ..nn import Linear, SharedMLP, Tensor, attention, concatenate
from .base import SegmentationModel, check_inputs

PCT_SPEC = NormalizationSpec(coord_low=0.0, coord_high=1.0)


class SelfAttentionBlock:
    """A single-head self-attention block with a residual connection."""

    def __init__(self, channels: int, rng: np.random.Generator) -> None:
        self.query = Linear(channels, channels, rng=rng)
        self.key = Linear(channels, channels, rng=rng)
        self.value = Linear(channels, channels, rng=rng)
        self.output = SharedMLP([channels, channels], rng=rng)
        self.scale = 1.0 / np.sqrt(channels)

    def __call__(self, features: Tensor) -> Tensor:
        attended = attention(self.query(features), self.key(features),
                             self.value(features), scale=self.scale)
        return features + self.output(attended)


class PointTransformerSeg(SegmentationModel):
    """A compact PCT-style semantic-segmentation network.

    Parameters
    ----------
    num_classes:
        Number of semantic classes.
    hidden:
        Embedding width used throughout the attention stack.
    num_blocks:
        Number of self-attention blocks.
    """

    model_name = "pct"

    def __init__(self, num_classes: int, hidden: int = 32, num_blocks: int = 2,
                 seed: int = 0, **_ignored) -> None:
        super().__init__(num_classes, PCT_SPEC)
        rng = np.random.default_rng(seed)
        self.hidden = hidden
        self.num_blocks = num_blocks
        # The positional encoder embeds raw coordinates; the feature branch
        # embeds colours.  Their concatenation feeds the attention stack.
        self.position_embedding = SharedMLP([3, hidden // 2], rng=rng)
        self.color_embedding = SharedMLP([3, hidden // 2], rng=rng)
        self.blocks: List[SelfAttentionBlock] = [
            SelfAttentionBlock(hidden, rng) for _ in range(num_blocks)
        ]
        self._block_modules = [
            module for block in self.blocks
            for module in (block.query, block.key, block.value, block.output)
        ]
        self.head = SharedMLP([hidden * (num_blocks + 1), hidden], rng=rng)
        self.classifier = Linear(hidden, num_classes, rng=rng)

    def forward(self, coords: Tensor, colors: Tensor) -> Tensor:
        check_inputs(coords, colors)
        embedded = concatenate([
            self.position_embedding(coords),
            self.color_embedding(colors),
        ], axis=-1)
        skips = [embedded]
        features = embedded
        for block in self.blocks:
            features = block(features)
            skips.append(features)
        fused = self.head(concatenate(skips, axis=-1))
        return self.classifier(fused)


__all__ = ["PointTransformerSeg", "SelfAttentionBlock", "PCT_SPEC"]
