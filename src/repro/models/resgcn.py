"""ResGCN (DeepGCN)-style segmentation model.

Reproduces the structure of ResGCN-28 (Li et al., ICCV 2019) at a
CPU-friendly scale: a stack of residual EdgeConv blocks on a (dilated) k-NN
graph built from the point coordinates, followed by a fusion block and a
per-point classification head.

The paper's pre-trained ResGCN-28 uses ``k = 16`` dilated neighbourhoods,
64 filters and 28 blocks; the defaults here are smaller but every knob is
exposed (``num_blocks=28`` reconstructs the full depth).

The k-NN aggregation over *coordinates* is exactly what makes coordinate
perturbations poorly controllable (Finding 1): moving one point changes the
neighbourhoods — and therefore the aggregated features — of many other
points.  The neighbourhood indices are recomputed from the (possibly
perturbed) input coordinates at every forward pass, reproducing that effect.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..accel import current_policy, neighborhoods
from ..geometry.transforms import RESGCN_SPEC
from ..nn import (
    Dropout,
    Linear,
    SharedMLP,
    Tensor,
    bias_bn_relu_max,
    concatenate,
    gather_points,
)
from .base import SegmentationModel, check_inputs


class EdgeConvBlock:
    """A residual EdgeConv block: ``x + max_j MLP([x_i, x_j - x_i])``."""

    def __init__(self, channels: int, rng: np.random.Generator) -> None:
        self.channels = channels
        self.mlp = SharedMLP([2 * channels, channels], rng=rng)

    def __call__(self, features: Tensor, neighbor_idx: np.ndarray) -> Tensor:
        linear, norm, _ = self.mlp.body.children_list
        if current_policy().is_exact:
            neighbours = gather_points(features, neighbor_idx)       # (B, N, K, C)
            center = features.expand_dims(2)                         # (B, N, 1, C)
            diff = neighbours - center
            center_tiled = center.broadcast_to(neighbours.shape)     # view, no copy
            pre = concatenate([center_tiled, diff], axis=-1) @ linear.weight
        else:
            # Fast-math: project before gathering.  With the first
            # Linear's weight split over the halves of the edge vector,
            # ``[x_i, x_j - x_i] @ W = x_j @ W_bot + x_i @ (W_top - W_bot)``:
            # both products run on the (B, N, C) points, the gathered
            # product and the sum are the only (B, N, K, C) tensors, and
            # neither the neighbour features nor their difference is built.
            top = linear.weight[: self.channels]
            bottom = linear.weight[self.channels:]
            pre = (gather_points(features @ bottom, neighbor_idx)
                   + (features @ (top - bottom)).expand_dims(2))
        # Bias, BatchNorm, ReLU and the neighbour max: one fused op when frozen.
        return features + bias_bn_relu_max(pre, linear.bias, norm, axis=2)


class ResGCNSeg(SegmentationModel):
    """Residual EdgeConv GCN for point-cloud semantic segmentation.

    Parameters
    ----------
    num_classes:
        Number of semantic classes.
    num_blocks:
        Number of residual EdgeConv blocks (28 in the paper's model).
    hidden:
        Number of filters per block (64 in the paper's model).
    k:
        Neighbourhood size of the k-NN graph (16 in the paper's model).
    max_dilation:
        Blocks use dilation ``1, 2, ..., max_dilation`` cyclically
        (DeepGCN's dilated k-NN).
    dropout:
        Drop-out rate before the classifier (0.3 in the paper's model).
    """

    model_name = "resgcn"

    def __init__(self, num_classes: int, num_blocks: int = 4, hidden: int = 32,
                 k: int = 16, max_dilation: int = 2, dropout: float = 0.3,
                 seed: int = 0) -> None:
        super().__init__(num_classes, RESGCN_SPEC)
        rng = np.random.default_rng(seed)
        self.num_blocks = num_blocks
        self.hidden = hidden
        self.k = k
        self.max_dilation = max(1, max_dilation)

        self.input_mlp = SharedMLP([6, hidden], rng=rng)
        self.blocks: List[EdgeConvBlock] = [
            EdgeConvBlock(hidden, rng) for _ in range(num_blocks)
        ]
        self._block_modules = [block.mlp for block in self.blocks]
        # Fusion of all block outputs (dense connectivity in DeepGCN style).
        self.fusion = SharedMLP([hidden * (num_blocks + 1), hidden], rng=rng)
        self.head_dropout = Dropout(dropout, seed=seed)
        self.classifier = Linear(hidden, num_classes, rng=rng)

    # ------------------------------------------------------------------ #
    def _neighbor_indices(self, coords: np.ndarray) -> List[np.ndarray]:
        """Per-dilation k-NN index tables ``(B, N, k)`` built from coordinates.

        All dilations are served by the active neighbourhood cache, which
        also shares one kd-tree per cloud across every dilation's query.
        """
        batch = coords.shape[0]
        cache = neighborhoods()
        tables = []
        for dilation in range(1, self.max_dilation + 1):
            idx = np.stack([
                cache.dilated(coords[b], self.k, dilation=dilation,
                              slot=("resgcn", id(self), b))
                for b in range(batch)
            ])
            tables.append(idx)
        return tables

    def forward(self, coords: Tensor, colors: Tensor) -> Tensor:
        check_inputs(coords, colors)
        neighbor_tables = self._neighbor_indices(coords.data)

        features = self.input_mlp(concatenate([colors, coords], axis=-1))
        skips = [features]
        for i, block in enumerate(self.blocks):
            table = neighbor_tables[i % len(neighbor_tables)]
            features = block(features, table)
            skips.append(features)

        fused = self.fusion(concatenate(skips, axis=-1))
        fused = self.head_dropout(fused)
        return self.classifier(fused)


__all__ = ["ResGCNSeg", "EdgeConvBlock"]
