"""Common neural-network layers used by the PCSS models."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..accel.policy import compute_dtype, current_policy
from . import init
from .functional import dropout
from .module import Module, Parameter
from .ops import OPS
from .tensor import Tensor, _apply


class Linear(Module):
    """Affine transformation applied to the last dimension of the input."""

    def __init__(self, in_features: int, out_features: int,
                 bias: bool = True, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class BatchNorm(Module):
    """Batch normalisation over all dimensions except the last (channel) one.

    During training, batch statistics are used and running statistics are
    updated with momentum.  During evaluation (the regime in which attacks
    run), the frozen running statistics are used so the model is a fixed,
    deterministic, differentiable function of its input.
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(init.ones((num_features,)))
        self.beta = Parameter(init.zeros((num_features,)))
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self._buffers = ("running_mean", "running_var")
        self._eval_cache = None

    def _eval_stats(self):
        """Frozen mean/std tensors, rebuilt only when the buffers change.

        The running buffers are replaced (never mutated in place) by both
        the training update and ``load_state_dict``, so identity against
        the *retained* buffer references is a sound cache key — holding the
        references also pins the arrays, so a freed buffer's address can
        never be recycled into a false match.  Saves a sqrt and two tensor
        wraps on every evaluation forward — the regime every attack step
        runs in.
        """
        cache = self._eval_cache
        if (cache is None or cache[0] is not self.running_mean
                or cache[1] is not self.running_var
                or cache[2] != compute_dtype()):
            mean = Tensor(self.running_mean)
            std = Tensor(np.sqrt(self.running_var + self.eps))
            cache = (self.running_mean, self.running_var, compute_dtype(),
                     mean, std)
            self._eval_cache = cache
        return cache[3], cache[4]

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            axes = tuple(range(x.ndim - 1))
            batch_mean = x.data.mean(axis=axes)
            batch_var = x.data.var(axis=axes)
            self.running_mean = ((1 - self.momentum) * self.running_mean
                                 + self.momentum * batch_mean)
            self.running_var = ((1 - self.momentum) * self.running_var
                                + self.momentum * batch_var)
            mean = x.mean(axis=axes, keepdims=True)
            var = ((x - mean) * (x - mean)).mean(axis=axes, keepdims=True)
            normalized = (x - mean) / (var + self.eps).sqrt()
        else:
            mean, std = self._eval_stats()
            if not current_policy().is_exact:
                # Fast-math: fold normalisation and the affine into a single
                # channel-wise scale/shift — half the full-size elementwise
                # traffic and a one-product backward.  Exactness mode keeps
                # the seed's op-by-op arithmetic below.
                scale = self.gamma / std
                shift = self.beta - mean * scale
                return x * scale + shift
            normalized = (x - mean) / std
        return normalized * self.gamma + self.beta

    def eval_steps(self) -> tuple:
        """The evaluation-mode :meth:`forward` as ``(ufunc, constant)`` steps.

        Applied in order to the input, the steps round exactly as the
        forward's tensor ops do; the constants come from the same tensor
        expressions.  Fused kernels take these in place of the op-by-op
        chain.
        """
        mean, std = self._eval_stats()
        if not current_policy().is_exact:
            scale = self.gamma / std
            shift = self.beta - mean * scale
            return ((np.multiply, scale.data), (np.add, shift.data))
        return ((np.add, (-mean).data), (np.divide, std.data),
                (np.multiply, self.gamma.data), (np.add, self.beta.data))


def bias_bn_relu_max(pre: Tensor, bias: Optional[Tensor], norm: BatchNorm,
                     axis: int) -> Tensor:
    """``relu(norm(pre + bias)).max(axis)``: a pooled Linear's tail.

    With ``norm`` in evaluation mode and ``bias``, ``gamma`` and ``beta``
    frozen (attacks and reporting forwards), the chain runs as the fused
    ``OPS["bn_relu_max"]`` op, bit-for-bit equal to the composite ops
    that run otherwise (training-mode BatchNorm, trainable parameters).
    """
    if norm.training or any(param is not None and param.requires_grad
                            for param in (bias, norm.gamma, norm.beta)):
        out = pre if bias is None else pre + bias
        return norm(out).relu().max(axis=axis)
    steps = () if bias is None else ((np.add, bias.data),)
    return _apply(OPS["bn_relu_max"], (pre,),
                  {"axis": axis, "steps": steps + norm.eval_steps()})


class Dropout(Module):
    """Inverted dropout layer (identity in evaluation mode)."""

    def __init__(self, rate: float = 0.5, seed: int = 0) -> None:
        super().__init__()
        self.rate = rate
        self._rng = np.random.default_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        return dropout(x, self.rate, self._rng, self.training)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.2) -> None:
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class Sequential(Module):
    """Run a list of modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.children_list = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.children_list:
            x = module(x)
        return x

    def __iter__(self):
        return iter(self.children_list)

    def __len__(self) -> int:
        return len(self.children_list)


class SharedMLP(Module):
    """A per-point MLP: Linear + BatchNorm + ReLU stacks applied pointwise.

    This is the ubiquitous building block of point-cloud networks
    (PointNet/PointNet++/RandLA-Net all describe their layers as "shared MLPs").
    """

    def __init__(
        self,
        channels: Sequence[int],
        batch_norm: bool = True,
        final_activation: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        layers: List[Module] = []
        for i in range(len(channels) - 1):
            layers.append(Linear(channels[i], channels[i + 1], rng=rng))
            is_last = i == len(channels) - 2
            if batch_norm:
                layers.append(BatchNorm(channels[i + 1]))
            if final_activation or not is_last:
                layers.append(ReLU())
        self.body = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.body(x)

    def max_pool(self, x: Tensor, axis: int) -> Tensor:
        """``self(x).max(axis)``, the last layer's tail through
        :func:`bias_bn_relu_max` (needs ``batch_norm`` and a final
        activation)."""
        *head, linear, norm, _ = self.body.children_list
        for module in head:
            x = module(x)
        return bias_bn_relu_max(x @ linear.weight, linear.bias, norm, axis)


__all__ = [
    "Linear",
    "BatchNorm",
    "bias_bn_relu_max",
    "Dropout",
    "ReLU",
    "LeakyReLU",
    "Sequential",
    "SharedMLP",
]
