"""Finite-difference gradcheck of every registry VJP, in float64.

Each ``OPS`` entry with a VJP gets one case.  The op is built through the
public API (Tensor methods, ``softmax``, ``bias_bn_relu_max``, ...), so its
params are exactly the ones models pass.  Its input gradients come from
``Tensor.backward`` under a random upstream gradient; the reference is the
central finite difference of ``sum(op(inputs) * upstream)``, computed with
``tests/test_tensor.py::numeric_gradient``.

Inputs sit away from kinks — ReLU and ``abs`` at zero, ties in ``max`` and
``maximum``, the ``clip`` bounds, the ReLU inside ``bn_relu_max`` — so the
difference quotient is smooth.  Binary elementwise ops use broadcasting
pairs such as ``(5, 25, 15)`` × ``(5, 1, 1)``.  Every case also checks that
its op really ran, and the case table must cover the whole registry, so a
new op cannot skip the check.  Each case seeds its inputs from its own name,
so adding an op moves no other case's inputs.

A second pass lets each input of a multi-input op alone require a gradient,
so every conditional save rule runs (``matmul`` with a frozen right operand
keeps only that operand): a value the rule dropped reaches the VJP as a
``Standin``, which raises on any use of its values.
"""

from __future__ import annotations

import numpy as np
import pytest
from test_tensor import numeric_gradient

from repro.accel import ComputePolicy, use_policy
from repro.nn import (OPS, BatchNorm, Tensor, attention, bias_bn_relu_max,
                      concatenate, gather_points, maximum, softmax, stack,
                      where)
from repro.nn.graph import GraphRecorder, recording
from repro.nn.ops import Standin

BROADCAST_PAIR = ((5, 25, 15), (5, 1, 1))


def _normal(rng, shape):
    return rng.normal(size=shape)


def _positive(rng, shape):
    return rng.uniform(0.5, 2.0, size=shape)


def _distinct(rng, shape, step=0.05):
    """Distinct values ``step`` apart, none closer than ``step / 2`` to 0."""
    size = int(np.prod(shape))
    return (rng.permutation(size) - size / 2 + 0.5).reshape(shape) * step


def _bn_tail(rng):
    """``bias_bn_relu_max`` with inputs whose pre-ReLU values are distinct
    and away from zero: the input is solved back from chosen values through
    the per-channel affine map of the bias and frozen BatchNorm."""
    channels = 4
    norm = BatchNorm(channels)
    norm.running_mean = rng.normal(size=channels)
    norm.running_var = rng.uniform(0.5, 2.0, size=channels)
    norm.gamma.data = rng.uniform(0.5, 1.5, size=channels) * rng.choice(
        [-1.0, 1.0], size=channels)
    norm.beta.data = rng.normal(size=channels)
    norm.eval()
    for param in (norm.gamma, norm.beta):
        param.requires_grad = False
    bias = Tensor(rng.normal(size=channels))
    scale = norm.gamma.data / np.sqrt(norm.running_var + norm.eps)
    shift = norm.beta.data + (bias.data - norm.running_mean) * scale
    chosen = _distinct(rng, (2, 5, 3, channels))
    return ((lambda x: bias_bn_relu_max(x, bias, norm, axis=2)),
            [(chosen - shift) / scale])


def _case(build, *makers):
    """A case from a builder and one ``maker(rng)`` per input."""
    return lambda rng: (build, [make(rng) for make in makers])


def _shaped(make, shape):
    return lambda rng: make(rng, shape)


_A, _B = BROADCAST_PAIR
_INDEX = np.array([[[0, 3], [2, 2], [5, 1]], [[4, 4], [0, 1], [3, 5]]])
_COND = np.random.default_rng(3).random((4, 6, 5)) > 0.5

#: Registry op name -> ``rng -> (build, input arrays)``.
CASES = {
    "add": _case(lambda a, b: a + b,
                 _shaped(_normal, _A), _shaped(_normal, _B)),
    "neg": _case(lambda a: -a, _shaped(_normal, (4, 5))),
    "mul": _case(lambda a, b: a * b,
                 _shaped(_normal, _A), _shaped(_normal, _B)),
    "div": _case(lambda a, b: a / b,
                 _shaped(_normal, _A), _shaped(_positive, _B)),
    "pow": _case(lambda a: a ** 2.5, _shaped(_positive, (4, 5))),
    "matmul": _case(lambda a, b: a @ b,
                    _shaped(_normal, (5, 25, 15)), _shaped(_normal, (15, 6))),
    "exp": _case(lambda a: a.exp(), _shaped(_normal, (4, 5))),
    "log": _case(lambda a: a.log(), _shaped(_positive, (4, 5))),
    "sqrt": _case(lambda a: a.sqrt(), _shaped(_positive, (4, 5))),
    "tanh": _case(lambda a: a.tanh(), _shaped(_normal, (4, 5))),
    "sigmoid": _case(lambda a: a.sigmoid(), _shaped(_normal, (4, 5))),
    "relu": _case(lambda a: a.relu(), _shaped(_distinct, (4, 5))),
    "leaky_relu": _case(lambda a: a.leaky_relu(0.2),
                        _shaped(_distinct, (4, 5))),
    "abs": _case(lambda a: a.abs(), _shaped(_distinct, (4, 5))),
    "clip": _case(lambda a: a.clip(-0.5, 0.5), _shaped(_distinct, (4, 6))),
    "sum": _case(lambda a: a.sum(axis=(0, 2), keepdims=True),
                 _shaped(_normal, (3, 4, 5))),
    "max": _case(lambda a: a.max(axis=1), _shaped(_distinct, (3, 4, 5))),
    "reshape": _case(lambda a: a.reshape(6, 10), _shaped(_normal, (3, 4, 5))),
    "transpose": _case(lambda a: a.transpose(2, 0, 1),
                       _shaped(_normal, (3, 4, 5))),
    "broadcast_to": _case(lambda a: a.broadcast_to((3, 6, 5)),
                          _shaped(_normal, (3, 1, 5))),
    "expand_dims": _case(lambda a: a.expand_dims(1), _shaped(_normal, (3, 5))),
    "squeeze": _case(lambda a: a.squeeze(1), _shaped(_normal, (3, 1, 5))),
    # A repeated fancy index: its VJP must accumulate, not overwrite.
    "getitem": _case(lambda a: a[1:, np.array([0, 2, 2, 4])],
                     _shaped(_normal, (3, 5, 2))),
    "concatenate": _case(lambda a, b: concatenate([a, b], axis=1),
                         _shaped(_normal, (2, 3, 4)),
                         _shaped(_normal, (2, 5, 4))),
    "stack": _case(lambda a, b: stack([a, b], axis=1),
                   _shaped(_normal, (3, 4)), _shaped(_normal, (3, 4))),
    "maximum": _case(lambda a, b: maximum(a, b),
                     _shaped(_distinct, (4, 6, 5)),
                     # Offset from the first input's grid: no ties.
                     lambda rng: _distinct(rng, (4, 1, 5)) + 0.0125),
    "where": _case(lambda a, b: where(_COND, a, b),
                   _shaped(_normal, (4, 6, 5)), _shaped(_normal, (4, 1, 5))),
    # Repeated neighbours: gathered rows share one source point.
    "gather_points": _case(lambda f: gather_points(f, _INDEX),
                           _shaped(_normal, (2, 6, 3))),
    "softmax": _case(lambda a: softmax(a, axis=2, scale=0.5),
                     _shaped(_normal, (2, 5, 4, 3))),
    "bn_relu_max": _bn_tail,
    "attention": _case(lambda q, k, v: attention(q, k, v, scale=0.5),
                       _shaped(_normal, (2, 5, 3)), _shaped(_normal, (2, 5, 3)),
                       _shaped(_normal, (2, 5, 3))),
}


def test_cases_cover_every_op_with_a_vjp():
    assert set(CASES) == {name for name, op in OPS.items()
                          if op.vjp is not None}


@pytest.mark.parametrize("name", sorted(CASES))
def test_vjp_matches_finite_differences(name):
    rng = np.random.default_rng(list(name.encode()))
    check_vjp(name, rng)


def test_standin_carries_metadata_and_refuses_values():
    array = np.ones((2, 3), dtype=np.float32)
    standin = Standin(array)
    assert (standin.shape, standin.dtype, standin.ndim) == ((2, 3), np.float32, 2)
    for use in (np.asarray, np.zeros_like, np.exp, lambda s: s * 2.0,
                lambda s: array * s, lambda s: array @ s, lambda s: s ** 2,
                lambda s: array == s, lambda s: np.swapaxes(s, 0, 1), bool):
        with pytest.raises(TypeError):
            use(standin)


def _single_input_cases():
    for name in sorted(CASES):
        _, inputs = CASES[name](np.random.default_rng(0))
        if len(inputs) > 1:
            yield from ((name, i) for i in range(len(inputs)))


@pytest.mark.parametrize("name,only", list(_single_input_cases()))
def test_vjp_with_one_input_requiring_grad(name, only):
    rng = np.random.default_rng(list(name.encode()))
    check_vjp(name, rng, only=only)


def test_closed_form_softmax_vjp_matches_finite_differences():
    """The fast policy's softmax VJP, ``scale · y · (g − Σ g·y)``, checked
    in float64 under a non-exact policy."""
    with use_policy(ComputePolicy(dtype=np.float64, neighbor_refresh=5)):
        nodes = check_vjp("softmax", np.random.default_rng(0))
    assert all(node.params["closed_form"] for node in nodes
               if node.op.name == "softmax")


def check_vjp(name, rng, only=None):
    """Case ``name``'s input gradients against central differences;
    returns the recorded graph nodes.  With ``only`` set, that input alone
    requires a gradient."""
    build, inputs = CASES[name](rng)
    assert all(x.dtype == np.float64 for x in inputs)
    tensors = [Tensor(x.copy(), requires_grad=only in (None, i))
               for i, x in enumerate(inputs)]
    recorder = GraphRecorder({f"x{i}": t for i, t in enumerate(tensors)})
    with recording(recorder):
        out = build(*tensors)
    assert name in {node.op.name for node in recorder.order}
    upstream = rng.normal(size=out.shape)
    (out * Tensor(upstream)).sum().backward()

    for i, x in enumerate(inputs):
        if only not in (None, i):
            assert tensors[i].grad is None
            continue

        def objective(arr, i=i):
            args = [Tensor(a) for a in inputs]
            args[i] = Tensor(arr)
            return float(np.sum(build(*args).data * upstream))

        expected = numeric_gradient(objective, x.copy())
        # Central differences at eps=1e-6 carry about |objective| * 1e-10
        # of round-off; a wrong VJP is off by O(1).
        np.testing.assert_allclose(tensors[i].grad, expected,
                                   rtol=1e-5, atol=1e-6,
                                   err_msg=f"{name}: input {i}")
    return recorder.order
