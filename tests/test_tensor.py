"""Unit tests for the autograd engine (repro.nn.tensor)."""

import tracemalloc
import weakref

import numpy as np
import pytest

from repro.nn import Tensor, as_tensor, concatenate, gather_points, maximum, minimum, stack, where
from repro.nn.tensor import _unbroadcast


def numeric_gradient(fn, x, eps=1e-6):
    """Central finite-difference gradient of a scalar-valued function."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        upper = fn(x)
        flat[i] = original - eps
        lower = fn(x)
        flat[i] = original
        grad_flat[i] = (upper - lower) / (2 * eps)
    return grad


def check_gradient(build, x, rtol=1e-4, atol=1e-6):
    """Compare autograd gradient of sum(build(Tensor(x))) with finite differences."""
    tensor = Tensor(x.copy(), requires_grad=True)
    out = build(tensor)
    out.sum().backward()
    expected = numeric_gradient(lambda arr: build(Tensor(arr)).sum().item(), x.copy())
    np.testing.assert_allclose(tensor.grad, expected, rtol=rtol, atol=atol)


class TestBasics:
    def test_construction_defaults(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert not t.requires_grad
        assert t.grad is None

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_numpy_returns_copy(self):
        t = Tensor([1.0, 2.0])
        arr = t.numpy()
        arr[0] = 99.0
        assert t.data[0] == 1.0

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_detach_cuts_graph(self):
        t = Tensor([1.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 5)))
        assert len(t) == 4
        assert t.size == 20
        assert t.ndim == 2

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_requires_grad_argument(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_zero_grad(self):
        t = Tensor([2.0], requires_grad=True)
        (t * t).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None


class TestArithmetic:
    def test_add_values(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_add_scalar(self):
        out = Tensor([1.0, 2.0]) + 1.5
        np.testing.assert_allclose(out.data, [2.5, 3.5])

    def test_radd(self):
        out = 1.0 + Tensor([1.0])
        np.testing.assert_allclose(out.data, [2.0])

    def test_sub_and_rsub(self):
        np.testing.assert_allclose((Tensor([3.0]) - 1.0).data, [2.0])
        np.testing.assert_allclose((5.0 - Tensor([3.0])).data, [2.0])

    def test_mul_div(self):
        np.testing.assert_allclose((Tensor([2.0]) * 3.0).data, [6.0])
        np.testing.assert_allclose((Tensor([6.0]) / 3.0).data, [2.0])
        np.testing.assert_allclose((6.0 / Tensor([3.0])).data, [2.0])

    def test_neg_and_pow(self):
        np.testing.assert_allclose((-Tensor([2.0])).data, [-2.0])
        np.testing.assert_allclose((Tensor([3.0]) ** 2).data, [9.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_matmul_values(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        b = Tensor(np.arange(12, dtype=float).reshape(3, 4))
        np.testing.assert_allclose((a @ b).data, a.data @ b.data)

    @pytest.mark.parametrize("shape_a, shape_b", [
        ((3,), (3,)), ((2, 3), (3,)), ((2, 3), (2, 3)), ((2, 1), (1, 3)),
    ])
    def test_add_gradient(self, rng, shape_a, shape_b):
        a = rng.normal(size=shape_a)
        b = rng.normal(size=shape_b)
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta + tb).sum().backward()
        assert ta.grad.shape == shape_a
        assert tb.grad.shape == shape_b

    def test_mul_gradient(self, rng):
        x = rng.normal(size=(3, 4))
        y = rng.normal(size=(3, 4))
        check_gradient(lambda t: t * Tensor(y), x)

    def test_div_gradient(self, rng):
        x = rng.normal(size=(3, 4)) + 3.0
        check_gradient(lambda t: Tensor(np.ones((3, 4))) / t, x)

    def test_matmul_gradient(self, rng):
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 2))
        check_gradient(lambda t: t @ Tensor(w), x)
        check_gradient(lambda t: Tensor(x) @ t, w)

    def test_batched_matmul_gradient(self, rng):
        x = rng.normal(size=(2, 4, 3))
        w = rng.normal(size=(3, 5))
        check_gradient(lambda t: t @ Tensor(w), x)
        check_gradient(lambda t: Tensor(x) @ t, w)

    def test_pow_gradient(self, rng):
        x = np.abs(rng.normal(size=(5,))) + 0.5
        check_gradient(lambda t: t ** 3, x)

    def test_gradient_accumulates_on_reuse(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x + x * 3.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [2 * 2.0 + 3.0])


class TestElementwise:
    @pytest.mark.parametrize("op", ["exp", "log", "sqrt", "tanh", "sigmoid", "abs"])
    def test_values(self, rng, op):
        x = np.abs(rng.normal(size=(3, 3))) + 0.5
        expected = {
            "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
            "tanh": np.tanh, "sigmoid": lambda v: 1 / (1 + np.exp(-v)),
            "abs": np.abs,
        }[op](x)
        np.testing.assert_allclose(getattr(Tensor(x), op)().data, expected)

    @pytest.mark.parametrize("op", ["exp", "log", "sqrt", "tanh", "sigmoid"])
    def test_gradients(self, rng, op):
        x = np.abs(rng.normal(size=(4,))) + 0.5
        check_gradient(lambda t: getattr(t, op)(), x)

    def test_relu_values_and_grad(self):
        x = np.array([-1.0, 0.0, 2.0])
        t = Tensor(x, requires_grad=True)
        out = t.relu()
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 0.0, 1.0])

    def test_leaky_relu(self):
        t = Tensor(np.array([-2.0, 3.0]), requires_grad=True)
        out = t.leaky_relu(0.1)
        np.testing.assert_allclose(out.data, [-0.2, 3.0])
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [0.1, 1.0])

    def test_clip_values_and_grad(self):
        t = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        out = t.clip(-1.0, 1.0)
        np.testing.assert_allclose(out.data, [-1.0, 0.5, 1.0])
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])

    def test_abs_gradient_sign(self):
        t = Tensor(np.array([-3.0, 4.0]), requires_grad=True)
        t.abs().sum().backward()
        np.testing.assert_allclose(t.grad, [-1.0, 1.0])


class TestReductions:
    def test_sum_all(self, rng):
        x = rng.normal(size=(3, 4))
        assert Tensor(x).sum().item() == pytest.approx(x.sum())

    @pytest.mark.parametrize("axis,keepdims", [(0, False), (1, True), (-1, False)])
    def test_sum_axis(self, rng, axis, keepdims):
        x = rng.normal(size=(3, 4))
        out = Tensor(x).sum(axis=axis, keepdims=keepdims)
        np.testing.assert_allclose(out.data, x.sum(axis=axis, keepdims=keepdims))

    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), ((0, 1), False)])
    def test_sum_gradient(self, rng, axis, keepdims):
        x = rng.normal(size=(3, 4))
        check_gradient(lambda t: t.sum(axis=axis, keepdims=keepdims), x)

    def test_mean_values(self, rng):
        x = rng.normal(size=(4, 5))
        np.testing.assert_allclose(Tensor(x).mean(axis=1).data, x.mean(axis=1))
        assert Tensor(x).mean().item() == pytest.approx(x.mean())

    def test_mean_gradient(self, rng):
        x = rng.normal(size=(3, 4))
        check_gradient(lambda t: t.mean(axis=0), x)

    def test_max_values(self, rng):
        x = rng.normal(size=(3, 5))
        np.testing.assert_allclose(Tensor(x).max(axis=1).data, x.max(axis=1))

    def test_max_gradient_routes_to_argmax(self):
        x = np.array([[1.0, 5.0, 2.0]])
        t = Tensor(x, requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.0, 1.0, 0.0]])

    def test_max_gradient_splits_ties(self):
        x = np.array([[3.0, 3.0]])
        t = Tensor(x, requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.5, 0.5]])

    def test_min(self, rng):
        x = rng.normal(size=(3, 5))
        np.testing.assert_allclose(Tensor(x).min(axis=1).data, x.min(axis=1))


class TestShapes:
    def test_reshape_roundtrip_gradient(self, rng):
        x = rng.normal(size=(2, 6))
        check_gradient(lambda t: (t.reshape(3, 4) * 2.0), x)

    def test_transpose_values(self, rng):
        x = rng.normal(size=(2, 3, 4))
        np.testing.assert_allclose(Tensor(x).transpose(2, 0, 1).data, x.transpose(2, 0, 1))

    def test_transpose_default_reverses(self, rng):
        x = rng.normal(size=(2, 3))
        np.testing.assert_allclose(Tensor(x).transpose().data, x.T)

    def test_transpose_gradient(self, rng):
        x = rng.normal(size=(2, 3, 4))
        check_gradient(lambda t: t.transpose(1, 2, 0) * Tensor(np.ones((3, 4, 2))), x)

    def test_swapaxes(self, rng):
        x = rng.normal(size=(2, 3, 4))
        np.testing.assert_allclose(Tensor(x).swapaxes(0, 2).data, x.swapaxes(0, 2))

    def test_expand_squeeze(self, rng):
        x = rng.normal(size=(3, 4))
        expanded = Tensor(x).expand_dims(1)
        assert expanded.shape == (3, 1, 4)
        assert expanded.squeeze(1).shape == (3, 4)

    def test_expand_dims_gradient(self, rng):
        x = rng.normal(size=(3, 4))
        check_gradient(lambda t: t.expand_dims(0) * 3.0, x)

    def test_getitem_values_and_gradient(self, rng):
        x = rng.normal(size=(5, 3))
        t = Tensor(x, requires_grad=True)
        out = t[1:3]
        np.testing.assert_allclose(out.data, x[1:3])
        out.sum().backward()
        expected = np.zeros_like(x)
        expected[1:3] = 1.0
        np.testing.assert_allclose(t.grad, expected)

    def test_getitem_integer_array(self, rng):
        x = rng.normal(size=(5, 3))
        t = Tensor(x, requires_grad=True)
        idx = np.array([0, 0, 2])
        t[idx].sum().backward()
        expected = np.zeros_like(x)
        expected[0] = 2.0
        expected[2] = 1.0
        np.testing.assert_allclose(t.grad, expected)


class TestCombinators:
    def test_concatenate_values(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 2))
        out = concatenate([Tensor(a), Tensor(b)], axis=1)
        np.testing.assert_allclose(out.data, np.concatenate([a, b], axis=1))

    def test_concatenate_gradient_split(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        concatenate([a, b], axis=1).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (2, 2)
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_stack(self, rng):
        a, b = rng.normal(size=(3,)), rng.normal(size=(3,))
        out = stack([Tensor(a), Tensor(b)], axis=0)
        np.testing.assert_allclose(out.data, np.stack([a, b]))

    def test_stack_gradient(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (stack([a, b], axis=0) * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * np.ones(3))
        np.testing.assert_allclose(b.grad, 2 * np.ones(3))

    def test_maximum_minimum_values(self):
        a, b = Tensor([1.0, 5.0]), Tensor([3.0, 2.0])
        np.testing.assert_allclose(maximum(a, b).data, [3.0, 5.0])
        np.testing.assert_allclose(minimum(a, b).data, [1.0, 2.0])

    def test_maximum_gradient_routing(self):
        a = Tensor(np.array([1.0, 5.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 2.0]), requires_grad=True)
        maximum(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 0.0])

    def test_where_selects_and_routes_grad(self):
        cond = np.array([True, False, True])
        a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        b = Tensor(np.array([10.0, 20.0, 30.0]), requires_grad=True)
        out = where(cond, a, b)
        np.testing.assert_allclose(out.data, [1.0, 20.0, 3.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0, 0.0])

    def test_gather_points_values(self, rng):
        features = rng.normal(size=(2, 5, 3))
        idx = np.array([[0, 4], [2, 2]])
        out = gather_points(Tensor(features), idx)
        assert out.shape == (2, 2, 3)
        np.testing.assert_allclose(out.data[0, 1], features[0, 4])
        np.testing.assert_allclose(out.data[1, 0], features[1, 2])

    def test_gather_points_grouped(self, rng):
        features = rng.normal(size=(1, 4, 2))
        idx = np.array([[[0, 1], [2, 3], [0, 0]]])
        out = gather_points(Tensor(features), idx)
        assert out.shape == (1, 3, 2, 2)

    def test_gather_points_gradient_accumulates_duplicates(self, rng):
        features = Tensor(rng.normal(size=(1, 4, 2)), requires_grad=True)
        idx = np.array([[0, 0, 3]])
        gather_points(features, idx).sum().backward()
        np.testing.assert_allclose(features.grad[0, 0], [2.0, 2.0])
        np.testing.assert_allclose(features.grad[0, 3], [1.0, 1.0])
        np.testing.assert_allclose(features.grad[0, 1], [0.0, 0.0])

    def test_gather_points_validates_shapes(self):
        with pytest.raises(ValueError):
            gather_points(Tensor(np.zeros((3, 4))), np.zeros((1, 2), dtype=int))
        with pytest.raises(ValueError):
            gather_points(Tensor(np.zeros((1, 3, 4))), np.zeros((1,), dtype=int))


class TestUnbroadcast:
    @pytest.mark.parametrize("grad_shape,target_shape", [
        ((3, 4), (3, 4)), ((2, 3, 4), (3, 4)), ((3, 4), (1, 4)),
        ((5, 3, 4), (1, 1)), ((2, 3), (3,)),
    ])
    def test_shapes(self, grad_shape, target_shape):
        grad = np.ones(grad_shape)
        out = _unbroadcast(grad, target_shape)
        assert out.shape == tuple(target_shape)

    def test_sum_is_preserved(self):
        grad = np.ones((4, 3))
        out = _unbroadcast(grad, (1, 3))
        np.testing.assert_allclose(out, np.full((1, 3), 4.0))


class TestGraph:
    def test_diamond_graph_gradient(self):
        x = Tensor([2.0], requires_grad=True)
        a = x * 3.0
        b = x * 4.0
        ((a + b) * (a - b)).sum().backward()
        # d/dx (9x^2 - 16x^2) = -14x
        np.testing.assert_allclose(x.grad, [-14.0 * 2.0])

    def test_deep_chain(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(50):
            y = y * 1.1
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.1 ** 50], rtol=1e-9)

    def test_no_grad_through_constant_branch(self):
        x = Tensor([2.0], requires_grad=True)
        c = Tensor([3.0])
        (x * c).sum().backward()
        assert c.grad is None


class TestLifetime:
    """``backward()`` consumes the tape, gradient-free outputs keep no
    graph, and the tape keeps only what each op's VJP reads.  ``Tensor``
    has ``__slots__`` and no weak references, so the weakrefs below watch
    the ``.data`` arrays instead."""

    SHAPE = (128, 512)                       # 512 KiB per float64 array
    ARRAY_BYTES = 128 * 512 * 8

    def test_backward_frees_the_tape_as_it_walks(self):
        """tracemalloc counts NumPy's allocations exactly.  The forward
        leaves the leaf and the 16 ``tanh`` outputs (their VJP reads them;
        ``mul`` by a constant keeps only the constant), after the walk only
        the leaf and its gradient are left, and the walk itself never holds
        much more than the forward left alive."""
        tracemalloc.start()
        try:
            x = Tensor(np.random.default_rng(0).normal(size=self.SHAPE),
                       requires_grad=True)
            y = x
            for _ in range(16):
                y = (y * 1.01).tanh()
            loss = y.sum()
            del y
            forward, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            loss.backward()
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 16 * self.ARRAY_BYTES < forward < 18 * self.ARRAY_BYTES
        assert after <= 3 * self.ARRAY_BYTES        # leaf data and grad
        assert peak <= forward + 4 * self.ARRAY_BYTES
        assert x.grad.shape == self.SHAPE

    def test_backward_frees_dropped_activations(self):
        x = Tensor(np.full((4, 3), 0.5), requires_grad=True)
        hidden = x * 2.0
        ref = weakref.ref(hidden.data)
        out = hidden.relu()                         # its VJP reads its input
        del hidden
        assert ref() is not None                    # the tape holds it
        out.sum().backward()
        assert ref() is None
        np.testing.assert_allclose(x.grad, 2.0)

    def test_the_tape_keeps_only_what_a_vjp_reads(self):
        x = Tensor(np.full((4, 3), 0.5), requires_grad=True)
        hidden = x * 2.0
        ref = weakref.ref(hidden.data)
        out = hidden.tanh()                         # its VJP reads its output
        del hidden
        assert ref() is None                        # dead before backward()
        out.sum().backward()
        np.testing.assert_allclose(x.grad, 2.0 * (1.0 - np.tanh(1.0) ** 2))

    def test_exact_edgeconv_chain_keeps_one_array_per_block(self):
        """gather → subtract → concatenate → frozen matmul →
        ``bias_bn_relu_max``, as ResGCN's exact EdgeConv runs it: of each
        block's ``(B, N, K, C)`` arrays the tape keeps only ``pre``, which
        the fused tail's VJP reads.  Keeping every input would hold five
        arrays' worth per block (neighbours, differences, the double-width
        concatenation and ``pre``)."""
        from repro.nn import BatchNorm, bias_bn_relu_max

        rng = np.random.default_rng(0)
        batch, points, k, channels, blocks = 1, 512, 16, 16, 3
        index = rng.integers(points, size=(batch, points, k))
        layers = []
        for _ in range(blocks):
            norm = BatchNorm(channels)
            norm.eval()
            for param in (norm.gamma, norm.beta):
                param.requires_grad = False
            layers.append((Tensor(rng.normal(size=(2 * channels, channels))),
                           Tensor(rng.normal(size=channels)), norm))
        array_bytes = batch * points * k * channels * 8
        tracemalloc.start()
        try:
            x = Tensor(rng.normal(size=(batch, points, channels)),
                       requires_grad=True)
            h = x
            for weight, bias, norm in layers:
                neighbours = gather_points(h, index)
                centre = h.expand_dims(2)
                edges = concatenate([centre.broadcast_to(neighbours.shape),
                                     neighbours - centre], axis=-1)
                h = bias_bn_relu_max(edges @ weight, bias, norm, axis=2)
            del neighbours, centre, edges
            forward, _ = tracemalloc.get_traced_memory()
            h.sum().backward()
        finally:
            tracemalloc.stop()
        assert blocks * array_bytes < forward < (blocks + 1) * array_bytes
        assert x.grad.shape == x.shape

    def test_exact_attention_block_keeps_no_n_by_n_array(self):
        """PCT's attention block under the exact policy: the tape keeps the
        queries, keys and values, not the N×N scores and attention (16 MiB
        at N = 1024), which the backward recomputes."""
        from repro.accel import ComputePolicy, use_policy
        from repro.models.pct import SelfAttentionBlock

        points, channels = 1024, 8
        block = SelfAttentionBlock(channels, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(1, points, channels)),
                   requires_grad=True)
        with use_policy(ComputePolicy.exact()):
            tracemalloc.start()
            try:
                out = block(x)
                forward, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            out.sum().backward()
        assert forward < points * points * 8      # one float64 N×N array
        assert x.grad.shape == x.shape

    def test_gradient_free_outputs_keep_no_parents(self):
        x = Tensor(np.full((4, 3), 0.5))
        hidden = x * 2.0
        ref = weakref.ref(hidden.data)
        out = hidden.tanh()
        del hidden
        assert ref() is None                        # freed while out lives
        np.testing.assert_allclose(out.data, np.tanh(1.0))

    def test_only_leaves_keep_grad(self):
        x = Tensor([2.0], requires_grad=True)
        hidden = x * 3.0
        loss = hidden.sum()
        loss.backward()
        assert hidden.grad is None and loss.grad is None
        np.testing.assert_allclose(x.grad, [3.0])

    def test_second_backward_through_a_consumed_graph_raises(self):
        x = Tensor([2.0], requires_grad=True)
        hidden = x * 3.0
        loss = (hidden * hidden).sum()
        loss.backward()
        np.testing.assert_allclose(x.grad, [36.0])
        with pytest.raises(RuntimeError, match="consumed"):
            loss.backward()
        with pytest.raises(RuntimeError, match="consumed"):
            (hidden * 1.0).sum().backward()         # fresh root, spent node
        np.testing.assert_allclose(x.grad, [36.0])  # never added twice
