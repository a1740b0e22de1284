"""The single op-table shared by eager autograd, graph capture and compile.

Every differentiable operation in :mod:`repro.nn` is declared once here as an
:class:`OpDef`: a forward kernel, a vector-Jacobian product, and the metadata
the compiler needs (view/aliasing behaviour, an optional ``out=``-capable
forward for arena buffer reuse).  The eager path
(:meth:`repro.nn.tensor.Tensor` methods) and the forward capture/replay path
(:mod:`repro.nn.graph` / :mod:`repro.nn.compile`) both execute these exact
kernels, which is what makes compiled-plan replay bit-for-bit identical to
eager execution: same kernels, same order.

Adding an op is one :func:`register` call; the Tensor method, the recorded
graph node, the plan executor and the profiler label all follow from it.

The VJP convention: ``vjp(grad, out, inputs, params, needs) -> tuple`` with
one entry per input, ``None`` for inputs whose gradient is not needed.  The
arithmetic inside each VJP is copied verbatim from the historical per-op
closures (including every :func:`_unbroadcast` application), so gradients are
bitwise identical to the pre-table engine.

Each op also says which values its VJP reads: ``save(out, inputs, params,
needs) -> (out, inputs)`` returns them with every value the VJP does not
read replaced by a :class:`Standin`, which carries only the array's shape,
dtype and ndim.  The autograd tape keeps what ``save`` returns until the
backward pass reaches the op, so an activation no VJP reads is freed with
its tensor.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple

import numpy as np

Forward = Callable[[Tuple[np.ndarray, ...], dict], np.ndarray]
Vjp = Callable[
    [np.ndarray, np.ndarray, Tuple[np.ndarray, ...], dict, Tuple[bool, ...]],
    Tuple[Optional[np.ndarray], ...],
]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _fast_max(data: np.ndarray, axis: int) -> np.ndarray:
    """``data.max(axis, keepdims=True)`` via a binary tree of ``np.maximum``.

    NumPy's reduction loop is strided-access bound for middle axes (the
    ``(B, N, K, C)`` pooling pattern of every point-cloud model); pairing
    halves with vectorised ``np.maximum`` calls is ~2.5× faster.  Maximum is
    exact (no rounding), so the result is bit-identical to ``np.max`` for
    every evaluation order.
    """
    n = data.shape[axis]
    if n <= 2:
        return data.max(axis=axis, keepdims=True)
    head = (slice(None),) * (axis % data.ndim)
    while n > 1:
        half = n // 2
        paired = np.maximum(data[head + (slice(0, half),)],
                            data[head + (slice(half, 2 * half),)])
        if n % 2:
            first = head + (slice(0, 1),)
            paired[first] = np.maximum(paired[first],
                                       data[head + (slice(n - 1, n),)])
        data, n = paired, half
    return data


class Standin:
    """What a VJP receives in place of an array its op did not save.

    It carries the array's ``shape``, ``dtype`` and ``ndim`` and nothing
    else: NumPy functions, ufuncs, arithmetic and comparisons on it raise
    ``TypeError``, so a ``save`` rule that drops a value its VJP reads
    fails loudly instead of computing with an object array.
    """

    __slots__ = ("shape", "dtype", "ndim")
    __array_ufunc__ = None          # ufuncs and ndarray operators refuse it

    def __init__(self, array) -> None:
        self.shape = array.shape
        self.dtype = array.dtype
        self.ndim = array.ndim

    def _refuse(self, *args, **kwargs):
        raise TypeError("a VJP read the values of an array its op's save "
                        "rule did not keep")

    __array__ = __array_function__ = __eq__ = __ne__ = __bool__ = _refuse
    __hash__ = None


# Save rules (see the module docstring): each returns ``(out, inputs)`` as
# the VJP will receive them.
def _save_all(out, inputs, params, needs):
    return out, inputs


def _save_nothing(out, inputs, params, needs):
    return Standin(out), tuple(map(Standin, inputs))


def _save_inputs(out, inputs, params, needs):
    return Standin(out), inputs


def _save_output(out, inputs, params, needs):
    return out, (Standin(inputs[0]),)


def _save_partners(out, inputs, params, needs):
    """Each operand only when the other one needs a gradient (``mul`` and
    ``matmul``): with frozen weights the activation is not kept."""
    a, b = inputs
    return Standin(out), (a if needs[1] else Standin(a),
                          b if needs[0] else Standin(b))


class OpDef:
    """One registry entry: forward kernel, VJP, and compiler metadata.

    Attributes
    ----------
    name:
        Registry key; also the op's row label in the profiler.
    forward / vjp:
        The kernels (see module docstring for the VJP convention).
    save:
        ``(out, inputs, params, needs) -> (out, inputs)``: the values the
        VJP reads, every other one a :class:`Standin` (module docstring).
        Defaults to keeping everything.
    differentiable:
        ``False`` marks data-dependent-constant ops (e.g. the log-softmax shift):
        they are recorded in captured graphs so replay recomputes them, but no
        gradient ever flows through them.
    returns_view:
        ``True`` when the forward output may alias an input's memory
        (reshape/transpose/broadcast-style ops).  The compiler's arena
        allocator never recycles the buffers of such nodes or their inputs.
    forward_out:
        Optional ``(inputs, params, out) -> ndarray`` variant writing into a
        preallocated buffer.  Only registered for single-ufunc kernels, where
        ``out=`` is guaranteed bitwise-identical to fresh allocation.
    """

    __slots__ = ("name", "forward", "vjp", "save", "differentiable",
                 "returns_view", "forward_out")

    def __init__(self, name: str, forward: Forward, vjp: Optional[Vjp],
                 *, save=_save_all, differentiable: bool = True,
                 returns_view: bool = False, forward_out=None) -> None:
        self.name = name
        self.forward = forward
        self.vjp = vjp
        self.save = save
        self.differentiable = differentiable
        self.returns_view = returns_view
        self.forward_out = forward_out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OpDef({self.name!r})"


OPS: Dict[str, OpDef] = {}


def register(name: str, forward: Forward, vjp: Optional[Vjp] = None,
             **kwargs) -> OpDef:
    """Register an :class:`OpDef` under ``name`` and return it."""
    op = OpDef(name, forward, vjp, **kwargs)
    OPS[name] = op
    return op


# ---------------------------------------------------------------------- #
# Arithmetic
# ---------------------------------------------------------------------- #
def _add_fwd(inputs, params):
    return inputs[0] + inputs[1]


def _add_out(inputs, params, out):
    return np.add(inputs[0], inputs[1], out=out)


def _add_vjp(grad, out, inputs, params, needs):
    a, b = inputs
    return (
        _unbroadcast(grad, a.shape) if needs[0] else None,
        _unbroadcast(grad, b.shape) if needs[1] else None,
    )


register("add", _add_fwd, _add_vjp, save=_save_nothing,
         forward_out=_add_out)


def _neg_fwd(inputs, params):
    return -inputs[0]


def _neg_out(inputs, params, out):
    return np.negative(inputs[0], out=out)


def _neg_vjp(grad, out, inputs, params, needs):
    return (-grad,)


register("neg", _neg_fwd, _neg_vjp, save=_save_nothing,
         forward_out=_neg_out)


def _mul_fwd(inputs, params):
    return inputs[0] * inputs[1]


def _mul_out(inputs, params, out):
    return np.multiply(inputs[0], inputs[1], out=out)


def _mul_vjp(grad, out, inputs, params, needs):
    a, b = inputs
    return (
        _unbroadcast(grad * b, a.shape) if needs[0] else None,
        _unbroadcast(grad * a, b.shape) if needs[1] else None,
    )


register("mul", _mul_fwd, _mul_vjp, save=_save_partners,
         forward_out=_mul_out)


def _div_fwd(inputs, params):
    return inputs[0] / inputs[1]


def _div_out(inputs, params, out):
    return np.divide(inputs[0], inputs[1], out=out)


def _div_vjp(grad, out, inputs, params, needs):
    a, b = inputs
    return (
        _unbroadcast(grad / b, a.shape) if needs[0] else None,
        _unbroadcast(-grad * a / (b ** 2), b.shape) if needs[1] else None,
    )


def _div_save(out, inputs, params, needs):
    # ``b`` for both gradients, ``a`` only for ``b``'s.
    a, b = inputs
    return Standin(out), (a if needs[1] else Standin(a), b)


register("div", _div_fwd, _div_vjp, save=_div_save, forward_out=_div_out)


def _pow_fwd(inputs, params):
    return inputs[0] ** params["exponent"]


def _pow_vjp(grad, out, inputs, params, needs):
    exponent = params["exponent"]
    return (grad * exponent * inputs[0] ** (exponent - 1),)


register("pow", _pow_fwd, _pow_vjp, save=_save_inputs)


def _matmul_fwd(inputs, params):
    return inputs[0] @ inputs[1]


def _matmul_vjp(grad, out, inputs, params, needs):
    a, b = inputs
    grad_a = grad_b = None
    if needs[0]:
        grad_a = _unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape)
    if needs[1]:
        grad_b = _unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape)
    return (grad_a, grad_b)


register("matmul", _matmul_fwd, _matmul_vjp, save=_save_partners)


# ---------------------------------------------------------------------- #
# Elementwise functions
# ---------------------------------------------------------------------- #
def _exp_fwd(inputs, params):
    return np.exp(inputs[0])


def _exp_out(inputs, params, out):
    return np.exp(inputs[0], out=out)


def _exp_vjp(grad, out, inputs, params, needs):
    return (grad * out,)


register("exp", _exp_fwd, _exp_vjp, save=_save_output,
         forward_out=_exp_out)


def _log_fwd(inputs, params):
    return np.log(inputs[0])


def _log_out(inputs, params, out):
    return np.log(inputs[0], out=out)


def _log_vjp(grad, out, inputs, params, needs):
    return (grad / inputs[0],)


register("log", _log_fwd, _log_vjp, save=_save_inputs,
         forward_out=_log_out)


def _sqrt_fwd(inputs, params):
    return np.sqrt(inputs[0])


def _sqrt_out(inputs, params, out):
    return np.sqrt(inputs[0], out=out)


def _sqrt_vjp(grad, out, inputs, params, needs):
    # Division floor for the sqrt(0) subgradient.  1e-300 (the seed value,
    # kept for float64 bit-exactness) underflows to 0 in float32 and would
    # divide by zero; the float32 floor is chosen so 0.5/floor stays far from
    # the float32 overflow boundary (an inf here turns downstream `huge * 0`
    # chain products into NaN).
    floor = 1e-300 if out.dtype == np.float64 else 1e-30
    return (grad * 0.5 / np.maximum(out, floor),)


register("sqrt", _sqrt_fwd, _sqrt_vjp, save=_save_output,
         forward_out=_sqrt_out)


def _tanh_fwd(inputs, params):
    return np.tanh(inputs[0])


def _tanh_out(inputs, params, out):
    return np.tanh(inputs[0], out=out)


def _tanh_vjp(grad, out, inputs, params, needs):
    return (grad * (1.0 - out ** 2),)


register("tanh", _tanh_fwd, _tanh_vjp, save=_save_output,
         forward_out=_tanh_out)


def _sigmoid_fwd(inputs, params):
    return 1.0 / (1.0 + np.exp(-inputs[0]))


def _sigmoid_vjp(grad, out, inputs, params, needs):
    return (grad * out * (1.0 - out),)


register("sigmoid", _sigmoid_fwd, _sigmoid_vjp, save=_save_output)


def _relu_fwd(inputs, params):
    x = inputs[0]
    return x * (x > 0)


def _relu_vjp(grad, out, inputs, params, needs):
    return (grad * (inputs[0] > 0),)


register("relu", _relu_fwd, _relu_vjp, save=_save_inputs)


def _leaky_relu_fwd(inputs, params):
    x = inputs[0]
    return x * np.where(x > 0, 1.0, params["negative_slope"])


def _leaky_relu_vjp(grad, out, inputs, params, needs):
    x = inputs[0]
    return (grad * np.where(x > 0, 1.0, params["negative_slope"]),)


register("leaky_relu", _leaky_relu_fwd, _leaky_relu_vjp, save=_save_inputs)


def _abs_fwd(inputs, params):
    return np.abs(inputs[0])


def _abs_out(inputs, params, out):
    return np.abs(inputs[0], out=out)


def _abs_vjp(grad, out, inputs, params, needs):
    return (grad * np.sign(inputs[0]),)


register("abs", _abs_fwd, _abs_vjp, save=_save_inputs,
         forward_out=_abs_out)


def _clip_fwd(inputs, params):
    return np.clip(inputs[0], params["low"], params["high"])


def _clip_vjp(grad, out, inputs, params, needs):
    x = inputs[0]
    mask = (x >= params["low"]) & (x <= params["high"])
    return (grad * mask,)


register("clip", _clip_fwd, _clip_vjp, save=_save_inputs)


# ---------------------------------------------------------------------- #
# Reductions
# ---------------------------------------------------------------------- #
def _sum_fwd(inputs, params):
    return inputs[0].sum(axis=params["axis"], keepdims=params["keepdims"])


def _sum_vjp(grad, out, inputs, params, needs):
    x = inputs[0]
    axis, keepdims = params["axis"], params["keepdims"]
    g = grad
    if axis is not None and not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = frozenset(a % x.ndim for a in axes)
        # reshape == expand_dims here (pure metadata, same values), minus
        # the per-call axis-normalisation overhead on the backward hot path.
        g = g.reshape(tuple(1 if i in axes else size
                            for i, size in enumerate(x.shape)))
    # A read-only broadcast view is enough: gradient accumulation never
    # mutates gradients it does not own.
    return (np.broadcast_to(g, x.shape),)


register("sum", _sum_fwd, _sum_vjp, save=_save_nothing)


def _max_fwd(inputs, params):
    x = inputs[0]
    max_keep = _fast_max(x, params["axis"] % x.ndim)
    if params["keepdims"]:
        return max_keep
    return np.squeeze(max_keep, axis=params["axis"])


def _max_vjp(grad, out, inputs, params, needs):
    x = inputs[0]
    axis, keepdims = params["axis"], params["keepdims"]
    # Maximum is exact, so re-expanding the output reconstructs the
    # keepdims intermediate bit-for-bit; the tie mask is then identical to
    # the one the eager closure builds from its saved forward value.
    if keepdims:
        max_keep = out
        g = grad
    else:
        # reshape == expand_dims (metadata only); shape derived from the
        # saved input, sidestepping NumPy's axis-normalisation overhead.
        shape = list(x.shape)
        shape[axis % x.ndim] = 1
        max_keep = out.reshape(shape)
        g = grad.reshape(shape)
    mask = (x == max_keep)
    # Counts in the input dtype: an int64 divisor would promote a float32
    # gradient to float64.  Both roundings of the quotient agree (float64
    # carries more than twice float32's precision), so the bits do not move.
    counts = mask.sum(axis=axis, keepdims=True, dtype=x.dtype)
    return (mask * g / counts,)


register("max", _max_fwd, _max_vjp, save=_save_all)


def _detached_max_fwd(inputs, params):
    return inputs[0].max(axis=params["axis"], keepdims=True)


# The numerically-stabilising shift of log_softmax: a data-dependent
# constant.  Declaring it as a recorded, gradient-free op (instead of a bare
# ``Tensor(x.data.max(...))``) is what keeps captured plans valid when the
# logits change between steps — replay recomputes the shift.
register("detached_max", _detached_max_fwd, None, differentiable=False)


# ---------------------------------------------------------------------- #
# Shape manipulation
# ---------------------------------------------------------------------- #
def _reshape_fwd(inputs, params):
    return inputs[0].reshape(params["shape"])


def _reshape_vjp(grad, out, inputs, params, needs):
    return (grad.reshape(inputs[0].shape),)


register("reshape", _reshape_fwd, _reshape_vjp, save=_save_nothing,
         returns_view=True)


def _transpose_fwd(inputs, params):
    return inputs[0].transpose(params["axes"])


def _transpose_vjp(grad, out, inputs, params, needs):
    return (grad.transpose(params["inverse"]),)


register("transpose", _transpose_fwd, _transpose_vjp, save=_save_nothing,
         returns_view=True)


def _broadcast_to_fwd(inputs, params):
    # A read-only view: tiling a (B, N, 1, C) centre across K neighbours
    # costs no memory, and gradients sum back down via _unbroadcast.
    return np.broadcast_to(inputs[0], params["shape"])


def _broadcast_to_vjp(grad, out, inputs, params, needs):
    return (_unbroadcast(grad, inputs[0].shape),)


register("broadcast_to", _broadcast_to_fwd, _broadcast_to_vjp,
         save=_save_nothing, returns_view=True)


def _expand_dims_fwd(inputs, params):
    return np.expand_dims(inputs[0], axis=params["axis"])


def _expand_dims_vjp(grad, out, inputs, params, needs):
    return (np.squeeze(grad, axis=params["axis"]),)


register("expand_dims", _expand_dims_fwd, _expand_dims_vjp,
         save=_save_nothing, returns_view=True)


def _squeeze_fwd(inputs, params):
    return np.squeeze(inputs[0], axis=params["axis"])


def _squeeze_vjp(grad, out, inputs, params, needs):
    return (np.expand_dims(grad, axis=params["axis"]),)


register("squeeze", _squeeze_fwd, _squeeze_vjp, save=_save_nothing,
         returns_view=True)


def _getitem_fwd(inputs, params):
    return inputs[0][params["index"]]


def _getitem_vjp(grad, out, inputs, params, needs):
    x = inputs[0]
    full = np.zeros(x.shape, dtype=x.dtype)
    np.add.at(full, params["index"], grad)
    return (full,)


register("getitem", _getitem_fwd, _getitem_vjp, save=_save_nothing,
         returns_view=True)


# ---------------------------------------------------------------------- #
# Multi-tensor combinators
# ---------------------------------------------------------------------- #
def _concatenate_fwd(inputs, params):
    return np.concatenate(list(inputs), axis=params["axis"])


def _concatenate_vjp(grad, out, inputs, params, needs):
    # Direct slicing builds the same views np.split would, skips the pieces
    # nobody needs, and avoids array_split's per-call bookkeeping.
    axis = params["axis"]
    bounds = (0, *params["splits"], grad.shape[axis])
    index = [slice(None)] * grad.ndim
    pieces = []
    for i, need in enumerate(needs):
        if need:
            index[axis] = slice(bounds[i], bounds[i + 1])
            pieces.append(grad[tuple(index)])
        else:
            pieces.append(None)
    return tuple(pieces)


register("concatenate", _concatenate_fwd, _concatenate_vjp,
         save=_save_nothing)


def _stack_fwd(inputs, params):
    return np.stack(list(inputs), axis=params["axis"])


def _stack_vjp(grad, out, inputs, params, needs):
    axis = params["axis"]
    pieces = np.split(grad, len(inputs), axis=axis)
    return tuple(np.squeeze(piece, axis=axis) if need else None
                 for piece, need in zip(pieces, needs))


register("stack", _stack_fwd, _stack_vjp, save=_save_nothing)


def _maximum_fwd(inputs, params):
    return np.maximum(inputs[0], inputs[1])


def _maximum_vjp(grad, out, inputs, params, needs):
    a, b = inputs
    mask = a >= b
    return (
        _unbroadcast(grad * mask, a.shape) if needs[0] else None,
        _unbroadcast(grad * (~mask), b.shape) if needs[1] else None,
    )


register("maximum", _maximum_fwd, _maximum_vjp, save=_save_inputs)


def _where_fwd(inputs, params):
    return np.where(params["cond"], inputs[0], inputs[1])


def _where_vjp(grad, out, inputs, params, needs):
    a, b = inputs
    cond = params["cond"]
    return (
        _unbroadcast(grad * cond, a.shape) if needs[0] else None,
        _unbroadcast(grad * (~cond), b.shape) if needs[1] else None,
    )


register("where", _where_fwd, _where_vjp, save=_save_nothing)


def _gather_points_fwd(inputs, params):
    # Row-gather through np.take on the flattened (B*N, C) view: ~5× faster
    # than advanced indexing for the (B, M, K) neighbourhood tables, with
    # byte-identical output.  The flat index is shared with the backward
    # scatter.
    features = inputs[0]
    channels = params["channels"]
    flat_features = features.reshape(params["rows"], channels)
    return np.take(flat_features, params["flat_index"], axis=0).reshape(
        params["index_shape"] + (channels,))


def _gather_points_vjp(grad, out, inputs, params, needs):
    # Scatter-add per channel with np.bincount, which is far faster than
    # np.add.at and performs the per-bin additions in the same input order
    # (so float64 exactness mode stays bit-for-bit identical).
    features = inputs[0]
    channels = params["channels"]
    flat_index = params["flat_index"]
    grad_rows = np.ascontiguousarray(grad.reshape(-1, channels).T)
    full = np.empty((channels, params["rows"]), dtype=features.dtype)
    for channel in range(channels):
        full[channel] = np.bincount(flat_index, weights=grad_rows[channel],
                                    minlength=full.shape[1])
    return (np.ascontiguousarray(full.T).reshape(features.shape),)


register("gather_points", _gather_points_fwd, _gather_points_vjp,
         save=_save_nothing)


# ---------------------------------------------------------------------- #
# Fused chains
# ---------------------------------------------------------------------- #
# Each op below runs a composite chain's NumPy expressions in the chain's
# order, one block of rows at a time, so its outputs and gradients are
# bit-for-bit those of the composite ops.  A block and its temporaries stay
# cache-resident; the composite streams every intermediate through memory
# and keeps it alive for the backward pass.  The VJPs recompute the forward
# chain of a block instead of saving it.  ``attention`` runs whole matmuls
# around the softmax's blocks and recomputes the whole N×N chain.

#: Elements per row block.  Paper-shape rows (4096 attention scores, 16×64
#: pooling inputs) are cut into cache-sized blocks; a default-scale input
#: (a few hundred points) runs as one or two blocks.
BLOCK_ELEMENTS = 1 << 16


def _rows_view(x: np.ndarray, axis: int) -> np.ndarray:
    """``x`` as ``(rows, n)`` or ``(rows, n, inner)``, reduced ``axis`` second.

    The leading axes become independent rows and the trailing axes stay
    behind the reduced one, so reducing a block of rows runs the same inner
    loops, in the same order, as reducing the whole array.
    """
    axis %= x.ndim
    shape = (math.prod(x.shape[:axis]), x.shape[axis])
    if axis < x.ndim - 1:
        shape += (math.prod(x.shape[axis + 1:]),)
    return x.reshape(shape)


def _row_blocks(rows: np.ndarray, *dtypes):
    """Yield ``(start, stop, buffers)`` over blocks of at most
    :data:`BLOCK_ELEMENTS` elements of ``rows``.

    One scratch buffer per dtype is allocated for the whole call; each
    block gets its leading ``stop - start`` rows.
    """
    step = max(BLOCK_ELEMENTS // max(math.prod(rows.shape[1:]), 1), 1)
    buffers = [np.empty((min(step, len(rows)),) + rows.shape[1:], dtype)
               for dtype in dtypes]
    for start in range(0, len(rows), step):
        stop = min(start + step, len(rows))
        yield start, stop, [buf[:stop - start] for buf in buffers]


def _shifted_exp(x: np.ndarray, scale, buf: np.ndarray):
    """``exp(x·scale − max)`` into ``buf`` and its sums over axis 1.

    The composite ``(x * scale) - detached_max(...)``, ``.exp()`` and
    ``.sum(axis, keepdims=True)``; ``a - m`` rounds as ``a + (-m)`` does.
    """
    shifted = x if scale is None else np.multiply(x, scale, out=buf)
    np.subtract(shifted, shifted.max(axis=1, keepdims=True), out=buf)
    np.exp(buf, out=buf)
    return buf, buf.sum(axis=1, keepdims=True)


def _softmax_fwd(inputs, params, out=None):
    # ``out`` may be the input itself: each block is read into its buffer
    # before its rows are written.
    x = inputs[0]
    axis, scale = params["axis"], params["scale"]
    if out is None:
        out = np.empty(x.shape, dtype=x.dtype)
    rows, dest = _rows_view(x, axis), _rows_view(out, axis)
    for start, stop, (buf,) in _row_blocks(rows, x.dtype):
        exp, total = _shifted_exp(rows[start:stop], scale, buf)
        np.divide(exp, total, out=dest[start:stop])
    return out


def _softmax_vjp(grad, out, inputs, params, needs, result=None):
    # ``result`` may be ``grad`` itself: each block reads its rows of
    # ``grad`` fully before it writes them.
    x = inputs[0]
    axis, scale = params["axis"], params["scale"]
    closed_form = params["closed_form"]
    dtype = np.result_type(grad, x.dtype)
    if result is None:
        result = np.empty(x.shape, dtype=dtype if scale is None
                          else np.result_type(dtype, scale))
    # The output under the closed form, else the input: the array saved.
    rows = _rows_view(out if closed_form else x, axis)
    grads, dest = _rows_view(grad, axis), _rows_view(result, axis)
    for start, stop, (buf, t) in _row_blocks(rows, x.dtype, dtype):
        g = grads[start:stop]
        if closed_form:
            # Fast policy: the closed form ``scale · y · (g − Σ g·y)`` over
            # the output ``y``; the products with ``y`` and ``scale`` are
            # the tail below.
            y = rows[start:stop]
            np.multiply(g, y, out=t)
            np.subtract(g, t.sum(axis=1, keepdims=True), out=t)
        else:
            # The composite's VJPs in its backward order: div (numerator,
            # then the denominator summed over the axis) and sum's
            # broadcast added to the numerator branch here, then exp and
            # the scale's mul in the tail below.
            y, total = _shifted_exp(rows[start:stop], scale, buf)
            np.negative(g, out=t)
            np.multiply(t, y, out=t)
            np.divide(t, total ** 2, out=t)
            total_grad = t.sum(axis=1, keepdims=True)
            np.divide(g, total, out=t)
            np.add(t, total_grad, out=t)
        if scale is None:
            np.multiply(t, y, out=dest[start:stop])
        else:
            np.multiply(t, y, out=t)
            np.multiply(t, scale, out=dest[start:stop])
    return (result,)


def _softmax_save(out, inputs, params, needs):
    if params["closed_form"]:
        return out, (Standin(inputs[0]),)
    return Standin(out), inputs


# Softmax of ``x · scale`` (``scale`` a 0-d array or None) along ``axis``;
# ``closed_form`` picks the fast policy's VJP.
register("softmax", _softmax_fwd, _softmax_vjp, save=_softmax_save)


def _attention_fwd(inputs, params):
    q, k, v = inputs
    scores = q @ np.swapaxes(k, -1, -2)
    return _softmax_fwd((scores,), params, out=scores) @ v


def _attention_vjp(grad, out, inputs, params, needs):
    # The composite's VJPs in its backward order, over recomputed scores:
    # the attention-times-values matmul, the exact softmax VJP (in place),
    # the scores matmul, and the keys' transpose as a view.  At most two
    # N×N arrays are alive at once.
    q, k, v = inputs
    k_t = np.swapaxes(k, -1, -2)
    scores = q @ k_t
    grad_q = grad_k = grad_v = None
    if needs[2]:
        attention = _softmax_fwd((scores,), params)
        grad_v = _unbroadcast(np.swapaxes(attention, -1, -2) @ grad, v.shape)
        del attention
    if needs[0] or needs[1]:
        grad_scores = _unbroadcast(grad @ np.swapaxes(v, -1, -2),
                                   scores.shape)
        _softmax_vjp(grad_scores, None, (scores,), params, (True,),
                     result=grad_scores)
        del scores
        grad_q, grad_k_t = _matmul_vjp(grad_scores, None, (q, k_t), None,
                                       needs[:2])
        if grad_k_t is not None:
            grad_k = np.swapaxes(grad_k_t, -1, -2)
    return (grad_q, grad_k, grad_v)


# ``softmax(q @ kᵀ · scale) @ v`` over the last two axes, with the
# softmax's params (``axis`` −1, ``closed_form`` False).  The tape keeps
# Q, K and V, not the N×N scores and attention; the VJP recomputes them.
register("attention", _attention_fwd, _attention_vjp, save=_save_inputs)


def _channel_chain(y: np.ndarray, steps, buf: np.ndarray):
    """``relu`` of the channel-wise ``steps`` applied to ``y``, into ``buf``.

    Returns the ReLU output and its positive mask.  ``steps`` are
    ``(ufunc, constant)`` pairs: the bias add and a BatchNorm's eval-mode
    arithmetic (:meth:`repro.nn.layers.BatchNorm.eval_steps`).  The ReLU is
    the composite's ``x * (x > 0)``.
    """
    value = y
    for ufunc, constant in steps:
        value = ufunc(value, constant, out=buf)
    positive = value > 0
    np.multiply(value, positive, out=buf)
    return buf, positive


def _bn_relu_max_fwd(inputs, params):
    y = inputs[0]
    axis, steps = params["axis"], params["steps"]
    keep = list(y.shape)
    keep[axis % y.ndim] = 1
    out = np.empty(keep, dtype=y.dtype)
    rows, dest = _rows_view(y, axis), _rows_view(out, axis)
    for start, stop, (buf,) in _row_blocks(rows, y.dtype):
        relu, _ = _channel_chain(rows[start:stop], steps, buf)
        dest[start:stop] = _fast_max(relu, 1)
    return np.squeeze(out, axis=axis)


def _bn_relu_max_vjp(grad, out, inputs, params, needs):
    # The composite's VJPs in reverse: max (tie-shared), ReLU, then the
    # steps' mul/div (adds pass the gradient through unchanged).
    y = inputs[0]
    axis, steps = params["axis"], params["steps"]
    keep = list(y.shape)
    keep[axis % y.ndim] = 1
    dtype = np.result_type(grad, y)
    result = np.empty(y.shape, dtype=dtype)
    rows, dest = _rows_view(y, axis), _rows_view(result, axis)
    maxes = _rows_view(out.reshape(keep), axis)
    grads = _rows_view(grad.reshape(keep), axis)
    for start, stop, (buf,) in _row_blocks(rows, y.dtype):
        relu, positive = _channel_chain(rows[start:stop], steps, buf)
        mask = relu == maxes[start:stop]
        counts = mask.sum(axis=1, keepdims=True, dtype=relu.dtype)
        g = np.multiply(mask, grads[start:stop], out=dest[start:stop])
        np.divide(g, counts, out=g)
        np.multiply(g, positive, out=g)
        for ufunc, constant in reversed(steps):
            if ufunc is not np.add:
                ufunc(g, constant, out=g)
    return (result,)


# ``relu(y ∘ steps).max(axis)``: bias, eval-mode BatchNorm, ReLU and the
# neighbour max of a pooled Linear → BatchNorm → ReLU tail; ``steps`` are
# ``(np.add | np.multiply | np.divide, constant)`` pairs.
register("bn_relu_max", _bn_relu_max_fwd, _bn_relu_max_vjp, save=_save_all)


__all__ = ["OpDef", "OPS", "Standin", "register", "_unbroadcast", "_fast_max",
           "BLOCK_ELEMENTS"]
