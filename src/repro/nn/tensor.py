"""Reverse-mode automatic differentiation on NumPy arrays.

This module provides the :class:`Tensor` class, the foundation of the
``repro.nn`` substrate.  It is a deliberately small, well-tested autograd
engine: every operation is declared once in the :mod:`repro.nn.ops` registry
(forward kernel + vector-Jacobian product + compiler metadata), and every
Tensor method is a thin wrapper that routes through the :func:`_apply`
chokepoint.  :meth:`Tensor.backward` walks the recorded graph in reverse
topological order accumulating gradients, and consumes it as it goes: only
leaves keep ``.grad``, so call it once per forward.

The graph links nodes, not tensors.  An op output that needs a gradient gets
a :class:`_Node` holding its backward closure, the gradient targets of its
inputs (their nodes, or the leaf tensors themselves) and the gradient
reaching it; an output that needs none gets no node.  The closure keeps only
the values the op's VJP reads (:attr:`OpDef.save <repro.nn.ops.OpDef>`;
every other value reaches the VJP as a :class:`~repro.nn.ops.Standin`), so
a tensor's ``.data`` is freed with the tensor unless a closure saved it.

Routing everything through one chokepoint is what makes graph capture
(:mod:`repro.nn.graph`) possible: when a recorder is active, ``_apply``
notifies it of every op, and the resulting forward plan replays the
identical kernel sequence without rebuilding tensors (see
:mod:`repro.nn.compile`).

Only the operations needed by the point-cloud segmentation models and the
attack framework are implemented, but each supports full NumPy broadcasting
and is checked against finite differences in the test-suite.

The floating dtype of every new tensor follows the active
:class:`repro.accel.ComputePolicy` (float64 by default; float32 inside the
attack engines' fast-math context).  Gradient accumulation is allocation
lean: the first gradient reaching a leaf or node is stored by reference,
later ones are added in place into a privately owned buffer, and backward
closures skip work entirely for inputs that do not require gradients.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from ..accel.policy import compute_dtype
from .ops import OPS, OpDef, _fast_max, _unbroadcast  # noqa: F401 (re-export)

ArrayLike = Union[np.ndarray, float, int, "Tensor", Sequence]

# The active GraphRecorder (see repro.nn.graph) or None.  Set/cleared by
# repro.nn.graph.recording(); read once per op in _apply.
_RECORDER = None


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    """Coerce ``value`` to a NumPy array of the active compute dtype."""
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value, dtype=dtype or compute_dtype())
    return arr


def _apply(op: OpDef, inputs: Tuple["Tensor", ...], params: dict) -> "Tensor":
    """Execute one registry op eagerly and (optionally) record it.

    This is the single construction path for every op-producing tensor: it
    runs the registered forward kernel, gives an output that needs a
    gradient a node whose backward closure keeps what ``op.save`` keeps and
    skips inputs that need no gradient, and notifies the active graph
    recorder.
    """
    datas = tuple([t.data for t in inputs])
    data = op.forward(datas, params)
    needs = tuple([t.requires_grad for t in inputs])
    if True in needs and op.differentiable:
        vjp = op.vjp
        saved_out, saved = op.save(data, datas, params, needs)
        # An input that needs no gradient is no parent, so the tape does
        # not hold it.
        parents = tuple([t._node or t if need else None
                         for t, need in zip(inputs, needs)])

        def backward(grad: np.ndarray) -> None:
            grads = vjp(grad, saved_out, saved, params, needs)
            for parent, piece in zip(parents, grads):
                if piece is not None:
                    parent._accumulate(piece)

        out = Tensor(data, requires_grad=True)
        out._node = _Node(backward, parents, out.data.dtype)
    else:
        out = Tensor(data)
    if _RECORDER is not None:
        _RECORDER.record(op, inputs, out, params)
    return out


def _consumed(grad: np.ndarray) -> None:
    """The backward closure of a node an earlier ``backward()`` ran."""
    raise RuntimeError("backward() through a graph that an earlier backward() "
                       "already consumed; run the forward again")


class _GradTarget:
    """Where gradients collect: a leaf :class:`Tensor` or a :class:`_Node`."""

    __slots__ = ("grad", "_grad_owned")

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        current = self.grad
        if current is None:
            # Store by reference: most targets receive exactly one gradient,
            # so the defensive copy the seed made is usually wasted.  The
            # array may be shared (or a read-only broadcast view), hence the
            # ownership flag guarding the in-place fast path below.
            grad = np.asarray(grad)
            if grad.dtype != self.dtype:
                grad = grad.astype(self.dtype)
                self._grad_owned = True
            else:
                self._grad_owned = False
            self.grad = grad
        elif self._grad_owned and current.shape == np.shape(grad):
            current += grad
        else:
            self.grad = current + grad
            self._grad_owned = True


class _Node(_GradTarget):
    """The tape entry of an op output that needs a gradient.

    It holds the backward closure (with the values the op's VJP reads),
    the gradient targets of the op's inputs (``None`` for an input that
    needs no gradient) and the gradient reaching the output, but not the
    output's ``.data``.  ``dtype`` is the output's, for casting gradients.
    """

    __slots__ = ("_backward", "_parents", "dtype")
    requires_grad = True

    def __init__(self, backward: Callable[[np.ndarray], None],
                 parents: Tuple[Optional[_GradTarget], ...], dtype) -> None:
        self._backward = backward
        self._parents = parents
        self.grad = None
        self._grad_owned = False
        self.dtype = dtype


class Tensor(_GradTarget):
    """A NumPy-backed tensor that records operations for autodiff.

    Parameters
    ----------
    data:
        Array-like payload.  Stored as ``float64`` by default.
    requires_grad:
        Whether gradients should be accumulated for this tensor.
    """

    __slots__ = ("data", "requires_grad", "_node", "name")

    # A leaf is its own gradient target, with nothing behind it to walk.
    _backward = None
    _parents = ()

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._node: Optional[_Node] = None
        self._grad_owned = False
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return a copy of the underlying data."""
        return self.data.copy()

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None
        self._grad_owned = False

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        return _apply(OPS["add"], (self, as_tensor(other)), {})

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return _apply(OPS["neg"], (self,), {})

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return _apply(OPS["mul"], (self, as_tensor(other)), {})

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return _apply(OPS["div"], (self, as_tensor(other)), {})

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        return _apply(OPS["pow"], (self,), {"exponent": exponent})

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return _apply(OPS["matmul"], (self, as_tensor(other)), {})

    # ------------------------------------------------------------------ #
    # Elementwise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        return _apply(OPS["exp"], (self,), {})

    def log(self) -> "Tensor":
        return _apply(OPS["log"], (self,), {})

    def sqrt(self) -> "Tensor":
        return _apply(OPS["sqrt"], (self,), {})

    def tanh(self) -> "Tensor":
        return _apply(OPS["tanh"], (self,), {})

    def sigmoid(self) -> "Tensor":
        return _apply(OPS["sigmoid"], (self,), {})

    def relu(self) -> "Tensor":
        return _apply(OPS["relu"], (self,), {})

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        return _apply(OPS["leaky_relu"], (self,),
                      {"negative_slope": negative_slope})

    def abs(self) -> "Tensor":
        return _apply(OPS["abs"], (self,), {})

    def clip(self, low: float, high: float) -> "Tensor":
        return _apply(OPS["clip"], (self,), {"low": low, "high": high})

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _apply(OPS["sum"], (self,), {"axis": axis, "keepdims": keepdims})

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        return _apply(OPS["max"], (self,), {"axis": axis, "keepdims": keepdims})

    def min(self, axis: int, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _apply(OPS["reshape"], (self,), {"shape": shape})

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)
        return _apply(OPS["transpose"], (self,),
                      {"axes": axes, "inverse": inverse})

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(tuple(axes))

    def broadcast_to(self, shape) -> "Tensor":
        """Broadcast to ``shape`` without copying (gradients sum back down).

        The forward value is a read-only NumPy broadcast view, so tiling a
        ``(B, N, 1, C)`` centre across ``K`` neighbours costs no memory —
        unlike the ``x + zeros(shape)`` idiom it replaces.
        """
        return _apply(OPS["broadcast_to"], (self,), {"shape": tuple(shape)})

    def expand_dims(self, axis: int) -> "Tensor":
        return _apply(OPS["expand_dims"], (self,), {"axis": axis})

    def squeeze(self, axis: int) -> "Tensor":
        return _apply(OPS["squeeze"], (self,), {"axis": axis})

    def __getitem__(self, index) -> "Tensor":
        return _apply(OPS["getitem"], (self,), {"index": index})

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ``1`` for scalar tensors.

        Notes
        -----
        The walk runs over the nodes of op outputs and ends at leaves.  It
        consumes the graph, as PyTorch does by default: once a node's VJP
        has run, its closure (with the values it saved), parent links and
        gradient are dropped, so only leaves keep ``.grad`` and each saved
        activation is freed as soon as nothing else holds it.  Call
        ``backward()`` once per forward; a second call through a consumed
        node raises ``RuntimeError``.

        ``.grad`` arrays must be treated as read-only: the allocation-lean
        accumulation stores gradients by reference, so an array may be
        shared between tensors or be a read-only broadcast view.  Replace a
        gradient (``t.grad = ...``) instead of mutating it in place.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        root = self._node or self
        topo: list[_GradTarget] = []
        visited: set[int] = set()
        stack: list[tuple[_GradTarget, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent is not None and id(parent) not in visited:
                    stack.append((parent, False))

        root._accumulate(grad)
        while topo:
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # Consume the node: its closure (and the values it saved),
                # its parent links and its gradient go now, so the tape
                # shrinks as the walk proceeds and a second backward()
                # through it raises.
                node._backward = _consumed
                node._parents = ()
                node.grad = None


def as_tensor(value: ArrayLike) -> Tensor:
    """Return ``value`` unchanged if it is a :class:`Tensor`, else wrap it."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


# ---------------------------------------------------------------------- #
# Free functions that combine multiple tensors
# ---------------------------------------------------------------------- #
def concatenate(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = tuple(as_tensor(t) for t in tensors)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    return _apply(OPS["concatenate"], tensors,
                  {"axis": axis, "splits": splits})


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    tensors = tuple(as_tensor(t) for t in tensors)
    return _apply(OPS["stack"], tensors, {"axis": axis})


def maximum(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise maximum with subgradient routed to the larger input."""
    return _apply(OPS["maximum"], (as_tensor(a), as_tensor(b)), {})


def minimum(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise minimum with subgradient routed to the smaller input."""
    return -maximum(-as_tensor(a), -as_tensor(b))


def where(condition: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Select ``a`` where ``condition`` is true, else ``b``.

    ``condition`` is treated as a constant (no gradient flows through it).
    """
    cond = np.asarray(condition, dtype=bool)
    return _apply(OPS["where"], (as_tensor(a), as_tensor(b)), {"cond": cond})


def detached_max(x: Tensor, axis: int = -1) -> Tensor:
    """``x.max(axis, keepdims=True)`` as a recorded, gradient-free op.

    Used for the numerically-stabilising shift of log-softmax: the
    value is data-dependent but must not carry gradient.  Unlike wrapping the
    NumPy result in a fresh constant tensor, this records a graph node, so
    compiled plans recompute the shift on every replayed forward instead of
    baking a stale constant.
    """
    return _apply(OPS["detached_max"], (as_tensor(x),), {"axis": axis})


def gather_points(features: Tensor, index: np.ndarray) -> Tensor:
    """Gather per-point feature vectors using an integer index map.

    Parameters
    ----------
    features:
        Tensor of shape ``(B, N, C)``.
    index:
        Integer array of shape ``(B, M)`` or ``(B, M, K)`` whose values index
        into the ``N`` dimension of ``features``.

    Returns
    -------
    Tensor
        Shape ``(B, M, C)`` or ``(B, M, K, C)`` respectively.
    """
    features = as_tensor(features)
    index = np.asarray(index, dtype=np.int64)
    if features.ndim != 3:
        raise ValueError("features must have shape (B, N, C)")
    batch, num_points, channels = features.shape
    if index.ndim == 2:
        batch_idx = np.arange(batch)[:, None]
    elif index.ndim == 3:
        batch_idx = np.arange(batch)[:, None, None]
    else:
        raise ValueError("index must have shape (B, M) or (B, M, K)")
    flat_index = (batch_idx * num_points + index).reshape(-1)
    return _apply(OPS["gather_points"], (features,), {
        "flat_index": flat_index,
        "index_shape": index.shape,
        "rows": batch * num_points,
        "channels": channels,
    })


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)
