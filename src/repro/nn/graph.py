"""Graph capture: record one forward computation's tensor ops as a graph.

The black-box engines run the same stacked inference forward many times —
same model, same shapes, same op sequence — with only the query clouds
changing.  This module records that computation once as a static op graph:
every :func:`repro.nn.tensor._apply` call while a recorder is active becomes
a :class:`Node` carrying the op, its input nodes, parameters, shape and
dtype.  The plan compiler (:mod:`repro.nn.compile`) then turns the graph
into a replayable forward plan.

Three node kinds:

``placeholder``
    An input whose data changes between replays (the stacked black-box
    query clouds).  Registered explicitly by the engine; replay feeds fresh
    arrays into these slots.
``constant``
    Any other tensor entering the graph from outside: frozen model
    parameters, neighbourhood index tables.  Baked by reference — valid
    because the engines only replay plans in regimes where these stay fixed
    (colour-field attacks, static defense; see docs/COMPILE.md).
``op``
    A recorded operation from the :mod:`repro.nn.ops` registry.

Capture is conservative: if anything unexpected appears — a tensor that
requires gradients but was not registered as a placeholder — the recording
is marked invalid and the engine silently stays on the eager path.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import tensor as tensor_mod
from .ops import OpDef
from .tensor import Tensor


class Node:
    """One vertex of a captured computation graph."""

    __slots__ = ("kind", "op", "inputs", "params", "shape", "dtype",
                 "requires_grad", "data", "name", "idx")

    def __init__(self, kind: str, *, op: Optional[OpDef] = None,
                 inputs: Tuple["Node", ...] = (), params: Optional[dict] = None,
                 shape: Tuple[int, ...] = (), dtype=None,
                 requires_grad: bool = False,
                 data: Optional[np.ndarray] = None,
                 name: Optional[str] = None) -> None:
        self.kind = kind                # "op" | "placeholder" | "constant"
        self.op = op
        self.inputs = inputs
        self.params = params or {}
        self.shape = shape
        self.dtype = dtype
        self.requires_grad = requires_grad
        self.data = data                # baked array for constants
        self.name = name                # slot name for placeholders
        self.idx = -1                   # value-slot index, set by the compiler

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.op.name if self.op is not None else (self.name or self.kind)
        return f"Node({self.kind}:{label}, shape={self.shape})"


class GraphRecorder:
    """Record every ``_apply`` call into a static op graph.

    Parameters
    ----------
    placeholders:
        Mapping from slot name to the tensor whose data will be swapped on
        each replayed step.  Every other tensor entering the graph is baked
        as a constant.
    """

    def __init__(self, placeholders: Dict[str, Tensor]) -> None:
        self.order: List[Node] = []
        self.placeholders: Dict[str, Node] = {}
        self.valid = True
        # id(tensor) -> Node, plus a reference to the tensor itself so ids
        # cannot be recycled by the allocator mid-capture.
        self._nodes: Dict[int, Node] = {}
        self._alive: List[Tensor] = []
        for slot, t in placeholders.items():
            node = Node("placeholder", shape=t.shape, dtype=t.dtype,
                        requires_grad=t.requires_grad, name=slot)
            self.placeholders[slot] = node
            self._bind(t, node)

    def _bind(self, t: Tensor, node: Node) -> None:
        self._nodes[id(t)] = node
        self._alive.append(t)

    def _lookup(self, t: Tensor) -> Node:
        node = self._nodes.get(id(t))
        if node is None:
            # First sighting of an outside tensor: bake it as a constant
            # (by reference — the engines guarantee it stays fixed for the
            # lifetime of the plan).  A gradient-bearing stray means the
            # engine forgot a placeholder; poison the capture instead of
            # baking something that must not be constant.
            if t.requires_grad:
                self.valid = False
            node = Node("constant", shape=t.shape, dtype=t.dtype,
                        requires_grad=t.requires_grad, data=t.data)
            self._bind(t, node)
        return node

    def record(self, op: OpDef, inputs: Tuple[Tensor, ...], out: Tensor,
               params: dict) -> None:
        """Called by :func:`repro.nn.tensor._apply` for every executed op."""
        in_nodes = tuple(self._lookup(t) for t in inputs)
        node = Node("op", op=op, inputs=in_nodes, params=params,
                    shape=out.shape, dtype=out.dtype,
                    requires_grad=out.requires_grad)
        self.order.append(node)
        self._bind(out, node)

    def node_for(self, t: Tensor) -> Optional[Node]:
        """The node a tensor was recorded as, or ``None`` if never seen."""
        return self._nodes.get(id(t))


@contextmanager
def recording(recorder: GraphRecorder) -> Iterator[GraphRecorder]:
    """Route every tensor op through ``recorder`` for the duration.

    Capture does not nest: entering while another recorder is active marks
    the inner recorder invalid and records nothing (the outer capture is
    left untouched).
    """
    if tensor_mod._RECORDER is not None:
        recorder.valid = False
        yield recorder
        return
    tensor_mod._RECORDER = recorder
    try:
        yield recorder
    finally:
        tensor_mod._RECORDER = None


__all__ = ["Node", "GraphRecorder", "recording"]
