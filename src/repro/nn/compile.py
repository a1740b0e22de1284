"""Forward-only plan compiler and executor: replay captured graphs.

A captured graph (:mod:`repro.nn.graph`) is turned into a
:class:`CompiledPlan` by shape-specialized passes:

* **Dead-node elimination** — only ancestors of the requested outputs are
  scheduled; bookkeeping ops recorded during capture but never consumed are
  dropped.
* **Constant folding** — subgraphs that read only baked constants are
  evaluated once, at compile time, with the same registry kernels.
* **Buffer liveness + arena allocation** — intermediate buffers that are
  not an output (and not a view or a view's base) are returned to a
  ``(shape, dtype)``-keyed arena after their last use and recycled through
  ``out=``-capable kernels.  ``out=`` on a NumPy ufunc is bitwise-identical
  to fresh allocation, so this pass is numerics-neutral.

Plans are forward-only: a capture that carries gradients is refused and its
caller stays eager.  They serve the black-box engines' stacked inference
forwards (:mod:`repro.core.blackbox`), cached per engine-chosen key in the
:class:`PlanCache` that :func:`repro.accel.attack_compute` installs for the
duration of one attack run.  :meth:`PlanCache.run` captures a key's forward
once and replays it thereafter; any surprise (shape change, invalid capture)
falls back to the eager path silently.  See docs/COMPILE.md for where plans
engage and why white-box steps run eager.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .graph import GraphRecorder, Node, recording
from .tensor import Tensor

# The PlanCache installed by repro.accel.attack_compute for the current
# attack run, or None (outside an attack context).
_PLAN_CACHE: Optional["PlanCache"] = None


def plan_cache() -> Optional["PlanCache"]:
    """The PlanCache of the active attack run, or ``None``."""
    return _PLAN_CACHE


@contextmanager
def use_plan_cache(cache: Optional["PlanCache"]):
    """Install ``cache`` as the active plan cache for the ``with`` body."""
    global _PLAN_CACHE
    previous = _PLAN_CACHE
    _PLAN_CACHE = cache
    try:
        yield cache
    finally:
        _PLAN_CACHE = previous


class PlanMismatch(RuntimeError):
    """A replay was fed arrays whose shapes differ from the captured plan."""


class _ExecOp:
    """One forward step: precomputed indices for the hot replay loop."""

    __slots__ = ("op", "in_idxs", "params", "out_idx", "dtype", "shape",
                 "use_arena", "release")

    def __init__(self, node: Node) -> None:
        self.op = node.op
        self.in_idxs = tuple(p.idx for p in node.inputs)
        self.params = node.params
        self.out_idx = node.idx
        self.dtype = node.dtype
        self.shape = node.shape
        self.use_arena = node.op.forward_out is not None
        self.release: List[Tuple[Tuple[tuple, object], int]] = []


class CompiledPlan:
    """A shape-specialized, replayable forward plan for one graph."""

    def __init__(self, placeholders: Dict[str, Node],
                 outputs: Dict[str, Node], steps: List[_ExecOp],
                 template: List[Optional[np.ndarray]], num_slots: int,
                 num_folded: int = 0) -> None:
        self.placeholders = placeholders
        self.outputs = outputs
        self.steps = steps                # forward schedule
        self._template = template         # constants prefilled, by reference
        self.num_slots = num_slots
        self.num_folded = num_folded
        self.replays = 0

    # -------------------------------------------------------------- #
    # Introspection (docs, tests)
    # -------------------------------------------------------------- #
    @property
    def num_ops(self) -> int:
        return len(self.steps)

    def describe(self) -> Dict[str, object]:
        return {
            "ops": self.num_ops,
            "folded": self.num_folded,
            "slots": self.num_slots,
            "outputs": sorted(self.outputs),
        }

    # -------------------------------------------------------------- #
    # Execution
    # -------------------------------------------------------------- #
    def execute(self, feeds: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Run the plan on ``feeds`` and return its outputs by name.

        The steps run their registry kernels in schedule order, recycling
        released buffers through ``out=`` kernels.
        """
        values = list(self._template)
        for name, node in self.placeholders.items():
            arr = feeds[name]
            if arr.shape != node.shape:
                raise PlanMismatch(
                    f"placeholder {name!r}: expected {node.shape}, "
                    f"got {arr.shape}")
            if arr.dtype != node.dtype:
                # Same coercion Tensor.__init__ applies to eager inputs.
                arr = arr.astype(node.dtype)
            values[node.idx] = arr

        arena: Dict[Tuple[tuple, object], List[np.ndarray]] = {}
        for step in self.steps:
            datas = tuple([values[i] for i in step.in_idxs])
            out = None
            if step.use_arena:
                free = arena.get((step.shape, step.dtype))
                if free:
                    out = step.op.forward_out(datas, step.params, free.pop())
            if out is None:
                out = step.op.forward(datas, step.params)
            if out.dtype != step.dtype:
                out = out.astype(step.dtype)
            values[step.out_idx] = out
            for key, idx in step.release:
                arena.setdefault(key, []).append(values[idx])
                values[idx] = None
        self.replays += 1
        return {name: values[node.idx] for name, node in self.outputs.items()}


# ------------------------------------------------------------------ #
# Compilation passes
# ------------------------------------------------------------------ #
def compile_plan(recorder: GraphRecorder,
                 outputs: Dict[str, Tensor]) -> Optional[CompiledPlan]:
    """Compile a finished capture into a :class:`CompiledPlan`.

    Returns ``None`` when the capture cannot be soundly replayed (invalid
    recording, missing outputs, empty graph, or a node that carries a
    gradient — plans are forward-only) — callers fall back to eager.
    """
    if not recorder.valid or not recorder.order:
        return None

    out_nodes: Dict[str, Node] = {}
    for name, t in outputs.items():
        node = recorder.node_for(t)
        if node is None or node.kind != "op":
            return None
        out_nodes[name] = node

    # --- Dead-node elimination: ancestors of the outputs -------------- #
    needed: Dict[int, Node] = {}
    stack: List[Node] = list(out_nodes.values())
    while stack:
        node = stack.pop()
        if id(node) in needed:
            continue
        needed[id(node)] = node
        stack.extend(node.inputs)
    if any(node.requires_grad for node in needed.values()):
        return None

    schedule_all = [n for n in recorder.order if id(n) in needed]

    # --- Constant folding: evaluate constant-only subgraphs once ------ #
    # Anything computed purely from baked constants (BatchNorm eval
    # arithmetic, ...) produces the same value every replay.  Run the exact
    # registry kernel once here and bake the result, so replays skip the op
    # entirely.  Same kernel, same inputs -> same bits.
    out_ids = {id(n) for n in out_nodes.values()}
    folded: Dict[int, np.ndarray] = {}
    for node in schedule_all:
        if id(node) in out_ids:
            continue
        datas = []
        for parent in node.inputs:
            if parent.kind == "constant":
                datas.append(parent.data)
            elif id(parent) in folded:
                datas.append(folded[id(parent)])
            else:
                datas = None
                break
        if datas is None:
            continue
        value = node.op.forward(tuple(datas), node.params)
        if value.dtype != node.dtype:
            value = value.astype(node.dtype)
        folded[id(node)] = value

    fold_nodes = [n for n in schedule_all if id(n) in folded]
    schedule = [n for n in schedule_all if id(n) not in folded]
    if not schedule:
        return None

    # --- Slot assignment --------------------------------------------- #
    leaves = [n for n in needed.values() if n.kind != "op"]
    num_slots = 0
    for node in leaves + fold_nodes + schedule:
        node.idx = num_slots
        num_slots += 1

    template: List[Optional[np.ndarray]] = [None] * num_slots
    for node in leaves:
        if node.kind == "constant":
            template[node.idx] = node.data
    for node in fold_nodes:
        template[node.idx] = folded[id(node)]

    # --- Liveness: which buffers may be recycled ---------------------- #
    pinned = set(out_ids)
    for node in schedule:
        if node.op.returns_view:
            pinned.add(id(node))          # views own no memory
            for parent in node.inputs:
                pinned.add(id(parent))    # and must keep their base alive

    last_use: Dict[int, int] = {}
    for i, node in enumerate(schedule):
        for parent in node.inputs:
            if parent.kind == "op" and id(parent) not in folded:
                # Folded values live in the shared template; recycling
                # them would hand the template's buffer to the arena.
                last_use[id(parent)] = i

    exec_ops = [_ExecOp(node) for node in schedule]
    for node_id, pos in last_use.items():
        if node_id in pinned:
            continue
        node = needed[node_id]
        exec_ops[pos].release.append(((node.shape, node.dtype), node.idx))

    return CompiledPlan(dict(recorder.placeholders), out_nodes, exec_ops,
                        template, num_slots, num_folded=len(fold_nodes))


# ------------------------------------------------------------------ #
# The engine-facing lifecycle
# ------------------------------------------------------------------ #
class PlanCache:
    """Per-attack-run cache of compiled forward plans, one per key.

    Installed by :func:`repro.accel.attack_compute` and discarded with the
    run, so baked-by-reference scene constants can never leak across runs.
    Keys are engine-chosen; see docs/COMPILE.md for the keying rules.
    """

    def __init__(self) -> None:
        self._plans: Dict[tuple, Optional[CompiledPlan]] = {}
        self.stats = {"programs": 0, "captures": 0, "replays": 0,
                      "fallbacks": 0}

    def run(self, key: tuple, forward: Callable[..., Tensor],
            **feeds: np.ndarray) -> np.ndarray:
        """``forward(**tensors).data`` for tensors holding ``feeds``.

        The first call for ``key`` runs ``forward`` eagerly while recording
        it and compiles the recording into the key's plan; later calls
        replay that plan.  A refused capture counts one fallback and leaves
        the key eager for good; a replay fed arrays of another shape counts
        one fallback and runs eagerly.
        """
        tensors = {name: Tensor(arr) for name, arr in feeds.items()}
        if key not in self._plans:
            self.stats["programs"] += 1
            recorder = GraphRecorder(tensors)
            with recording(recorder):
                out = forward(**tensors)
            plan = self._plans[key] = compile_plan(recorder, {"out": out})
            self.stats["fallbacks" if plan is None else "captures"] += 1
            return out.data
        plan = self._plans[key]
        if plan is not None:
            try:
                outputs = plan.execute({name: t.data
                                        for name, t in tensors.items()})
            except PlanMismatch:
                self.stats["fallbacks"] += 1
            else:
                self.stats["replays"] += 1
                return outputs["out"]
        return forward(**tensors).data


__all__ = [
    "CompiledPlan", "PlanCache", "PlanMismatch", "compile_plan",
    "plan_cache", "use_plan_cache",
]
