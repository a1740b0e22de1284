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
* **Fusion** — single-consumer chains of fusible ops (the
  normalize→matmul→bn→relu and gather→reduce hot paths) are grouped into
  fused steps executed as one unit: one dispatch, one profiler span, buffers
  recycled within the chain.  The kernels and their order are unchanged, so
  fusion never changes bits.

Plans are forward-only: a capture that carries gradients is refused and its
caller stays eager.  They serve the black-box engines' stacked inference
forwards (:mod:`repro.core.blackbox`), cached per engine-chosen key in the
:class:`PlanCache` that :func:`repro.accel.attack_compute` installs for the
duration of one attack run.  Engines drive the capture-once /
replay-thereafter lifecycle through :class:`StepProgram`; any surprise
(shape change, invalid capture) falls back to the eager path silently.  See
docs/COMPILE.md for where plans engage and why white-box steps run eager.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

import numpy as np

from .graph import GraphRecorder, Node, recording
from .tensor import Tensor

# Profiling sink installed by repro.telemetry.profiler.profile_ops while
# active (telemetry sits below repro.nn in the layer map, so the dependency
# points upward via this registration hook rather than an import).
_PROFILE_SINK = None

# The PlanCache installed by repro.accel.attack_compute for the current
# attack run, or None (outside an attack context).
_PLAN_CACHE: Optional["PlanCache"] = None


def set_profile_sink(sink) -> None:
    """Install (or clear, with ``None``) the executor's profiling sink.

    The sink must expose ``add_forward(name, seconds)``;
    :func:`repro.telemetry.profiler.profile_ops` registers its
    :class:`OpProfile` here so replayed and fused steps show up in
    ``REPRO_PROFILE_OPS=1`` reports alongside eagerly-executed ops.
    """
    global _PROFILE_SINK
    _PROFILE_SINK = sink


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
                 outputs: Dict[str, Node], segments: List[List[_ExecOp]],
                 template: List[Optional[np.ndarray]], num_slots: int,
                 num_folded: int = 0) -> None:
        self.placeholders = placeholders
        self.outputs = outputs
        self.segments = segments          # fused forward schedule
        self._template = template         # constants prefilled, by reference
        self.num_slots = num_slots
        self.num_folded = num_folded
        self.replays = 0
        self._segment_labels = [
            seg[0].op.name if len(seg) == 1
            else "fused:" + "+".join(step.op.name for step in seg)
            for seg in segments
        ]

    # -------------------------------------------------------------- #
    # Introspection (docs, tests, profiling)
    # -------------------------------------------------------------- #
    @property
    def num_ops(self) -> int:
        return sum(len(seg) for seg in self.segments)

    @property
    def num_fused(self) -> int:
        return sum(1 for seg in self.segments if len(seg) > 1)

    def describe(self) -> Dict[str, object]:
        return {
            "ops": self.num_ops,
            "segments": len(self.segments),
            "fused_segments": self.num_fused,
            "folded": self.num_folded,
            "slots": self.num_slots,
            "outputs": sorted(self.outputs),
        }

    # -------------------------------------------------------------- #
    # Execution
    # -------------------------------------------------------------- #
    def execute(self, feeds: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Run the plan on ``feeds`` and return its outputs by name.

        Every fused segment runs its kernels in schedule order, recycling
        released buffers through ``out=`` kernels; with a profiling sink
        installed each segment is also timed as one span.  The kernels and
        their order never change, so profiled and plain replays produce the
        same bits.
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

        sink = _PROFILE_SINK
        arena: Dict[Tuple[tuple, object], List[np.ndarray]] = {}
        for label, segment in zip(self._segment_labels, self.segments):
            start = time.perf_counter() if sink is not None else 0.0
            for step in segment:
                datas = tuple([values[i] for i in step.in_idxs])
                out = None
                if step.use_arena:
                    free = arena.get((step.shape, step.dtype))
                    if free:
                        out = step.op.forward_out(datas, step.params,
                                                  free.pop())
                if out is None:
                    out = step.op.forward(datas, step.params)
                if out.dtype != step.dtype:
                    out = out.astype(step.dtype)
                values[step.out_idx] = out
                for key, idx in step.release:
                    arena.setdefault(key, []).append(values[idx])
                    values[idx] = None
            if sink is not None:
                sink.add_forward(label, time.perf_counter() - start)
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

    # --- Fusion: group single-consumer chains of fusible ops ---------- #
    scheduled = {id(n) for n in schedule}
    consumers: Dict[int, int] = {}
    for node in schedule:
        for parent in node.inputs:
            if parent.kind == "op" and id(parent) in scheduled:
                consumers[id(parent)] = consumers.get(id(parent), 0) + 1

    segments: List[List[_ExecOp]] = []
    for i, node in enumerate(schedule):
        if segments and node.op.fuse is not None:
            prev = schedule[i - 1]
            chained = (
                prev.op.fuse is not None
                and any(p is prev for p in node.inputs)
                and consumers.get(id(prev), 0) == 1
                and segments[-1][-1].out_idx == prev.idx
            )
            if chained:
                segments[-1].append(exec_ops[i])
                continue
        segments.append([exec_ops[i]])

    return CompiledPlan(dict(recorder.placeholders), out_nodes, segments,
                        template, num_slots, num_folded=len(fold_nodes))


# ------------------------------------------------------------------ #
# The engine-facing lifecycle
# ------------------------------------------------------------------ #
class StepProgram:
    """Capture-once / replay-thereafter driver for one forward computation.

    Engines obtain a program from :meth:`PlanCache.program` keyed by
    everything that pins the plan (engine tag, scene identity, shapes), feed
    the inputs, and try :meth:`replay`.  On the first call (or after any
    fallback) they run the eager computation inside :meth:`capture` and
    :meth:`finalize` the plan.
    """

    def __init__(self, cache: "PlanCache",
                 placeholders: Dict[str, Tensor]) -> None:
        self._cache = cache
        self.placeholders = placeholders
        self._recorder: Optional[GraphRecorder] = None
        self._plan: Optional[CompiledPlan] = None
        self._invalid = False

    @property
    def ready(self) -> bool:
        return self._plan is not None

    @property
    def plan(self) -> Optional[CompiledPlan]:
        return self._plan

    def tensor(self, name: str) -> Tensor:
        return self.placeholders[name]

    def feed(self, **arrays: np.ndarray) -> None:
        """Bind fresh inputs to the persistent placeholder tensors."""
        for name, arr in arrays.items():
            t = self.placeholders[name]
            arr = np.asarray(arr)
            if arr.dtype != t.data.dtype:
                # Same cast Tensor.__init__ would apply under the policy.
                arr = arr.astype(t.data.dtype)
            t.data = arr

    @contextmanager
    def capture(self):
        """Record the eager computation if this program still needs a plan."""
        if self._plan is not None or self._invalid:
            yield False
            return
        recorder = GraphRecorder(self.placeholders)
        with recording(recorder):
            yield True
        self._recorder = recorder

    def finalize(self, outputs: Dict[str, Tensor]) -> None:
        """Compile the capture made under :meth:`capture` (no-op otherwise)."""
        recorder, self._recorder = self._recorder, None
        if recorder is None:
            return
        plan = compile_plan(recorder, outputs)
        if plan is None:
            self._invalid = True
            self._cache.stats["fallbacks"] += 1
        else:
            self._plan = plan
            self._cache.stats["captures"] += 1

    def replay(self) -> Optional[Dict[str, np.ndarray]]:
        """Replay the compiled plan on the current placeholder data.

        Returns the outputs dict, or ``None`` when no plan is available (or
        the feed no longer matches) — the caller then runs the eager path.
        """
        plan = self._plan
        if plan is None:
            return None
        feeds = {name: t.data for name, t in self.placeholders.items()}
        try:
            outputs = plan.execute(feeds)
        except PlanMismatch:
            self._cache.stats["fallbacks"] += 1
            return None
        self._cache.stats["replays"] += 1
        return outputs


class PlanCache:
    """Per-attack-run cache of :class:`StepProgram` instances.

    Installed by :func:`repro.accel.attack_compute` and discarded with the
    run, so baked-by-reference scene constants can never leak across runs.
    Keys are engine-chosen; see docs/COMPILE.md for the keying rules.
    """

    def __init__(self) -> None:
        self._programs: Dict[tuple, StepProgram] = {}
        self.stats = {"programs": 0, "captures": 0, "replays": 0,
                      "fallbacks": 0}

    def program(self, key: tuple, builder) -> StepProgram:
        """The program for ``key``, creating it via ``builder()`` once.

        ``builder`` returns the placeholder dict (name → Tensor) used for
        both the capture and all replays.
        """
        program = self._programs.get(key)
        if program is None:
            program = StepProgram(self, builder())
            self._programs[key] = program
            self.stats["programs"] += 1
        return program

    def __len__(self) -> int:
        return len(self._programs)


__all__ = [
    "CompiledPlan", "PlanCache", "PlanMismatch", "StepProgram",
    "compile_plan", "plan_cache", "set_profile_sink", "use_plan_cache",
]
