"""Opt-in per-op autograd profiler: a top-k time table over Tensor ops.

:func:`profile_ops` temporarily wraps a curated set of
:class:`repro.nn.Tensor` methods with timing shims.  Each shim times the
forward call and, when the produced tensor carries a backward closure, also
wraps that closure so the backward pass is attributed to the same op name.
When the context exits the original methods are restored, so the profiler
is zero-cost (not even an ``if``) while inactive.

Timings are *inclusive*: ops implemented in terms of other ops (``mean``
calls ``sum``, ``__sub__`` calls ``__add__``) accumulate their callees'
time too.  Free tensor functions (``where``, ``gather_points``, ...) are
imported by name at their call sites and are not patchable after the fact;
their cost shows up in the gap between the op table and the wall clock.

Activation paths:

* explicitly, around any code: ``with profile_ops(tracer) as profile: ...``;
* via the environment: ``REPRO_PROFILE_OPS=1`` makes every
  ``attack_compute`` context profile its engine loop and emit an
  ``op_profile`` event per attack run into the installed tracer.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

#: Tensor methods the profiler wraps (forward + attributed backward).
PROFILED_METHODS: Tuple[str, ...] = (
    "__add__", "__neg__", "__mul__", "__truediv__", "__pow__", "__matmul__",
    "__getitem__", "exp", "log", "sqrt", "tanh", "sigmoid", "relu",
    "leaky_relu", "abs", "clip", "sum", "max", "reshape", "transpose",
    "broadcast_to", "expand_dims", "squeeze",
)


class OpProfile:
    """Accumulated per-op call counts and inclusive times (seconds)."""

    def __init__(self) -> None:
        self.forward: Dict[str, List[float]] = {}    # name -> [count, time]
        self.backward: Dict[str, List[float]] = {}

    def _add(self, table: Dict[str, List[float]], name: str,
             seconds: float) -> None:
        entry = table.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    def add_forward(self, name: str, seconds: float) -> None:
        self._add(self.forward, name, seconds)

    def add_backward(self, name: str, seconds: float) -> None:
        self._add(self.backward, name, seconds)

    # -------------------------------------------------------------- #
    def top(self, k: int = 10) -> List[Tuple[str, int, float, float]]:
        """``(name, calls, forward_s, backward_s)`` rows, slowest first."""
        names = set(self.forward) | set(self.backward)
        rows = []
        for name in names:
            fwd_count, fwd_time = self.forward.get(name, [0, 0.0])
            _, bwd_time = self.backward.get(name, [0, 0.0])
            rows.append((name, int(fwd_count), fwd_time, bwd_time))
        rows.sort(key=lambda row: row[2] + row[3], reverse=True)
        return rows[:k]

    def table(self, k: int = 10) -> str:
        rows = self.top(k)
        if not rows:
            return "(no profiled ops)"
        lines = [f"{'op':<14} {'calls':>7} {'fwd_ms':>9} {'bwd_ms':>9} "
                 f"{'total_ms':>9}"]
        for name, calls, fwd, bwd in rows:
            lines.append(f"{name:<14} {calls:>7d} {fwd * 1e3:>9.2f} "
                         f"{bwd * 1e3:>9.2f} {(fwd + bwd) * 1e3:>9.2f}")
        return "\n".join(lines)

    def as_dict(self, k: int = 10) -> List[Dict[str, float]]:
        return [{"op": name, "calls": calls, "forward_s": fwd,
                 "backward_s": bwd} for name, calls, fwd, bwd in self.top(k)]


def _wrap_method(name: str, original, profile: OpProfile):
    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        start = time.perf_counter()
        out = original(self, *args, **kwargs)
        profile.add_forward(name, time.perf_counter() - start)
        backward = getattr(out, "_backward", None)
        if backward is not None:
            def timed_backward(grad, _backward=backward, _name=name):
                begin = time.perf_counter()
                _backward(grad)
                profile.add_backward(_name, time.perf_counter() - begin)
            out._backward = timed_backward
        return out
    return wrapper


@contextmanager
def profile_ops(tracer=None, top_k: int = 12,
                label: Optional[str] = None) -> Iterator[OpProfile]:
    """Profile Tensor ops executed in the body; restore methods on exit.

    When ``tracer`` is an enabled tracer, an ``op_profile`` event carrying
    the top-``top_k`` table is emitted on exit.

    Method shims only see *eager* execution — a compiled-plan replay (see
    :mod:`repro.nn.compile`) never calls a Tensor method.  The profile is
    therefore also registered as the plan executor's profile sink, which
    reports replayed forward work as per-fused-segment spans (labelled by
    the segment's op chain), so ``REPRO_PROFILE_OPS=1`` keeps covering the
    black-box engines' replayed query forwards.
    """
    from ..nn import compile as plan_compile
    from ..nn.tensor import Tensor

    profile = OpProfile()
    originals = {}
    for name in PROFILED_METHODS:
        method = getattr(Tensor, name, None)
        if callable(method):
            originals[name] = method
            setattr(Tensor, name, _wrap_method(name, method, profile))
    plan_compile.set_profile_sink(profile)
    try:
        yield profile
    finally:
        plan_compile.set_profile_sink(None)
        for name, method in originals.items():
            setattr(Tensor, name, method)
        if tracer is not None and tracer.enabled:
            tracer.emit("op_profile", label=label,
                        ops=profile.as_dict(top_k))


__all__ = ["OpProfile", "PROFILED_METHODS", "profile_ops"]
