"""Opt-in per-op profiler: a top-k time table over the ``OPS`` registry.

:func:`profile_ops` temporarily wraps the ``forward``, ``forward_out`` and
``vjp`` kernels of every :class:`repro.nn.ops.OpDef` with timing shims, and
puts the originals back when the context exits.  Every op runs through
those kernels — Tensor methods, free functions such as ``where`` and
``gather_points``, backward passes and compiled-plan replays alike — so
each is timed under its registry name.  A kernel never calls another
registry kernel, so the times are exclusive.  Nothing is wrapped while
the profiler is inactive, so it costs nothing then.

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


class OpProfile:
    """Accumulated per-op call counts and exclusive times (seconds)."""

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


def _timed(kernel, add, name: str):
    """``kernel`` with each call's duration booked as ``add(name, s)``."""
    @functools.wraps(kernel)
    def timed(*args):
        start = time.perf_counter()
        out = kernel(*args)
        add(name, time.perf_counter() - start)
        return out
    return timed


@contextmanager
def profile_ops(tracer=None, top_k: int = 12,
                label: Optional[str] = None) -> Iterator[OpProfile]:
    """Profile the registry ops executed in the body; restore on exit.

    When ``tracer`` is an enabled tracer, an ``op_profile`` event carrying
    the top-``top_k`` table is emitted on exit.
    """
    from ..nn.ops import OPS

    profile = OpProfile()
    originals = [(op, op.forward, op.forward_out, op.vjp)
                 for op in OPS.values()]
    for op, forward, forward_out, vjp in originals:
        op.forward = _timed(forward, profile.add_forward, op.name)
        if forward_out is not None:
            op.forward_out = _timed(forward_out, profile.add_forward, op.name)
        if vjp is not None:
            op.vjp = _timed(vjp, profile.add_backward, op.name)
    try:
        yield profile
    finally:
        for op, forward, forward_out, vjp in originals:
            op.forward, op.forward_out, op.vjp = forward, forward_out, vjp
        if tracer is not None and tracer.enabled:
            tracer.emit("op_profile", label=label,
                        ops=profile.as_dict(top_k))


__all__ = ["OpProfile", "profile_ops"]
