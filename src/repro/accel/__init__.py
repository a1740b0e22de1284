"""``repro.accel`` — the compute-policy layer of the attack hot path.

This package concentrates the performance knobs that every other subsystem
(:mod:`repro.nn`, :mod:`repro.geometry`, :mod:`repro.models`,
:mod:`repro.core`) consults:

* :class:`ComputePolicy` — float32 fast-math vs float64 exactness, and the
  neighbourhood refresh interval ``R``;
* :class:`NeighborhoodCache` — memoised, staleness-tolerant kNN graphs and
  shared kd-trees;
* :func:`attack_compute` — the single context manager attack engines wrap
  around their optimisation loop: it activates the dtype policy, casts the
  victim model, freezes its parameters (input gradients only) and installs
  a fresh neighbourhood cache and forward-plan cache.  On its first entry
  in a process it also makes the allocator keep freed memory.

Exactness contract: under ``ComputePolicy.exact()`` every code path in this
layer is bit-for-bit identical to the seed implementation — verified by the
golden regression test in ``tests/test_accel.py``.
"""

import os
import resource
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator

from ..telemetry import get_tracer, record_cache_stats
from .cache import NeighborhoodCache, fingerprint, neighborhoods, use_cache
from .policy import (
    ComputePolicy,
    cast_model,
    compute_dtype,
    current_policy,
    freeze_parameters,
    use_policy,
)
from .threads import pin_blas_env, pin_compute_threads


@contextmanager
def attack_compute(model, config, *,
                   neighbor_refresh: int | None = None) -> Iterator[NeighborhoodCache]:
    """Everything an attack engine needs around its optimisation loop.

    Derives the :class:`ComputePolicy` from ``config`` (honouring the
    ``REPRO_ACCEL`` override), activates it, casts ``model`` to the policy
    dtype, freezes its parameters, and installs a fresh
    :class:`NeighborhoodCache` with the policy's refresh interval, plus a
    :class:`repro.nn.compile.PlanCache` for the black-box engines'
    forward-only plans.  Yields the neighbourhood cache; the engine calls
    :meth:`NeighborhoodCache.advance` once per optimisation step.

    ``neighbor_refresh`` overrides the cache's staleness interval without
    touching the dtype policy.  The black-box engines pin it to 1: slot
    staleness is keyed by batch position, which depends on how scenes are
    packed into a forward, and their probe clouds change every step anyway —
    a content-exact cache keeps serial and ``batch_scenes`` runs bit-for-bit
    identical while still memoising the unchanged-coordinate lookups.

    The first entry in a process sets the allocator rule of
    :func:`_keep_freed_memory`, which stays for the life of the process.
    While tracing, ``attack_run`` also reports the block's user and system
    CPU time and minor page faults (``user_s``, ``sys_s``, ``minflt``).
    """
    global _last_attack_stats, _last_plan_stats
    _keep_freed_memory()
    # Imported lazily: repro.nn consults this package on every Tensor
    # creation, so the module-level dependency must point nn -> accel only.
    from ..nn.compile import PlanCache, use_plan_cache

    policy = ComputePolicy.from_attack_config(config)
    cache = NeighborhoodCache(refresh_interval=neighbor_refresh
                              if neighbor_refresh is not None
                              else policy.neighbor_refresh)
    cache.reset_stats()
    plans = PlanCache()
    tracer = get_tracer()
    usage = resource.getrusage(_RUSAGE_WHO) if tracer.enabled else None
    start = time.perf_counter()
    try:
        with use_policy(policy), cast_model(model, policy.dtype), \
                freeze_parameters(model), use_cache(cache), \
                use_plan_cache(plans), _maybe_profile(tracer):
            yield cache
    finally:
        stats = cache.stats()
        _last_attack_stats = stats
        _last_plan_stats = dict(plans.stats)
        record_cache_stats(stats)
        if tracer.enabled:
            rusage = {}
            if usage is not None:
                now = resource.getrusage(_RUSAGE_WHO)
                rusage = dict(user_s=now.ru_utime - usage.ru_utime,
                              sys_s=now.ru_stime - usage.ru_stime,
                              minflt=now.ru_minflt - usage.ru_minflt)
            tracer.emit("attack_run",
                        engine=getattr(config, "engine_name", None),
                        regime=getattr(config, "cache_regime", None),
                        dur_s=time.perf_counter() - start, **rusage,
                        steps=stats["step"], dtype=str(policy.dtype),
                        refresh=cache.refresh_interval, cache=stats,
                        plans=_last_plan_stats)
            tracer.count("attacks", 1)
            tracer.count("attack_steps", stats["step"])
            for key in ("exact_hits", "stale_hits", "misses", "tree_hits"):
                tracer.count(f"cache.{key}", stats[key])
            tracer.count("plan.replays", plans.stats["replays"])
            tracer.count("plan.captures", plans.stats["captures"])


# The attacking thread's own usage where the platform can tell it apart.
_RUSAGE_WHO = getattr(resource, "RUSAGE_THREAD", resource.RUSAGE_SELF)

# glibc <malloc.h> parameter numbers, and the threshold both are set to: the
# largest per-step array at paper shape, PCT's 4096 x 4096 float64 scores, is
# 128 MiB, and mallopt takes an int.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_KEEP_FREED_BYTES = 1 << 30
_freed_memory_kept = False


def _keep_freed_memory() -> None:
    """Keep the memory an attack step frees for the next step (once).

    glibc serves an allocation above its mmap threshold, which stops
    growing at 32 MiB on 64-bit, from a fresh mapping that the kernel
    zero-fills and ``free`` unmaps, and it gives a free heap top back to
    the kernel.  Attack steps repeat the same large temporaries (ResGCN's
    edge features, PCT's attention scores), so every step paid those page
    faults again.  With both thresholds at 1 GiB they come from the heap
    and stay there, and the process keeps its peak resident until it
    exits.  Setting either switches glibc's dynamic thresholds off for good
    (mallopt(3)), so this runs once per process and is never undone.
    Without a libc ``mallopt`` (macOS) nothing changes.
    """
    global _freed_memory_kept
    if _freed_memory_kept:
        return
    _freed_memory_kept = True
    mallopt = _libc_mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _KEEP_FREED_BYTES)
        mallopt(_M_TRIM_THRESHOLD, _KEEP_FREED_BYTES)


def _libc_mallopt():
    """The C library's ``int mallopt(int, int)``, or ``None`` without one."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def _maybe_profile(tracer):
    """The per-op autograd profiler, when ``REPRO_PROFILE_OPS`` opts in."""
    if os.environ.get("REPRO_PROFILE_OPS", "").strip() in ("", "0"):
        return nullcontext()
    from ..telemetry.profiler import profile_ops
    return profile_ops(tracer=tracer, label="attack_compute")


_last_attack_stats: Dict[str, int] = {}
_last_plan_stats: Dict[str, int] = {}


def last_attack_cache_stats() -> Dict[str, int]:
    """Stats of the most recent attack's neighbourhood cache (diagnostics)."""
    return dict(_last_attack_stats)


def last_attack_plan_stats() -> Dict[str, int]:
    """Plan-cache stats of the most recent attack run (diagnostics).

    Keys: ``programs``, ``captures``, ``replays``, ``fallbacks``.  Only the
    black-box engines capture plans; white-box runs report zeros.
    """
    return dict(_last_plan_stats)


__all__ = [
    "ComputePolicy",
    "NeighborhoodCache",
    "attack_compute",
    "cast_model",
    "compute_dtype",
    "current_policy",
    "fingerprint",
    "freeze_parameters",
    "last_attack_cache_stats",
    "last_attack_plan_stats",
    "neighborhoods",
    "pin_blas_env",
    "pin_compute_threads",
    "use_cache",
    "use_policy",
]
