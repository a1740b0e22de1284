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
  a fresh neighbourhood cache and forward-plan cache.

Exactness contract: under ``ComputePolicy.exact()`` every code path in this
layer is bit-for-bit identical to the seed implementation — verified by the
golden regression test in ``tests/test_accel.py``.
"""

import os
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
    """
    global _last_attack_stats, _last_plan_stats
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
            tracer.emit("attack_run",
                        engine=getattr(config, "engine_name", None),
                        regime=getattr(config, "cache_regime", None),
                        dur_s=time.perf_counter() - start,
                        steps=stats["step"], dtype=str(policy.dtype),
                        refresh=cache.refresh_interval, cache=stats,
                        plans=_last_plan_stats)
            tracer.count("attacks", 1)
            tracer.count("attack_steps", stats["step"])
            for key in ("exact_hits", "stale_hits", "misses", "tree_hits"):
                tracer.count(f"cache.{key}", stats[key])
            tracer.count("plan.replays", plans.stats["replays"])
            tracer.count("plan.captures", plans.stats["captures"])


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
