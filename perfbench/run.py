"""Same-machine benchmark of the attack framework: one workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload attack_default --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs the workload's minimum work twice, untraced and then with per-layer
spans installed, and reports the per-layer metrics.  Either way the human
report comes first and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every correctness check passed.  ``README.md`` beside this file
documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Dict, List, Tuple

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Victim checkpoints and per-run scratch space, inside the checkout.
CACHE = os.path.join(ROOT, ".perfbench_cache")

#: Set-ups timed per run; ``setup_s`` is their median.
SETUPS = 3

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("scene_steps_per_s", "1/s"),
    ("adv_accuracy", "fraction"),
    ("peak_rss_mb", "MB"),
    ("cold_s", "s"),
    ("computed_request_s_p50", "s"),
]

#: Registry ops whose calls and kernel times are reported one by one.
REPORTED_OPS = ("add", "mul", "div", "matmul", "exp", "max", "sum", "relu",
                "leaky_relu", "gather_points", "getitem", "concatenate",
                "broadcast_to", "where")
ARCHS = tuple(tracing.MODELS)
ENGINES = (*tracing.ENGINES, "noise")
REGIMES = tracing.REGIMES


def per_layer_units() -> List[Tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    units = [("nn.backward.calls", "count"), ("nn.backward.self_s", "s"),
             ("nn.ops_per_step", "ops/step")]
    for op in REPORTED_OPS:
        units += [(f"nn.op.{op}.calls", "count"), (f"nn.op.{op}.fwd_s", "s"),
                  (f"nn.op.{op}.vjp_s", "s")]
    units += [("nn.plan.captures", "count"), ("nn.plan.replays", "count"),
              ("nn.plan.fallbacks", "count"), ("nn.plan.replay_s", "s")]
    for arch in ARCHS:
        units += [(f"models.{arch}.forward_calls", "count"),
                  (f"models.{arch}.forward_s", "s")]
    units += [("models.logits_numpy.calls", "count"),
              ("models.logits_numpy.s", "s")]
    for name in ("knn", "tree", "fps", "ball_query"):
        units += [(f"geometry.{name}.calls", "count"),
                  (f"geometry.{name}.s", "s")]
    for regime in REGIMES:
        units += [(f"accel.cache.{regime}.{key}", "count") for key in
                  ("lookups", "exact_hits", "stale_hits", "misses")]
    units += [("accel.cache.fingerprint_s", "s"), ("accel.cache.self_s", "s")]
    units += [(f"core.{engine}.self_s", "s") for engine in ENGINES]
    units += [("core.loss_s", "s"), ("core.build_result_s", "s"),
              ("defenses.eot_s", "s")]
    units += [("pipeline.task_overhead_s", "s"),
              ("pipeline.utilisation", "fraction"),
              ("pipeline.worker_start_s", "s"), ("pipeline.hash_s", "s")]
    units += [(f"pipeline.store.{key}", "count")
              for key in ("gets", "puts", "hits", "misses")]
    units += [("pipeline.store.get_s", "s"), ("pipeline.store.put_s", "s"),
              ("pipeline.store.bytes_read", "bytes"),
              ("pipeline.store.bytes_written", "bytes")]
    units += [("serve.queue_wait_s", "s"), ("serve.compute_s", "s"),
              ("serve.computed", "count"), ("serve.dedup_store", "count"),
              ("serve.dedup_inflight", "count")]
    units += [("warm_s", "s"), ("cached_request_ms_p50", "ms"),
              ("cached_request_ms_p90", "ms")]
    units += [("datasets.generate_s", "s"), ("datasets.prepare_scene_s", "s"),
              ("telemetry.overhead_ratio", "ratio"), ("other_s", "s"),
              ("wall_s", "s")]
    return units


def pin_blas_before_numpy() -> None:
    """Pin BLAS to one thread before anything imports numpy.

    ``repro.accel.threads`` only needs ``os`` at import time, so it is
    loaded standalone here; importing it through its package would pull
    numpy in first.  ``pin_compute_threads(1)`` runs again after the
    imports to pin the kd-tree query workers.
    """
    path = os.path.join(SRC, "repro", "accel", "threads.py")
    spec = importlib.util.spec_from_file_location("_perfbench_threads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.pin_blas_env(1, overwrite=True)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _live_children_peaks_kb() -> List[int]:
    """``VmHWM`` of every live child process (serve workers), from /proc."""
    me = str(os.getpid())
    peaks = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                if handle.read().rsplit(")", 1)[1].split()[1] != me:
                    continue
            with open(f"/proc/{entry}/status", encoding="utf-8") as handle:
                peaks += [int(line.split()[1]) for line in handle
                          if line.startswith("VmHWM:")]
        except (OSError, IndexError):
            continue
    return peaks


def reset_peak_rss() -> None:
    """Forget this process's peak RSS so far (Linux ``clear_refs``).

    The first run in a checkout trains the victims in-process; that
    one-off peak must not count as the workload's.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """The largest peak RSS of any one process of the run.

    Children are the pool and serve workers and the import probe: exited
    ones through ``getrusage``, live ones through /proc.  A child's peak
    includes the pages it shares with this process, so adding the peaks
    would count those twice.
    """
    peaks = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]
    return max(peaks + _live_children_peaks_kb()) / 1024.0


def end_to_end(m, setup_times: List[float],
               rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run.

    ``cold_s``, ``scene_steps_per_s`` and ``computed_request_s_p50`` take
    the best of the run's cold rounds: other tenants of the machine only
    ever slow a round down, and their load shifts over seconds, so the
    fastest round is the steadiest estimate of what the work costs.
    """
    return {
        "setup_s": statistics.median(setup_times),
        "scene_steps_per_s": max(m.steps_per_s),
        "adv_accuracy": statistics.fmean(m.adv_accuracy),
        "peak_rss_mb": rss_mb,
        "cold_s": min(m.cold_s),
        "computed_request_s_p50": min(statistics.median(latencies)
                                      for latencies in m.computed_s),
    }


def warm_metrics(m) -> Dict[str, float]:
    """Store-hit timings of one pass; 0 where the workload has no store."""
    if not m.cached_s:
        return {"warm_s": 0.0, "cached_request_ms_p50": 0.0,
                "cached_request_ms_p90": 0.0}
    return {"warm_s": statistics.median(m.warm_s),
            "cached_request_ms_p50": 1000.0 * percentile(m.cached_s, 0.5),
            "cached_request_ms_p90": 1000.0 * percentile(m.cached_s, 0.9)}


def timed_setups(workload) -> Tuple[object, List[float]]:
    """Set the workload up ``SETUPS`` times; keep the last state."""
    times = []
    state = None
    for _ in range(SETUPS):
        if state is not None:
            workload.teardown(state)
            # Free the previous set-up before the next one allocates, so
            # repeated set-ups do not raise the peak RSS.
            state = None
            gc.collect()
        start = time.perf_counter()
        state = workload.setup()
        times.append(time.perf_counter() - start)
    return state, times


def run_untraced(workload, seconds: float):
    state, setup_times = timed_setups(workload)
    try:
        m = workload.measure(state, seconds)
        rss_mb = peak_rss_mb()       # while serve workers are alive
    finally:
        workload.teardown(state)
    return m, end_to_end(m, setup_times, max(rss_mb, peak_rss_mb()))


def one_pass(workload):
    """Set-up, minimum measured work and tear-down, with their wall time."""
    start = time.perf_counter()
    state = workload.setup()
    try:
        m = workload.measure(state, 0.0)
    finally:
        workload.teardown(state)
    return m, time.perf_counter() - start


def run_traced(workload, work: str):
    from repro.accel import neighborhoods

    untraced, untraced_wall = one_pass(workload)
    # Reporting forwards are memoised process-wide; start the traced pass
    # as cold as the untraced one.
    neighborhoods().clear()
    spool = tempfile.mkdtemp(prefix="spans-", dir=work)
    recorder = tracing.Recorder(spool)
    recorder.install()
    try:
        m, wall = one_pass(workload)
    finally:
        recorder.uninstall()
    metrics, report = per_layer(recorder, m, wall, wall / untraced_wall)
    # Store-hit latency is taken from the untraced pass: it has no bound,
    # because it drifts with the disk by a factor of two between runs.
    metrics.update(warm_metrics(untraced))
    return m, metrics, report


def per_layer(recorder, m, wall: float, ratio: float):
    spans, counts = recorder.worker_totals()
    for name, values in recorder.spans.items():
        merged = spans.setdefault(name, [0, 0.0, 0.0, 0.0])
        for i in range(4):
            merged[i] += values[i]
    for name, value in recorder.counts.items():
        counts[name] = counts.get(name, 0) + value

    def calls(name: str) -> float:
        return spans.get(name, [0])[0]

    def total(name: str) -> float:
        return spans.get(name, [0, 0.0])[1]

    def own(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[2]

    layers = m.layers
    out: Dict[str, float] = {"nn.backward.calls": calls("nn.backward"),
                             "nn.backward.self_s": own("nn.backward")}
    op_calls = sum(v[0] for k, v in spans.items()
                   if k.startswith("nn.op.") and k.endswith(".fwd"))
    steps = counts.get("attack.steps", 0)
    out["nn.ops_per_step"] = op_calls / steps if steps else 0.0
    for op in REPORTED_OPS:
        out[f"nn.op.{op}.calls"] = calls(f"nn.op.{op}.fwd")
        out[f"nn.op.{op}.fwd_s"] = total(f"nn.op.{op}.fwd")
        out[f"nn.op.{op}.vjp_s"] = total(f"nn.op.{op}.vjp")
    for key in ("captures", "replays", "fallbacks"):
        out[f"nn.plan.{key}"] = counts.get(f"nn.plan.{key}", 0)
    out["nn.plan.replay_s"] = total("nn.plan.replay")
    for arch in ARCHS:
        out[f"models.{arch}.forward_calls"] = calls(f"models.{arch}.forward")
        out[f"models.{arch}.forward_s"] = total(f"models.{arch}.forward")
    out["models.logits_numpy.calls"] = calls("models.logits_numpy")
    out["models.logits_numpy.s"] = total("models.logits_numpy")
    for name in ("knn", "tree", "fps", "ball_query"):
        out[f"geometry.{name}.calls"] = calls(f"geometry.{name}")
        out[f"geometry.{name}.s"] = total(f"geometry.{name}")
    for regime in REGIMES:
        hits = [counts.get(f"accel.cache.{regime}.{key}", 0)
                for key in ("exact_hits", "stale_hits", "misses")]
        out[f"accel.cache.{regime}.lookups"] = sum(hits)
        for key, value in zip(("exact_hits", "stale_hits", "misses"), hits):
            out[f"accel.cache.{regime}.{key}"] = value
    out["accel.cache.fingerprint_s"] = total("accel.cache.fingerprint")
    out["accel.cache.self_s"] = own("accel.cache")
    for engine in ENGINES:
        out[f"core.{engine}.self_s"] = own(f"core.{engine}")
    out["core.loss_s"] = total("core.loss")
    out["core.build_result_s"] = total("core.build_result")
    out["defenses.eot_s"] = total("defenses.eot")
    busy, slot = layers.get("pipeline.busy_s", 0.0), layers.get(
        "pipeline.slot_s", 0.0)
    tasks = layers.get("pipeline.tasks", 0.0)
    out["pipeline.task_overhead_s"] = (slot - busy) / tasks if tasks else 0.0
    out["pipeline.utilisation"] = busy / slot if slot else 0.0
    out["pipeline.worker_start_s"] = total("pipeline.worker_start")
    out["pipeline.hash_s"] = total("pipeline.hash")
    out["pipeline.store.gets"] = calls("pipeline.store.get")
    out["pipeline.store.puts"] = calls("pipeline.store.put")
    out["pipeline.store.get_s"] = total("pipeline.store.get")
    out["pipeline.store.put_s"] = total("pipeline.store.put")
    for key in ("hits", "misses", "bytes_read", "bytes_written"):
        out[f"pipeline.store.{key}"] = layers.get(f"pipeline.store.{key}", 0)
    for key in ("queue_wait_s", "compute_s", "computed", "dedup_store",
                "dedup_inflight"):
        out[f"serve.{key}"] = layers.get(f"serve.{key}", 0.0)
    out["datasets.generate_s"] = total("datasets.generate")
    out["datasets.prepare_scene_s"] = total("datasets.prepare_scene")
    out["telemetry.overhead_ratio"] = ratio
    main_self = recorder.main_thread_self()
    out["other_s"] = wall - main_self
    out["wall_s"] = wall

    report = layer_report(spans, out, recorder, main_self, wall,
                          (busy, slot, steps, op_calls))
    return out, report


def _ratio(part: float, base: float, label: str) -> str:
    if not base:
        return f"{label}: omitted (base 0)"
    return f"{label}: {part:.0f}/{base:.0f} = {part / base:.1%}"


def layer_report(spans, out, recorder, main_self, wall,
                 bases) -> List[str]:
    busy, slot, steps, op_calls = bases
    lines = ["per-layer spans (all processes): name  calls  total_s  self_s"]
    for name, (n, tot, own, _) in sorted(spans.items(),
                                         key=lambda item: -item[1][2]):
        lines.append(f"  {name:<34} {n:>9.0f} {tot:>10.4f} {own:>10.4f}")
    lines.append("neighbourhood cache by regime (lookups = exact + stale "
                 "+ misses):")
    for regime in REGIMES:
        lookups = out[f"accel.cache.{regime}.lookups"]
        lines.append("  " + "; ".join(
            _ratio(out[f"accel.cache.{regime}.{key}"], lookups,
                   f"{regime} {key}")
            for key in ("exact_hits", "stale_hits", "misses")))
    lines.append(f"  registry ops per attack step: {op_calls:.0f} ops / "
                 f"{steps:.0f} steps" + (f" = {op_calls / steps:.1f}"
                                          if steps else " (omitted: base 0)"))
    lines.append("  " + _ratio(busy, slot,
                               "pipeline busy s / worker-slot s"))
    if recorder.absent:
        lines.append("absent layers (no such attribute): "
                     + ", ".join(recorder.absent))
    lines.append(f"main thread: self {main_self:.4f} s + other "
                 f"{out['other_s']:.4f} s = traced wall {wall:.4f} s")
    lines.append(f"telemetry overhead: traced / untraced wall = "
                 f"{out['telemetry.overhead_ratio']:.3f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas_before_numpy()
    sys.path.insert(0, SRC)
    from repro.accel import pin_compute_threads
    pin_compute_threads(1)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    os.makedirs(CACHE, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=CACHE)
    try:
        workload = workloads.WORKLOADS[args.workload](CACHE, work, args.seed)
        workload.prepare()
        reset_peak_rss()
        if args.trace:
            m, metrics, report = run_traced(workload, work)
            units = per_layer_units()
        else:
            m, metrics = run_untraced(workload, args.seconds)
            report, units = [], END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}")
    for line in report:
        print(line)
    for name, unit in units:
        print(f"  {name:<34} {metrics[name]:>14.6g} {unit}")
    error_rate = m.failed / m.attempted
    print(f"  {'error_rate':<34} {error_rate:>14.6g} fraction "
          f"({m.failed} of {m.attempted} operations and checks failed)")
    for failure in m.failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": m.failed == 0, "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units}}))
    return 0 if m.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
