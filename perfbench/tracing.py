"""Per-layer spans for the traced benchmark run.

The benchmark times calls into each layer's public entry points by
replacing the attribute callers actually look up (for example
``repro.accel.cache.knn_indices``, not ``repro.geometry.knn.knn_indices``)
with a timing wrapper.  Nothing under ``src/`` changes.

A span records calls, total seconds and self seconds, where self time is
the span's duration minus the time of the spans it encloses in the same
thread.  Spans aggregate per name in memory.  Forked pool and serve workers
inherit the wrappers; each child resets its totals at fork and writes them
to a spool directory when it exits, and the parent merges the files.

A target that does not exist is reported as absent, never as a crash: a
later change may delete a layer (``repro.nn.compile``, say) and the traced
run must still work.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import multiprocessing.util
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: White-box and black-box engine classes, by the name their spans carry.
ENGINES = {
    "bounded": ("repro.core.norm_bounded", "NormBoundedAttack"),
    "unbounded": ("repro.core.norm_unbounded", "NormUnboundedAttack"),
    "nes": ("repro.core.blackbox", "NESAttack"),
    "spsa": ("repro.core.blackbox", "SPSAAttack"),
    "boundary": ("repro.core.blackbox", "BoundaryAttack"),
}

MODELS = {
    "pointnet2": ("repro.models.pointnet2", "PointNet2Seg"),
    "resgcn": ("repro.models.resgcn", "ResGCNSeg"),
    "randlanet": ("repro.models.randlanet", "RandLANetSeg"),
    "pct": ("repro.models.pct", "PointTransformerSeg"),
}

#: ``(module, attribute path, span name)`` of every plain wrapper target.
TARGETS: List[Tuple[str, str, str]] = [
    ("repro.nn.tensor", "Tensor.backward", "nn.backward"),
    ("repro.nn.compile", "StepProgram.replay", "nn.plan.replay"),
    ("repro.models.base", "SegmentationModel.logits_numpy",
     "models.logits_numpy"),
    ("repro.accel.cache", "knn_indices", "geometry.knn"),
    ("repro.accel.cache", "dilated_knn_indices", "geometry.knn"),
    ("repro.core.smoothness", "knn_indices", "geometry.knn"),
    ("repro.accel.cache", "build_tree", "geometry.tree"),
    ("repro.models.pointnet2", "farthest_point_sampling", "geometry.fps"),
    ("repro.geometry.knn", "ball_query", "geometry.ball_query"),
    ("repro.accel.cache", "fingerprint", "accel.cache.fingerprint"),
    ("repro.accel.cache", "NeighborhoodCache.memo", "accel.cache"),
    ("repro.accel.cache", "NeighborhoodCache.knn", "accel.cache"),
    ("repro.accel.cache", "NeighborhoodCache.knn_batch", "accel.cache"),
    ("repro.accel.cache", "NeighborhoodCache.dilated", "accel.cache"),
    ("repro.accel.cache", "NeighborhoodCache.tree", "accel.cache"),
    ("repro.core.norm_bounded", "adversarial_loss", "core.loss"),
    ("repro.core.norm_unbounded", "adversarial_loss", "core.loss"),
    ("repro.core.norm_unbounded", "smoothness_penalty", "core.loss"),
    ("repro.core.eot", "adversarial_loss", "core.loss"),
    ("repro.core.blackbox", "_margin_loss", "core.loss"),
    ("repro.core.norm_bounded", "build_result", "core.build_result"),
    ("repro.core.norm_unbounded", "build_result", "core.build_result"),
    ("repro.core.blackbox", "build_result", "core.build_result"),
    ("repro.core.random_noise", "build_result", "core.build_result"),
    ("repro.core.norm_bounded", "averaged_eot_loss", "defenses.eot"),
    ("repro.core.norm_unbounded", "averaged_eot_loss", "defenses.eot"),
    ("repro.core.norm_bounded", "stack_samples", "defenses.eot"),
    ("repro.core.norm_unbounded", "stack_samples", "defenses.eot"),
    ("repro.pipeline.executors", "initialize_worker",
     "pipeline.worker_start"),
    ("repro.serve.server", "initialize_serve_worker",
     "pipeline.worker_start"),
    ("repro.pipeline.graph", "content_hash", "pipeline.hash"),
    ("repro.serve.jobs", "content_hash", "pipeline.hash"),
    ("repro.pipeline.store", "ResultStore.get", "pipeline.store.get"),
    ("repro.pipeline.store", "ResultStore.put", "pipeline.store.put"),
    ("repro.pipeline.store", "ResultStore.contains",
     "pipeline.store.contains"),
    ("repro.datasets", "generate_room_scene", "datasets.generate"),
    ("repro.experiments.context", "generate_room_scene", "datasets.generate"),
    ("repro.experiments.context", "generate_s3dis_dataset",
     "datasets.generate"),
    ("repro.experiments.context", "generate_semantic3d_dataset",
     "datasets.generate"),
    ("repro.experiments.context", "generate_outdoor_scene",
     "datasets.generate"),
    ("repro.datasets.splits", "prepare_scene", "datasets.prepare_scene"),
    ("repro.core.attack", "prepare_scene", "datasets.prepare_scene"),
]
TARGETS += [(module, f"{cls}.forward", f"models.{arch}.forward")
            for arch, (module, cls) in MODELS.items()]
TARGETS += [(module, f"{cls}.{method}", f"core.{engine}")
            for engine, (module, cls) in ENGINES.items()
            for method in ("run", "run_batched")]
TARGETS.append(("repro.core.random_noise", "RandomNoiseBaseline.run",
                "core.noise"))

#: Modules whose ``attack_compute`` binding gets the per-regime cache hook.
ATTACK_COMPUTE_SITES = ("repro.core.norm_bounded", "repro.core.norm_unbounded",
                        "repro.core.blackbox")

REGIMES = ("color", "coordinate", "both", "eot", "blackbox")


def regime(config) -> str:
    """Cache regime of one attack: black-box, EOT, else the attacked field."""
    if config.attack_mode.value != "whitebox":
        return "blackbox"
    if config.adaptive:
        return "eot"
    return config.field.value


class Recorder:
    """In-memory span totals and counters of one process."""

    def __init__(self, spool: str) -> None:
        self.spool = spool
        self.spans: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Tuple[Any, str, Any]] = []
        self.absent: List[str] = []

    # ------------------------------------------------------------------ #
    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def main_thread_self(self) -> float:
        """Self seconds recorded on the thread that installed the recorder."""
        return sum(entry[3] for entry in self.spans.values())

    def _close(self, name: str, duration: float, child: float,
               stack: List[List[float]]) -> None:
        if stack:
            stack[-1][0] += duration
        main = threading.get_ident() == self._main_thread
        with self._lock:
            entry = self.spans.get(name)
            if entry is None:
                entry = self.spans[name] = [0, 0.0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child
            if main:
                entry[3] += duration - child

    def wrap(self, name: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                recorder._close(name, duration, frame[0], stack)
        return wrapper

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every target; remember absent ones."""
        self._main_thread = threading.get_ident()
        for module_name, path, span in TARGETS:
            owner, attr = _resolve(module_name, path)
            if owner is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            self._patch(owner, attr, self.wrap(span, owner.__dict__[attr]))
        self._install_ops()
        for module_name in ATTACK_COMPUTE_SITES:
            owner, attr = _resolve(module_name, "attack_compute")
            if owner is None:
                self.absent.append(f"{module_name}.attack_compute")
                continue
            self._patch(owner, attr, self._cache_hook(owner.__dict__[attr]))
        # Registered with multiprocessing, not os.register_at_fork: a new
        # worker clears the finalizer registry right after the fork, then
        # runs these hooks.
        multiprocessing.util.register_after_fork(self, Recorder._forked)

    def _install_ops(self) -> None:
        owner, _ = _resolve("repro.nn.ops", "OPS")
        if owner is None:
            self.absent.append("repro.nn.ops.OPS")
            return
        for name, op in owner.OPS.items():
            self._patch(op, "forward",
                        self.wrap(f"nn.op.{name}.fwd", op.forward))
            if op.vjp is not None:
                self._patch(op, "vjp", self.wrap(f"nn.op.{name}.vjp", op.vjp))

    def _cache_hook(self, attack_compute: Callable) -> Callable:
        """``attack_compute`` that books the run's cache and plan counters
        under the attack's regime once the engine loop finishes."""
        recorder = self
        accel = importlib.import_module("repro.accel")

        @contextlib.contextmanager
        @functools.wraps(attack_compute)
        def hooked(model, config, **kwargs):
            with attack_compute(model, config, **kwargs) as cache:
                yield cache
            stats = accel.last_attack_cache_stats()
            name = regime(config)
            for key in ("exact_hits", "stale_hits", "misses"):
                recorder.count(f"accel.cache.{name}.{key}", stats.get(key, 0))
            recorder.count("attack.steps", stats.get("step", 0))
            plans = getattr(accel, "last_attack_plan_stats", dict)()
            for key in ("captures", "replays", "fallbacks"):
                recorder.count(f"nn.plan.{key}", plans.get(key, 0))
        return hooked

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every wrapped attribute back (children keep theirs)."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------ #
    def _forked(self) -> None:
        """In a forked worker: start empty, flush when the worker exits."""
        self.spans = {}
        self.counts = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_thread = threading.get_ident()
        multiprocessing.util.Finalize(None, self.flush, exitpriority=10)

    def flush(self) -> None:
        path = os.path.join(self.spool, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)

    def worker_totals(self) -> Tuple[Dict[str, List[float]], Dict[str, float]]:
        """Span totals and counters flushed by every exited child."""
        spans: Dict[str, List[float]] = {}
        counts: Dict[str, float] = {}
        for name in sorted(os.listdir(self.spool)):
            if not name.startswith("spans-"):
                continue
            with open(os.path.join(self.spool, name), encoding="utf-8") as f:
                data = json.load(f)
            for span, values in data["spans"].items():
                merged = spans.setdefault(span, [0, 0.0, 0.0, 0.0])
                for i in range(3):
                    merged[i] += values[i]
            for key, value in data["counts"].items():
                counts[key] = counts.get(key, 0) + value
        return spans, counts


def _resolve(module_name: str, path: str) -> Tuple[Optional[Any], str]:
    """``(owner, attribute)`` for ``module.path``, or ``(None, ...)``."""
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None, path
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None, attr
    if attr not in getattr(owner, "__dict__", {}):
        if not hasattr(owner, attr):
            return None, attr
        # Inherited method (the black-box engines' ``run``): give the
        # subclass its own wrapped copy so each engine gets its own span.
        setattr(owner, attr, getattr(owner, attr))
    return owner, attr
