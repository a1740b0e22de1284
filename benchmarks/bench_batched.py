"""Batched multi-scene attack throughput: the ``batch_scenes`` amortisation win.

Measures ``run_attack_batch`` throughput (scenes/sec) on an 8-scene smoke
attack cell at ``batch_scenes`` ∈ {1, 4, 8} for every victim architecture,
and verifies in-process that the batched results are bit-identical per
scene to the serial ones before timing anything; a mismatch raises.
Results are written in the pytest-benchmark schema, by default to
``benchmarks/results/BENCH_batched.json`` (not tracked).

The amortisation is architecture-dependent: PCT's attention folds the batch
into large GEMMs (the per-op fixed costs vanish), while PointNet++'s
grouping tensors are memory-bandwidth-bound, so one batched pass costs
nearly as much as B serial ones.  The per-architecture ``speedup_vs_B1``
figures show that spread on the machine that runs the script.

Usage::

    PYTHONPATH=src python benchmarks/bench_batched.py [--json OUT] [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# BLAS pinning must precede the first numpy import (importing from `repro`
# would pull numpy in first), so the env vars are written inline here.
_threads = str(max(int(os.environ.get("REPRO_SMOKE_THREADS", "1")), 1))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, _threads)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

import dataclasses  # noqa: E402

import numpy as np  # noqa: E402

from repro.accel import pin_compute_threads  # noqa: E402
from repro.core import AttackConfig, run_attack_batch  # noqa: E402
from repro.datasets import generate_room_scene  # noqa: E402
from repro.models import build_model  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_OUTPUT = os.path.join(HERE, "results", "BENCH_batched.json")

NUM_SCENES = 8
BATCH_SIZES = (1, 4, 8)
MODELS = ("pointnet2", "randlanet", "resgcn", "pct")


def build_cell(model_name: str):
    kwargs = {"num_blocks": 2} if model_name == "resgcn" else {}
    model = build_model(model_name, num_classes=13, hidden=16, seed=0, **kwargs)
    model.eval()
    rng = np.random.default_rng(7)
    scenes = [generate_room_scene(num_points=128, room_type="office", rng=rng,
                                  name=f"smoke_{i}")
              for i in range(NUM_SCENES)]
    config = AttackConfig.fast(method="unbounded", field="color",
                               unbounded_steps=20, smoothness_alpha=4, seed=0,
                               target_accuracy=0.0)
    return model, scenes, config


def check_equivalence(model, scenes, config) -> None:
    """Batched results must be bit-identical per scene before we time them."""
    serial = run_attack_batch(model, scenes, config)
    for batch_scenes in BATCH_SIZES[1:]:
        batched = run_attack_batch(
            model, scenes, dataclasses.replace(config,
                                               batch_scenes=batch_scenes))
        for left, right in zip(serial, batched):
            if not (np.array_equal(left.adversarial_colors, right.adversarial_colors)
                    and np.array_equal(left.adversarial_coords, right.adversarial_coords)
                    and left.history == right.history):
                raise AssertionError(
                    f"batched (B={batch_scenes}) diverged from serial on "
                    f"{left.scene_name}")


def time_cell(model, scenes, config, repeats: int) -> float:
    """Best-of-``repeats`` wall-clock for one full cell."""
    run_attack_batch(model, scenes, config)        # warm caches / allocator
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run_attack_batch(model, scenes, config)
        best = min(best, time.perf_counter() - start)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", default=DEFAULT_OUTPUT, metavar="OUT")
    parser.add_argument("--quick", action="store_true",
                        help="single timing repeat (CI); default is 3")
    args = parser.parse_args(argv)
    pin_compute_threads(int(os.environ.get("REPRO_SMOKE_THREADS", "1")))
    repeats = 1 if args.quick else 3

    benchmarks = []
    for model_name in MODELS:
        model, scenes, config = build_cell(model_name)
        check_equivalence(model, scenes, config)
        base_elapsed = None
        for batch_scenes in BATCH_SIZES:
            cell_config = dataclasses.replace(config,
                                              batch_scenes=batch_scenes)
            elapsed = time_cell(model, scenes, cell_config, repeats)
            if batch_scenes == 1:
                base_elapsed = elapsed
            throughput = NUM_SCENES / elapsed
            speedup = base_elapsed / elapsed
            benchmarks.append({
                "name": f"batched_attack_cell[{model_name},B{batch_scenes}]",
                "stats": {"mean": elapsed},
                "extra_info": {
                    "scenes_per_sec": round(throughput, 2),
                    "speedup_vs_B1": round(speedup, 2),
                    "num_scenes": NUM_SCENES,
                },
            })
            print(f"{model_name:10s} B={batch_scenes}: {elapsed:.3f}s "
                  f"{throughput:6.1f} scenes/s  {speedup:.2f}x vs B=1")

    os.makedirs(os.path.dirname(os.path.abspath(args.json)), exist_ok=True)
    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump({"benchmarks": benchmarks}, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
