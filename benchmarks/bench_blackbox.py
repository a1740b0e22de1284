"""Black-box engine benchmark: per-mode cost and batched amortisation.

Times each black-box engine (NES, SPSA, decision-based boundary walk) on a
fixed query budget, serially and with ``batch_scenes`` coalescing — the
population probes of B scenes share one stacked forward, so the per-op
dispatch overhead amortises exactly like the white-box batched engines of
PR 3.  With ``--json OUT`` the results are written in the pytest-benchmark
schema, which ``benchmarks/compare.py`` reads to compare two runs made on
one machine.

Usage::

    PYTHONPATH=src python benchmarks/bench_blackbox.py [--quick] [--json OUT]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# Pin BLAS threads before numpy loads (mirrors repro.accel.threads).
_threads = str(max(int(os.environ.get("REPRO_BENCH_THREADS", "1")), 1))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, _threads)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

import numpy as np  # noqa: E402

from repro.accel import pin_compute_threads  # noqa: E402
from repro.core import AttackConfig, run_attack_batch  # noqa: E402
from repro.datasets import generate_room_scene  # noqa: E402
from repro.models import build_model  # noqa: E402

MODES = ("nes", "spsa", "boundary")

# Criteria that keep each engine busy for its whole query budget (mirrors
# the engine-contract suite): an impossible accuracy target for the
# estimators, and an immediately satisfiable one for the boundary walk —
# with an unreachable target it would never find an adversarial start and
# would give up after `boundary_init_tries` queries, timing nothing.
EXHAUSTING_TARGET = {"nes": -1.0, "spsa": -1.0, "boundary": 0.99}


def build_inputs(num_points: int, num_scenes: int):
    model = build_model("pointnet2", num_classes=13, hidden=16, seed=0)
    model.eval()
    rng = np.random.default_rng(7)
    scenes = [generate_room_scene(num_points=num_points, room_type="office",
                                  rng=rng, name=f"bench_{i}")
              for i in range(num_scenes)]
    return model, scenes


def bench_mode(model, scenes, mode: str, query_budget: int,
               batch_scenes: int) -> tuple:
    config = AttackConfig.fast(
        attack_mode=mode, method="bounded", field="color",
        query_budget=query_budget, samples_per_step=4, seed=0,
        target_accuracy=EXHAUSTING_TARGET[mode],
        batch_scenes=batch_scenes)
    start = time.perf_counter()
    results = run_attack_batch(model, scenes, config)
    return time.perf_counter() - start, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller budget/scenes (CI-sized)")
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="write results in the pytest-benchmark schema")
    args = parser.parse_args(argv)
    pin_compute_threads(int(os.environ.get("REPRO_BENCH_THREADS", "1")))

    num_points = 128 if args.quick else 256
    num_scenes = 2 if args.quick else 4
    query_budget = 60 if args.quick else 240
    model, scenes = build_inputs(num_points, num_scenes)

    benchmarks = []
    for mode in MODES:
        serial_s, serial = bench_mode(model, scenes, mode, query_budget, 1)
        batched_s, batched = bench_mode(model, scenes, mode, query_budget,
                                        num_scenes)
        for left, right in zip(serial, batched):
            if not np.array_equal(left.adversarial_colors,
                                  right.adversarial_colors):
                print(f"FAIL: {mode} batched run diverged from serial",
                      file=sys.stderr)
                return 1
        speedup = serial_s / batched_s if batched_s > 0 else float("inf")
        mean_l2 = float(np.mean([r.l2 for r in serial]))
        print(f"{mode:<9s} serial {serial_s:6.2f}s  "
              f"batched(B={num_scenes}) {batched_s:6.2f}s  "
              f"amortisation {speedup:4.2f}x  l2 {mean_l2:.3f}")
        benchmarks.append({
            "name": f"blackbox_{mode}[serial]",
            "stats": {"mean": serial_s},
            "extra_info": {"l2": mean_l2},
        })
        benchmarks.append({
            "name": f"blackbox_{mode}[batched]",
            "stats": {"mean": batched_s},
            "extra_info": {"l2": mean_l2, "speedup": str(round(speedup, 2))},
        })

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"benchmarks": benchmarks}, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
