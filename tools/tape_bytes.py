"""Print how much memory the autograd tape holds after one paper-shape forward.

Usage, from the root of a checkout::

    python3 tools/tape_bytes.py --seed 7

Each output line is ``<arch> <policy> tape <MiB> peak <MiB>``: the MiB that
tracemalloc still counts after one forward of perfbench's paper-shape
victim (4096 points, hidden 64, untrained, seeded) on the
``attack_paper_shape`` scene, and that forward's tracemalloc peak.  What
the forward leaves behind is the tape (the values its backward closures
keep) plus the small logits tensor.

The two policies are the benchmark's two cells: ``fast`` (float32, kNN
refreshed every 5 steps) differentiates the colours, as the bounded colour
cell does, and ``exact`` (float64, kNN rebuilt every step) the coordinates,
as the unbounded coordinate cell does.  Each forward runs inside
``attack_compute`` with frozen parameters, after one untraced forward that
fills the neighbourhood cache, so cached kNN tables are not counted.

The victims and the scene are perfbench's own (``perfbench/victims.py``
and ``perfbench/workloads.py``, imported and never modified), with BLAS
and the kd-tree queries pinned to one thread as ``perfbench/run.py`` pins
them.  tracemalloc slows the forward down; the times are not reported.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import tracemalloc

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
MIB = float(1 << 20)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, PERFBENCH)
    import run as perfbench  # stdlib-only at import: BLAS is not loaded yet

    perfbench.pin_blas_before_numpy()
    sys.path.insert(0, perfbench.SRC)
    from repro.accel import attack_compute, pin_compute_threads

    pin_compute_threads(1)
    import workloads
    from repro.core import AttackConfig
    from repro.nn import Tensor

    policies = (("fast", AttackConfig.fast(method="bounded", field="color"), "color"),
                ("exact", AttackConfig.paper_scale(method="unbounded", field="coordinate"),
                 "coordinate"))
    os.makedirs(perfbench.CACHE, exist_ok=True)
    work = tempfile.mkdtemp(prefix="tape-", dir=perfbench.CACHE)
    try:
        workload = workloads.WORKLOADS["attack_paper_shape"](perfbench.CACHE, work, args.seed)
        state = workload.setup()
        for arch, model in state["models"].items():
            coords, colors, _ = state["labelled"][arch]
            for name, config, field in policies:
                with attack_compute(model, config):
                    inputs = (Tensor(coords[None], requires_grad=field == "coordinate"),
                              Tensor(colors[None], requires_grad=field == "color"))
                    model(*inputs)                  # fills the kNN cache
                    tracemalloc.start()
                    try:
                        logits = model(*inputs)
                        held, peak = tracemalloc.get_traced_memory()
                    finally:
                        tracemalloc.stop()
                    del logits
                print(f"{arch:<10} {name:<5} tape {held / MIB:7.1f} peak {peak / MIB:7.1f}",
                      flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
