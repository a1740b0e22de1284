"""Print one sha256 per perfbench attack cell, to see which cells kept their bits.

Usage, from the root of a checkout::

    python3 tools/cell_digests.py --workload attack_default --seed 7

Each output line is ``<round> <arch>/<attack> <sha256>``.  The hash covers
the adversarial coordinates, the adversarial colours and the loss history
of every scene the cell attacked, as float64 bytes.  Run it in two
checkouts and ``diff`` the outputs: a line that differs names a cell whose
bits moved.

The cells are perfbench's own (``perfbench/workloads.py``, imported and
never modified), built from one set-up and run in the benchmark's order,
with BLAS and the kd-tree queries pinned to one thread as
``perfbench/run.py`` pins them.  ``attack_default`` trains its victims
into ``.perfbench_cache/`` on first use, as the benchmark does.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys
import tempfile

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
WORKLOADS = ("attack_default", "attack_paper_shape")


def cell_digest(results) -> str:
    """sha256 over each result's adversarial cloud and loss history."""
    import numpy as np

    digest = hashlib.sha256()
    for result in results:
        for array in (result.adversarial_coords, result.adversarial_colors,
                      [entry["loss"] for entry in result.history]):
            digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, PERFBENCH)
    import run as perfbench  # stdlib-only at import: BLAS is not loaded yet

    perfbench.pin_blas_before_numpy()
    sys.path.insert(0, perfbench.SRC)
    from repro.accel import pin_compute_threads

    pin_compute_threads(1)
    import workloads

    os.makedirs(perfbench.CACHE, exist_ok=True)
    work = tempfile.mkdtemp(prefix="digests-", dir=perfbench.CACHE)
    try:
        workload = workloads.WORKLOADS[args.workload](perfbench.CACHE, work, args.seed)
        workload.prepare()
        state = workload.setup()
        for index in range(workload.ROUNDS):
            for cell in workload.cells(state, index):
                print(f"{index} {cell.label} {cell_digest(cell.run())}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
