"""Benchmark: regenerate Table V (object hiding, norm-bounded).

Paper claim reproduced (Finding 4): the norm-bounded attack achieves lower
PSR than the norm-unbounded attack of Table IV for the same source classes.
"""

import numpy as np

from repro.experiments import run_table5

from conftest import run_once, save_table


def test_table5_hiding_bounded(benchmark, context, table4, results_dir):
    table5 = run_once(benchmark, lambda: run_table5(context))
    save_table(table5, results_dir)
    print("\n" + table5.formatted())

    # Table IV as its benchmark computed it (or computed here, when this
    # module runs alone), to compare the two attack families directly.
    hiding4 = table4()

    psr5 = np.mean([cell["psr"] for cell in table5.metadata["cells"].values()])
    psr4 = np.mean([cell["psr"] for cell in hiding4.metadata["cells"].values()])

    # Finding 4: the norm-unbounded attack is the more effective hiding attack.
    assert psr4 >= psr5 - 0.05

    # The bounded attack still succeeds on some classes (non-trivial PSR).
    assert psr5 > 0.05

    # Structural completeness: one row per (model, source class).
    assert len(table5.rows) == len(hiding4.rows)
