"""Shared fixtures for the benchmark suite.

Each ``bench_*`` module regenerates one table or figure of the paper.  The
experiment context (datasets + trained victim models) is built once per
pytest session and the trained weights are cached on disk, so later benchmark
runs skip training entirely.  Table IV is computed once per session too (the
``table4`` fixture): Table V's Finding 4 compares against it.

Every ``run_table*`` call now submits a task graph through
:mod:`repro.pipeline`; by default the graph executes serially in-process,
matching the historical timings.  Two environment variables change that:

* ``REPRO_BENCH_JOBS=N`` — fan the attack cells of each table out onto N
  worker processes;
* ``REPRO_BENCH_RESUME=1`` — attach the content-addressed result store, so
  repeated benchmark runs resume from completed cells.  Note that this
  changes what is being measured (a fully-cached table regenerates in
  milliseconds), which is exactly the scaling behaviour the pipeline exists
  to provide — leave it unset for honest one-shot timings.

Orthogonally, ``REPRO_ACCEL=fast|exact`` forces the :mod:`repro.accel`
compute policy for every attack regardless of configuration: ``fast`` is
float32 with a 5-step neighbourhood refresh (the default for the fast-scale
attack profile these benchmarks use), ``exact`` is the bit-for-bit seed
arithmetic.  To compare two runs of this suite on one machine, save each
with ``--benchmark-json FILE`` and run ``python benchmarks/compare.py
BASELINE CANDIDATE`` for the per-table speedups.

Every benchmark uses ``benchmark.pedantic(..., rounds=1, iterations=1)``:
the measured quantity is the one-shot wall-clock cost of regenerating the
experiment, not a micro-benchmark statistic.
"""

from __future__ import annotations

import functools
import os

import pytest

from repro.experiments import ExperimentConfig, ExperimentContext, run_table4
from repro.pipeline import PipelineSession, ResultStore

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def _pipeline_session(cache_dir: str):
    """Build the pipeline session requested via the environment (or none)."""
    jobs = max(1, int(os.environ.get("REPRO_BENCH_JOBS", "1")))
    resume = os.environ.get("REPRO_BENCH_RESUME", "") == "1"
    if jobs <= 1 and not resume:
        return None
    store = ResultStore(os.path.join(cache_dir, "results")) if resume else None
    return PipelineSession(jobs=jobs, store=store, quiet=True)


@pytest.fixture(scope="session")
def context() -> ExperimentContext:
    """Default-scale experiment context shared by all benchmark modules."""
    cache_dir = os.environ.get(
        "REPRO_CACHE_DIR",
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "_cache"),
    )
    config = ExperimentConfig.default(cache_dir=cache_dir)
    return ExperimentContext(config, pipeline=_pipeline_session(cache_dir))


@pytest.fixture(scope="session")
def table4(context):
    """A call that returns Table IV, computed on the first call only.

    Without ``REPRO_BENCH_RESUME=1`` no result store is attached, so a
    second ``run_table4`` would run all its cells again.  Table IV's
    benchmark makes the first, timed call; Table V's Finding 4 reads the
    same table.
    """
    return functools.cache(lambda: run_table4(context))


@pytest.fixture(scope="session")
def results_dir() -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


def save_table(table, results_dir: str) -> str:
    """Persist a formatted table next to the benchmark outputs."""
    path = os.path.join(results_dir, f"{table.name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(table.formatted() + "\n")
    return path


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
