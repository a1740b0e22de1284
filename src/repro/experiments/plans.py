"""Experiment plan registry: every experiment name as a task graph.

Tables II–IX decompose into per-cell attack tasks (see the ``plan_*``
builders in the table modules).  The remaining experiments — figures,
overhead and the ablations/extensions — run as single monolithic pipeline
tasks: they still flow through the scheduler and (where it makes sense) the
result store, and can be decomposed further in later iterations.

This module is the one registry of experiment names: :data:`EXPERIMENTS`
maps each name to its runner, and ``docs/EXPERIMENTS.md`` embeds the
table :func:`experiments_markdown_table` renders from it.  Importing this
module registers every domain executor, which is why
:mod:`repro.pipeline.worker` imports it lazily before executing tasks.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping

from ..pipeline.graph import Task, TaskGraph
from ..pipeline.worker import register_executor
from . import cells  # noqa: F401  (registers the shared cell executors)
from .ablations import (run_epsilon_ablation, run_lambda2_ablation,
                        run_neighbourhood_ablation, run_steps_ablation)
from .context import ExperimentConfig, ExperimentContext
from .extensions import run_alternating_ablation, run_pct_extension
from .figures import run_figures
from .overhead import run_overhead
from .reporting import TableResult
from .table2 import plan_table2, run_table2
from .table3 import plan_table3, run_table3
from .table45 import plan_table4, plan_table5, run_table4, run_table5
from .table67 import plan_table6, plan_table7, run_table6, run_table7
from .table8 import plan_table8, run_table8
from .table9 import plan_table9, run_table9
from .table_blackbox import plan_table_blackbox, run_table_blackbox
from .table_defenses import plan_table_defenses, run_table_defenses

#: Every experiment the CLI, the pipeline and the serve daemon can run.
EXPERIMENTS: Dict[str, Callable[[ExperimentContext], TableResult]] = {
    "table2": run_table2,
    "table3": run_table3,
    "table_blackbox": run_table_blackbox,
    "table_defenses": run_table_defenses,
    "table4": run_table4,
    "table5": run_table5,
    "table6": run_table6,
    "table7": run_table7,
    "table8": run_table8,
    "table9": run_table9,
    "figures": run_figures,
    "overhead": run_overhead,
    "ablation_lambda2": run_lambda2_ablation,
    "ablation_epsilon": run_epsilon_ablation,
    "ablation_steps": run_steps_ablation,
    "ablation_neighbourhood": run_neighbourhood_ablation,
    "extension_pct": run_pct_extension,
    "extension_alternating": run_alternating_ablation,
}

#: Experiments with a fully decomposed per-cell task graph.
PLAN_BUILDERS: Dict[str, Callable[[ExperimentConfig], TaskGraph]] = {
    "table2": plan_table2,
    "table3": plan_table3,
    "table4": plan_table4,
    "table5": plan_table5,
    "table6": plan_table6,
    "table7": plan_table7,
    "table8": plan_table8,
    "table9": plan_table9,
    "table_blackbox": plan_table_blackbox,
    "table_defenses": plan_table_defenses,
}

#: Monolithic experiments whose outputs should never be served from the
#: store: they measure wall-clock time or write figure files as a side
#: effect, so a cache hit would skip the work the caller actually wants.
_NEVER_CACHE = {"overhead", "figures"}


@register_executor("experiment")
def _execute_experiment(context: ExperimentContext, params: Mapping[str, Any],
                        deps: Mapping[str, Any]) -> Any:
    """Run one legacy (not yet decomposed) experiment wholesale."""
    return EXPERIMENTS[params["name"]](context)


def _monolithic_plan(name: str, config: ExperimentConfig) -> TaskGraph:
    graph = TaskGraph(result=f"{name}:result")
    graph.add(Task(f"{name}:result", "experiment", {"name": name},
                   cacheable=name not in _NEVER_CACHE))
    return graph


def available_experiments() -> List[str]:
    """Every experiment name the pipeline can plan."""
    return sorted(EXPERIMENTS)


def plan_experiment(name: str, config: ExperimentConfig) -> TaskGraph:
    """Task graph for one experiment (decomposed where available)."""
    if name in PLAN_BUILDERS:
        return PLAN_BUILDERS[name](config)
    if name in EXPERIMENTS:
        return _monolithic_plan(name, config)
    raise KeyError(f"unknown experiment {name!r}; "
                   f"choose from {available_experiments()}")


def experiment_summaries() -> Dict[str, str]:
    """One-line summary per registered experiment.

    Sourced from the first docstring line of each runner, so the registry
    itself is the single source of truth — ``docs/EXPERIMENTS.md`` is
    generated from this (and ``tests/test_docs.py`` fails when they
    diverge).
    """
    summaries: Dict[str, str] = {}
    for name, runner in EXPERIMENTS.items():
        lines = (runner.__doc__ or "").strip().splitlines()
        summaries[name] = lines[0].rstrip() if lines else "(undocumented)"
    return summaries


def experiments_markdown_table() -> str:
    """The experiment registry as a GitHub-flavoured markdown table.

    Printed by ``--list --markdown`` and embedded verbatim in
    ``docs/EXPERIMENTS.md``; regenerate with::

        PYTHONPATH=src python -m repro.experiments.run --list --markdown
    """
    summaries = experiment_summaries()
    lines = ["| experiment | cached | summary |",
             "|---|---|---|"]
    for name in sorted(EXPERIMENTS):
        cached = "no" if name in _NEVER_CACHE else "yes"
        lines.append(f"| `{name}` | {cached} | {summaries[name]} |")
    return "\n".join(lines)


__all__ = [
    "EXPERIMENTS",
    "PLAN_BUILDERS",
    "available_experiments",
    "experiment_summaries",
    "experiments_markdown_table",
    "plan_experiment",
]
