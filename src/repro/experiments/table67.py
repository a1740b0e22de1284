"""Tables VI and VII — attacks on the outdoor (Semantic3D-like) dataset.

Only RandLA-Net is attacked because the other two models are not built for
outdoor-scale clouds (Section V-E).

* Table VI — performance degradation, norm-unbounded vs. the L2-matched
  random-noise baseline, best / average / worst.
* Table VII — object hiding: cars are perturbed towards man-made terrain,
  natural terrain, high vegetation and low vegetation (Finding 6).

Both tables are pipeline plans over per-cell attack tasks; the Table VI
noise cell depends on the unbounded cell for its per-scene L2 budgets.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from ..datasets.semantic3d import CLASS_INDEX, PAPER_LABELS, SEMANTIC3D_CLASS_NAMES
from ..metrics.summary import summarize_outcomes
from ..pipeline.graph import Task, TaskGraph
from ..pipeline.worker import register_executor
from .cells import add_model_task, execute_plan, hiding_summary, pool_spec
from .context import ExperimentConfig, ExperimentContext
from .reporting import TableResult

HIDING_SOURCE_CLASS = "cars"
HIDING_TARGET_CLASSES = ("man-made terrain", "natural terrain",
                         "high vegetation", "low vegetation")


# ---------------------------------------------------------------------- #
# Table VI
# ---------------------------------------------------------------------- #
def plan_table6(config: ExperimentConfig) -> TaskGraph:
    """Task graph: dataset → RandLA-Net → unbounded + matched-noise cells."""
    graph = TaskGraph(result="table6:result")
    model_id = add_model_task(graph, "randlanet", "semantic3d")
    pool = pool_spec("semantic3d", count=config.attack_scenes)
    graph.add(Task("table6/unbounded", "attack_cell", {
        "model": "randlanet", "dataset": "semantic3d", "pool": pool,
        "attack": {"objective": "degradation", "method": "unbounded",
                   "field": "color", "target_accuracy": 1.0 / 8.0},
    }, deps=(model_id,)))
    graph.add(Task("table6/noise", "attack_cell", {
        "model": "randlanet", "dataset": "semantic3d", "pool": pool,
        "attack": {"objective": "degradation", "method": "noise",
                   "field": "color"},
        "match_l2_from": "table6/unbounded",
    }, deps=(model_id, "table6/unbounded")))
    graph.add(Task("table6:result", "table6:assemble", {},
                   deps=("table6/noise", "table6/unbounded"), cacheable=False))
    return graph


@register_executor("table6:assemble")
def _assemble_table6(context: ExperimentContext, params: Mapping[str, Any],
                     deps: Mapping[str, Any]) -> TableResult:
    rows: List[Dict[str, object]] = []
    cells: Dict[str, object] = {}
    num_scenes = 0
    for method in ("noise", "unbounded"):
        payload = deps[f"table6/{method}"]
        num_scenes = payload["num_scenes"]
        records = payload["records"]
        summary = summarize_outcomes([r["outcome"] for r in records])
        by_accuracy = sorted(records, key=lambda r: r["outcome"].accuracy)
        l2_by_case = {"best": by_accuracy[0]["l2"],
                      "avg": float(np.mean([r["l2"] for r in records])),
                      "worst": by_accuracy[-1]["l2"]}
        cells[method] = {"summary": summary, "l2": l2_by_case}
        for case in ("best", "avg", "worst"):
            case_summary = {"best": summary.best, "avg": summary.average,
                            "worst": summary.worst}[case]
            rows.append({
                "method": method,
                "case": case,
                "l2": l2_by_case[case],
                "accuracy_pct": case_summary.accuracy * 100.0,
                "aiou_pct": case_summary.aiou * 100.0,
                "clean_accuracy_pct": summary.clean_accuracy * 100.0,
            })

    return TableResult(
        name="table6",
        title="Table VI: performance degradation on Semantic3D (RandLA-Net)",
        rows=rows,
        columns=["method", "case", "l2", "accuracy_pct", "aiou_pct",
                 "clean_accuracy_pct"],
        metadata={"num_scenes": num_scenes, "cells": cells},
    )


def run_table6(context: Optional[ExperimentContext] = None) -> TableResult:
    """Table VI: outdoor performance degradation (RandLA-Net, Semantic3D)."""
    context = context or ExperimentContext()
    return execute_plan(plan_table6(context.config), context)


# ---------------------------------------------------------------------- #
# Table VII
# ---------------------------------------------------------------------- #
def _table7_cell_id(target_name: str) -> str:
    return f"table7/{target_name}"


def plan_table7(config: ExperimentConfig) -> TaskGraph:
    """Task graph: dataset → RandLA-Net → one hiding cell per target class."""
    graph = TaskGraph(result="table7:result")
    model_id = add_model_task(graph, "randlanet", "semantic3d")
    pool = pool_spec("semantic3d", count=config.hiding_scenes)
    source_index = CLASS_INDEX[HIDING_SOURCE_CLASS]
    cell_ids: List[str] = []
    for target_name in HIDING_TARGET_CLASSES:
        graph.add(Task(_table7_cell_id(target_name), "attack_cell", {
            "model": "randlanet", "dataset": "semantic3d", "pool": pool,
            "attack": {"objective": "hiding", "method": "unbounded",
                       "field": "color", "source_class": source_index,
                       "target_class": CLASS_INDEX[target_name]},
            "mode": "batch",
        }, deps=(model_id,)))
        cell_ids.append(_table7_cell_id(target_name))
    graph.add(Task("table7:result", "table7:assemble", {},
                   deps=tuple(cell_ids), cacheable=False))
    return graph


@register_executor("table7:assemble")
def _assemble_table7(context: ExperimentContext, params: Mapping[str, Any],
                     deps: Mapping[str, Any]) -> TableResult:
    rows: List[Dict[str, object]] = []
    cells: Dict[str, Dict[str, float]] = {}
    num_scenes = 0
    for target_name in HIDING_TARGET_CLASSES:
        payload = deps[_table7_cell_id(target_name)]
        num_scenes = payload["num_scenes"]
        records = payload["records"]
        if not records:
            continue
        cell, values = hiding_summary(records)
        cells[target_name] = cell
        rows.append({"target_class": target_name,
                     "target_label_paper": PAPER_LABELS[target_name], **values})

    return TableResult(
        name="table7",
        title="Table VII: object hiding on Semantic3D (cars -> terrain/vegetation)",
        rows=rows,
        columns=["target_class", "target_label_paper", "l2", "psr_pct",
                 "oob_acc_pct", "acc_pct", "oob_aiou_pct", "aiou_pct"],
        metadata={
            "source_class": HIDING_SOURCE_CLASS,
            "source_label_paper": PAPER_LABELS[HIDING_SOURCE_CLASS],
            "num_scenes": num_scenes,
            "cells": cells,
            "class_names": list(SEMANTIC3D_CLASS_NAMES),
        },
    )


def run_table7(context: Optional[ExperimentContext] = None) -> TableResult:
    """Table VII: outdoor object hiding — cars hidden as terrain/vegetation."""
    context = context or ExperimentContext()
    return execute_plan(plan_table7(context.config), context)


__all__ = ["run_table6", "run_table7", "plan_table6", "plan_table7",
           "HIDING_SOURCE_CLASS", "HIDING_TARGET_CLASSES"]
