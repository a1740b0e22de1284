"""Tables IV and V — the object-hiding attack on S3DIS.

Six source classes (window, door, table, chair, bookcase, board) are
perturbed so the model predicts them as ``wall``.  Table IV uses the
norm-unbounded attack, Table V the norm-bounded one.  Reported per
(model, source class): mean L2, PSR, out-of-band vs. overall accuracy and
aIoU (Findings 4 and 5).

Each (model × source class) combination is one pipeline attack cell; cells
whose scenes contain no source-class points yield empty record lists and
are silently dropped at assembly, mirroring the paper's cloud selection.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from ..datasets.s3dis import CLASS_INDEX, S3DIS_CLASS_NAMES
from ..pipeline.graph import Task, TaskGraph
from ..pipeline.worker import register_executor
from .cells import add_model_task, execute_plan, hiding_summary, pool_spec
from .context import ExperimentConfig, ExperimentContext
from .reporting import TableResult

# The paper's source classes (S3DIS label ids 5, 6, 7, 8, 10, 11) and target.
HIDING_SOURCE_CLASSES = ("window", "door", "table", "chair", "bookcase", "board")
HIDING_TARGET_CLASS = "wall"
MODELS = ("pointnet2", "resgcn", "randlanet")


def _cell_id(name: str, model_name: str, source_name: str) -> str:
    return f"{name}/{model_name}/{source_name}"


def _plan_hiding_table(config: ExperimentConfig, method: str,
                       name: str) -> TaskGraph:
    """Task graph: dataset → models → 18 hiding cells → table assembly."""
    graph = TaskGraph(result=f"{name}:result")
    pool = pool_spec("s3dis", count=config.hiding_scenes)
    target_index = CLASS_INDEX[HIDING_TARGET_CLASS]
    cell_ids: List[str] = []
    for model_name in MODELS:
        model_id = add_model_task(graph, model_name, "s3dis")
        for source_name in HIDING_SOURCE_CLASSES:
            graph.add(Task(_cell_id(name, model_name, source_name),
                           "attack_cell", {
                "model": model_name, "dataset": "s3dis", "pool": pool,
                "attack": {"objective": "hiding", "method": method,
                           "field": "color",
                           "source_class": CLASS_INDEX[source_name],
                           "target_class": target_index},
                "mode": "batch",
            }, deps=(model_id,)))
            cell_ids.append(_cell_id(name, model_name, source_name))
    graph.add(Task(f"{name}:result", "table45:assemble",
                   {"name": name, "method": method},
                   deps=tuple(cell_ids), cacheable=False))
    return graph


_TITLES = {
    "table4": "Table IV: object hiding (norm-unbounded), source classes -> wall",
    "table5": "Table V: object hiding (norm-bounded), source classes -> wall",
}


@register_executor("table45:assemble")
def _assemble_hiding_table(context: ExperimentContext,
                           params: Mapping[str, Any],
                           deps: Mapping[str, Any]) -> TableResult:
    name = params["name"]
    target_index = CLASS_INDEX[HIDING_TARGET_CLASS]
    rows: List[Dict[str, object]] = []
    cells: Dict[str, Dict[str, float]] = {}
    num_scenes = 0
    for model_name in MODELS:
        for source_name in HIDING_SOURCE_CLASSES:
            payload = deps[_cell_id(name, model_name, source_name)]
            num_scenes = payload["num_scenes"]
            records = payload["records"]
            if not records:
                continue
            cell, values = hiding_summary(records)
            cells[f"{model_name}/{source_name}"] = cell
            rows.append({"model": model_name, "source_class": source_name,
                         "source_label": CLASS_INDEX[source_name], **values})

    return TableResult(
        name=name,
        title=_TITLES[name],
        rows=rows,
        columns=["model", "source_class", "source_label", "l2", "psr_pct",
                 "oob_acc_pct", "acc_pct", "oob_aiou_pct", "aiou_pct"],
        metadata={
            "target_class": HIDING_TARGET_CLASS,
            "target_label": target_index,
            "num_scenes": num_scenes,
            "cells": cells,
            "class_names": list(S3DIS_CLASS_NAMES),
        },
    )


def plan_table4(config: ExperimentConfig) -> TaskGraph:
    return _plan_hiding_table(config, method="unbounded", name="table4")


def plan_table5(config: ExperimentConfig) -> TaskGraph:
    return _plan_hiding_table(config, method="bounded", name="table5")


def run_table4(context: Optional[ExperimentContext] = None) -> TableResult:
    """Table IV: object hiding with the norm-unbounded attack."""
    context = context or ExperimentContext()
    return execute_plan(plan_table4(context.config), context)


def run_table5(context: Optional[ExperimentContext] = None) -> TableResult:
    """Table V: object hiding with the norm-bounded attack."""
    context = context or ExperimentContext()
    return execute_plan(plan_table5(context.config), context)


__all__ = ["run_table4", "run_table5", "plan_table4", "plan_table5",
           "HIDING_SOURCE_CLASSES", "HIDING_TARGET_CLASS"]
