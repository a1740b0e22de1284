"""Pipeline cell executors shared by the table runners.

Each paper table decomposes into *cells* — one attack batch per (model ×
method × field × class) combination — plus dataset and model-training
prerequisites and a final assembly step.  The executors here are the single
implementation of that cell work: the legacy ``run_table*`` entry points run
them serially in-process, and ``python -m repro.pipeline`` dispatches the
very same functions onto a worker pool, so the two paths are numerically
identical by construction.

Cell payloads are deliberately compact (per-scene outcome records rather
than full adversarial clouds) so they pickle cheaply across processes and
stay small inside the content-addressed result store.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core import (evaluate_transfer, run_attack, run_attack_batch,
                    run_attack_group)
from ..datasets.splits import prepare_scene
from ..defenses import (build_defense, evaluate_results_with_defense,
                        evaluate_with_defense)
from ..geometry.transforms import remap_range
from ..metrics.segmentation import accuracy_score
from ..metrics.summary import mean_field
from ..pipeline.graph import Task, TaskGraph
from ..pipeline.scheduler import PipelineError, run_graph
from ..pipeline.worker import register_executor
from .context import ExperimentContext


# ---------------------------------------------------------------------- #
# Graph-building helpers
# ---------------------------------------------------------------------- #
def dataset_task_id(dataset: str) -> str:
    return f"dataset/{dataset}"


def model_task_id(name: str, dataset: str, seed_offset: int = 0) -> str:
    return f"model/{name}:{dataset}:{seed_offset}"


def add_dataset_task(graph: TaskGraph, dataset: str) -> str:
    """Ensure the dataset-generation task exists; returns its id."""
    task_id = dataset_task_id(dataset)
    graph.add_once(Task(task_id, "dataset", {"name": dataset}, cacheable=False))
    return task_id


def add_model_task(graph: TaskGraph, name: str, dataset: str,
                   seed_offset: int = 0) -> str:
    """Ensure the dataset → trained-model chain exists; returns the model id.

    Training tasks are not store-cached: the trained weights already live in
    the on-disk checkpoint cache keyed by their full configuration, so
    re-executing the task is a cheap load — and stays correct even when the
    checkpoint cache and the result store are cleared independently.
    """
    dataset_id = add_dataset_task(graph, dataset)
    task_id = model_task_id(name, dataset, seed_offset)
    graph.add_once(Task(task_id, "train_model",
                        {"name": name, "dataset": dataset,
                         "seed_offset": seed_offset},
                        deps=(dataset_id,), cacheable=False))
    return task_id


def pool_spec(dataset: str, count: Optional[int] = None,
              room_type: str = "office") -> Dict[str, Any]:
    """JSON description of an attack-target scene pool."""
    spec: Dict[str, Any] = {"dataset": dataset, "count": count}
    if dataset == "s3dis":
        spec["room_type"] = room_type
    return spec


def _pool_scenes(context: ExperimentContext, spec: Mapping[str, Any]):
    if spec["dataset"] == "s3dis":
        return context.s3dis_attack_pool(count=spec.get("count"),
                                         room_type=spec.get("room_type", "office"))
    if spec["dataset"] == "semantic3d":
        return context.semantic3d_attack_pool(count=spec.get("count"))
    raise ValueError(f"unknown attack pool dataset {spec['dataset']!r}")


def _record(result) -> Dict[str, Any]:
    """Per-scene summary shipped between processes instead of full clouds."""
    history = result.history
    return {
        "scene_name": result.scene_name,
        "l2": result.l2,
        "l0": result.l0,
        "linf": result.linf,
        "iterations": result.iterations,
        "converged": result.converged,
        "outcome": result.outcome,
        # Model queries the attacker spent (black-box engines track them in
        # their history; white-box cells report None).
        "queries": (history[-1].get("queries") if history else None),
    }


#: Row column and outcome field of each rate the hiding tables report.
_HIDING_RATES = (("psr_pct", "psr"), ("oob_acc_pct", "oob_accuracy"),
                 ("acc_pct", "accuracy"), ("oob_aiou_pct", "oob_aiou"),
                 ("aiou_pct", "aiou"))


def hiding_summary(records) -> Tuple[Dict[str, float], Dict[str, float]]:
    """One object-hiding cell of Tables IV, V or VII: ``(means, row values)``.

    The means are the cell's L2, PSR and out-of-band and overall accuracy
    and aIoU; the row values are its ``l2`` and each rate in percent.
    """
    outcomes = [r["outcome"] for r in records]
    cell = {"l2": float(np.mean([r["l2"] for r in records]))}
    cell.update({name: mean_field(outcomes, name) for _, name in _HIDING_RATES})
    row = {"l2": cell["l2"]}
    row.update({column: cell[name] * 100.0 for column, name in _HIDING_RATES})
    return cell, row


# ---------------------------------------------------------------------- #
# Plan execution (shared by every run_table* entry point)
# ---------------------------------------------------------------------- #
def execute_plan(graph: TaskGraph, context: ExperimentContext) -> Any:
    """Run an experiment plan and return its result-task output.

    When the context carries a :class:`~repro.pipeline.scheduler
    .PipelineSession` the graph is submitted through it (worker pool and/or
    result store); otherwise it executes serially in-process against the
    live context, matching the pre-pipeline behaviour byte for byte.
    """
    session = getattr(context, "pipeline", None)
    if session is not None:
        result = session.run(graph, context.config, context=context)
    else:
        result = run_graph(graph, context.config, jobs=1, context=context)
    if graph.result not in result.outputs:
        raise PipelineError(result.describe_failure())
    return result.outputs[graph.result]


# ---------------------------------------------------------------------- #
# Prerequisite executors
# ---------------------------------------------------------------------- #
@register_executor("dataset")
def _execute_dataset(context: ExperimentContext, params: Mapping[str, Any],
                     deps: Mapping[str, Any]) -> Dict[str, Any]:
    name = params["name"]
    if name == "s3dis":
        dataset = context.s3dis()
    elif name == "semantic3d":
        dataset = context.semantic3d()
    else:
        raise ValueError(f"unknown dataset {name!r}")
    return {"name": name, "num_scenes": len(dataset),
            "num_classes": dataset.num_classes}


@register_executor("train_model")
def _execute_train_model(context: ExperimentContext, params: Mapping[str, Any],
                         deps: Mapping[str, Any]) -> Dict[str, Any]:
    model = context.model(params["name"], params["dataset"],
                          seed_offset=params.get("seed_offset", 0))
    return {"model_name": model.model_name,
            "num_parameters": sum(int(np.asarray(p.data).size)
                                  for p in model.parameters())}


# ---------------------------------------------------------------------- #
# Attack cell executors
# ---------------------------------------------------------------------- #
@register_executor("attack_cell")
def _execute_attack_cell(context: ExperimentContext, params: Mapping[str, Any],
                         deps: Mapping[str, Any]) -> Dict[str, Any]:
    """One table cell: a batch of attacks with a single configuration.

    ``mode="batch"`` mirrors :func:`repro.core.run_attack_batch` (scenes
    without the hiding source class are skipped); ``mode="per_scene"``
    attacks every scene, optionally matching the random-noise baseline to
    the per-scene L2 budget of the dependency named by ``match_l2_from``.
    """
    model = context.model(params["model"], params["dataset"],
                          seed_offset=params.get("seed_offset", 0))
    scenes = _pool_scenes(context, params["pool"])
    config = context.attack_config(**params["attack"])

    if params.get("mode", "per_scene") == "batch":
        results = run_attack_batch(model, scenes, config)
    elif params.get("match_l2_from"):
        budgets = [record["l2"] for record
                   in deps[params["match_l2_from"]]["records"]]
        results = [run_attack(model, scene, config, target_l2=budget)
                   for scene, budget in zip(scenes, budgets)]
    else:
        results = run_attack_group(model, scenes, config)

    return {"model_name": model.model_name, "num_scenes": len(scenes),
            "records": [_record(result) for result in results]}


def paper_defense_specs(context: ExperimentContext) -> List[Dict[str, Any]]:
    """Table VIII's defense grid as registry build specs.

    The paper's SRS sampling number is ~1 % of its clouds; on the much
    smaller synthetic scenes that count is scaled ×5 (i.e. ~5 % of the
    points are removed) so the defense's effect stays measurable.  SOR
    uses the paper's k=2.
    """
    srs_removed = max(1, int(round(0.01 * context.config.s3dis_points)) * 5)
    return [
        {"name": "srs",
         "kwargs": {"num_removed": srs_removed, "seed": context.config.seed}},
        {"name": "sor", "kwargs": {"k": 2, "std_multiplier": 1.0}},
    ]


def _build_defenses(context: ExperimentContext,
                    specs: Optional[List[Mapping[str, Any]]]) -> Dict[str, Any]:
    """``{display name: defense instance}`` (always led by the "none" row)."""
    if specs is None:
        specs = paper_defense_specs(context)
    defenses: Dict[str, Any] = {"none": None}
    for spec in specs:
        defense = build_defense(spec["name"], **dict(spec.get("kwargs") or {}))
        defenses[spec.get("label", spec["name"])] = defense
    return defenses


@register_executor("defense_cell")
def _execute_defense_cell(context: ExperimentContext, params: Mapping[str, Any],
                          deps: Mapping[str, Any]) -> Dict[str, Any]:
    """Attack once, then score every configured defense on the same clouds.

    ``params["defenses"]`` is a list of registry build specs (``{"name",
    "kwargs", "label"}``); omitted, the cell scores the paper's Table VIII
    grid (SRS + SOR).  The attack itself may carry the adaptive knobs
    (``adaptive`` / ``defense`` / ``eot_samples``) — that is how the
    ``table_defenses`` adaptive cells attack *through* the defense they are
    scored against.
    """
    model = context.model(params["model"], params["dataset"])
    scenes = _pool_scenes(context, params["pool"])
    config = context.attack_config(**params["attack"])
    results = run_attack_group(model, scenes, config)

    defenses = _build_defenses(context, params.get("defenses"))
    evaluations: Dict[str, List[Dict[str, float]]] = {}
    for defense_name, defense in defenses.items():
        evaluations[defense_name] = [
            vars(evaluation)
            for evaluation in evaluate_results_with_defense(model, defense,
                                                            results)
        ]
    return {"model_name": model.model_name, "num_scenes": len(scenes),
            "l2": [result.l2 for result in results],
            "evaluations": evaluations}


@register_executor("clean_eval")
def _execute_clean_eval(context: ExperimentContext, params: Mapping[str, Any],
                        deps: Mapping[str, Any]) -> Dict[str, Any]:
    """Model accuracy on (optionally defended) *clean* clouds.

    With a ``defenses`` spec list the payload also carries the defended
    clean accuracies per defense — the reference column of the defense
    tables.
    """
    model = context.model(params["model"], params["dataset"])
    scenes = _pool_scenes(context, params["pool"])
    prepared_scenes = [prepare_scene(scene, model.spec) for scene in scenes]
    payload: Dict[str, Any] = {"accuracy": [
        evaluate_with_defense(model, None, prepared.coords, prepared.colors,
                              prepared.labels).accuracy
        for prepared in prepared_scenes
    ]}
    if params.get("defenses"):
        # The undefended reference already lives in payload["accuracy"].
        defended: Dict[str, List[float]] = {}
        for name, defense in _build_defenses(context,
                                             params["defenses"]).items():
            if defense is None:
                continue
            defended[name] = [
                evaluate_with_defense(model, defense, prepared.coords,
                                      prepared.colors, prepared.labels).accuracy
                for prepared in prepared_scenes
            ]
        payload["defended_accuracy"] = defended
    return payload


@register_executor("transfer_cell")
def _execute_transfer_cell(context: ExperimentContext,
                           params: Mapping[str, Any],
                           deps: Mapping[str, Any]) -> Dict[str, Any]:
    """Table IX cell: attack the source model, replay on the target model."""
    source = params["source"]
    target = params["target"]
    source_model = context.model(source["name"], params["dataset"],
                                 seed_offset=source.get("seed_offset", 0))
    target_model = context.model(target["name"], params["dataset"],
                                 seed_offset=target.get("seed_offset", 0))
    scenes = _pool_scenes(context, params["pool"])
    config = context.attack_config(**params["attack"])
    results = run_attack_group(source_model, scenes, config)
    transfer = evaluate_transfer(results, source_model, target_model)
    clean = _clean_accuracy_on_transfer_target(results, source_model,
                                               target_model)
    return {"num_scenes": len(scenes), "transfer": transfer,
            "clean_accuracy": clean}


def _clean_accuracy_on_transfer_target(results, source_model,
                                       target_model) -> float:
    """Accuracy of the target model on the *unperturbed* clouds, remapped."""
    accuracies = []
    for result in results:
        coords = remap_range(result.original_coords,
                             source_model.spec.coord_range,
                             target_model.spec.coord_range)
        colors = np.clip(
            remap_range(result.original_colors, source_model.spec.color_range,
                        target_model.spec.color_range),
            *target_model.spec.color_range)
        prediction = target_model.predict_single(coords, colors)
        accuracies.append(accuracy_score(prediction, result.labels))
    return float(np.mean(accuracies))


__all__ = [
    "add_dataset_task",
    "add_model_task",
    "dataset_task_id",
    "execute_plan",
    "hiding_summary",
    "model_task_id",
    "paper_defense_specs",
    "pool_spec",
]
