"""Victim models for the benchmark workloads.

Default-scale victims are trained once into a checkpoint cache that the
benchmark owns (``.perfbench_cache/victims`` at the checkout root) and are
reused by every later run and seed.  The cache file names come from
:class:`repro.experiments.ExperimentContext`, which keys each checkpoint by
architecture, dataset, hidden width, point count, epochs and training seed,
so a change of any of those trains a new victim instead of loading a stale
one.

Paper-shape victims (4096 points, hidden 64) are never trained: they are
seeded, untrained models whose labels are their own clean predictions, so
attack success is measurable without hours of training.
"""

from __future__ import annotations

import glob
import os
import shutil
from typing import Dict, List

import numpy as np

from repro.datasets import splits
from repro.experiments import ExperimentConfig, ExperimentContext
from repro.models import build_model

ARCHS = ("pointnet2", "resgcn", "randlanet", "pct")

#: Seed the default-scale victims are trained with, whatever the benchmark
#: seed: the workload seed changes scenes and attack RNG streams only.
TRAINING_SEED = 0

#: Fixed initialisation seed per paper-shape architecture.  PointNet++ at
#: seed 0 predicts one class for every point of a 4096-point room, which
#: makes "accuracy against its own labels" a degenerate measure; seed 2
#: spreads its predictions over four to five classes.
PAPER_SHAPE_SEEDS = {"pointnet2": 2, "resgcn": 0, "randlanet": 0, "pct": 0}
PAPER_SHAPE_POINTS = 4096
PAPER_SHAPE_HIDDEN = 64


def victim_dir(root: str) -> str:
    return os.path.join(root, "victims")


def seeded_cache_dir(root: str, run_dir: str, seed: int) -> str:
    """A cache directory whose checkpoints load under ``config.seed=seed``.

    :class:`ExperimentContext` names checkpoints after ``config.seed``,
    which also seeds the attack scene pools.  Copying the trained
    checkpoints under the seed's file names lets a pipeline or serve worker
    run ``ExperimentConfig(seed=seed)`` — fresh scenes — against the very
    weights trained at :data:`TRAINING_SEED`.
    """
    target = os.path.join(run_dir, "victims")
    os.makedirs(target, exist_ok=True)
    suffix = f"_s{TRAINING_SEED}.npz"
    for path in glob.glob(os.path.join(victim_dir(root), "*" + suffix)):
        name = os.path.basename(path)[:-len(suffix)] + f"_s{seed}.npz"
        shutil.copyfile(path, os.path.join(target, name))
    return target


def load_default_victims(root: str) -> Dict[str, object]:
    """The default-scale S3DIS victims, from the checkpoint cache.

    A victim missing from the cache is trained and cached first.
    """
    context = ExperimentContext(ExperimentConfig.default(
        cache_dir=victim_dir(root), seed=TRAINING_SEED))
    return {arch: context.model(arch, "s3dis") for arch in ARCHS}


def build_paper_shape_victims() -> Dict[str, object]:
    """Untrained, seeded paper-shape victims (eval mode)."""
    victims = {}
    for arch in ARCHS:
        model = build_model(arch, num_classes=13, hidden=PAPER_SHAPE_HIDDEN,
                            seed=PAPER_SHAPE_SEEDS[arch])
        model.eval()
        victims[arch] = model
    return victims


def self_labelled(model, scene) -> List[np.ndarray]:
    """``[coords, colors, labels]`` of ``scene``, labelled by ``model``."""
    # Looked up through the module, so the traced run's wrapper sees it.
    prepared = splits.prepare_scene(scene, model.spec)
    labels = model.predict_single(prepared.coords, prepared.colors)
    return [prepared.coords, prepared.colors, labels.astype(np.int64)]
