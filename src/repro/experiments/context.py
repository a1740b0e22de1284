"""Shared experiment context: datasets, trained models and attack configs.

Every table/figure runner needs the same ingredients — synthetic datasets, a
trained victim model per architecture, and an attack configuration.  The
:class:`ExperimentContext` builds them lazily and caches the expensive pieces
(trained model weights) on disk so the whole benchmark suite trains each model
at most once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.config import AttackConfig
from ..datasets.base import PointCloudScene, SceneDataset
from ..datasets.s3dis import generate_room_scene, generate_s3dis_dataset, s3dis_train_test_split
from ..datasets.semantic3d import (
    generate_outdoor_scene,
    generate_semantic3d_dataset,
    semantic3d_train_test_split,
)
from ..models.base import SegmentationModel
from ..models.registry import build_model
from ..models.train import TrainingConfig, train_or_load


@dataclass
class ExperimentConfig:
    """Scale knobs of the experiment harness.

    ``default()`` is sized for CPU-only benchmark runs (minutes);
    ``paper_scale()`` restores the paper's cloud sizes and step counts
    (hours on CPU, matching the original GPU budget).
    """

    # Dataset scale.
    s3dis_points: int = 320
    s3dis_scenes_per_area: int = 2
    semantic3d_points: int = 768
    semantic3d_scenes: int = 8
    attack_scenes: int = 3            # clouds attacked per table cell
    hiding_scenes: int = 2            # clouds per source class in Tables IV/V

    # Model scale.
    hidden: int = 24
    resgcn_blocks: int = 4
    training_epochs: int = 25
    training_lr: float = 8e-3

    # Attack scale.
    attack_profile: str = "fast"      # "fast" or "paper"

    # Threat model (repro.core.blackbox).  ``attack_mode`` selects the
    # engine family every cell runs with unless a plan overrides it
    # per-cell; ``query_budget`` / ``samples_per_step`` default to ``None``,
    # meaning "use the attack profile's own value".  Unlike ``batch_scenes``
    # these knobs change *what* is computed, so they participate in the
    # result-store content hashes (they are not in ``salt_exclusions``).
    attack_mode: str = "whitebox"
    query_budget: Optional[int] = None
    samples_per_step: Optional[int] = None

    # Adaptive (defense-aware) attacks: the EOT sample count K every
    # adaptive cell folds into its optimisation steps.  ``None`` means "use
    # the experiment's own default" (``table_defenses`` picks 4 at the fast
    # profile, 8 at paper scale).  Like the black-box knobs — and unlike
    # ``batch_scenes`` — this changes *what* is computed, so it participates
    # in the result-store content hashes.
    eot_samples: Optional[int] = None

    # Execution strategy: how many same-size scenes one attack loop drives
    # at once (``AttackConfig.batch_scenes``).  Purely an execution knob —
    # results are bit-identical at any value — so it is excluded from the
    # result-store content hashes (see :meth:`salt_exclusions`) and batched
    # runs share cached cells with serial ones.
    batch_scenes: int = 1

    # Misc.
    seed: int = 0
    cache_dir: str = field(default_factory=lambda: os.environ.get(
        "REPRO_CACHE_DIR", os.path.join(os.getcwd(), ".repro_cache")))

    @classmethod
    def default(cls, **overrides) -> "ExperimentConfig":
        return cls(**overrides)

    @classmethod
    def paper_scale(cls, **overrides) -> "ExperimentConfig":
        values = dict(
            s3dis_points=4096, s3dis_scenes_per_area=16,
            semantic3d_points=40960, semantic3d_scenes=8,
            attack_scenes=100, hiding_scenes=100,
            hidden=64, resgcn_blocks=28, training_epochs=60,
            attack_profile="paper",
        )
        values.update(overrides)
        return cls(**values)

    @classmethod
    def tiny(cls, **overrides) -> "ExperimentConfig":
        """Extra small configuration used by the unit/integration tests."""
        values = dict(
            s3dis_points=192, s3dis_scenes_per_area=1, semantic3d_points=256,
            semantic3d_scenes=3, attack_scenes=1, hiding_scenes=1,
            hidden=16, resgcn_blocks=2, training_epochs=4,
        )
        values.update(overrides)
        return cls(**values)

    @staticmethod
    def salt_exclusions() -> Tuple[str, ...]:
        """Config fields that must not participate in result-store hashing.

        Consumed (duck-typed) by :func:`repro.pipeline.scheduler.config_salt`.
        ``batch_scenes`` only changes *how* cells execute, never what they
        compute, so a store populated serially serves batched runs and vice
        versa.
        """
        return ("batch_scenes",)

    def compute_policy_salt(self) -> Dict[str, object]:
        """The resolved :mod:`repro.accel` policy this profile's attacks use.

        Consumed by the pipeline scheduler's content hashing (duck-typed —
        the pipeline layer stays ignorant of attack semantics), so results
        cached under one compute policy are never served to another: the
        policy combines the attack profile's defaults with any
        ``REPRO_ACCEL`` environment override.
        """
        from ..accel import ComputePolicy
        from ..core.config import AttackConfig

        base = (AttackConfig.paper_scale() if self.attack_profile == "paper"
                else AttackConfig.fast())
        policy = ComputePolicy.from_attack_config(base)
        return {"dtype": str(policy.dtype),
                "neighbor_refresh": policy.neighbor_refresh,
                "smoothness_neighbors": policy.smoothness_neighbors,
                # A REPRO_ACCEL override trumps per-cell compute overrides at
                # runtime while cell params still hash them, so override and
                # non-override runs must never share a cache namespace.
                "env_override": os.environ.get("REPRO_ACCEL") or None}


class ExperimentContext:
    """Lazily built, cached datasets and victim models.

    A context is cheap to construct and deterministic given its config:
    datasets regenerate from the seed and model weights come from the
    on-disk checkpoint cache.  The pipeline exploits this by building one
    context *per worker process* instead of sharing live objects.

    Parameters
    ----------
    pipeline:
        Optional :class:`repro.pipeline.PipelineSession`.  When present,
        every ``run_table*`` call submits its task graph through the
        session's scheduler (worker pool and/or content-addressed result
        store) instead of executing inline.
    """

    def __init__(self, config: Optional[ExperimentConfig] = None,
                 pipeline=None) -> None:
        self.config = config or ExperimentConfig.default()
        self.pipeline = pipeline
        self._s3dis: Optional[SceneDataset] = None
        self._semantic3d: Optional[SceneDataset] = None
        self._models: Dict[str, SegmentationModel] = {}
        self._attack_pools: Dict[str, List[PointCloudScene]] = {}
        os.makedirs(self.config.cache_dir, exist_ok=True)

    # ------------------------------------------------------------------ #
    # Datasets
    # ------------------------------------------------------------------ #
    def s3dis(self) -> SceneDataset:
        if self._s3dis is None:
            self._s3dis = generate_s3dis_dataset(
                scenes_per_area=self.config.s3dis_scenes_per_area,
                num_points=self.config.s3dis_points,
                seed=self.config.seed,
            )
        return self._s3dis

    def s3dis_split(self):
        return s3dis_train_test_split(self.s3dis())

    def semantic3d(self) -> SceneDataset:
        if self._semantic3d is None:
            self._semantic3d = generate_semantic3d_dataset(
                num_scenes=self.config.semantic3d_scenes,
                num_points=self.config.semantic3d_points,
                seed=self.config.seed,
            )
        return self._semantic3d

    def semantic3d_split(self):
        return semantic3d_train_test_split(self.semantic3d())

    def s3dis_attack_pool(self, count: Optional[int] = None,
                          room_type: str = "office") -> List[PointCloudScene]:
        """Held-out indoor scenes used as attack targets (the "Area 5" role)."""
        count = count or self.config.attack_scenes
        key = f"s3dis:{room_type}:{count}"
        if key not in self._attack_pools:
            rng = np.random.default_rng(self.config.seed + 1000)
            self._attack_pools[key] = [
                generate_room_scene(num_points=self.config.s3dis_points,
                                    room_type=room_type, rng=rng,
                                    name=f"Area_5/{room_type}_attack_{i + 1}")
                for i in range(count)
            ]
        return self._attack_pools[key]

    def semantic3d_attack_pool(self, count: Optional[int] = None) -> List[PointCloudScene]:
        """Held-out outdoor scenes used as attack targets."""
        count = count or self.config.attack_scenes
        key = f"semantic3d:{count}"
        if key not in self._attack_pools:
            rng = np.random.default_rng(self.config.seed + 2000)
            self._attack_pools[key] = [
                generate_outdoor_scene(num_points=self.config.semantic3d_points,
                                       rng=rng, name=f"outdoor_attack_{i + 1}")
                for i in range(count)
            ]
        return self._attack_pools[key]

    # ------------------------------------------------------------------ #
    # Models
    # ------------------------------------------------------------------ #
    def _model_kwargs(self, name: str) -> Dict:
        kwargs: Dict = {"hidden": self.config.hidden, "seed": self.config.seed}
        if name == "resgcn":
            kwargs["num_blocks"] = self.config.resgcn_blocks
        return kwargs

    def model(self, name: str, dataset: str = "s3dis",
              seed_offset: int = 0) -> SegmentationModel:
        """Return a trained victim model, loading from the cache if possible."""
        key = f"{name}:{dataset}:{seed_offset}"
        if key in self._models:
            return self._models[key]

        if dataset == "s3dis":
            train_scenes, _ = self.s3dis_split()
            num_classes = 13
        elif dataset == "semantic3d":
            train_scenes, _ = self.semantic3d_split()
            num_classes = 8
        else:
            raise ValueError(f"unknown dataset {dataset!r}")

        kwargs = self._model_kwargs(name)
        kwargs["seed"] = self.config.seed + seed_offset
        model = build_model(name, num_classes=num_classes, **kwargs)
        cache_name = (f"{name}_{dataset}_h{self.config.hidden}"
                      f"_p{self.config.s3dis_points if dataset == 's3dis' else self.config.semantic3d_points}"
                      f"_e{self.config.training_epochs}_s{self.config.seed + seed_offset}.npz")
        cache_path = os.path.join(self.config.cache_dir, cache_name)
        training = TrainingConfig(
            epochs=self.config.training_epochs,
            learning_rate=self.config.training_lr,
            seed=self.config.seed + seed_offset,
        )
        train_or_load(model, train_scenes.scenes, cache_path, training)
        model.eval()
        self._models[key] = model
        return model

    # ------------------------------------------------------------------ #
    # Attack configurations
    # ------------------------------------------------------------------ #
    def attack_config(self, **overrides) -> AttackConfig:
        """Build an attack configuration at the context's scale profile.

        The context's ``batch_scenes`` execution knob is threaded through
        unless the caller overrides it explicitly.
        """
        overrides.setdefault("batch_scenes", self.config.batch_scenes)
        overrides.setdefault("attack_mode", self.config.attack_mode)
        if self.config.query_budget is not None:
            overrides.setdefault("query_budget", self.config.query_budget)
        if self.config.samples_per_step is not None:
            overrides.setdefault("samples_per_step", self.config.samples_per_step)
        if self.config.eot_samples is not None:
            overrides.setdefault("eot_samples", self.config.eot_samples)
        if self.config.attack_profile == "paper":
            return AttackConfig.paper_scale(**overrides)
        return AttackConfig.fast(**overrides)


__all__ = ["ExperimentConfig", "ExperimentContext"]
