"""Attack configuration and result containers.

An :class:`AttackConfig` selects one of the framework's 8 configurations
(objective × method × field) plus the hyper-parameters of Section V-A.
:class:`AttackResult` carries everything a table needs: the adversarial
cloud, perturbation distances, predictions and derived metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from typing import Dict, List, Optional

import numpy as np

from ..metrics.attack_metrics import AttackOutcome
from .perturbation import AttackField


class AttackObjective(str, Enum):
    """The attacker's goal (Section III)."""

    PERFORMANCE_DEGRADATION = "degradation"
    OBJECT_HIDING = "hiding"


class AttackMethod(str, Enum):
    """The optimisation family (Section IV-B)."""

    NORM_BOUNDED = "bounded"       # PGD-adapted, Algorithm 1
    NORM_UNBOUNDED = "unbounded"   # C&W-adapted
    RANDOM_NOISE = "noise"         # baseline of Section V-C


class AttackMode(str, Enum):
    """The attacker's access to the victim model.

    ``WHITEBOX`` is the paper's setting (full gradients).  The black-box
    modes never call ``backward``: NES and SPSA estimate the gradient of the
    Eq. 10/11 losses from finite differences of logit queries, and BOUNDARY
    only observes the predicted labels (decision-based boundary walk).
    """

    WHITEBOX = "whitebox"
    NES = "nes"             # antithetic Gaussian finite differences
    SPSA = "spsa"           # simultaneous-perturbation (Rademacher) estimator
    BOUNDARY = "boundary"   # decision-based boundary walk


@dataclass
class AttackConfig:
    """Hyper-parameters of one attack configuration.

    The defaults follow Section V-A of the paper, scaled down where noted so
    the CPU-only harness stays fast; ``paper_scale()`` restores the paper's
    exact values.
    """

    objective: AttackObjective = AttackObjective.PERFORMANCE_DEGRADATION
    method: AttackMethod = AttackMethod.NORM_UNBOUNDED
    field: AttackField = AttackField.COLOR

    # Model access (repro.core.blackbox).  The black-box modes replace the
    # white-box engines behind the same dispatch: NES/SPSA run an ε-bounded
    # sign-step loop on an estimated gradient, BOUNDARY walks the decision
    # boundary from an adversarial random start.  ``query_budget`` counts
    # every model evaluation the attacker pays for (one per cloud);
    # ``samples_per_step`` is the number of finite-difference directions per
    # step (each costs two antithetic queries); ``fd_sigma`` is the probing
    # radius of the estimators.
    attack_mode: AttackMode = AttackMode.WHITEBOX
    query_budget: int = 1000
    samples_per_step: int = 8
    fd_sigma: float = 0.05

    # Adaptive (defense-aware) attacks.  With ``adaptive=True`` the attacker
    # knows the deployed defense (``defense`` is a ``repro.defenses``
    # registry name, ``defense_kwargs`` its constructor arguments) and folds
    # ``eot_samples`` stochastic defense draws into every optimisation step
    # — expectation over transformation.  Transformation defenses enter the
    # white-box graph as affine / straight-through ops; removal defenses
    # restrict the adversarial loss to the points that would survive.  The
    # black-box engines evaluate their probe losses through the same
    # samples (each defended forward costs one query).  Convergence keeps
    # judging the raw (undefended) cloud: the stop criterion is the
    # attacker's own, the defense only shapes the loss landscape.
    adaptive: bool = False
    defense: Optional[str] = None
    defense_kwargs: Dict[str, object] = dataclass_field(default_factory=dict)
    eot_samples: int = 1

    # Decision-based (boundary) mode: random restarts allowed while hunting
    # for an adversarial starting point, the initial contraction step toward
    # the original cloud, and the orthogonal exploration scale (relative to
    # the current perturbation norm).
    boundary_init_tries: int = 10
    boundary_source_step: float = 0.1
    boundary_noise_step: float = 0.2

    # Norm-bounded attack (Algorithm 1).
    epsilon: float = 0.12            # attack boundary ε in model units
    step_size: float = 0.01          # γ
    bounded_steps: int = 50          # Steps for the norm-bounded attack

    # Norm-unbounded attack.
    unbounded_steps: int = 1000      # Steps for the norm-unbounded attack
    learning_rate: float = 0.01      # Adam lr
    lambda1: float = 1.0             # adversarial-loss weight
    lambda2: float = 0.1             # smoothness-penalty weight
    plateau_patience: int = 10       # steps without gain before random restart

    # Shared components.
    smoothness_alpha: int = 10       # α nearest neighbours in Eq. 9
    min_impact_points: int = 100     # n in Eq. 12 (coordinate attacks)
    min_impact_floor: float = 0.10   # stop restoring below this fraction of points

    # Batched multi-scene execution: one optimisation loop drives up to
    # ``batch_scenes`` same-size scenes through a single forward/backward,
    # amortising the per-op autograd overhead across the batch.  ``1`` is the
    # serial path, bit-for-bit identical to the historical behaviour; larger
    # values keep per-scene masks, RNG streams, plateau restarts and early
    # stopping independent, so every scene's result is identical to its
    # ``batch_scenes=1`` run (see ``run_attack_batch``).
    batch_scenes: int = 1

    # Compute policy (repro.accel).  The fast defaults trade a little
    # numerical fidelity for wall-clock speed on the attack hot path;
    # "float64" + neighbor_refresh=1 + smoothness_neighbors="current" is
    # exactness mode, bit-for-bit identical to the seed implementation.
    compute_dtype: str = "float32"       # "float32" | "float64"
    neighbor_refresh: int = 5            # R: recompute kNN graphs every R steps
    smoothness_neighbors: str = "clean"  # Eq. 9 neighbour source: "clean" | "current"

    # "Both fields" update schedule (Section IV-B): the default perturbs colour
    # and coordinates concurrently; the alternating variant — which the paper
    # reports as worse because the two gradients offset each other — updates
    # one field per iteration and is kept for the ablation experiment.
    alternating_fields: bool = False

    # Object hiding.
    target_class: Optional[int] = None
    source_class: Optional[int] = None

    # Convergence (Converge(·) in Algorithm 1).
    target_accuracy: Optional[float] = None   # defaults to 1 / num_classes
    target_psr: float = 0.95

    seed: int = 0

    def __post_init__(self) -> None:
        self.objective = AttackObjective(self.objective)
        self.method = AttackMethod(self.method)
        self.field = AttackField(self.field)
        self.attack_mode = AttackMode(self.attack_mode)
        if self.query_budget < 1:
            raise ValueError("query_budget must be >= 1")
        if self.samples_per_step < 1:
            raise ValueError("samples_per_step must be >= 1")
        if self.fd_sigma <= 0:
            raise ValueError("fd_sigma must be positive")
        if self.boundary_init_tries < 1:
            raise ValueError("boundary_init_tries must be >= 1")
        if not 0.0 < self.boundary_source_step < 1.0:
            raise ValueError("boundary_source_step must be in (0, 1)")
        if self.boundary_noise_step < 0:
            raise ValueError("boundary_noise_step must be non-negative")
        if self.eot_samples < 1:
            raise ValueError("eot_samples must be >= 1")
        if self.adaptive and self.defense is None:
            raise ValueError("adaptive attacks require a defense name")
        if self.defense is not None and not self.adaptive:
            raise ValueError("defense is only consumed by adaptive attacks; "
                             "set adaptive=True (or drop the defense)")
        if self.objective is AttackObjective.OBJECT_HIDING and self.target_class is None:
            raise ValueError("object hiding attacks require target_class")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.bounded_steps <= 0 or self.unbounded_steps <= 0:
            raise ValueError("step counts must be positive")
        if self.compute_dtype not in ("float32", "float64"):
            raise ValueError("compute_dtype must be 'float32' or 'float64'")
        if self.neighbor_refresh < 1:
            raise ValueError("neighbor_refresh must be >= 1")
        if self.batch_scenes < 1:
            raise ValueError("batch_scenes must be >= 1")
        if self.smoothness_neighbors not in ("clean", "current"):
            raise ValueError("smoothness_neighbors must be 'clean' or 'current'")

    @property
    def engine_name(self) -> str:
        """Short engine label used by telemetry events and reports.

        One of ``noise`` / ``nes`` / ``spsa`` / ``boundary`` / ``bounded`` /
        ``unbounded`` — mirroring the dispatch order of
        :func:`repro.core.attack._build_engine`.
        """
        if self.method is AttackMethod.RANDOM_NOISE:
            return "noise"
        if self.attack_mode is not AttackMode.WHITEBOX:
            return self.attack_mode.value
        return self.method.value

    @property
    def cache_regime(self) -> str:
        """Neighbourhood-cache regime label used by telemetry reports.

        ``blackbox`` for NES / SPSA / boundary, ``eot`` for adaptive
        white-box runs, otherwise the attacked field (``color`` /
        ``coordinate`` / ``both``).  Lookups hit at very different rates
        across these regimes, so the cache summary reports each apart.
        """
        if self.attack_mode is not AttackMode.WHITEBOX:
            return "blackbox"
        if self.adaptive:
            return "eot"
        return self.field.value

    @property
    def steps(self) -> int:
        """Iteration budget of the configured method."""
        eot = 1
        if self.adaptive:
            # Ask the sampler, not eot_samples directly: deterministic
            # defenses collapse to one sample per step, so the engines'
            # real query cost uses the collapsed count.
            from .eot import build_eot

            eot = build_eot(self).samples
        if self.attack_mode is AttackMode.BOUNDARY:
            # Each proposal costs one defended evaluation per EOT sample.
            return max(self.query_budget // eot, 1)
        if self.attack_mode is not AttackMode.WHITEBOX:
            # One NES/SPSA step = a convergence check plus an antithetic
            # pair of queries per direction (times the EOT samples each
            # probe is evaluated through in adaptive mode).
            return max(self.query_budget
                       // (2 * self.samples_per_step * eot + 1), 1)
        if self.method is AttackMethod.NORM_BOUNDED:
            return self.bounded_steps
        if self.method is AttackMethod.NORM_UNBOUNDED:
            return self.unbounded_steps
        return 1

    @classmethod
    def paper_scale(cls, **overrides) -> "AttackConfig":
        """The exact hyper-parameters of Section V-A (Steps 50 / 1000, etc.).

        Paper-scale runs also use exactness compute: float64 arithmetic,
        per-step neighbourhood refresh, and Eq. 9 neighbourhoods from the
        current (perturbed) cloud, exactly as the paper describes.
        """
        defaults = dict(
            epsilon=0.12, step_size=0.01, bounded_steps=50,
            unbounded_steps=1000, learning_rate=0.01,
            lambda1=1.0, lambda2=0.1, smoothness_alpha=10,
            min_impact_points=100,
            compute_dtype="float64", neighbor_refresh=1,
            smoothness_neighbors="current",
            query_budget=5000, samples_per_step=16,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def fast(cls, **overrides) -> "AttackConfig":
        """A scaled-down configuration for CPU benchmarks and tests.

        With only tens of optimisation steps (instead of the paper's 50/1000),
        the adversarial-loss weight and learning rate are raised so the attack
        reaches a comparable operating point in far fewer iterations.
        """
        defaults = dict(bounded_steps=20, unbounded_steps=60,
                        epsilon=0.15, step_size=0.02,
                        learning_rate=0.03, lambda1=3.0,
                        min_impact_points=24, smoothness_alpha=6,
                        query_budget=200, samples_per_step=4)
        defaults.update(overrides)
        return cls(**defaults)


@dataclass
class AttackResult:
    """Everything produced by one attack on one point cloud."""

    config: AttackConfig
    original_coords: np.ndarray
    original_colors: np.ndarray
    adversarial_coords: np.ndarray
    adversarial_colors: np.ndarray
    labels: np.ndarray
    target_labels: Optional[np.ndarray]
    target_mask: np.ndarray
    clean_prediction: np.ndarray
    adversarial_prediction: np.ndarray
    l2: float
    l0: float
    linf: float
    iterations: int
    converged: bool
    outcome: AttackOutcome
    history: List[Dict[str, float]] = dataclass_field(default_factory=list)
    scene_name: str = ""

    @property
    def coordinate_perturbation(self) -> np.ndarray:
        return self.adversarial_coords - self.original_coords

    @property
    def color_perturbation(self) -> np.ndarray:
        return self.adversarial_colors - self.original_colors

    def summary(self) -> Dict[str, float]:
        """Flat dictionary of the headline metrics (handy for tables)."""
        data = {
            "l2": self.l2,
            "l0": self.l0,
            "linf": self.linf,
            "accuracy": self.outcome.accuracy,
            "aiou": self.outcome.aiou,
            "clean_accuracy": self.outcome.clean_accuracy,
            "clean_aiou": self.outcome.clean_aiou,
            "accuracy_drop": self.outcome.accuracy_drop,
            "aiou_drop": self.outcome.aiou_drop,
            "iterations": float(self.iterations),
            "converged": float(self.converged),
        }
        if self.outcome.psr is not None:
            data["psr"] = self.outcome.psr
        if self.outcome.oob_accuracy is not None:
            data["oob_accuracy"] = self.outcome.oob_accuracy
            data["oob_aiou"] = self.outcome.oob_aiou
        return data


__all__ = ["AttackObjective", "AttackMethod", "AttackMode", "AttackConfig",
           "AttackResult"]
