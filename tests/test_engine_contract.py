"""Cross-engine contract suite: invariants every attack engine must honour.

One parametrized suite runs against the bounded, unbounded and all three
black-box engines (NES, SPSA, decision-based boundary walk), in both the
fast (float32) and exact (float64) compute policies:

* **seeded determinism** — identical config + seed → bit-identical results;
* **serial vs batched equivalence** — ``batch_scenes > 1`` must reproduce
  the ``batch_scenes = 1`` results bit for bit, per scene;
* **mask confinement** — points outside the target mask never move;
* **Converge(·) early stopping** — a trivially satisfied criterion stops
  every engine on its first check;
* **object-hiding target labels** — hiding without target labels raises
  before the model runs;
* **query budgets** — black-box engines never spend more model queries than
  ``query_budget``;
* **eager vs compiled equivalence** — the black-box engines' forward-only
  plan replay must reproduce the eager results bit for bit, in both compute
  policies, and must actually replay on the color-field cells; white-box
  steps always run eager and capture nothing;
* **store-salt behaviour** — the execution knob ``batch_scenes`` is
  excluded from the result-store salt, semantic knobs (``attack_mode``,
  ``query_budget``) and the resolved compute policy are not.

Adding an engine: register it behind ``_build_engine`` (an ``attack_mode``
or ``AttackMethod``), then add one entry to ``ENGINES`` below — the whole
contract applies to it with no further test code.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.core.blackbox as blackbox_mod
from repro.accel import last_attack_plan_stats
from repro.core import AttackConfig, run_attack, run_attack_batch
from repro.core.attack import _build_engine, build_perturbation_spec
from repro.core.blackbox import BoundaryAttack, NESAttack, SPSAAttack
from repro.core.norm_bounded import NormBoundedAttack
from repro.core.norm_unbounded import NormUnboundedAttack
from repro.datasets import generate_room_scene
from repro.datasets.s3dis import CLASS_INDEX
from repro.experiments.context import ExperimentConfig
from repro.models import build_model
from repro.pipeline.scheduler import config_salt
from repro.pipeline.store import STORE_FORMAT_VERSION

pytestmark = pytest.mark.contract

#: One entry per engine; every test in the suite runs against each.
ENGINES = {
    "bounded": dict(method="bounded", bounded_steps=5),
    "unbounded": dict(method="unbounded", unbounded_steps=5,
                      smoothness_alpha=4),
    "nes": dict(attack_mode="nes", query_budget=25, samples_per_step=2),
    "spsa": dict(attack_mode="spsa", query_budget=25, samples_per_step=2),
    "boundary": dict(attack_mode="boundary", query_budget=25,
                     boundary_init_tries=4),
}

POLICIES = {
    "fast": dict(compute_dtype="float32", neighbor_refresh=5,
                 smoothness_neighbors="clean"),
    "exact": dict(compute_dtype="float64", neighbor_refresh=1,
                  smoothness_neighbors="current"),
}

ENGINE_CLASSES = {
    "bounded": NormBoundedAttack,
    "unbounded": NormUnboundedAttack,
    "nes": NESAttack,
    "spsa": SPSAAttack,
    "boundary": BoundaryAttack,
}


def make_config(engine: str, policy: str, **overrides) -> AttackConfig:
    values = dict(field="color", seed=0, target_accuracy=0.0)
    values.update(ENGINES[engine])
    values.update(POLICIES[policy])
    values.update(overrides)
    return AttackConfig.fast(**values)


@pytest.fixture(scope="module")
def contract_scenes():
    rng = np.random.default_rng(13)
    return [generate_room_scene(num_points=96, room_type="office", rng=rng,
                                name=f"contract_{i}")
            for i in range(3)]


@pytest.fixture(scope="module")
def contract_model():
    model = build_model("pointnet2", num_classes=13, hidden=16, seed=0)
    model.eval()
    return model


HIDING = dict(objective="hiding", source_class=CLASS_INDEX["chair"],
              target_class=CLASS_INDEX["floor"], target_accuracy=None)


class _NoForwardModel:
    """A victim that fails the test if an engine touches it beyond init."""

    num_classes = 13

    def __getattr__(self, name):
        raise AssertionError(f"the engine used model.{name}")


def assert_hiding_needs_target_labels(config, scene, model):
    """Hiding without target labels raises before any model call."""
    spec = build_perturbation_spec(config, scene.labels, model)
    engine = _build_engine(_NoForwardModel(), config)
    with pytest.raises(ValueError,
                       match="^object hiding requires target labels$"):
        engine.run(scene.coords, scene.colors, scene.labels, spec,
                   target_labels=None)


def assert_results_identical(serial, batched):
    assert len(serial) == len(batched)
    for left, right in zip(serial, batched):
        assert left.scene_name == right.scene_name
        np.testing.assert_array_equal(left.adversarial_colors,
                                      right.adversarial_colors)
        np.testing.assert_array_equal(left.adversarial_coords,
                                      right.adversarial_coords)
        np.testing.assert_array_equal(left.adversarial_prediction,
                                      right.adversarial_prediction)
        assert left.history == right.history
        assert left.iterations == right.iterations
        assert left.converged == right.converged
        assert left.l2 == right.l2


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestEngineContract:
    def test_seeded_determinism(self, contract_model, contract_scenes,
                                engine, policy):
        config = make_config(engine, policy)
        first = run_attack(contract_model, contract_scenes[0], config)
        second = run_attack(contract_model, contract_scenes[0], config)
        np.testing.assert_array_equal(first.adversarial_colors,
                                      second.adversarial_colors)
        np.testing.assert_array_equal(first.adversarial_coords,
                                      second.adversarial_coords)
        assert first.history == second.history
        assert first.l2 == second.l2

    def test_serial_vs_batched_bitwise(self, contract_model, contract_scenes,
                                       engine, policy):
        config = make_config(engine, policy)
        serial = run_attack_batch(contract_model, contract_scenes, config)
        batched = run_attack_batch(
            contract_model, contract_scenes,
            dataclasses.replace(config, batch_scenes=len(contract_scenes)))
        assert_results_identical(serial, batched)

    def test_mask_confinement(self, contract_model, contract_scenes,
                              engine, policy):
        """Object hiding: points outside the attacked set never move."""
        config = make_config(engine, policy, **HIDING)
        result = run_attack(contract_model, contract_scenes[0], config)
        outside = ~result.target_mask
        np.testing.assert_array_equal(result.adversarial_colors[outside],
                                      result.original_colors[outside])
        np.testing.assert_array_equal(result.adversarial_coords[outside],
                                      result.original_coords[outside])

    def test_hiding_requires_target_labels(self, contract_model,
                                           contract_scenes, engine, policy):
        assert_hiding_needs_target_labels(
            make_config(engine, policy, **HIDING), contract_scenes[0],
            contract_model)

    def test_converge_early_stop(self, contract_model, contract_scenes,
                                 engine, policy):
        """A trivially satisfied criterion stops the engine immediately.

        The boundary walk is the one engine for which ``Converge(·)``
        defines the *feasible region* rather than a stop condition: it keeps
        spending its budget shrinking the perturbation, so only the
        ``converged`` flag (criterion met from the very first query) is part
        of its contract.
        """
        config = make_config(engine, policy, target_accuracy=1.0)
        result = run_attack(contract_model, contract_scenes[0], config)
        assert result.converged
        if engine != "boundary":
            assert result.iterations == 1

    def test_dispatch_selects_engine(self, contract_model, engine, policy):
        config = make_config(engine, policy)
        assert isinstance(_build_engine(contract_model, config),
                          ENGINE_CLASSES[engine])

    def test_eager_vs_compiled_bitwise(self, contract_model, contract_scenes,
                                       engine, policy, monkeypatch):
        """Plan replay is an *identity* transformation of the query loop.

        The forward-only executor runs the very same numpy kernels in the
        very same order as the eager tape, so with plans on or off every
        black-box engine must produce bit-identical results — and on these
        color-field static-defense cells the plan must actually replay
        (``replays > 0``), or the equality would be vacuous.  White-box
        steps always run the eager tape: they capture nothing.
        """
        config = make_config(engine, policy)
        compiled = run_attack_batch(contract_model, contract_scenes, config)
        stats = last_attack_plan_stats()
        monkeypatch.setattr(blackbox_mod, "plan_cache", lambda: None)
        eager = run_attack_batch(contract_model, contract_scenes, config)
        assert_results_identical(eager, compiled)
        assert last_attack_plan_stats()["captures"] == 0   # plans off
        if engine in ("bounded", "unbounded"):
            assert stats == {"programs": 0, "captures": 0, "replays": 0,
                             "fallbacks": 0}
        else:
            assert stats["replays"] > 0


def test_noise_baseline_is_mode_agnostic(contract_model):
    """The random-noise baseline needs no model access: it must keep
    working (and win the dispatch) under every ``attack_mode``, so tables
    run under a black-box threat model keep their baseline rows."""
    from repro.core.random_noise import RandomNoiseBaseline

    for mode in ("whitebox", "nes", "spsa", "boundary"):
        config = AttackConfig.fast(method="noise", attack_mode=mode)
        assert isinstance(_build_engine(contract_model, config),
                          RandomNoiseBaseline)


def test_noise_baseline_hiding_requires_target_labels(contract_model,
                                                      contract_scenes):
    assert_hiding_needs_target_labels(
        AttackConfig.fast(method="noise", field="color", seed=0, **HIDING),
        contract_scenes[0], contract_model)


#: Criteria that keep each engine busy for its whole budget: an impossible
#: accuracy target for the estimators (so they never stop early) and an
#: immediately satisfied one for the boundary walk (so it never gives up
#: hunting a start and walks until the budget runs dry).
_EXHAUSTING = {"nes": -1.0, "spsa": -1.0, "boundary": 0.99}


@pytest.mark.parametrize("engine", ["nes", "spsa", "boundary"])
class TestQueryBudget:
    def test_budget_respected(self, contract_model, contract_scenes, engine):
        config = make_config(engine, "fast", query_budget=17)
        result = run_attack(contract_model, contract_scenes[0], config)
        assert result.history, "black-box engines must record their queries"
        queries = [entry["queries"] for entry in result.history]
        assert queries == sorted(queries)
        assert queries[-1] <= 17

    def test_budget_scales_work(self, contract_model, contract_scenes, engine):
        target = _EXHAUSTING[engine]
        small = run_attack(
            contract_model, contract_scenes[0],
            make_config(engine, "fast", query_budget=9,
                        target_accuracy=target))
        large = run_attack(
            contract_model, contract_scenes[0],
            make_config(engine, "fast", query_budget=33,
                        target_accuracy=target))
        assert small.history[-1]["queries"] <= 9
        assert large.history[-1]["queries"] <= 33
        assert large.history[-1]["queries"] > small.history[-1]["queries"]


class TestStoreSalt:
    """The result-store hashing contract every engine inherits."""

    def test_batch_scenes_excluded(self):
        assert "batch_scenes" in ExperimentConfig.salt_exclusions()
        serial = config_salt(ExperimentConfig.default(batch_scenes=1))
        batched = config_salt(ExperimentConfig.default(batch_scenes=8))
        assert serial == batched

    def test_graph_capture_excluded(self):
        """The removed execution knobs leave no trace in the salt, and the
        store format is at 6 (canonical JSON payloads since 5, fast-policy
        arithmetic of 6), so every content hash differs from the pickle
        era's."""
        salt = config_salt(ExperimentConfig.default())
        for knob in ("graph_capture", "tensor_backend"):
            assert knob not in salt["config"]
            assert knob not in salt["config"]["compute_policy"]
            assert knob not in repr(salt)
        assert salt["store_format"] == STORE_FORMAT_VERSION == 6

    def test_semantic_knobs_participate(self):
        base = config_salt(ExperimentConfig.default())
        assert config_salt(ExperimentConfig.default(attack_mode="nes")) != base
        assert config_salt(ExperimentConfig.default(query_budget=99)) != base
        assert config_salt(
            ExperimentConfig.default(samples_per_step=2)) != base

    def test_compute_policy_separates_caches(self, monkeypatch):
        monkeypatch.delenv("REPRO_ACCEL", raising=False)
        fast = config_salt(ExperimentConfig.default())
        monkeypatch.setenv("REPRO_ACCEL", "exact")
        exact = config_salt(ExperimentConfig.default())
        assert fast != exact
        assert fast["config"]["compute_policy"]["dtype"] == "float32"
        assert exact["config"]["compute_policy"]["env_override"] == "exact"

    def test_cache_dir_never_hashes(self, tmp_path):
        here = config_salt(ExperimentConfig.default())
        moved = config_salt(
            ExperimentConfig.default(cache_dir=str(tmp_path)))
        assert here == moved


@pytest.mark.slow
class TestTrainedModelContract:
    """The long tail: the full contract against a *trained* victim.

    Excluded from tier-1 (``-m "not slow"``); CI runs it in the dedicated
    contract job.
    """

    @pytest.mark.parametrize("engine", ["nes", "spsa", "boundary"])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_serial_vs_batched_trained(self, trained_pointnet2,
                                       contract_scenes, engine, policy):
        config = make_config(engine, policy, query_budget=120,
                             samples_per_step=4, epsilon=0.4,
                             target_accuracy=0.55)
        serial = run_attack_batch(trained_pointnet2, contract_scenes, config)
        batched = run_attack_batch(
            trained_pointnet2, contract_scenes,
            dataclasses.replace(config, batch_scenes=len(contract_scenes)))
        assert_results_identical(serial, batched)
