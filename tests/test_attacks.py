"""Integration tests for the attack engines against a trained victim model."""

import numpy as np
import pytest

from repro.core import (
    AttackConfig,
    AttackField,
    NormBoundedAttack,
    NormUnboundedAttack,
    PerturbationSpec,
    build_perturbation_spec,
    build_target_labels,
    full_mask,
    run_attack,
    run_attack_batch,
    run_attack_on_arrays,
)
from repro.core.convergence import ConvergenceCheck
from repro.datasets import generate_room_scene, prepare_scene
from repro.datasets.s3dis import CLASS_INDEX
from repro.models import build_model
from repro.nn import Tensor


WALL = CLASS_INDEX["wall"]
BOARD = CLASS_INDEX["board"]


@pytest.fixture(scope="module")
def prepared(trained_resgcn, office_scene):
    return prepare_scene(office_scene, trained_resgcn.spec)


def _fast(**overrides):
    defaults = dict(unbounded_steps=25, bounded_steps=10, smoothness_alpha=4,
                    min_impact_points=16)
    defaults.update(overrides)
    return AttackConfig.fast(**defaults)


class TestOrchestration:
    def test_build_perturbation_spec_degradation(self, trained_resgcn):
        labels = np.array([0, 1, 2])
        config = _fast(objective="degradation")
        spec = build_perturbation_spec(config, labels, trained_resgcn)
        assert spec.target_mask.all()
        assert spec.coord_box == trained_resgcn.spec.coord_range

    def test_build_perturbation_spec_hiding(self, trained_resgcn):
        labels = np.array([0, BOARD, BOARD])
        config = _fast(objective="hiding", source_class=BOARD, target_class=WALL)
        spec = build_perturbation_spec(config, labels, trained_resgcn)
        np.testing.assert_array_equal(spec.target_mask, [False, True, True])

    def test_missing_source_class_raises(self, trained_resgcn):
        labels = np.zeros(5, dtype=int)
        config = _fast(objective="hiding", source_class=BOARD, target_class=WALL)
        with pytest.raises(ValueError):
            build_perturbation_spec(config, labels, trained_resgcn)

    def test_hiding_requires_source_class(self, trained_resgcn):
        config = _fast(objective="hiding", target_class=WALL)
        with pytest.raises(ValueError):
            build_perturbation_spec(config, np.zeros(3, dtype=int), trained_resgcn)

    def test_target_labels(self):
        config = _fast(objective="hiding", source_class=BOARD, target_class=WALL)
        labels = np.array([0, 1, 2])
        np.testing.assert_array_equal(build_target_labels(config, labels),
                                      np.full(3, WALL))
        assert build_target_labels(_fast(objective="degradation"), labels) is None

    def test_run_attack_batch_skips_scenes_without_source(self, trained_resgcn,
                                                          office_scene, tiny_s3dis):
        hallway = [s for s in tiny_s3dis if s.metadata.get("room_type") == "hallway"]
        config = _fast(objective="hiding", method="noise",
                       source_class=BOARD, target_class=WALL)
        results = run_attack_batch(trained_resgcn, [office_scene] + hallway, config)
        assert len(results) == 1   # hallways have no boards


class TestNormBounded:
    def test_degradation_reduces_accuracy(self, trained_resgcn, office_scene):
        config = _fast(objective="degradation", method="bounded", field="color")
        result = run_attack(trained_resgcn, office_scene, config)
        assert result.outcome.accuracy < result.outcome.clean_accuracy
        assert result.iterations >= 1

    def test_epsilon_respected(self, trained_resgcn, office_scene):
        config = _fast(objective="degradation", method="bounded", field="color",
                       epsilon=0.05)
        result = run_attack(trained_resgcn, office_scene, config)
        assert result.linf <= 0.05 + 1e-9

    def test_color_attack_leaves_coordinates_untouched(self, trained_resgcn, office_scene):
        config = _fast(objective="degradation", method="bounded", field="color")
        result = run_attack(trained_resgcn, office_scene, config)
        np.testing.assert_allclose(result.adversarial_coords, result.original_coords)
        assert np.abs(result.color_perturbation).max() > 0

    def test_coordinate_attack_leaves_colors_untouched(self, trained_resgcn, office_scene):
        config = _fast(objective="degradation", method="bounded", field="coordinate")
        result = run_attack(trained_resgcn, office_scene, config)
        np.testing.assert_allclose(result.adversarial_colors, result.original_colors)

    def test_colors_stay_in_valid_box(self, trained_resgcn, office_scene):
        config = _fast(objective="degradation", method="bounded", field="color",
                       epsilon=0.5)
        result = run_attack(trained_resgcn, office_scene, config)
        assert result.adversarial_colors.min() >= 0.0
        assert result.adversarial_colors.max() <= 1.0

    def test_hiding_only_perturbs_target_points(self, trained_resgcn, prepared):
        config = _fast(objective="hiding", method="bounded", field="color",
                       source_class=BOARD, target_class=WALL)
        result = run_attack_on_arrays(trained_resgcn, config, prepared.coords,
                                      prepared.colors, prepared.labels)
        outside = ~result.target_mask
        np.testing.assert_allclose(result.adversarial_colors[outside],
                                   result.original_colors[outside])

    def test_history_recorded(self, trained_resgcn, office_scene):
        config = _fast(objective="degradation", method="bounded", field="color",
                       target_accuracy=0.0)
        result = run_attack(trained_resgcn, office_scene, config)
        assert len(result.history) == result.iterations
        assert {"step", "loss", "gain"} <= set(result.history[0])

    def test_engine_run_directly(self, trained_resgcn, prepared):
        config = _fast(objective="degradation", method="bounded", field="color")
        engine = NormBoundedAttack(trained_resgcn, config)
        spec = PerturbationSpec.for_model(AttackField.COLOR,
                                          full_mask(prepared.num_points),
                                          trained_resgcn.spec)
        result = engine.run(prepared.coords, prepared.colors, prepared.labels, spec)
        assert result.outcome.accuracy <= result.outcome.clean_accuracy


class TestNormUnbounded:
    def test_degradation_reaches_low_accuracy(self, trained_resgcn, office_scene):
        config = _fast(objective="degradation", method="unbounded", field="color",
                       unbounded_steps=40)
        result = run_attack(trained_resgcn, office_scene, config)
        assert result.outcome.accuracy < 0.5 * result.outcome.clean_accuracy

    def test_hiding_raises_psr(self, trained_resgcn, office_scene):
        config = _fast(objective="hiding", method="unbounded", field="color",
                       source_class=BOARD, target_class=WALL, unbounded_steps=80)
        result = run_attack(trained_resgcn, office_scene, config)
        assert result.outcome.psr is not None
        assert result.outcome.psr > 0.5
        assert result.outcome.oob_accuracy is not None

    def test_values_stay_in_box(self, trained_resgcn, office_scene):
        config = _fast(objective="degradation", method="unbounded", field="color")
        result = run_attack(trained_resgcn, office_scene, config)
        assert result.adversarial_colors.min() >= 0.0
        assert result.adversarial_colors.max() <= 1.0

    def test_only_masked_points_perturbed(self, trained_resgcn, prepared):
        config = _fast(objective="hiding", method="unbounded", field="color",
                       source_class=BOARD, target_class=WALL)
        result = run_attack_on_arrays(trained_resgcn, config, prepared.coords,
                                      prepared.colors, prepared.labels)
        outside = ~result.target_mask
        np.testing.assert_allclose(result.adversarial_colors[outside],
                                   result.original_colors[outside])

    def test_history_contains_distance(self, trained_resgcn, office_scene):
        config = _fast(objective="degradation", method="unbounded", field="color",
                       unbounded_steps=8, target_accuracy=0.0)
        result = run_attack(trained_resgcn, office_scene, config)
        assert len(result.history) == 8
        assert "distance" in result.history[0]

    def test_coordinate_attack_runs_and_prunes(self, trained_resgcn, office_scene):
        config = _fast(objective="degradation", method="unbounded",
                       field="coordinate", unbounded_steps=10)
        result = run_attack(trained_resgcn, office_scene, config)
        assert result.l0 <= office_scene.num_points
        np.testing.assert_allclose(result.adversarial_colors, result.original_colors)

    def test_both_fields_attack(self, trained_resgcn, office_scene):
        config = _fast(objective="degradation", method="unbounded", field="both",
                       unbounded_steps=10)
        result = run_attack(trained_resgcn, office_scene, config)
        assert np.abs(result.color_perturbation).max() > 0
        assert result.outcome.accuracy <= result.outcome.clean_accuracy + 0.05

    def test_deterministic_given_seed(self, trained_resgcn, office_scene):
        config = _fast(objective="degradation", method="unbounded", field="color",
                       unbounded_steps=6, seed=5)
        first = run_attack(trained_resgcn, office_scene, config)
        second = run_attack(trained_resgcn, office_scene, config)
        np.testing.assert_allclose(first.adversarial_colors, second.adversarial_colors)

    def test_engine_direct_run(self, trained_resgcn, prepared):
        config = _fast(objective="degradation", method="unbounded", field="color",
                       unbounded_steps=6)
        engine = NormUnboundedAttack(trained_resgcn, config)
        spec = PerturbationSpec.for_model(AttackField.COLOR,
                                          full_mask(prepared.num_points),
                                          trained_resgcn.spec)
        result = engine.run(prepared.coords, prepared.colors, prepared.labels, spec)
        assert result.l2 >= 0.0


class TestRandomNoiseBaseline:
    def test_matches_target_l2(self, trained_resgcn, office_scene):
        config = _fast(objective="degradation", method="noise", field="color")
        result = run_attack(trained_resgcn, office_scene, config, target_l2=4.0)
        # Clipping to the colour box can only shrink the injected norm.
        assert result.l2 <= 4.0 + 1e-6
        assert result.l2 > 1.0

    def test_weaker_than_unbounded(self, trained_resgcn, office_scene):
        unbounded = run_attack(trained_resgcn, office_scene,
                               _fast(objective="degradation", method="unbounded",
                                     field="color", unbounded_steps=40))
        noise = run_attack(trained_resgcn, office_scene,
                           _fast(objective="degradation", method="noise", field="color"),
                           target_l2=unbounded.l2)
        assert noise.outcome.accuracy > unbounded.outcome.accuracy

    def test_coordinate_noise(self, trained_resgcn, office_scene):
        config = _fast(objective="degradation", method="noise", field="coordinate")
        result = run_attack(trained_resgcn, office_scene, config, target_l2=1.0)
        assert np.abs(result.coordinate_perturbation).max() > 0
        np.testing.assert_allclose(result.adversarial_colors, result.original_colors)


class TestAttackResult:
    def test_summary_keys(self, trained_resgcn, office_scene):
        config = _fast(objective="hiding", method="noise", field="color",
                       source_class=BOARD, target_class=WALL)
        result = run_attack(trained_resgcn, office_scene, config)
        summary = result.summary()
        for key in ("l2", "l0", "linf", "accuracy", "aiou", "accuracy_drop",
                    "psr", "oob_accuracy", "oob_aiou", "iterations"):
            assert key in summary

    def test_perturbation_properties(self, trained_resgcn, office_scene):
        config = _fast(objective="degradation", method="noise", field="color")
        result = run_attack(trained_resgcn, office_scene, config)
        np.testing.assert_allclose(
            result.color_perturbation,
            result.adversarial_colors - result.original_colors)
        np.testing.assert_allclose(result.coordinate_perturbation, 0.0)

    def test_scene_name_propagated(self, trained_resgcn, office_scene):
        config = _fast(objective="degradation", method="noise", field="color")
        result = run_attack(trained_resgcn, office_scene, config)
        assert result.scene_name == office_scene.name

    def test_finding1_color_beats_coordinate(self, trained_resgcn, office_scene):
        """Finding 1: colour perturbation is more effective than coordinates."""
        color = run_attack(trained_resgcn, office_scene,
                           _fast(objective="degradation", method="unbounded",
                                 field="color", unbounded_steps=30))
        coordinate = run_attack(trained_resgcn, office_scene,
                                _fast(objective="degradation", method="unbounded",
                                      field="coordinate", unbounded_steps=30))
        assert color.outcome.accuracy < coordinate.outcome.accuracy


# ---------------------------------------------------------------------- #
# A step runs its backward only when a later step reads the gradient
# ---------------------------------------------------------------------- #
@pytest.fixture()
def backward_calls(monkeypatch):
    calls = []
    original = Tensor.backward

    def counted(self, grad=None):
        calls.append(self.shape)
        return original(self, grad)
    monkeypatch.setattr(Tensor, "backward", counted)
    return calls


def script_convergence(monkeypatch, steps):
    """Make ``Converge(·)`` fire for scene ``b`` from step ``steps[b]`` on.

    The engines ask once per step for each scene still attacking, in scene
    order, so a scene's n-th question is its step n.  Scenes are told apart
    by their labels, numbered in the order step 1 asks for them.
    """
    seen = {}

    def converged(self, prediction, labels, target_labels, target_mask):
        scene = seen.setdefault(np.asarray(labels).tobytes(), [len(seen), 0])
        scene[1] += 1
        return scene[1] >= steps[scene[0]]
    monkeypatch.setattr(ConvergenceCheck, "converged", converged)


@pytest.fixture(scope="module")
def small_victim():
    model = build_model("pointnet2", num_classes=13, hidden=16, seed=0)
    model.eval()
    return model


@pytest.fixture(scope="module")
def two_scenes():
    rng = np.random.default_rng(3)
    scenes = [generate_room_scene(num_points=96, room_type="office", rng=rng,
                                  name=f"skip_{i}") for i in range(2)]
    assert not np.array_equal(scenes[0].labels, scenes[1].labels)
    return scenes


def _skip_config(method, **overrides):
    return AttackConfig.fast(method=method, field="both", unbounded_steps=6,
                             bounded_steps=6, smoothness_alpha=4,
                             min_impact_points=16, seed=2, **overrides)


class TestSkippedBackward:
    def test_unbounded_last_step_skips_its_backward(
            self, small_victim, two_scenes, backward_calls):
        result = run_attack(small_victim, two_scenes[0],
                            _skip_config("unbounded", target_accuracy=-1.0))
        assert result.iterations == 6 and not result.converged
        assert len(backward_calls) == 5

    def test_bounded_last_step_runs_its_backward(
            self, small_victim, two_scenes, backward_calls):
        """The last sign step moves the returned cloud."""
        result = run_attack(small_victim, two_scenes[0],
                            _skip_config("bounded", target_accuracy=-1.0))
        assert result.iterations == 6 and not result.converged
        assert len(backward_calls) == 6

    @pytest.mark.parametrize("method", ["bounded", "unbounded"])
    def test_converging_step_skips_its_backward(
            self, method, small_victim, two_scenes, backward_calls,
            monkeypatch):
        script_convergence(monkeypatch, [3])
        result = run_attack(small_victim, two_scenes[0], _skip_config(method))
        assert result.iterations == 3 and result.converged
        assert len(backward_calls) == 2

    @pytest.mark.parametrize("method", ["bounded", "unbounded"])
    def test_batch_step_runs_backward_while_a_scene_attacks(
            self, method, small_victim, two_scenes, backward_calls,
            monkeypatch):
        """Scene 0 converges at step 2, scene 1 at step 4: step 2's
        gradient still moves scene 1, step 4's moves nothing."""
        script_convergence(monkeypatch, [2, 4])
        results = run_attack_batch(small_victim, two_scenes,
                                   _skip_config(method, batch_scenes=2))
        assert [r.iterations for r in results] == [2, 4]
        assert all(r.converged for r in results)
        assert len(backward_calls) == 3
