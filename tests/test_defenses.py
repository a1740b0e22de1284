"""Unit and integration tests for the SRS and SOR defenses."""

import numpy as np
import pytest

from repro.core import AttackConfig, run_attack
from repro.datasets import prepare_scene
from repro.defenses import (
    DefenseEvaluation,
    SimpleRandomSampling,
    StatisticalOutlierRemoval,
    evaluate_with_defense,
)


class TestSRS:
    def test_removes_requested_count(self, rng):
        defense = SimpleRandomSampling(num_removed=10, seed=0)
        kept = defense.keep_indices(rng.normal(size=(100, 3)), rng.uniform(size=(100, 3)))
        assert kept.shape == (90,)

    def test_fraction_mode(self, rng):
        defense = SimpleRandomSampling(fraction=0.25, seed=0)
        kept = defense.keep_indices(rng.normal(size=(80, 3)), rng.uniform(size=(80, 3)))
        assert kept.shape == (60,)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            SimpleRandomSampling(num_removed=-1)

    @pytest.mark.parametrize("fraction", [-0.1, 1.5, 7.0])
    def test_out_of_range_fraction_rejected(self, fraction):
        """Regression: fraction outside [0, 1] used to be accepted silently."""
        with pytest.raises(ValueError, match="fraction"):
            SimpleRandomSampling(fraction=fraction)

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_boundary_fractions_accepted(self, fraction, rng):
        defense = SimpleRandomSampling(fraction=fraction, seed=0)
        kept = defense.keep_indices(rng.normal(size=(20, 3)),
                                    rng.uniform(size=(20, 3)))
        assert kept.size == (20 if fraction == 0.0 else 0)

    def test_num_removed_clamped_to_cloud_size(self, rng):
        """Regression: over-removal now empties the cloud instead of
        keeping an arbitrary survivor (or failing downstream)."""
        defense = SimpleRandomSampling(num_removed=1000, seed=0)
        kept = defense.keep_indices(rng.normal(size=(12, 3)),
                                    rng.uniform(size=(12, 3)))
        assert kept.size == 0

    def test_apply_returns_consistent_arrays(self, rng):
        defense = SimpleRandomSampling(num_removed=5, seed=0)
        coords = rng.normal(size=(30, 3))
        colors = rng.uniform(size=(30, 3))
        labels = rng.integers(0, 3, size=30)
        filtered = defense.apply(coords, colors, labels)
        kept = filtered["indices"]
        np.testing.assert_allclose(filtered["coords"], coords[kept])
        np.testing.assert_allclose(filtered["labels"], labels[kept])

    def test_deterministic_with_seed(self, rng):
        coords = rng.normal(size=(50, 3))
        colors = rng.uniform(size=(50, 3))
        a = SimpleRandomSampling(num_removed=5, seed=3).keep_indices(coords, colors)
        b = SimpleRandomSampling(num_removed=5, seed=3).keep_indices(coords, colors)
        np.testing.assert_array_equal(a, b)


class TestSOR:
    def test_detects_planted_color_outliers(self, rng):
        coords = rng.uniform(size=(100, 3))
        colors = np.full((100, 3), 0.5)
        colors[:5] = 5.0      # wildly out-of-gamut colours
        defense = StatisticalOutlierRemoval(k=2, std_multiplier=1.0)
        kept = set(defense.keep_indices(coords, colors).tolist())
        removed = set(range(100)) - kept
        assert removed  # something was flagged
        assert removed.issubset(set(range(5)) | removed) and any(i < 5 for i in removed)

    def test_detects_spatial_outliers_without_color(self, rng):
        coords = rng.uniform(size=(60, 3))
        coords[0] = [50.0, 50.0, 50.0]
        defense = StatisticalOutlierRemoval(k=2, use_color=False, std_multiplier=1.5)
        kept = defense.keep_indices(coords, np.zeros((60, 3)))
        assert 0 not in kept

    def test_clean_uniform_cloud_mostly_kept(self, rng):
        coords = rng.uniform(size=(200, 3))
        colors = rng.uniform(size=(200, 3)) * 0.01 + 0.5
        defense = StatisticalOutlierRemoval(k=2, std_multiplier=2.0)
        kept = defense.keep_indices(coords, colors)
        assert kept.size > 180

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            StatisticalOutlierRemoval(k=0)

    def test_outlier_scores_shape(self, rng):
        defense = StatisticalOutlierRemoval(k=3)
        scores = defense.outlier_scores(rng.normal(size=(40, 3)), rng.uniform(size=(40, 3)))
        assert scores.shape == (40,)
        assert (scores >= 0).all()

    def test_tiny_cloud_keeps_everything(self):
        defense = StatisticalOutlierRemoval(k=2)
        kept = defense.keep_indices(np.zeros((1, 3)), np.zeros((1, 3)))
        assert kept.size == 1


class TestApplyBatch:
    """A defense applied to several scenes, one ``apply`` call per scene,
    as ``evaluate_with_defense`` scores a batch."""

    def test_srs_shared_rng_differs_from_per_scene_reseed(self, rng):
        """An explicit generator threads one stream through successive
        calls; without one, every call reseeds from the defense's seed."""
        coords = rng.normal(size=(30, 3))
        colors = rng.uniform(size=(30, 3))
        labels = rng.integers(0, 5, size=30)
        defense = SimpleRandomSampling(num_removed=5, seed=0)
        reseeded = [defense.apply(coords, colors, labels)["indices"]
                    for _ in range(3)]
        stream = np.random.default_rng(0)
        shared = [defense.apply(coords, colors, labels, rng=stream)["indices"]
                  for _ in range(3)]
        assert all(np.array_equal(reseeded[0], r) for r in reseeded)
        assert any(not np.array_equal(a, b) for a, b in zip(reseeded, shared))

    @pytest.mark.parametrize("defense_factory, kept", [
        # SRS clamps removals to the cloud size: asking for 7 of 1 point
        # empties the scene (the documented clamp semantics) instead of
        # silently keeping an arbitrary survivor.
        (lambda: SimpleRandomSampling(num_removed=7, seed=3), 0),
        (lambda: StatisticalOutlierRemoval(k=2, std_multiplier=1.0), 1),
    ], ids=["srs", "sor"])
    def test_single_point_scenes(self, defense_factory, kept):
        defense = defense_factory()
        for _ in range(2):
            filtered = defense.apply(np.zeros((1, 3)), np.full((1, 3), 0.5),
                                     np.zeros(1, dtype=np.int64))
            np.testing.assert_array_equal(filtered["indices"],
                                          np.arange(kept))
            assert filtered["coords"].shape == (kept, 3)

    @pytest.mark.parametrize("defense_factory", [
        lambda: SimpleRandomSampling(num_removed=7, seed=3),
        lambda: StatisticalOutlierRemoval(k=2, std_multiplier=1.0),
    ], ids=["srs", "sor"])
    def test_empty_scenes(self, defense_factory):
        """Zero-point clouds filter to zero points instead of raising, also
        when one generator is shared across the scenes."""
        defense = defense_factory()
        stream = np.random.default_rng(0)
        for rng in (None, stream, stream):
            filtered = defense.apply(np.zeros((0, 3)), np.zeros((0, 3)),
                                     np.zeros(0, dtype=np.int64), rng=rng)
            assert filtered["indices"].size == 0
            assert filtered["coords"].shape == (0, 3)
            assert filtered["labels"].shape == (0,)


class TestEvaluateWithDefense:
    def test_no_defense_keeps_all_points(self, trained_resgcn, office_scene):
        prepared = prepare_scene(office_scene, trained_resgcn.spec)
        evaluation = evaluate_with_defense(trained_resgcn, None, prepared.coords,
                                           prepared.colors, prepared.labels)
        assert isinstance(evaluation, DefenseEvaluation)
        assert evaluation.points_removed == 0
        assert evaluation.defense_name == "none"
        assert 0.0 <= evaluation.accuracy <= 1.0

    def test_srs_removes_points(self, trained_resgcn, office_scene):
        prepared = prepare_scene(office_scene, trained_resgcn.spec)
        defense = SimpleRandomSampling(num_removed=10, seed=0)
        evaluation = evaluate_with_defense(trained_resgcn, defense, prepared.coords,
                                           prepared.colors, prepared.labels)
        assert evaluation.points_removed == 10
        assert evaluation.defense_name == "srs"

    def test_defenses_do_not_fully_restore_accuracy(self, trained_resgcn, office_scene):
        """Finding 7: neither defense restores the clean accuracy."""
        attack = AttackConfig.fast(objective="degradation", method="unbounded",
                                   field="color", unbounded_steps=40)
        result = run_attack(trained_resgcn, office_scene, attack)
        clean_accuracy = result.outcome.clean_accuracy
        for defense in (SimpleRandomSampling(num_removed=10, seed=0),
                        StatisticalOutlierRemoval(k=2)):
            evaluation = evaluate_with_defense(
                trained_resgcn, defense, result.adversarial_coords,
                result.adversarial_colors, result.labels)
            assert evaluation.accuracy < clean_accuracy - 0.1
