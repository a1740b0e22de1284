"""Unit tests for repro.geometry (kNN, sampling, normalisation)."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.geometry import (
    MODEL_SPECS,
    POINTNET2_SPEC,
    RESGCN_SPEC,
    NormalizationSpec,
    ball_query,
    denormalize_colors,
    dilated_knn_indices,
    duplicate_to_size,
    farthest_point_sampling,
    grid_subsampling,
    knn_indices,
    knn_indices_batch,
    neighbourhood_change_ratio,
    normalize_colors,
    normalize_coords,
    normalize_to_range,
    pairwise_squared_distances,
    random_sampling,
    remap_range,
    simple_random_sampling_removal,
)


class TestPairwiseDistances:
    def test_matches_bruteforce(self, rng):
        a = rng.normal(size=(10, 3))
        b = rng.normal(size=(7, 3))
        expected = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
        np.testing.assert_allclose(pairwise_squared_distances(a, b), expected, atol=1e-9)

    def test_self_distance_zero_diagonal(self, rng):
        a = rng.normal(size=(6, 3))
        d = pairwise_squared_distances(a, a)
        np.testing.assert_allclose(np.diag(d), np.zeros(6), atol=1e-9)

    def test_never_negative(self, rng):
        a = rng.normal(size=(20, 3)) * 1e-4
        assert (pairwise_squared_distances(a, a) >= 0).all()


class TestKnn:
    def test_matches_bruteforce(self, rng):
        points = rng.normal(size=(30, 3))
        idx = knn_indices(points, 5)
        d2 = pairwise_squared_distances(points, points)
        expected = np.argsort(d2, axis=1)[:, :5]
        for row in range(30):
            assert set(idx[row]) == set(expected[row])

    def test_includes_self_by_default(self, rng):
        points = rng.normal(size=(10, 3))
        idx = knn_indices(points, 3)
        assert all(row_index in idx[row_index] for row_index in range(10))

    def test_exclude_self(self, rng):
        points = rng.normal(size=(10, 3))
        idx = knn_indices(points, 3, include_self=False)
        assert all(row_index not in idx[row_index] for row_index in range(10))
        assert idx.shape == (10, 3)

    def test_k_clamped_to_population(self, rng):
        points = rng.normal(size=(4, 3))
        assert knn_indices(points, 10).shape == (4, 4)

    def test_separate_queries(self, rng):
        points = rng.normal(size=(20, 3))
        queries = rng.normal(size=(5, 3))
        idx = knn_indices(points, 4, queries=queries)
        assert idx.shape == (5, 4)
        d2 = pairwise_squared_distances(queries, points)
        nearest = np.argmin(d2, axis=1)
        assert all(nearest[i] == idx[i, 0] for i in range(5))

    def test_k_equal_one_shape(self, rng):
        points = rng.normal(size=(8, 3))
        assert knn_indices(points, 1).shape == (8, 1)

    def test_batched(self, rng):
        points = rng.normal(size=(3, 12, 3))
        idx = knn_indices_batch(points, 4)
        assert idx.shape == (3, 12, 4)

    def test_dilated_keeps_every_other(self, rng):
        points = rng.normal(size=(40, 3))
        base = knn_indices(points, 8)
        dilated = dilated_knn_indices(points, 4, dilation=2)
        assert dilated.shape == (40, 4)
        np.testing.assert_array_equal(dilated, base[:, ::2][:, :4])

    def test_dilated_stochastic_subset_of_wide(self, rng):
        points = rng.normal(size=(30, 3))
        wide = knn_indices(points, 12)
        sampled = dilated_knn_indices(points, 4, dilation=3, stochastic=True,
                                      rng=np.random.default_rng(0))
        for row in range(30):
            assert set(sampled[row]).issubset(set(wide[row]))


class TestBallQuery:
    def test_all_within_radius(self, rng):
        points = rng.uniform(size=(50, 3))
        centroids = points[:5]
        idx = ball_query(points, centroids, radius=0.3, max_samples=8)
        assert idx.shape == (5, 8)
        for row in range(5):
            d = np.linalg.norm(points[idx[row]] - centroids[row], axis=1)
            # Padding repeats an in-ball point, so every entry is within radius.
            assert (d <= 0.3 + 1e-9).all()

    def test_pads_with_first_index(self):
        points = np.array([[0.0, 0, 0], [10.0, 0, 0], [20.0, 0, 0]])
        idx = ball_query(points, points[:1], radius=0.5, max_samples=4)
        np.testing.assert_array_equal(idx[0], [0, 0, 0, 0])


class TestSampling:
    def test_fps_indices_unique_and_in_range(self, rng):
        points = rng.normal(size=(60, 3))
        idx = farthest_point_sampling(points, 20)
        assert len(set(idx.tolist())) == 20
        assert idx.min() >= 0 and idx.max() < 60

    def test_fps_clamps_to_population(self, rng):
        points = rng.normal(size=(5, 3))
        assert farthest_point_sampling(points, 50).shape == (5,)

    def test_fps_spreads_points(self, rng):
        # FPS of 2 points from a line should pick (near) the two extremes.
        points = np.linspace(0, 1, 100)[:, None] * np.array([1.0, 0, 0])
        idx = farthest_point_sampling(points, 2, seed=None)
        assert 99 in idx

    def test_fps_deterministic_given_seed(self, rng):
        points = rng.normal(size=(40, 3))
        a = farthest_point_sampling(points, 10, seed=3)
        b = farthest_point_sampling(points, 10, seed=3)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", ["random", "duplicates", "lattice"])
    def test_fps_matches_the_remasking_loop(self, kind):
        """Masking only the newly chosen index picks what re-masking every
        chosen index did: ``np.minimum`` keeps ``-inf`` against finite
        distances.  The column-wise, preallocated distances pick what the
        ``(N, 3)`` loop with fresh temporaries did.  Duplicated points and
        lattices tie in the argmax."""
        def reference(points, num_samples, seed):
            points = np.asarray(points, dtype=np.float64)
            n = points.shape[0]
            num_samples = min(num_samples, n)
            selected = np.empty(num_samples, dtype=np.int64)
            rng = np.random.default_rng(seed) if seed is not None else None
            selected[0] = int(rng.integers(n)) if rng is not None else 0
            min_d2 = np.sum((points - points[selected[0]]) ** 2, axis=1)
            min_d2[selected[0]] = -np.inf
            for i in range(1, num_samples):
                selected[i] = int(np.argmax(min_d2))
                d2 = np.sum((points - points[selected[i]]) ** 2, axis=1)
                min_d2 = np.minimum(min_d2, d2)
                min_d2[selected[: i + 1]] = -np.inf
            return selected

        def temporaries_loop(points, num_samples, seed):
            points = np.asarray(points, dtype=np.float64)
            n = points.shape[0]
            num_samples = min(num_samples, n)
            selected = np.empty(num_samples, dtype=np.int64)
            rng = np.random.default_rng(seed) if seed is not None else None
            selected[0] = int(rng.integers(n)) if rng is not None else 0
            min_d2 = np.sum((points - points[selected[0]]) ** 2, axis=1)
            min_d2[selected[0]] = -np.inf
            for i in range(1, num_samples):
                selected[i] = int(np.argmax(min_d2))
                d2 = np.sum((points - points[selected[i]]) ** 2, axis=1)
                min_d2 = np.minimum(min_d2, d2)
                min_d2[selected[i]] = -np.inf
            return selected

        for trial in range(40):
            rng = np.random.default_rng([trial, len(kind)])
            n = int(rng.integers(2, 60))
            if kind == "random":
                points = rng.normal(size=(n, 3))
            elif kind == "duplicates":
                base = rng.uniform(size=(n, 3))
                points = np.concatenate([base, base[rng.integers(n, size=n)]])
            else:
                side = int(rng.integers(2, 5))
                grid = np.stack(np.meshgrid(*[np.arange(side)] * 3), -1)
                points = grid.reshape(-1, 3) * 0.5
            for num_samples in (1, len(points) // 2 + 1, len(points) + 7):
                for seed in (trial, None):
                    picked = farthest_point_sampling(points, num_samples, seed)
                    np.testing.assert_array_equal(
                        picked, reference(points, num_samples, seed))
                    np.testing.assert_array_equal(
                        picked, temporaries_loop(points, num_samples, seed))

    def test_random_sampling_no_replacement(self):
        idx = random_sampling(50, 20, np.random.default_rng(0))
        assert len(set(idx.tolist())) == 20

    def test_random_sampling_clamps(self):
        assert random_sampling(5, 10).shape == (5,)

    def test_grid_subsampling_reduces_and_bounds(self, rng):
        points = rng.uniform(size=(200, 3))
        idx = grid_subsampling(points, 0.25)
        assert 0 < idx.size < 200
        assert idx.max() < 200

    def test_grid_subsampling_rejects_bad_cell(self):
        with pytest.raises(ValueError):
            grid_subsampling(np.zeros((5, 3)), 0.0)

    def test_duplicate_to_size_upsamples(self):
        idx = duplicate_to_size(10, 25, np.random.default_rng(0))
        assert idx.shape == (25,)
        assert set(range(10)).issubset(set(idx.tolist()))

    def test_duplicate_to_size_downsamples(self):
        idx = duplicate_to_size(30, 10, np.random.default_rng(0))
        assert idx.shape == (10,)
        assert len(set(idx.tolist())) == 10

    def test_srs_removal_count(self):
        kept = simple_random_sampling_removal(100, 10, np.random.default_rng(0))
        assert kept.shape == (90,)
        assert len(set(kept.tolist())) == 90

    def test_srs_removal_clamps_to_cloud_size(self):
        """Over-asking removes everything — clamped, never an index error."""
        kept = simple_random_sampling_removal(5, 50, np.random.default_rng(0))
        assert kept.size == 0

    def test_neighbourhood_change_ratio_zero_for_identity(self, rng):
        points = rng.normal(size=(30, 3))
        assert neighbourhood_change_ratio(points, points, k=5) == 0.0

    def test_neighbourhood_change_ratio_positive_for_shuffle(self, rng):
        points = rng.normal(size=(40, 3))
        perturbed = points + rng.normal(scale=2.0, size=points.shape)
        assert neighbourhood_change_ratio(points, perturbed, k=5) > 0.3


class TestTransforms:
    def test_normalize_to_range_bounds(self, rng):
        values = rng.normal(size=(50, 3)) * 10
        out = normalize_to_range(values, -1.0, 1.0)
        assert out.min() == pytest.approx(-1.0)
        assert out.max() == pytest.approx(1.0)

    def test_normalize_constant_input_maps_to_midpoint(self):
        out = normalize_to_range(np.full((5, 3), 7.0), 0.0, 3.0)
        np.testing.assert_allclose(out, np.full((5, 3), 1.5))

    def test_normalize_colors_range(self, rng):
        colors = rng.uniform(0, 255, size=(20, 3))
        out = normalize_colors(colors, POINTNET2_SPEC)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_denormalize_colors_roundtrip(self, rng):
        colors = rng.uniform(0, 255, size=(20, 3))
        out = denormalize_colors(normalize_colors(colors, POINTNET2_SPEC), POINTNET2_SPEC)
        np.testing.assert_allclose(out, colors, atol=1e-9)

    def test_normalize_coords_uses_spec(self, rng):
        coords = rng.normal(size=(30, 3)) * 4
        out = normalize_coords(coords, RESGCN_SPEC)
        assert out.min() == pytest.approx(-1.0)
        assert out.max() == pytest.approx(1.0)

    def test_remap_range(self):
        values = np.array([-1.0, 0.0, 1.0])
        np.testing.assert_allclose(remap_range(values, (-1, 1), (0, 3)), [0.0, 1.5, 3.0])

    def test_remap_range_rejects_degenerate_source(self):
        with pytest.raises(ValueError):
            remap_range(np.zeros(3), (1.0, 1.0), (0.0, 1.0))

    def test_model_specs_registry(self):
        assert set(MODEL_SPECS) == {"pointnet2", "resgcn", "randlanet"}
        assert isinstance(MODEL_SPECS["resgcn"], NormalizationSpec)
        assert MODEL_SPECS["pointnet2"].coord_range == (0.0, 3.0)
        assert MODEL_SPECS["resgcn"].coord_range == (-1.0, 1.0)


class TestScipyImport:
    def test_scipy_loads_at_the_first_tree(self):
        """Importing the framework loads no SciPy; building a kd-tree
        imports ``scipy.spatial``.  Checked in a fresh interpreter."""
        script = ("import sys\n"
                  "import numpy as np\n"
                  "import repro.experiments, repro.pipeline, repro.serve\n"
                  "print('scipy' in sys.modules)\n"
                  "import repro.geometry\n"
                  "repro.geometry.build_tree(np.zeros((4, 3)))\n"
                  "print('scipy.spatial' in sys.modules)\n")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]
