"""Tests for the repro.accel compute-policy layer.

Covers the three contracts the layer makes:

* **dtype policy** — tensors follow the active policy; gradients are correct
  at float32 tolerances; float64 exactness mode reproduces the seed
  implementation bit-for-bit (golden values captured from the pre-accel
  code in ``tests/data/seed_golden.json``);
* **NeighborhoodCache** — exact hits on unchanged content, stale reuse only
  inside the refresh window, invalidation on coordinate updates;
* **model casting / freezing** — parameters are viewed in float32 inside an
  attack context and restored (same objects, same bits) afterwards;
* **allocator rule** — after its first attack context a process keeps the
  large arrays it frees in its heap (glibc only).
"""

import ctypes
import hashlib
import json
import os

import numpy as np
import pytest

from repro.accel import (
    ComputePolicy,
    NeighborhoodCache,
    attack_compute,
    cast_model,
    compute_dtype,
    current_policy,
    freeze_parameters,
    neighborhoods,
    use_cache,
    use_policy,
)
from repro.core import AttackConfig, run_attack
from repro.datasets import generate_room_scene
from repro.geometry import knn_indices
from repro.models import build_model
from repro.nn import Tensor

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
GOLDEN_PATH = os.path.join(DATA_DIR, "seed_golden.json")
GOLDEN_NPZ_PATH = os.path.join(DATA_DIR, "seed_golden.npz")

#: Bit-for-bit golden assertions (hex floats, sha256 of trajectories) hold on
#: the machine/numpy-BLAS combination that captured the goldens; a different
#: dgemm kernel legitimately changes low-order bits.  The tolerance-based
#: comparison against the full seed arrays always runs; set
#: ``REPRO_GOLDEN_BITWISE=1`` to also enforce bitwise equality.
BITWISE = os.environ.get("REPRO_GOLDEN_BITWISE", "") == "1"


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(arr, dtype=np.float64).tobytes()).hexdigest()


def _golden_scene():
    return generate_room_scene(num_points=128, room_type="office",
                               rng=np.random.default_rng(7), name="golden")


def _golden_config(method: str, field: str, **compute) -> AttackConfig:
    return AttackConfig.fast(method=method, field=field, unbounded_steps=6,
                             bounded_steps=6, smoothness_alpha=4,
                             min_impact_points=16, seed=3,
                             target_accuracy=0.0, **compute)


# ---------------------------------------------------------------------- #
# ComputePolicy
# ---------------------------------------------------------------------- #
class TestComputePolicy:
    def test_default_policy_is_exact_float64(self):
        assert current_policy().is_exact
        assert compute_dtype() == np.dtype(np.float64)
        assert Tensor([1.0, 2.0]).dtype == np.float64

    def test_policy_context_switches_tensor_dtype(self):
        with use_policy(ComputePolicy.fast()):
            assert Tensor([1.0, 2.0]).dtype == np.float32
            t = Tensor(np.arange(4, dtype=np.float64))
            assert t.dtype == np.float32
        assert Tensor([1.0]).dtype == np.float64

    def test_policy_contexts_nest(self):
        with use_policy(ComputePolicy.fast()):
            with use_policy(ComputePolicy.exact()):
                assert compute_dtype() == np.dtype(np.float64)
            assert compute_dtype() == np.dtype(np.float32)

    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError):
            ComputePolicy(dtype=np.int32)
        with pytest.raises(ValueError):
            ComputePolicy(neighbor_refresh=0)

    def test_from_attack_config(self):
        fast = ComputePolicy.from_attack_config(AttackConfig.fast())
        assert fast.dtype == np.dtype(np.float32)
        assert fast.neighbor_refresh == 5
        exact = ComputePolicy.from_attack_config(AttackConfig.paper_scale())
        assert exact.is_exact

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ACCEL", "exact")
        assert ComputePolicy.from_attack_config(AttackConfig.fast()).is_exact
        monkeypatch.setenv("REPRO_ACCEL", "fast")
        assert not ComputePolicy.from_attack_config(
            AttackConfig.paper_scale()).is_exact

    def test_env_override_typo_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_ACCEL", "excat")
        with pytest.raises(ValueError):
            ComputePolicy.from_attack_config(AttackConfig.fast())

    def test_float32_gradients_match_finite_differences(self):
        """Autograd under the fast policy is correct at float32 tolerances."""
        rng = np.random.default_rng(0)
        x64 = rng.normal(size=(5, 4))

        def objective(t):
            return ((t * t).sum(axis=1) + 1.0).sqrt().tanh().sum()

        with use_policy(ComputePolicy.fast()):
            t = Tensor(x64, requires_grad=True)
            assert t.dtype == np.float32
            out = objective(t)
            assert out.dtype == np.float32
            out.backward()
            grad = np.array(t.grad, dtype=np.float64)

        eps = 1e-4
        numeric = np.zeros_like(x64)
        for i in np.ndindex(*x64.shape):
            hi, lo = x64.copy(), x64.copy()
            hi[i] += eps
            lo[i] -= eps
            numeric[i] = (objective(Tensor(hi)).item()
                          - objective(Tensor(lo)).item()) / (2 * eps)
        np.testing.assert_allclose(grad, numeric, rtol=1e-2, atol=1e-3)


# ---------------------------------------------------------------------- #
# Exactness mode vs the seed implementation
# ---------------------------------------------------------------------- #
class TestExactnessGolden:
    """float64 / R=1 / current-neighbour mode reproduces the seed.

    The golden arrays were captured by running the *pre-accel* code on the
    same models, scene and configurations.  The comparison is tight
    tolerance by default (robust to BLAS kernel differences between
    machines) and bit-for-bit under ``REPRO_GOLDEN_BITWISE=1`` (verified on
    the capture machine).
    """

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
            return json.load(handle)

    @pytest.fixture(scope="class")
    def golden_arrays(self):
        with np.load(GOLDEN_NPZ_PATH) as payload:
            return {key: payload[key] for key in payload.files}

    def _check_against_golden(self, result, case, golden, golden_arrays):
        expected = golden[case]
        l2, linf, l0, accuracy, iterations = golden_arrays[f"{case}/scalars"]
        np.testing.assert_allclose(result.adversarial_coords,
                                   golden_arrays[f"{case}/coords"],
                                   rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(result.adversarial_colors,
                                   golden_arrays[f"{case}/colors"],
                                   rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose([h["loss"] for h in result.history],
                                   golden_arrays[f"{case}/losses"],
                                   rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(
            [result.l2, result.linf, result.l0, result.outcome.accuracy],
            [l2, linf, l0, accuracy], rtol=1e-7, atol=1e-9)
        assert result.iterations == int(iterations)
        if BITWISE:
            assert result.l2.hex() == expected["l2"]
            assert result.linf.hex() == expected["linf"]
            assert result.l0.hex() == expected["l0"]
            assert float(result.outcome.accuracy).hex() == expected["accuracy"]
            assert _digest(result.adversarial_colors) == expected["colors_sha256"]
            assert _digest(result.adversarial_coords) == expected["coords_sha256"]
            assert ([h["loss"].hex() for h in result.history]
                    == expected["loss_history"])

    @pytest.mark.parametrize("case", [
        "pointnet2/unbounded/color",
        "pointnet2/bounded/color",
        "resgcn/unbounded/coordinate",
        "resgcn/bounded/color",
        "randlanet/unbounded/color",
        "pct/unbounded/coordinate",
        "pct/bounded/color",
    ])
    def test_exact_mode_reproduces_seed(self, golden, golden_arrays, case):
        model_name, method, field = case.split("/")
        kwargs = {"num_blocks": 2} if model_name == "resgcn" else {}
        model = build_model(model_name, num_classes=13, hidden=16, seed=0,
                            **kwargs)
        model.eval()
        config = _golden_config(method, field, compute_dtype="float64",
                                neighbor_refresh=1,
                                smoothness_neighbors="current")
        result = run_attack(model, _golden_scene(), config)
        self._check_against_golden(result, case, golden, golden_arrays)

    def test_env_exact_override_restores_full_seed_behaviour(
            self, golden, golden_arrays, monkeypatch):
        """REPRO_ACCEL=exact on a *fast* config reproduces the seed exactly.

        Regression test: the override must restore the smoothness neighbour
        source too, which only matters for coordinate-field attacks (the
        clean and current sources coincide for colour attacks).
        """
        monkeypatch.setenv("REPRO_ACCEL", "exact")
        case = "resgcn/unbounded/coordinate"
        model = build_model("resgcn", num_classes=13, hidden=16, num_blocks=2,
                            seed=0)
        model.eval()
        config = _golden_config("unbounded", "coordinate")
        assert config.compute_dtype == "float32"   # fast defaults in config
        result = run_attack(model, _golden_scene(), config)
        self._check_against_golden(result, case, golden, golden_arrays)

    def test_fast_mode_still_attacks(self, golden):
        """Fast mode changes the numbers but not the qualitative outcome."""
        model = build_model("pointnet2", num_classes=13, hidden=16, seed=0)
        model.eval()
        config = _golden_config("unbounded", "color")
        assert config.compute_dtype == "float32"
        result = run_attack(model, _golden_scene(), config)
        assert np.isfinite(result.l2)
        assert result.adversarial_colors.dtype == np.float64  # reporting dtype
        assert np.abs(result.color_perturbation).max() > 0

    def test_float32_sqrt_zero_gradient_is_finite(self):
        """sqrt(0) backward must not divide by zero under float32.

        Regression test: the seed's 1e-300 division floor underflows to 0
        in float32, which NaN-poisoned RandLANet gradients (its LocSE
        branch takes sqrt of each point's zero self-distance).
        """
        with use_policy(ComputePolicy.fast()):
            t = Tensor(np.array([0.0, 4.0]), requires_grad=True)
            t.sqrt().sum().backward()
            assert np.isfinite(t.grad).all()

    @pytest.mark.parametrize("model_name", ["pointnet2", "resgcn", "randlanet"])
    def test_fast_mode_multistep_coordinate_gradients_finite(self, model_name):
        """Multi-step fast-mode coordinate attacks stay NaN-free per model."""
        kwargs = {"num_blocks": 2} if model_name == "resgcn" else {}
        model = build_model(model_name, num_classes=13, hidden=16, seed=0,
                            **kwargs)
        model.eval()
        config = AttackConfig.fast(method="unbounded", field="coordinate",
                                   unbounded_steps=4, smoothness_alpha=4,
                                   min_impact_points=16, seed=3,
                                   target_accuracy=-1.0)  # never converge
        result = run_attack(model, _golden_scene(), config)
        assert result.iterations == 4
        assert np.isfinite(result.adversarial_coords).all()
        assert np.isfinite([h["loss"] for h in result.history]).all()

    def test_fast_mode_l0_not_inflated_by_float32_residue(self):
        """Eq. 12-pruned points must be bit-exact originals in fast mode.

        Regression test: recomposing the best snapshot with the full target
        mask instead of the per-step allowed mask left float32-rounding
        residue on restored points, counting all of them in L0 (Eq. 8).
        """
        model = build_model("resgcn", num_classes=13, hidden=16, num_blocks=2,
                            seed=0)
        model.eval()
        config = _golden_config("unbounded", "coordinate")
        assert config.compute_dtype == "float32"
        result = run_attack(model, _golden_scene(), config)
        assert result.l0 < 128  # pruned/restored points carry no residue

    def test_bounded_fast_mode_respects_epsilon(self):
        model = build_model("pointnet2", num_classes=13, hidden=16, seed=0)
        model.eval()
        config = _golden_config("bounded", "color", )
        result = run_attack(model, _golden_scene(), config)
        assert result.linf <= config.epsilon + 1e-9


# ---------------------------------------------------------------------- #
# NeighborhoodCache
# ---------------------------------------------------------------------- #
class TestNeighborhoodCache:
    def _cloud(self, n=40, seed=0):
        return np.random.default_rng(seed).uniform(0.0, 1.0, (n, 3))

    def test_exact_hit_on_identical_content(self):
        cache = NeighborhoodCache(refresh_interval=1)
        points = self._cloud()
        first = cache.knn(points, 4, slot=("t", 0))
        second = cache.knn(points.copy(), 4, slot=("t", 0))
        np.testing.assert_array_equal(first, second)
        assert cache.exact_hits == 1
        assert cache.misses == 1

    def test_refresh_one_recomputes_on_change(self):
        cache = NeighborhoodCache(refresh_interval=1)
        points = self._cloud()
        first = cache.knn(points, 4, slot=("t", 0))
        moved = points + 0.5
        cache.advance()
        second = cache.knn(moved, 4, slot=("t", 0))
        assert cache.stale_hits == 0
        assert cache.misses == 2
        reference = knn_indices(moved, 4)
        np.testing.assert_array_equal(second, reference)
        del first

    def test_refresh_one_alternating_inputs_do_not_thrash(self):
        """Two inputs alternating on one slot (a black-box check forward and
        its probe forward) stay memoised at refresh 1: A/B/A/B/A/B computes
        twice, and every value is the one computed from its own input."""
        cache = NeighborhoodCache(refresh_interval=1)
        clouds = [self._cloud(seed=0), self._cloud(seed=1)]
        computed = []

        def lookup(points):
            def compute():
                computed.append(1)
                return knn_indices(points, 4)
            return cache.memo(("knn", 4), (points,), compute, slot=("t", 0))

        for step in range(6):
            cache.advance()
            points = clouds[step % 2]
            np.testing.assert_array_equal(lookup(points),
                                          knn_indices(points, 4))
        assert len(computed) == 2
        assert cache.exact_hits == 4 and cache.misses == 2

    def test_stale_reuse_inside_refresh_window(self):
        cache = NeighborhoodCache(refresh_interval=3)
        points = self._cloud()
        first = cache.knn(points, 4, slot=("t", 0))
        cache.advance()
        moved = points + 0.01
        second = cache.knn(moved, 4, slot=("t", 0))     # age 1 < 3: stale hit
        np.testing.assert_array_equal(first, second)
        assert cache.stale_hits == 1

    def test_recompute_after_refresh_window(self):
        cache = NeighborhoodCache(refresh_interval=2)
        points = self._cloud()
        cache.knn(points, 4, slot=("t", 0))
        rng = np.random.default_rng(9)
        for _ in range(2):
            cache.advance()
        shuffled = points[rng.permutation(points.shape[0])]
        result = cache.knn(shuffled, 4, slot=("t", 0))   # age 2 >= 2: miss
        assert cache.misses == 2
        np.testing.assert_array_equal(result, knn_indices(shuffled, 4))

    def test_distinct_k_do_not_collide(self):
        cache = NeighborhoodCache(refresh_interval=5)
        points = self._cloud()
        k3 = cache.knn(points, 3, slot=("t", 0))
        k5 = cache.knn(points, 5, slot=("t", 0))
        assert k3.shape[1] == 3
        assert k5.shape[1] == 5

    def test_tree_shared_across_k(self):
        cache = NeighborhoodCache()
        points = self._cloud()
        cache.knn(points, 3)
        cache.knn(points, 5)
        cache.dilated(points, 3, dilation=2)
        assert cache.tree_hits >= 2

    def test_content_keyed_lookup_without_slot(self):
        cache = NeighborhoodCache()
        points = self._cloud()
        cache.knn(points, 4, include_self=False)
        cache.knn(points, 4, include_self=False)
        assert cache.exact_hits == 1

    def test_use_cache_installs_and_restores(self):
        default = neighborhoods()
        scoped = NeighborhoodCache(refresh_interval=7)
        with use_cache(scoped):
            assert neighborhoods() is scoped
        assert neighborhoods() is default


# ---------------------------------------------------------------------- #
# kNN vectorisation equivalence
# ---------------------------------------------------------------------- #
class TestKnnEquivalence:
    def _reference_exclude_self(self, points, k):
        """The seed's per-row Python implementation of include_self=False."""
        from scipy.spatial import cKDTree
        n = points.shape[0]
        k = max(min(k, n - 1), 1)
        tree = cKDTree(points)
        _, idx = tree.query(points, k=min(k + 1, n))
        idx = np.atleast_2d(idx)
        cleaned = np.empty((n, k), dtype=np.int64)
        for row in range(n):
            neighbours = [j for j in idx[row] if j != row][:k]
            while len(neighbours) < k:
                neighbours.append(neighbours[-1])
            cleaned[row] = neighbours
        return cleaned

    @pytest.mark.parametrize("n,k", [(10, 3), (25, 6), (5, 4), (7, 1)])
    def test_vectorised_exclude_self_matches_reference(self, n, k):
        points = np.random.default_rng(n * 31 + k).uniform(0, 1, (n, 3))
        np.testing.assert_array_equal(
            knn_indices(points, k, include_self=False),
            self._reference_exclude_self(points, k))

    def test_exclude_self_with_duplicate_points(self):
        base = np.random.default_rng(3).uniform(0, 1, (8, 3))
        points = np.concatenate([base, base[:3]])   # exact duplicates
        result = knn_indices(points, 4, include_self=False)
        assert result.shape == (11, 4)
        for row in range(points.shape[0]):
            assert row not in result[row]

    def test_single_point_cloud_does_not_crash(self):
        result = knn_indices(np.zeros((1, 3)), 2, include_self=False)
        assert result.shape == (1, 1)


# ---------------------------------------------------------------------- #
# Model casting and parameter freezing
# ---------------------------------------------------------------------- #
class TestModelCasting:
    def _model(self):
        model = build_model("resgcn", num_classes=13, hidden=16, num_blocks=2,
                            seed=0)
        model.eval()
        return model

    def test_cast_model_roundtrip_restores_original_arrays(self):
        model = self._model()
        originals = {name: param.data for name, param in model.named_parameters()}
        with cast_model(model, np.float32):
            for _, param in model.named_parameters():
                assert param.data.dtype == np.float32
        for name, param in model.named_parameters():
            assert param.data is originals[name]       # same objects, same bits

    def test_cast_model_casts_batchnorm_buffers(self):
        model = self._model()
        with cast_model(model, np.float32):
            for _, buffer in model.named_buffers():
                assert buffer.dtype == np.float32
        for _, buffer in model.named_buffers():
            assert buffer.dtype == np.float64

    def test_freeze_parameters_restores(self):
        model = self._model()
        with freeze_parameters(model):
            assert not any(p.requires_grad for p in model.parameters())
        assert all(p.requires_grad for p in model.parameters())

    def test_attack_compute_installs_everything(self):
        model = self._model()
        config = AttackConfig.fast()
        with attack_compute(model, config) as cache:
            assert compute_dtype() == np.dtype(np.float32)
            assert neighborhoods() is cache
            assert cache.refresh_interval == config.neighbor_refresh
            assert not model.parameters()[0].requires_grad
            assert model.parameters()[0].data.dtype == np.float32
        assert compute_dtype() == np.dtype(np.float64)
        assert model.parameters()[0].requires_grad
        assert model.parameters()[0].data.dtype == np.float64

    def test_logits_memo_invalidates_on_buffer_change(self):
        """Reporting-forward memoisation keys over BatchNorm buffers too."""
        model = self._model()
        rng = np.random.default_rng(4)
        coords = rng.uniform(0, 1, (1, 24, 3))
        colors = rng.uniform(0, 1, (1, 24, 3))
        before = model.logits_numpy(coords, colors)
        model.train()
        model(Tensor(coords), Tensor(colors))   # updates running stats only
        model.eval()
        after = model.logits_numpy(coords, colors)
        assert not np.array_equal(before, after)

    def test_frozen_parameters_receive_no_gradients(self):
        model = self._model()
        coords = np.random.default_rng(0).uniform(0, 1, (1, 32, 3))
        colors = np.random.default_rng(1).uniform(0, 1, (1, 32, 3))
        with attack_compute(model, AttackConfig.fast()):
            coords_t = Tensor(coords, requires_grad=True)
            logits = model(coords_t, Tensor(colors))
            logits.sum().backward()
            assert coords_t.grad is not None
            assert all(p.grad is None for p in model.parameters())


# ---------------------------------------------------------------------- #
# The allocator rule attack_compute sets once per process
# ---------------------------------------------------------------------- #
class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]


def _libc_mallinfo2():
    try:
        mallinfo2 = ctypes.CDLL(None).mallinfo2
    except (OSError, AttributeError):
        return None
    mallinfo2.argtypes = ()
    mallinfo2.restype = _Mallinfo2
    return mallinfo2


_MALLINFO2 = _libc_mallinfo2()


@pytest.mark.skipif(_MALLINFO2 is None, reason="needs glibc's mallinfo2")
class TestAllocatorRule:
    def _model(self):
        model = build_model("resgcn", num_classes=13, hidden=16, num_blocks=2,
                            seed=0)
        model.eval()
        return model

    def test_large_arrays_stay_in_the_heap(self):
        """A 64 MiB array, above glibc's largest dynamic mmap threshold
        (32 MiB), is a heap chunk after an attack context, not a mapping,
        and freeing it does not trim the heap."""
        with attack_compute(self._model(), AttackConfig.fast()):
            pass
        before = _MALLINFO2()
        big = np.ones(8 << 20)
        held = _MALLINFO2()
        assert held.hblkhd == before.hblkhd
        del big
        assert _MALLINFO2().arena == held.arena

    def test_attack_without_mallopt_is_unchanged(self, monkeypatch):
        import repro.accel as accel
        config = _golden_config("bounded", "color")
        expected = run_attack(self._model(), _golden_scene(), config)
        lookups = []
        monkeypatch.setattr(accel, "_freed_memory_kept", False)
        monkeypatch.setattr(accel, "_libc_mallopt",
                            lambda: lookups.append(1))
        result = run_attack(self._model(), _golden_scene(), config)
        run_attack(self._model(), _golden_scene(), config)
        assert lookups == [1]           # looked up once per process
        np.testing.assert_array_equal(result.adversarial_colors,
                                      expected.adversarial_colors)
        np.testing.assert_array_equal(result.adversarial_coords,
                                      expected.adversarial_coords)
        assert result.history == expected.history
        assert result.l2 == expected.l2
