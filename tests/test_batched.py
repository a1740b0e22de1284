"""Batched multi-scene attack execution: golden equivalence with serial runs.

The contract under test is strict: with ``batch_scenes > 1`` every scene's
:class:`AttackResult` must be **bit-for-bit identical** to the result of a
``batch_scenes = 1`` run — same adversarial arrays, same per-step history,
same iteration counts — in both compute policies.  The batched engines were
built around that invariant (per-scene RNG streams, per-scene early
stopping, accumulation-tree-preserving graph construction), so these tests
compare with ``np.array_equal``, not tolerances.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.accel.threads import pin_blas_env, pin_compute_threads
from repro.core import AttackConfig, run_attack_batch, run_attack_group
from repro.core.distance import l2_distance
from repro.core.objectives import performance_degradation_loss
from repro.core.smoothness import smoothness_penalty
from repro.datasets import generate_room_scene
from repro.datasets.s3dis import CLASS_INDEX
from repro.models import build_model
from repro.nn import Tensor


@pytest.fixture(scope="module")
def scene_pool():
    rng = np.random.default_rng(7)
    return [generate_room_scene(num_points=128, room_type="office", rng=rng,
                                name=f"batched_{i}")
            for i in range(4)]


@pytest.fixture(scope="module")
def victim():
    model = build_model("pointnet2", num_classes=13, hidden=16, seed=0)
    model.eval()
    return model


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
        assert left.l0 == right.l0


class TestBatchedEquivalence:
    @pytest.mark.parametrize("method,field", [
        ("unbounded", "color"),
        ("unbounded", "coordinate"),
        ("unbounded", "both"),
        ("bounded", "color"),
        ("bounded", "coordinate"),
    ])
    def test_fast_policy_bitwise(self, victim, scene_pool, method, field):
        config = AttackConfig.fast(method=method, field=field,
                                   unbounded_steps=8, bounded_steps=6,
                                   smoothness_alpha=4, seed=0,
                                   target_accuracy=0.0)
        serial = run_attack_batch(victim, scene_pool, config)
        batched = run_attack_batch(
            victim, scene_pool, dataclasses.replace(config, batch_scenes=4))
        assert_results_identical(serial, batched)

    def test_exact_policy_bitwise(self, victim, scene_pool):
        config = AttackConfig.fast(method="unbounded", field="both",
                                   unbounded_steps=6, smoothness_alpha=4,
                                   seed=0, target_accuracy=0.0,
                                   compute_dtype="float64", neighbor_refresh=1,
                                   smoothness_neighbors="current")
        serial = run_attack_batch(victim, scene_pool, config)
        batched = run_attack_batch(
            victim, scene_pool, dataclasses.replace(config, batch_scenes=4))
        assert_results_identical(serial, batched)

    def test_other_architectures(self, scene_pool):
        for name, kwargs in (("randlanet", {}), ("resgcn", {"num_blocks": 2}),
                             ("pct", {})):
            model = build_model(name, num_classes=13, hidden=16, seed=0,
                                **kwargs)
            model.eval()
            config = AttackConfig.fast(method="unbounded", field="color",
                                       unbounded_steps=5, smoothness_alpha=4,
                                       seed=0, target_accuracy=0.0)
            serial = run_attack_batch(model, scene_pool[:3], config)
            batched = run_attack_batch(
                model, scene_pool[:3],
                dataclasses.replace(config, batch_scenes=3))
            assert_results_identical(serial, batched)

    def test_early_stopping_stays_per_scene(self, trained_pointnet2, scene_pool):
        """Scenes converging at different steps must match their serial runs.

        The 0.3 accuracy threshold is chosen so this pool genuinely
        exercises the frozen-scene path: some scenes converge early (at
        different steps) while others run the full budget — without that
        heterogeneity the per-scene freeze/merge bookkeeping would go
        untested.
        """
        config = AttackConfig.fast(method="unbounded", field="color",
                                   unbounded_steps=15, smoothness_alpha=4,
                                   seed=0, target_accuracy=0.3)
        serial = run_attack_batch(trained_pointnet2, scene_pool, config)
        batched = run_attack_batch(
            trained_pointnet2, scene_pool,
            dataclasses.replace(config, batch_scenes=4))
        assert_results_identical(serial, batched)
        assert len({result.iterations for result in serial}) > 1
        assert any(result.converged for result in serial)
        assert not all(result.converged for result in serial)

    def test_object_hiding_per_scene_masks(self, trained_pointnet2, scene_pool):
        config = AttackConfig.fast(method="unbounded", field="color",
                                   objective="hiding",
                                   source_class=CLASS_INDEX["chair"],
                                   target_class=CLASS_INDEX["floor"],
                                   unbounded_steps=6, smoothness_alpha=4,
                                   seed=0)
        serial = run_attack_batch(trained_pointnet2, scene_pool, config)
        batched = run_attack_batch(
            trained_pointnet2, scene_pool,
            dataclasses.replace(config, batch_scenes=4))
        assert_results_identical(serial, batched)

    def test_mixed_scene_sizes_group_without_reordering(self, victim):
        rng = np.random.default_rng(3)
        scenes = [
            generate_room_scene(num_points=128, room_type="office", rng=rng,
                                name="size128_a"),
            generate_room_scene(num_points=96, room_type="office", rng=rng,
                                name="size96_a"),
            generate_room_scene(num_points=128, room_type="office", rng=rng,
                                name="size128_b"),
            generate_room_scene(num_points=96, room_type="office", rng=rng,
                                name="size96_b"),
        ]
        config = AttackConfig.fast(method="unbounded", field="color",
                                   unbounded_steps=5, smoothness_alpha=4,
                                   seed=0, target_accuracy=0.0)
        serial = run_attack_batch(victim, scenes, config)
        batched = run_attack_batch(
            victim, scenes, dataclasses.replace(config, batch_scenes=4))
        assert [r.scene_name for r in batched] == [r.scene_name for r in serial]
        assert_results_identical(serial, batched)

    def test_run_attack_group_matches_serial_runs(self, victim, scene_pool):
        config = AttackConfig.fast(method="unbounded", field="color",
                                   unbounded_steps=5, smoothness_alpha=4,
                                   seed=0, target_accuracy=0.0)
        serial = run_attack_group(victim, scene_pool, config)
        batched = run_attack_group(
            victim, scene_pool, dataclasses.replace(config, batch_scenes=4))
        assert_results_identical(serial, batched)

    def test_batch_scenes_validation(self):
        with pytest.raises(ValueError):
            AttackConfig(batch_scenes=0)


@pytest.mark.parametrize("batch_scenes", [1, 2])
class TestDispatchErrors:
    """Only preparation may skip a scene; engine errors always propagate."""

    def test_engine_value_error_propagates(self, victim, scene_pool,
                                           batch_scenes, monkeypatch):
        import repro.core.norm_bounded as norm_bounded

        calls = []
        original = norm_bounded.adversarial_loss

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise ValueError("loss failed mid-run")
            return original(*args, **kwargs)
        monkeypatch.setattr(norm_bounded, "adversarial_loss", failing)
        config = AttackConfig.fast(method="bounded", field="color",
                                   bounded_steps=3, target_accuracy=-1.0,
                                   batch_scenes=batch_scenes)
        with pytest.raises(ValueError, match="mid-run"):
            run_attack_batch(victim, scene_pool[:2], config)

    def test_scene_without_source_class_is_skipped(self, victim, scene_pool,
                                                   batch_scenes):
        hallway = generate_room_scene(num_points=128, room_type="hallway",
                                      rng=np.random.default_rng(3),
                                      name="hallway")
        assert not (hallway.labels == CLASS_INDEX["board"]).any()
        config = AttackConfig.fast(method="bounded", field="color",
                                   objective="hiding", bounded_steps=2,
                                   source_class=CLASS_INDEX["board"],
                                   target_class=CLASS_INDEX["wall"],
                                   batch_scenes=batch_scenes)
        scenes = [hallway, *scene_pool[:2]]
        results = run_attack_batch(victim, scenes, config)
        assert [r.scene_name for r in results] == ["batched_0", "batched_1"]
        with pytest.raises(ValueError, match="source class"):
            run_attack_batch(victim, scenes, config,
                             skip_missing_source=False)


class TestBatchPositionIndependence:
    """Eval-mode model forwards must not depend on a scene's batch slot."""

    @pytest.mark.parametrize("name", ["pointnet2", "randlanet", "resgcn", "pct"])
    def test_logits_independent_of_position(self, name, scene_pool):
        from repro.datasets import prepare_batch

        kwargs = {"num_blocks": 2} if name == "resgcn" else {}
        model = build_model(name, num_classes=13, hidden=16, seed=0, **kwargs)
        model.eval()
        batch = prepare_batch(scene_pool[:3], model.spec)
        stacked = model.logits_numpy(batch.coords, batch.colors)
        for position in range(3):
            single = model.logits_numpy(batch.coords[position:position + 1],
                                        batch.colors[position:position + 1])
            np.testing.assert_array_equal(stacked[position], single[0])


class TestPerSceneReductions:
    def test_objective_per_scene_matches_scalar(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.standard_normal((3, 40, 13)))
        labels = rng.integers(0, 13, size=(3, 40))
        mask = rng.random((3, 40)) < 0.7
        per_scene = performance_degradation_loss(logits, labels, mask,
                                                 per_scene=True)
        assert per_scene.shape == (3,)
        for scene in range(3):
            scalar = performance_degradation_loss(
                Tensor(logits.data[scene:scene + 1]), labels[scene:scene + 1],
                mask[scene:scene + 1])
            assert per_scene.data[scene] == scalar.item()

    def test_l2_distance_per_scene_matches_scalar(self):
        rng = np.random.default_rng(1)
        delta = Tensor(rng.standard_normal((3, 40, 3)))
        mask = rng.random((3, 40)) < 0.5
        per_scene = l2_distance(delta, mask, per_scene=True)
        assert per_scene.shape == (3,)
        for scene in range(3):
            scalar = l2_distance(Tensor(delta.data[scene]), mask[scene])
            assert per_scene.data[scene] == scalar.item()

    def test_smoothness_per_scene_matches_scalar(self):
        rng = np.random.default_rng(2)
        coords = Tensor(rng.random((2, 50, 3)))
        colors = Tensor(rng.random((2, 50, 3)))
        per_scene = smoothness_penalty(coords, colors, alpha=4, per_scene=True)
        assert per_scene.shape == (2,)
        for scene in range(2):
            scalar = smoothness_penalty(Tensor(coords.data[scene:scene + 1]),
                                        Tensor(colors.data[scene:scene + 1]),
                                        alpha=4)
            assert per_scene.data[scene] == scalar.item()


class TestThreadPinning:
    def test_pin_helpers_are_idempotent(self, monkeypatch):
        import os

        from repro.geometry.knn import query_workers

        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("REPRO_KNN_WORKERS", raising=False)
        pin_blas_env(2)
        assert os.environ["OMP_NUM_THREADS"] == "2"
        # an explicit operator setting wins over a later best-effort pin
        pin_blas_env(4)
        assert os.environ["OMP_NUM_THREADS"] == "2"
        before = query_workers()
        try:
            pin_compute_threads(1)
            assert query_workers() == 1
        finally:
            from repro.geometry.knn import set_query_workers
            set_query_workers(before)
