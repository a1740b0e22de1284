"""Registry-wide defense contract suite.

One parametrized suite runs against every entry of the defense registry
(plus a chained spec): empty- and single-point-scene behaviour of
``apply``, determinism, output invariants per defense kind, and the
adaptive-attack ``sample_eot`` contract.  Adding a
defense: register it in ``repro.defenses.registry`` — the whole contract
applies with no further test code.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.defenses import (
    ChainedDefense,
    Defense,
    DEFENSE_NAMES,
    GaussianJitter,
    VoxelQuantization,
    build_defense,
    register_defense,
)
from repro.defenses.registry import _BUILDERS

pytestmark = pytest.mark.contract

#: Every registry entry plus one chained spec; constructor arguments keep
#: removal counts below the test cloud sizes except where a test overrides.
SPECS = {name: {} for name in DEFENSE_NAMES}
SPECS.update({"srs": {"num_removed": 7, "seed": 3}, "voxel+jitter": {}})


def make_defense(spec_name: str) -> Defense:
    return build_defense(spec_name, **SPECS[spec_name])


@pytest.fixture
def stack(rng):
    coords = rng.normal(size=(4, 40, 3))
    colors = rng.uniform(size=(4, 40, 3))
    labels = rng.integers(0, 5, size=(4, 40))
    return coords, colors, labels


@pytest.mark.parametrize("name", sorted(SPECS))
class TestDefenseContract:
    def test_deterministic_without_explicit_rng(self, stack, name):
        coords, colors, labels = stack
        first = make_defense(name).apply(coords[0], colors[0], labels[0])
        second = make_defense(name).apply(coords[0], colors[0], labels[0])
        for key in ("coords", "colors", "labels", "indices"):
            np.testing.assert_array_equal(first[key], second[key])

    def test_empty_scene(self, name):
        defense = make_defense(name)
        filtered = defense.apply(np.zeros((0, 3)), np.zeros((0, 3)),
                                 np.zeros(0, dtype=np.int64))
        assert filtered["indices"].size == 0
        assert filtered["coords"].shape == (0, 3)

    def test_single_point_scene(self, name):
        defense = make_defense(name)
        filtered = defense.apply(np.full((1, 3), 0.5), np.full((1, 3), 0.5),
                                 np.zeros(1, dtype=np.int64))
        # A defense may drop the lone point (SRS over-removal) but must
        # never raise and must keep the arrays consistent.
        kept = filtered["indices"].size
        assert kept in (0, 1)
        assert filtered["coords"].shape == (kept, 3)
        assert filtered["labels"].shape == (kept,)

    def test_output_invariants(self, stack, name):
        coords, colors, labels = stack
        defense = make_defense(name)
        filtered = defense.apply(coords[0], colors[0], labels[0])
        indices = filtered["indices"]
        assert len(np.unique(indices)) == indices.size
        if defense.kind == "removal":
            # Removal defenses return untouched subsets.
            np.testing.assert_array_equal(filtered["coords"],
                                          coords[0][indices])
            np.testing.assert_array_equal(filtered["colors"],
                                          colors[0][indices])
        else:
            # Transformation (and chained) defenses never drop labels
            # silently: the surviving labels are the indexed originals.
            np.testing.assert_array_equal(filtered["labels"],
                                          labels[0][indices])
            assert filtered["coords"].shape == (indices.size, 3)

    def test_sample_eot_contract(self, stack, name):
        """Every defense yields a canonical EOT sample the engines accept."""
        coords, colors, labels = stack
        defense = make_defense(name)
        sample = defense.sample_eot(coords[0], colors[0],
                                    np.random.default_rng(5))
        new_coords, new_colors = sample.apply_arrays(coords[0], colors[0])
        assert new_coords.shape == coords[0].shape
        assert new_colors.shape == colors[0].shape
        mask = np.ones(coords.shape[1], dtype=bool)
        restricted = sample.restrict(mask)
        assert restricted.shape == mask.shape
        if defense.kind == "removal":
            assert sample.keep_mask is not None
            np.testing.assert_array_equal(
                np.flatnonzero(restricted),
                defense.keep_indices(coords[0], colors[0],
                                     rng=np.random.default_rng(5)))

    def test_transform_matches_sample_for_transformations(self, stack, name):
        """For pure transformations, apply == the affine sample, same draw."""
        coords, colors, labels = stack
        defense = make_defense(name)
        if defense.kind != "transformation":
            pytest.skip("removal/chained defenses are covered elsewhere")
        out = defense.apply(coords[0], colors[0], labels[0],
                            rng=np.random.default_rng(11))
        sample = defense.sample_eot(coords[0], colors[0],
                                    np.random.default_rng(11))
        sampled_coords, sampled_colors = sample.apply_arrays(coords[0],
                                                             colors[0])
        np.testing.assert_allclose(out["coords"], sampled_coords,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(out["colors"], sampled_colors,
                                   rtol=0, atol=1e-12)


class TestRegistry:
    def test_names_and_build(self):
        assert set(DEFENSE_NAMES) == {"srs", "sor", "voxel", "rotation",
                                      "jitter"}
        for name in DEFENSE_NAMES:
            assert build_defense(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown defense"):
            build_defense("nope")

    def test_chained_spec(self):
        chain = build_defense("voxel+jitter")
        assert isinstance(chain, ChainedDefense)
        assert chain.name == "voxel+jitter"
        assert chain.stochastic          # jitter member
        with pytest.raises(ValueError, match="keyword"):
            build_defense("voxel+jitter", cell_size=0.1)

    def test_register_custom_and_duplicate(self):
        class _Null(Defense):
            name = "null_test_defense"
            kind = "transformation"

            def transform(self, coords, colors, rng=None):
                return np.asarray(coords), np.asarray(colors)

        from repro.defenses import registry

        register_defense("null_test_defense", _Null)
        try:
            assert isinstance(build_defense("null_test_defense"), _Null)
            # Late registrations are visible to name-listing consumers.
            assert "null_test_defense" in registry.defense_names()
            assert "null_test_defense" in registry.DEFENSE_NAMES
            with pytest.raises(ValueError, match="already registered"):
                register_defense("null_test_defense", _Null)
            with pytest.raises(ValueError, match="must not contain"):
                register_defense("a+b", _Null)
        finally:
            _BUILDERS.pop("null_test_defense", None)
            registry.DEFENSE_NAMES = tuple(_BUILDERS)


class TestChainedDefense:
    def test_indices_compose_through_removals(self, rng):
        coords = rng.normal(size=(30, 3))
        colors = rng.uniform(size=(30, 3))
        labels = rng.integers(0, 4, size=30)
        chain = ChainedDefense([build_defense("srs", num_removed=5, seed=1),
                                build_defense("srs", num_removed=5, seed=2)])
        out = chain.apply(coords, colors, labels)
        assert out["indices"].size == 20
        np.testing.assert_array_equal(out["coords"], coords[out["indices"]])
        np.testing.assert_array_equal(out["labels"], labels[out["indices"]])

    def test_transform_then_removal(self, rng):
        coords = rng.normal(size=(25, 3))
        colors = rng.uniform(size=(25, 3))
        labels = rng.integers(0, 4, size=25)
        chain = ChainedDefense([VoxelQuantization(cell_size=0.1),
                                build_defense("srs", num_removed=3, seed=0)])
        out = chain.apply(coords, colors, labels)
        assert out["indices"].size == 22
        # Quantization happened before the removal.
        quantized = VoxelQuantization(cell_size=0.1).transform(coords, colors)[0]
        np.testing.assert_array_equal(out["coords"],
                                      quantized[out["indices"]])

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            ChainedDefense([])

    def test_chain_eot_composes_affine_and_mask(self, rng):
        coords = rng.normal(size=(20, 3))
        colors = rng.uniform(size=(20, 3))
        chain = ChainedDefense([build_defense("rotation"),
                                GaussianJitter(sigma=0.01),
                                build_defense("sor")])
        sample = chain.sample_eot(coords, colors, np.random.default_rng(3))
        assert sample.coord_matrix is not None
        assert sample.coord_offset is not None
        assert sample.keep_mask is not None
        # The composed affine equals applying the members step by step with
        # the same stream.
        stream = np.random.default_rng(3)
        step_coords, step_colors = coords, colors
        for member in chain.defenses:
            member_sample = member.sample_eot(step_coords, step_colors, stream)
            step_coords, step_colors = member_sample.apply_arrays(step_coords,
                                                                  step_colors)
        composed_coords, composed_colors = sample.apply_arrays(coords, colors)
        np.testing.assert_allclose(composed_coords, step_coords, atol=1e-12)
        np.testing.assert_allclose(composed_colors, step_colors, atol=1e-12)
