"""The fused paper-shape kernels against the composite chains they replace.

``OPS["softmax"]`` and ``OPS["bn_relu_max"]`` promise the composite ops'
outputs and input gradients bit for bit, and kd-tree interpolation promises
the dense distance sort's neighbours and weights bit for bit.  The composite
chains are kept here, as the references, and every comparison is on raw
bytes (signed zeros included): under both compute policies, eager and
through capture/replay, with batch > 1, with row counts that are not a
multiple of the block, with exact ties in the max, and with softmax over the
last axis and over axis 2.

The module also covers the neighbouring contracts of the same change: the
max VJP computes in its input dtype, and exact unbounded cells reuse their
best step's prediction instead of a reporting forward.  The fused ops'
torch kernels are checked in ``tests/test_compile.py`` (skipped without
torch).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest

import repro.nn.functional as functional_mod
import repro.nn.ops as ops_mod
from repro.accel import ComputePolicy, use_policy
from repro.core import AttackConfig, run_attack, run_attack_batch
from repro.datasets import generate_room_scene
from repro.models import build_model
from repro.models.base import SegmentationModel
from repro.nn import (OPS, BatchNorm, PlanCache, Tensor, bias_bn_relu_max,
                      detached_max, softmax)

BITWISE = os.environ.get("REPRO_GOLDEN_BITWISE", "") == "1"
POLICIES = {"fast": ComputePolicy.fast(), "exact": ComputePolicy.exact()}


# ---------------------------------------------------------------------- #
# The composite references
# ---------------------------------------------------------------------- #
def composite_softmax(logits: Tensor, axis: int, scale=None) -> Tensor:
    x = logits if scale is None else logits * scale
    shifted = x - detached_max(x, axis=axis)
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def composite_bn_relu_max(pre: Tensor, bias, norm: BatchNorm,
                          axis: int) -> Tensor:
    out = pre if bias is None else pre + bias
    return norm(out).relu().max(axis=axis)


def dense_interpolation_weights(source, target, k, eps):
    diff = target[:, :, None, :] - source[:, None, :, :]
    dist2 = np.sum(diff ** 2, axis=-1)
    idx = np.argsort(dist2, axis=-1)[:, :, :k]
    nearest = np.take_along_axis(dist2, idx, axis=-1)
    weights = 1.0 / (nearest + eps)
    return idx, weights / weights.sum(axis=-1, keepdims=True)


def assert_same_bits(left: np.ndarray, right: np.ndarray) -> None:
    assert left.dtype == right.dtype and left.shape == right.shape
    assert np.ascontiguousarray(left).tobytes() == \
        np.ascontiguousarray(right).tobytes()


# ---------------------------------------------------------------------- #
# Runners: eager and capture/replay, forward value + input gradient
# ---------------------------------------------------------------------- #
def run_eager(fn, data: np.ndarray, upstream: np.ndarray, first=None):
    x = Tensor(data, requires_grad=True)
    out = fn(x)
    (out * Tensor(upstream)).sum().backward()
    return out.data, x.grad


def run_replayed(fn, data: np.ndarray, upstream: np.ndarray,
                 first: np.ndarray):
    """Capture ``fn`` on ``first``, then replay the plan on ``data``."""
    x = Tensor(first, requires_grad=True)
    program = PlanCache().program(("fused",), lambda: {"x": x})
    with program.capture():
        out = fn(x)
        loss = (out * Tensor(upstream)).sum()
    program.finalize({"out": out}, root=loss)
    assert program.ready
    program.feed(x=data)
    outputs = program.replay()
    return outputs["out"], x.grad


@pytest.fixture(params=["eager", "replay"])
def runner(request):
    return run_eager if request.param == "eager" else run_replayed


@pytest.fixture()
def small_blocks(monkeypatch):
    """Blocks of 50 elements: many blocks per call, and a ragged last one."""
    monkeypatch.setattr(ops_mod, "BLOCK_ELEMENTS", 50)


def check_pair(fn_fused, fn_composite, shape, runner, policy, seed=0,
               make=None):
    rng = np.random.default_rng(seed)
    make = make or (lambda: rng.normal(size=shape) * 3.0)
    first, data = make(), make()
    with use_policy(POLICIES[policy]):
        upstream_shape = fn_composite(Tensor(data)).shape
        upstream = rng.normal(size=upstream_shape)
        fused = runner(fn_fused, data, upstream, first)
        composite = run_eager(fn_composite, data, upstream)
    for got, want in zip(fused, composite):
        assert_same_bits(got, want)


# ---------------------------------------------------------------------- #
# softmax
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("shape,axis,scale", [
    ((1, 37, 37), -1, 0.125),          # PCT attention, single scene
    ((3, 29, 29), -1, None),           # batch > 1, no scale
    ((2, 13, 7, 5), 2, None),          # RandLA-Net pooling scores
    ((3, 11, 16, 4), 2, 0.5),
])
@pytest.mark.parametrize("blocks", ["default", "small"])
def test_softmax_matches_composite(shape, axis, scale, policy, runner,
                                   blocks, request):
    if blocks == "small":
        request.getfixturevalue("small_blocks")
    check_pair(lambda x: softmax(x, axis=axis, scale=scale),
               lambda x: composite_softmax(x, axis, scale),
               shape, runner, policy)


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_softmax_with_saturated_rows(policy, small_blocks):
    """Rows with a dominant entry (exp underflow) and constant rows."""
    rng = np.random.default_rng(5)

    def make():
        data = rng.normal(size=(2, 9, 11))
        data[:, ::3] = 0.0                   # constant rows: exact ties
        data[:, 1, 4] = 900.0                # everything else underflows
        return data
    check_pair(lambda x: softmax(x, axis=-1, scale=0.5),
               lambda x: composite_softmax(x, -1, 0.5),
               None, run_eager, policy, make=make)


# ---------------------------------------------------------------------- #
# bn_relu_max
# ---------------------------------------------------------------------- #
def _frozen_tail(channels: int, rng, bias: bool = True):
    norm = BatchNorm(channels)
    norm.running_mean = rng.normal(size=channels)
    norm.running_var = rng.uniform(0.5, 2.0, size=channels)
    norm.gamma.data = rng.normal(size=channels)
    norm.beta.data = rng.normal(size=channels)
    norm.eval()
    bias_t = Tensor(rng.normal(size=channels)) if bias else None
    for param in (norm.gamma, norm.beta):
        param.requires_grad = False
    return bias_t, norm


def _tail_pair(channels, seed, bias=True, axis=2):
    rng = np.random.default_rng(seed)
    bias_t, norm = _frozen_tail(channels, rng, bias)
    fused = lambda x: bias_bn_relu_max(x, bias_t, norm, axis)       # noqa: E731
    composite = lambda x: composite_bn_relu_max(x, bias_t, norm, axis)  # noqa: E731
    return fused, composite


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("shape,bias", [
    ((1, 23, 16, 6), True),            # ResGCN / PointNet++ pooling tail
    ((3, 17, 5, 4), True),             # batch > 1, odd neighbour count
    ((2, 9, 2, 3), False),             # K = 2 takes the plain reduction
])
@pytest.mark.parametrize("blocks", ["default", "small"])
def test_bn_relu_max_matches_composite(shape, bias, policy, runner, blocks,
                                       request):
    if blocks == "small":
        request.getfixturevalue("small_blocks")
    fused, composite = _tail_pair(shape[-1], seed=len(shape) + shape[1],
                                  bias=bias)
    check_pair(fused, composite, shape, runner, policy)


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_bn_relu_max_exact_ties(policy, small_blocks):
    """Repeated neighbours tie in the max, ReLU zeros tie (signed) too:
    the gradient is shared across ties exactly as the composite shares it."""
    rng = np.random.default_rng(11)
    fused, composite = _tail_pair(4, seed=3)

    def make():
        base = rng.normal(size=(2, 7, 3, 4))
        data = np.concatenate([base, base, base[:, :, :1]], axis=2)
        data[:, ::2, :, 1] = -50.0           # every neighbour ReLU-clipped
        return data
    check_pair(fused, composite, None, run_eager, policy, make=make)


def test_bn_relu_max_keeps_composite_for_training_or_trainable():
    rng = np.random.default_rng(0)
    bias, norm = _frozen_tail(4, rng)
    pre = Tensor(rng.normal(size=(1, 5, 3, 4)), requires_grad=True)
    fused = bias_bn_relu_max(pre, bias, norm, axis=2)
    assert fused._parents == (pre,)                       # one fused node
    norm.gamma.requires_grad = True
    trainable = bias_bn_relu_max(pre, bias, norm, axis=2)
    assert trainable._parents != (pre,)
    norm.train()
    training = bias_bn_relu_max(pre, bias, norm, axis=2)
    assert training._parents != (pre,)


def test_models_use_the_fused_ops():
    """Every architecture's frozen evaluation forward runs a fused op."""
    from repro.accel import freeze_parameters
    from repro.nn.graph import GraphRecorder, recording

    rng = np.random.default_rng(2)
    coords = rng.uniform(0, 1, (1, 64, 3))
    colors = rng.uniform(0, 1, (1, 64, 3))
    expected = {"pointnet2": "bn_relu_max", "resgcn": "bn_relu_max",
                "randlanet": "softmax", "pct": "softmax"}
    for name, op in expected.items():
        kwargs = {"num_blocks": 2} if name == "resgcn" else {}
        model = build_model(name, num_classes=13, hidden=16, seed=0, **kwargs)
        model.eval()
        recorder = GraphRecorder({})
        with freeze_parameters(model), recording(recorder):
            model(Tensor(coords), Tensor(colors))
        names = {node.op.name for node in recorder.order}
        assert op in names, name


# ---------------------------------------------------------------------- #
# kd-tree interpolation
# ---------------------------------------------------------------------- #
def _clouds(kind: str, dtype, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "random":
        source = rng.uniform(0, 1, (2, 40, 3))
        target = rng.uniform(0, 1, (2, 150, 3))
    elif kind == "duplicates":
        base = rng.uniform(0, 1, (2, 20, 3))
        source = np.concatenate([base, base[:, :10]], axis=1)
        target = np.concatenate([base, rng.uniform(0, 1, (2, 60, 3))], axis=1)
    else:  # near-ties: a lattice, lattice midpoints and one-ulp nudges
        grid = np.stack(np.meshgrid(*[np.arange(4.0)] * 3), -1).reshape(-1, 3)
        source = np.stack([grid, grid[::-1]]) * 0.25
        mids = (source[:, :-1] + source[:, 1:]) / 2
        target = np.concatenate([mids, np.nextafter(mids, 2.0), source],
                                axis=1)
    return source.astype(dtype), target.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["random", "duplicates", "near_ties"])
@pytest.mark.parametrize("k", [1, 3])
def test_interpolation_matches_dense_sort(kind, k, dtype, monkeypatch):
    source, target = _clouds(kind, dtype, seed=k)
    fallback_rows = []
    dense_nearest = functional_mod._dense_nearest

    def spy(src, tgt, kk):
        fallback_rows.append(len(tgt))
        return dense_nearest(src, tgt, kk)
    monkeypatch.setattr(functional_mod, "_dense_nearest", spy)
    idx, weights = functional_mod._interpolation_weights(source, target, k,
                                                         1e-8)
    want_idx, want_weights = dense_interpolation_weights(source, target, k,
                                                         1e-8)
    np.testing.assert_array_equal(idx, want_idx)
    assert_same_bits(weights, want_weights)
    if kind != "random":
        assert sum(fallback_rows) > 0     # ties took the dense sort


@pytest.mark.parametrize("k", [1, 3])
def test_interpolation_sphere_near_ties(k):
    """Sources on small spheres around each target: float32 rounding orders
    them differently from the tree, which only the margin rule catches."""
    for seed in range(120):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(0, 1, (2, 6, 3))
        directions = rng.normal(size=(2, 6, 10, 3))
        directions /= np.linalg.norm(directions, axis=-1, keepdims=True)
        source = (centers[:, :, None] + 0.05 * directions).reshape(2, -1, 3)
        source, target = source.astype(np.float32), centers.astype(np.float32)
        idx, weights = functional_mod._interpolation_weights(source, target,
                                                             k, 1e-8)
        want_idx, want_weights = dense_interpolation_weights(source, target,
                                                             k, 1e-8)
        np.testing.assert_array_equal(idx, want_idx)
        assert_same_bits(weights, want_weights)


def test_interpolation_with_fewer_sources_than_candidates():
    source, target = _clouds("random", np.float64, seed=0)
    source = source[:, :3]
    idx, weights = functional_mod._interpolation_weights(source, target, 3,
                                                         1e-8)
    want_idx, want_weights = dense_interpolation_weights(source, target, 3,
                                                         1e-8)
    np.testing.assert_array_equal(idx, want_idx)
    assert_same_bits(weights, want_weights)


# ---------------------------------------------------------------------- #
# max VJP dtype
# ---------------------------------------------------------------------- #
def test_max_vjp_keeps_input_dtype():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 4, 5)).astype(np.float32)
    x[:, 1] = x[:, 0]                                    # ties share grad
    out = OPS["max"].forward((x,), {"axis": 1, "keepdims": False})
    grad = np.ones_like(out)
    (piece,) = OPS["max"].vjp(grad, out, (x,), {"axis": 1, "keepdims": False},
                              (True,))
    assert piece.dtype == np.float32
    np.testing.assert_array_equal(piece.sum(axis=1), grad)


#: sha256 over (adversarial coords, adversarial colours, loss history) of
#: fast-policy cells on the golden scene, captured before the max VJP
#: computed in its input dtype.  Bitwise, so only enforced under
#: ``REPRO_GOLDEN_BITWISE=1`` (see tests/test_accel.py).
FAST_CELL_DIGESTS = {
    "resgcn/unbounded/coordinate":
        "8493a8d5af3e0be18c412583b6fa6e5c1297297795df9a20985d057a22e62195",
    "pointnet2/bounded/both":
        "1132fb10f32d9293dcc3a0495afa351018ffd42b471e71c48515d03d2140c7f7",
    "pct/unbounded/color":
        "53bd3fc01925869225c867004032738f33f52a868299bcb5bf0d3fe080037ca1",
    "randlanet/bounded/color":
        "f4ea9f881c49085b82d03af4e86ce041fb5bb6a0695402acd730d1c615674e94",
}


def _golden_scene():
    return generate_room_scene(num_points=128, room_type="office",
                               rng=np.random.default_rng(7), name="golden")


def _golden_model(name: str):
    kwargs = {"num_blocks": 2} if name == "resgcn" else {}
    model = build_model(name, num_classes=13, hidden=16, seed=0, **kwargs)
    model.eval()
    return model


@pytest.mark.parametrize("case", sorted(FAST_CELL_DIGESTS))
def test_fast_cells_keep_their_bits(case):
    name, method, field = case.split("/")
    config = AttackConfig.fast(method=method, field=field, unbounded_steps=6,
                               bounded_steps=6, smoothness_alpha=4,
                               min_impact_points=16, seed=3,
                               target_accuracy=-1.0)
    result = run_attack(_golden_model(name), _golden_scene(), config)
    assert np.isfinite(result.adversarial_coords).all()
    digest = hashlib.sha256()
    for arr in (result.adversarial_coords, result.adversarial_colors,
                np.array([h["loss"] for h in result.history])):
        digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    if BITWISE:
        assert digest.hexdigest() == FAST_CELL_DIGESTS[case]


# ---------------------------------------------------------------------- #
# Exact unbounded cells reuse their best step's prediction
# ---------------------------------------------------------------------- #
@pytest.fixture()
def reporting_calls(monkeypatch):
    calls = []
    original = SegmentationModel.logits_numpy

    def counted(self, coords, colors):
        calls.append(np.asarray(coords).shape)
        return original(self, coords, colors)
    monkeypatch.setattr(SegmentationModel, "logits_numpy", counted)
    return calls


def _unbounded_config(policy: str, field: str, **extra) -> AttackConfig:
    compute = ({} if policy == "fast" else
               dict(compute_dtype="float64", neighbor_refresh=1,
                    smoothness_neighbors="current"))
    return AttackConfig.fast(method="unbounded", field=field,
                             unbounded_steps=4, smoothness_alpha=4,
                             min_impact_points=16, seed=3,
                             target_accuracy=-1.0, **compute, **extra)


@pytest.mark.parametrize("name,field", [("resgcn", "coordinate"),
                                        ("pct", "color"),
                                        ("randlanet", "both")])
def test_exact_unbounded_reuses_best_prediction(name, field,
                                                reporting_calls):
    model = _golden_model(name)
    result = run_attack(model, _golden_scene(),
                        _unbounded_config("exact", field))
    assert len(reporting_calls) == 1          # the clean forward only
    np.testing.assert_array_equal(
        result.adversarial_prediction,
        model.predict_single(result.adversarial_coords,
                             result.adversarial_colors))


def test_exact_unbounded_batched_reuses_best_prediction(reporting_calls):
    model = _golden_model("pointnet2")
    rng = np.random.default_rng(1)
    scenes = [generate_room_scene(num_points=96, room_type="office", rng=rng,
                                  name=f"batched_{i}") for i in range(2)]
    results = run_attack_batch(
        model, scenes, _unbounded_config("exact", "coordinate",
                                         batch_scenes=2))
    assert len(reporting_calls) == 2          # one clean forward per scene
    for result in results:
        np.testing.assert_array_equal(
            result.adversarial_prediction,
            model.predict_single(result.adversarial_coords,
                                 result.adversarial_colors))


def test_fast_unbounded_still_runs_its_reporting_forward(reporting_calls):
    run_attack(_golden_model("resgcn"), _golden_scene(),
               _unbounded_config("fast", "coordinate"))
    assert len(reporting_calls) == 2
