"""The forward-only plan compiler: capture, plan passes, replay.

The engine-contract suite proves eager-vs-replayed bit-equality end to end
on the black-box engines; this module tests the machinery itself —
:class:`GraphRecorder` capture, the :func:`compile_plan` passes (dead-node
elimination, constant folding, gradient poisoning), the
:meth:`PlanCache.run` lifecycle with its silent fallbacks, and profiler
coverage of replayed forwards.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import tensor as tensor_mod
from repro.nn.compile import (PlanCache, compile_plan, plan_cache,
                              use_plan_cache)
from repro.nn.graph import GraphRecorder, recording
from repro.telemetry.profiler import profile_ops

RNG = np.random.default_rng(42)


def _network(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """A toy matmul→add→relu→reduce forward."""
    hidden = (x @ w + b).relu()
    return hidden * hidden.sum(axis=-1, keepdims=True)


@pytest.fixture()
def weights():
    w = Tensor(RNG.standard_normal((3, 5)))
    b = Tensor(RNG.standard_normal((5,)))
    return w, b


def _capture(weights, feed):
    """Capture ``_network`` once and compile it."""
    w, b = weights
    x = Tensor(feed.copy())
    recorder = GraphRecorder({"x": x})
    with recording(recorder):
        y = _network(x, w, b)
    return compile_plan(recorder, {"y": y})


def _eager(weights, feed):
    return _network(Tensor(feed.copy()), *weights).data


def _feed(plan, feed):
    return {"x": np.asarray(feed, dtype=plan.placeholders["x"].dtype)}


class TestCaptureReplay:
    def test_replay_bitwise_matches_eager(self, weights):
        plan = _capture(weights, RNG.standard_normal((4, 3)))
        assert plan is not None
        for _ in range(3):
            feed = RNG.standard_normal((4, 3))
            result = plan.execute(_feed(plan, feed))
            np.testing.assert_array_equal(result["y"], _eager(weights, feed))

    def test_replays_counted(self, weights):
        feed = RNG.standard_normal((4, 3))
        plan = _capture(weights, feed)
        assert plan.replays == 0
        plan.execute(_feed(plan, feed))
        plan.execute(_feed(plan, feed))
        assert plan.replays == 2

    def test_shape_mismatch_raises(self, weights):
        from repro.nn.compile import PlanMismatch

        plan = _capture(weights, RNG.standard_normal((4, 3)))
        with pytest.raises(PlanMismatch):
            plan.execute(_feed(plan, RNG.standard_normal((5, 3))))


class TestCompilerPasses:
    def test_dead_nodes_eliminated(self, weights):
        """Ops recorded but never consumed by the outputs are dropped."""
        w, b = weights
        feed = RNG.standard_normal((4, 3))
        x = Tensor(feed.copy())
        recorder = GraphRecorder({"x": x})
        with recording(recorder):
            y = _network(x, w, b)
            (y.exp() * 3.0).sum()          # dead: result never requested
        plan = compile_plan(recorder, {"y": y})
        lean = _capture(weights, feed)
        assert plan.num_ops == lean.num_ops
        result = plan.execute(_feed(plan, feed))
        np.testing.assert_array_equal(result["y"], _eager(weights, feed))

    def test_constant_folding(self, weights):
        """Constant-only subgraphs are evaluated once, at compile time."""
        w, b = weights
        feed = RNG.standard_normal((4, 3))
        x = Tensor(feed.copy())
        recorder = GraphRecorder({"x": x})
        with recording(recorder):
            scaled = (w * 2.0 + 1.0).tanh()     # 3 constant-only ops
            hidden = (x @ scaled + b).relu()
            out = hidden * hidden
        plan = compile_plan(recorder, {"h": hidden, "out": out})
        assert plan.describe()["folded"] >= 3
        # Eager reference with the same arithmetic:
        hidden2 = (Tensor(feed.copy()) @ (w * 2.0 + 1.0).tanh() + b).relu()
        result = plan.execute(_feed(plan, feed))
        np.testing.assert_array_equal(result["h"], hidden2.data)
        np.testing.assert_array_equal(result["out"], (hidden2 * hidden2).data)
        # Folding must not shrink coverage: repeated replays stay stable
        # (a folded buffer recycled into the arena would corrupt replay 2).
        again = plan.execute(_feed(plan, feed))
        np.testing.assert_array_equal(again["h"], hidden2.data)

    def test_unregistered_grad_tensor_poisons_capture(self, weights):
        w, b = weights
        x = Tensor(RNG.standard_normal((4, 3)))
        stray = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
        recorder = GraphRecorder({"x": x})
        with recording(recorder):
            y = _network(x + stray, w, b)
        assert not recorder.valid
        assert compile_plan(recorder, {"y": y}) is None

    def test_gradient_bearing_capture_is_refused(self, weights):
        """Plans are forward-only: a placeholder that requires grad (a
        white-box step) compiles to nothing and its caller stays eager."""
        w, b = weights
        x = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
        recorder = GraphRecorder({"x": x})
        with recording(recorder):
            y = _network(x, w, b)
        assert recorder.valid
        assert compile_plan(recorder, {"y": y}) is None


class TestStepProgramLifecycle:
    """:meth:`PlanCache.run`: capture once, replay thereafter, and fall
    back to eager silently."""

    def _forward(self, recorded, weights, stray=None):
        """``_network``, logging whether each call ran under a recorder."""
        def forward(x):
            recorded.append(tensor_mod._RECORDER is not None)
            return _network(x if stray is None else x + stray, *weights)
        return forward

    def test_capture_once_replay_thereafter(self, weights):
        cache, recorded = PlanCache(), []
        forward = self._forward(recorded, weights)
        feed1 = RNG.standard_normal((4, 3))
        first = cache.run(("test",), forward, x=feed1)
        np.testing.assert_array_equal(first, _eager(weights, feed1))
        assert cache.stats["captures"] == 1
        feed2 = RNG.standard_normal((4, 3))
        replayed = cache.run(("test",), forward, x=feed2)
        np.testing.assert_array_equal(replayed, _eager(weights, feed2))
        assert recorded == [True]               # the replay ran no forward
        assert cache.stats == {"programs": 1, "captures": 1, "replays": 1,
                               "fallbacks": 0}

    def test_fallback_on_shape_change(self, weights):
        cache, recorded = PlanCache(), []
        forward = self._forward(recorded, weights)
        cache.run(("test",), forward, x=RNG.standard_normal((4, 3)))
        feed = RNG.standard_normal((6, 3))      # new shape
        out = cache.run(("test",), forward, x=feed)
        np.testing.assert_array_equal(out, _eager(weights, feed))
        assert recorded == [True, False]        # silent eager fallback
        assert cache.stats == {"programs": 1, "captures": 1, "replays": 0,
                               "fallbacks": 1}

    def test_invalid_capture_falls_back_forever(self, weights):
        cache, recorded = PlanCache(), []
        stray = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
        forward = self._forward(recorded, weights, stray)
        for _ in range(3):
            feed = RNG.standard_normal((4, 3))
            out = cache.run(("test",), forward, x=feed)
            want = _network(Tensor(feed) + stray, *weights).data
            np.testing.assert_array_equal(out, want)
        assert recorded == [True, False, False]  # poisoned: never re-captures
        assert cache.stats == {"programs": 1, "captures": 0, "replays": 0,
                               "fallbacks": 1}

    def test_plan_cache_context(self):
        assert plan_cache() is None
        cache = PlanCache()
        with use_plan_cache(cache):
            assert plan_cache() is cache
        assert plan_cache() is None


class TestProfilerCoverage:
    def test_replayed_steps_reach_the_profiler(self, weights):
        """``REPRO_PROFILE_OPS`` must see replayed forwards, not just the
        capture."""
        plan = _capture(weights, RNG.standard_normal((4, 3)))
        feed = _feed(plan, RNG.standard_normal((4, 3)))
        baseline = plan.execute(feed)
        with profile_ops() as profile:
            profiled = plan.execute(feed)
        assert profile.forward["matmul"][0] == 1
        assert not profile.backward
        # The profiled path runs the same kernels in the same order.
        np.testing.assert_array_equal(profiled["y"], baseline["y"])
