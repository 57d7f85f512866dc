import json
import tracemalloc

import numpy as np
import pytest

from dareid.autodiff import Tensor
from dareid.network import ModelConfig, ModelParams, _layout, init_params
from dareid.optimizer import LrSchedule, OptimState, amsgrad_step, lr_at_epoch


class TestLrSchedule:
    def test_initial_rate(self):
        assert lr_at_epoch(LrSchedule(), 0) == 3e-4

    def test_milestone_drops(self):
        sched = LrSchedule()
        assert lr_at_epoch(sched, 20) == pytest.approx(3e-5)
        assert lr_at_epoch(sched, 40) == pytest.approx(3e-6)

    def test_before_first_milestone(self):
        assert lr_at_epoch(LrSchedule(), 19) == 3e-4

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_negative_or_non_finite_rate_rejected(self, bad):
        with pytest.raises(ValueError, match="base_lr"):
            LrSchedule(base_lr=bad)

    def test_non_increasing(self):
        sched = LrSchedule()
        rates = [lr_at_epoch(sched, e) for e in range(60)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            lr_at_epoch(LrSchedule(), -1)


def make_param(values):
    # a copy: the step writes the leaf's values in place
    return Tensor(np.array(values, dtype=np.float64))


def flat_pairs(named_values):
    """(name, Tensor) pairs whose values and gradients are consecutive views
    of one vector each, as ModelParams lays them out; the gradients are 0."""
    shapes = [np.shape(v) for _, v in named_values]
    cuts = np.cumsum([np.prod(shape) for shape in shapes])[:-1]
    vector = np.concatenate([np.ravel(v) for _, v in named_values])
    leaves = [Tensor(p.reshape(shape))
              for p, shape in zip(np.split(vector, cuts), shapes)]
    for leaf, g in zip(leaves, np.split(np.zeros_like(vector), cuts)):
        leaf.grad = g.reshape(leaf.shape)
    return [(name, leaf) for (name, _), leaf in zip(named_values, leaves)]


class TestAmsgradStep:
    def test_zero_gradient_is_fixed_point(self):
        p = make_param([[1.0, -2.0]])
        before = p.data.copy()
        state = OptimState(weight_decay=0.0)
        for _ in range(5):
            p.zero_grad()
            amsgrad_step(state, [("p", p)], lr=0.1)
        assert np.array_equal(p.data, before)

    def test_first_step_moves_by_lr(self):
        # with g=1: m1/bc1 = 1, sqrt(vhat/bc2) = 1, so the update is
        # -lr / (1 + eps) up to eps
        p = make_param([[0.0]])
        p.grad = np.array([[1.0]])
        state = OptimState(weight_decay=0.0)
        amsgrad_step(state, [("p", p)], lr=0.1)
        assert p.data[0, 0] == pytest.approx(-0.1, rel=1e-6)

    def test_vhat_retains_maximum(self):
        p = make_param([[0.0]])
        state = OptimState(weight_decay=0.0)
        p.grad = np.array([[1.0]])
        amsgrad_step(state, [("p", p)], lr=0.01)
        v1 = state.slots["p"]["vhat"].copy()
        p.grad = np.array([[0.01]])
        amsgrad_step(state, [("p", p)], lr=0.01)
        # hand recurrence: v2 = 0.999*1e-3 + 1e-3*1e-4 = 9.991e-4 < v1 = 1e-3
        assert np.array_equal(state.slots["p"]["vhat"], v1)

    def test_vhat_monotone_over_random_steps(self):
        rng = np.random.default_rng(0)
        p = make_param(rng.normal(size=(3, 4)))
        state = OptimState()
        prev = np.zeros((3, 4))
        for _ in range(500):
            p.grad = rng.normal(size=(3, 4)) * rng.uniform(0.1, 10)
            amsgrad_step(state, [("p", p)], lr=1e-3)
            vhat = state.slots["p"]["vhat"]
            assert np.all(vhat >= prev)
            assert np.all(vhat >= state.slots["p"]["v"])
            prev = vhat.copy()

    def test_step_counter_increments(self):
        p = make_param([[0.0]])
        state = OptimState()
        for expected in (1, 2, 3):
            p.grad = np.array([[1.0]])
            amsgrad_step(state, [("p", p)], lr=0.01)
            assert state.t == expected

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=(1, 6))
        grads = rng.normal(size=(1, 6))
        perm = rng.permutation(6)

        pa = make_param(vals)
        sa = OptimState()
        pa.grad = grads.copy()
        amsgrad_step(sa, [("p", pa)], lr=0.01)

        pb = make_param(vals[:, perm])
        sb = OptimState()
        pb.grad = grads[:, perm].copy()
        amsgrad_step(sb, [("p", pb)], lr=0.01)
        assert np.array_equal(pb.data, pa.data[:, perm])

    def test_weight_decay_pulls_toward_zero(self):
        p = make_param([[10.0]])
        state = OptimState(weight_decay=0.1)
        p.grad = np.array([[0.0]])
        amsgrad_step(state, [("p", p)], lr=0.1)
        assert p.data[0, 0] < 10.0

    def test_non_finite_gradient_rejected_with_name(self):
        p = make_param([[0.0]])
        p.grad = np.array([[np.inf]])
        state = OptimState()
        with pytest.raises(FloatingPointError, match="p"):
            amsgrad_step(state, [("p", p)], lr=0.1)
        assert state.t == 0 and state.slots == {}   # the state is untouched

    def test_step_that_overflows_a_parameter_is_rejected_with_name(self):
        # at lr 1e308 the first step moves each weight by about lr, so a
        # weight of 1e308 pushed further overflows; "a" stays finite
        pairs = flat_pairs([("a", [[0.0, 0.0]]), ("b", [[1e308, 1.0]]),
                            ("c", [[-1e308]])])
        (_, a), (_, b), (_, c) = pairs
        for p, grad in ((a, [[0.0, 0.0]]), (b, [[-1.0, 0.0]]), (c, [[1.0]])):
            p.grad[...] = grad
        data = [p.data.copy() for p in (a, b, c)]
        # train() steps with overflow warnings off, as here
        with pytest.raises(FloatingPointError, match="parameter b$"), \
                np.errstate(over="ignore", invalid="ignore"):
            amsgrad_step(OptimState(weight_decay=0.0), pairs, lr=1e308)
        # the vector is not written: every parameter keeps its values
        assert all(np.array_equal(p.data, d) for p, d in zip((a, b, c), data))
        assert b.data[0, 0] == 1e308 and c.data[0, 0] == -1e308

    def test_state_round_trip(self):
        rng = np.random.default_rng(2)
        p = make_param(rng.normal(size=(2, 2)))
        state = OptimState()
        for _ in range(3):
            p.grad = rng.normal(size=(2, 2))
            amsgrad_step(state, [("p", p)], lr=0.01)
        restored = OptimState.from_dict(state.to_dict())
        assert restored.t == state.t
        for key in ("m1", "v", "vhat"):
            assert np.array_equal(restored.slots["p"][key],
                                  state.slots["p"][key])

    @pytest.mark.parametrize("slots, name", [
        ({"p": {"m1": [[5.0]], "v": [[0.0]], "vhat": [[0.0]]}}, "p"),
        ({"p": {"m1": [[0.0] * 3] * 2, "v": [[0.0] * 3] * 2}}, "p"),
        ({"p": {k: [[0.0] * 3] * 2 for k in ("m1", "v", "vhat")},
          "ghost": {k: [[0.0]] for k in ("m1", "v", "vhat")}}, "ghost"),
        ({"q": {k: [[0.0] * 3] * 2 for k in ("m1", "v", "vhat")}}, "p")])
    def test_stored_slots_that_do_not_fit_are_rejected(self, slots, name):
        # a (1, 1) moment once broadcast over a 2 x 3 parameter, and a slot
        # of no parameter was kept and saved back
        d = {**OptimState().to_dict(), "t": 4, "slots": slots}
        state = OptimState.from_dict(d)
        p = make_param(np.ones((2, 3)))
        p.grad = np.ones((2, 3))
        with pytest.raises(ValueError, match=f"slot '{name}' does not fit"):
            amsgrad_step(state, [("p", p)], lr=0.1)
        assert state.to_dict() == d
        assert np.array_equal(p.data, np.ones((2, 3)))

    @pytest.mark.parametrize("key, value", [("beta1", 0.8), ("beta2", 0.99),
                                            ("eps", 1e-6)])
    def test_other_stored_moments_rejected(self, key, value):
        # the moments are constants; a state stored with others would not
        # resume the run it came from
        d = OptimState().to_dict()
        d[key] = value
        with pytest.raises(ValueError, match=f"{key}={value!r}"):
            OptimState.from_dict(d)


def reference_step(slots, t, grads, params, lr, beta1=0.9, beta2=0.999,
                   eps=1e-8, weight_decay=0.0005):
    """The module docstring's recurrence, one tensor at a time."""
    out = []
    for name, grad, param in zip(sorted(slots), grads, params):
        s = slots[name]
        g = grad + weight_decay * param
        s["m1"] = beta1 * s["m1"] + (1.0 - beta1) * g
        s["v"] = beta2 * s["v"] + (1.0 - beta2) * g * g
        s["vhat"] = np.maximum(s["vhat"], s["v"])
        out.append(param - lr * (s["m1"] / (1.0 - beta1 ** t))
                   / (np.sqrt(s["vhat"] / (1.0 - beta2 ** t)) + eps))
    return out


SHAPES = {"a": (3, 4), "b": (1, 4), "c": (4, 2), "d": (1, 1)}


def random_params(rng):
    return flat_pairs([(name, rng.normal(size=shape))
                       for name, shape in sorted(SHAPES.items())])


class TestFlatState:
    def test_multi_tensor_steps_match_per_tensor_reference(self):
        rng = np.random.default_rng(6)
        pairs = random_params(rng)
        ref = [p.data.copy() for _, p in pairs]
        slots = {name: {k: np.zeros(shape) for k in ("m1", "v", "vhat")}
                 for name, shape in SHAPES.items()}
        state = OptimState()
        for t in range(1, 301):
            for _, p in pairs:
                p.grad[...] = rng.normal(size=p.shape) * rng.uniform(0.01, 100)
            grads = [p.grad.copy() for _, p in pairs]
            amsgrad_step(state, pairs, lr=1e-2)
            ref = reference_step(slots, t, grads, ref, lr=1e-2)
            for (name, p), want in zip(pairs, ref):
                assert p.data.tobytes() == want.tobytes(), (t, name)
                for k in ("m1", "v", "vhat"):
                    assert (state.slots[name][k].tobytes()
                            == slots[name][k].tobytes()), (t, name, k)

    def test_caller_arrays_are_not_written(self):
        # ModelParams copies the arrays it is built from into its vector
        config = ModelConfig(3, [4], 2, {"id": 3, "domain": 2, "color": 2,
                                         "type": 2, "orientation": 2})
        rng = np.random.default_rng(7)
        arrays = [(rng.normal(size=(i, o)), rng.normal(size=(1, o)))
                  for _, i, o in _layout(config)]
        values = [a for wb in arrays for a in wb]
        before = [a.copy() for a in values]
        params = ModelParams(config, arrays)
        state = OptimState()
        for _ in range(3):
            params.grad_vector[...] = rng.normal(size=params.grad_vector.size)
            amsgrad_step(state, params.named(), lr=0.1)
        assert all(np.array_equal(a, b) for a, b in zip(values, before))
        assert not any(np.array_equal(p.data, b)
                       for (_, p), b in zip(params.named(), before))

    def test_step_writes_the_vector_in_place_and_not_the_gradient(self):
        rng = np.random.default_rng(9)
        pairs = random_params(rng)
        state = OptimState()
        held = [(p.data, p.grad) for _, p in pairs]
        for _ in range(4):
            for _, p in pairs:
                p.grad[...] = rng.normal(size=p.shape)
            grads = [p.grad.copy() for _, p in pairs]
            values = [p.data.copy() for _, p in pairs]
            amsgrad_step(state, pairs, lr=0.1)
            for (_, p), (data, grad), g, v in zip(pairs, held, grads, values):
                assert p.data is data and p.grad is grad
                assert grad.tobytes() == g.tobytes()
                assert not np.array_equal(data, v)

    def test_replaced_leaves_raise_and_in_place_writes_follow_reference(self):
        rng = np.random.default_rng(11)
        pairs = random_params(rng)
        ref = [p.data.copy() for _, p in pairs]
        slots = {name: {k: np.zeros(shape) for k in ("m1", "v", "vhat")}
                 for name, shape in SHAPES.items()}
        state = OptimState()
        for t in range(1, 9):
            if t == 3:
                pairs[0][1].data *= 0.5
                ref[0] = ref[0] * 0.5
            if t == 6:
                pairs[2][1].data[0] = 1.0
                ref[2][0] = 1.0
            for _, p in pairs:
                p.grad[...] = rng.normal(size=p.shape)
            grads = [p.grad.copy() for _, p in pairs]
            amsgrad_step(state, pairs, lr=1e-2)
            ref = reference_step(slots, t, grads, ref, lr=1e-2)
            for (name, p), want in zip(pairs, ref):
                assert p.data.tobytes() == want.tobytes(), (t, name)
        # an array put in place of a leaf's values or gradient is no view
        # of the vectors; the step raises before the state changes
        for attr in ("data", "grad"):
            leaf = pairs[1][1]
            kept = getattr(leaf, attr)
            setattr(leaf, attr, kept.copy())
            with pytest.raises(ValueError, match="not views of one vector"):
                amsgrad_step(state, pairs, lr=1e-2)
            setattr(leaf, attr, kept)
            assert state.t == 8

    @pytest.mark.parametrize("case", ["separate", "reordered", "transposed"])
    def test_pairs_that_do_not_tile_one_vector_are_rejected(self, case):
        rng = np.random.default_rng(12)
        pairs = random_params(rng)
        if case == "separate":
            pairs = [(name, make_param(p.data)) for name, p in pairs]
        elif case == "reordered":
            pairs = pairs[::-1]
        else:   # a view of the right bytes, in another element order
            square = Tensor(pairs[1][1].data.reshape(2, 2).T)
            pairs = [pairs[0], ("b", square), *pairs[2:]]
        values = [p.data.copy() for _, p in pairs]
        state = OptimState()
        with pytest.raises(ValueError, match="not views of one vector"):
            amsgrad_step(state, pairs, lr=0.1)
        assert state.t == 0 and state.slots == {}
        assert all(np.array_equal(p.data, v) for (_, p), v in zip(pairs, values))

    def test_a_step_allocates_no_parameter_sized_vector(self):
        # the benchmark's train shape: 64 -> 128 -> 32 with five heads;
        # only the finiteness checks' one-byte masks scale with the values
        config = ModelConfig(64, [128], 32, {"id": 256, "domain": 2,
                                             "color": 12, "type": 11,
                                             "orientation": 6})
        params = init_params(config, seed=0)
        rng = np.random.default_rng(13)
        state = OptimState()
        for _ in range(3):
            params.zero_grad()
            for _, p in params.named():     # as the backward pass adds them
                p._accumulate(rng.normal(size=p.shape))
            tracemalloc.start()
            try:
                amsgrad_step(state, params.named(), lr=1e-3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert state.t == 3     # two warm-up steps, then the measured one
        assert peak < 4 * sum(p.data.size for _, p in params.named()), peak

    @pytest.mark.parametrize("reorder", [False, True])
    def test_resume_from_dict_continues_bitwise(self, reorder):
        # reorder: the saved slots come back in another order than the
        # parameters, so the flat layout is rebuilt from the per-name slots
        rng = np.random.default_rng(8)
        pairs = random_params(rng)
        resumed = flat_pairs([(name, p.data) for name, p in pairs])
        grads = [[rng.normal(size=p.shape) for _, p in pairs]
                 for _ in range(20)]
        state = OptimState()
        for step, gs in enumerate(grads):
            for (_, p), g in zip(pairs, gs):
                p.grad[...] = g
            amsgrad_step(state, pairs, lr=1e-2)
            if step == 9:
                saved = json.loads(json.dumps(state.to_dict()))
                for (_, p), (_, q) in zip(pairs, resumed):
                    q.data[...] = p.data
        # the stored format, fixed moments included, is unchanged
        assert {k: v for k, v in saved.items() if k != "slots"} == {
            "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
            "weight_decay": 0.0005, "t": 10}
        if reorder:
            saved["slots"] = dict(reversed(saved["slots"].items()))
        restored = OptimState.from_dict(saved)
        for gs in grads[10:]:
            for (_, p), g in zip(resumed, gs):
                p.grad[...] = g
            amsgrad_step(restored, resumed, lr=1e-2)
        assert restored.t == state.t
        for (name, p), (_, q) in zip(pairs, resumed):
            assert p.data.tobytes() == q.data.tobytes()
            for k in ("m1", "v", "vhat"):
                assert (state.slots[name][k].tobytes()
                        == restored.slots[name][k].tobytes())
