import json

import numpy as np
import pytest

from dareid.autodiff import Tensor
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
    p = Tensor(values)
    return p


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
        a, b, c = (make_param([[0.0, 0.0]]), make_param([[1e308, 1.0]]),
                   make_param([[-1e308]]))
        for p, grad in ((a, [[0.0, 0.0]]), (b, [[-1.0, 0.0]]), (c, [[1.0]])):
            p.grad = np.array(grad)
        data = [p.data for p in (a, b, c)]
        # train() steps with overflow warnings off, as here
        with pytest.raises(FloatingPointError, match="parameter b$"), \
                np.errstate(over="ignore", invalid="ignore"):
            amsgrad_step(OptimState(weight_decay=0.0),
                         [("a", a), ("b", b), ("c", c)], lr=1e308)
        # no p.data is re-pointed: every parameter keeps its values
        assert all(p.data is d for p, d in zip((a, b, c), data))
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
    return [(name, Tensor(rng.normal(size=shape)))
            for name, shape in sorted(SHAPES.items())]


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
                p.grad = rng.normal(size=p.shape) * rng.uniform(0.01, 100)
            grads = [p.grad.copy() for _, p in pairs]
            amsgrad_step(state, pairs, lr=1e-2)
            ref = reference_step(slots, t, grads, ref, lr=1e-2)
            for (name, p), want in zip(pairs, ref):
                assert p.data.tobytes() == want.tobytes(), (t, name)
                for k in ("m1", "v", "vhat"):
                    assert (state.slots[name][k].tobytes()
                            == slots[name][k].tobytes()), (t, name, k)

    def test_caller_arrays_are_not_written(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(3, 4))
        before = values.copy()
        p = Tensor(values)
        for _ in range(3):
            p.grad = rng.normal(size=(3, 4))
            amsgrad_step(OptimState(), [("p", p)], lr=0.1)
        assert np.array_equal(values, before)
        assert not np.array_equal(p.data, before)

    def test_last_steps_arrays_are_not_written(self):
        # a step reads the vector the last one set, and writes a new one
        rng = np.random.default_rng(9)
        pairs = random_params(rng)
        state = OptimState()
        kept = []
        for _ in range(4):
            for _, p in pairs:
                p.grad = rng.normal(size=p.shape)
            amsgrad_step(state, pairs, lr=0.1)
            kept.append([(p.data, p.data.copy()) for _, p in pairs])
        for arrays in kept:
            for held, values in arrays:
                assert held.tobytes() == values.tobytes()
        assert not np.shares_memory(pairs[0][1].data, kept[-2][0][0])

    def test_parameters_are_gathered_only_when_replaced(self, monkeypatch):
        rng = np.random.default_rng(10)
        pairs = random_params(rng)
        state = OptimState()
        concatenate, calls = np.concatenate, [0]

        def counting(*args, **kwargs):
            calls[-1] += 1
            return concatenate(*args, **kwargs)
        monkeypatch.setattr(np, "concatenate", counting)
        for step in range(6):
            if step == 2:
                pairs[1][1].data = pairs[1][1].data + 1.0
            if step == 4:       # written in place, p.data stays the view
                pairs[1][1].data[...] = 2.0
            for _, p in pairs:
                p.grad = rng.normal(size=p.shape)
            amsgrad_step(state, pairs, lr=0.1)
            calls.append(0)
        # the gradients every step; the parameters at the first step and
        # after one was assigned
        assert calls[:-1] == [2, 1, 2, 1, 1, 1]

    def test_replaced_parameters_match_per_tensor_reference(self):
        rng = np.random.default_rng(11)
        pairs = random_params(rng)
        ref = [p.data.copy() for _, p in pairs]
        slots = {name: {k: np.zeros(shape) for k in ("m1", "v", "vhat")}
                 for name, shape in SHAPES.items()}
        state = OptimState()
        for t in range(1, 9):
            if t == 3:
                pairs[0][1].data = pairs[0][1].data * 0.5
                ref[0] = ref[0] * 0.5
            if t == 6:
                pairs[2][1].data[0] = 1.0
                ref[2][0] = 1.0
            for _, p in pairs:
                p.grad = rng.normal(size=p.shape)
            grads = [p.grad.copy() for _, p in pairs]
            amsgrad_step(state, pairs, lr=1e-2)
            ref = reference_step(slots, t, grads, ref, lr=1e-2)
            for (name, p), want in zip(pairs, ref):
                assert p.data.tobytes() == want.tobytes(), (t, name)

    @pytest.mark.parametrize("reorder", [False, True])
    def test_resume_from_dict_continues_bitwise(self, reorder):
        # reorder: the saved slots come back in another order than the
        # parameters, so the flat layout is rebuilt from the per-name slots
        rng = np.random.default_rng(8)
        pairs = random_params(rng)
        resumed = [(name, Tensor(p.data.copy())) for name, p in pairs]
        grads = [[rng.normal(size=p.shape) for _, p in pairs]
                 for _ in range(20)]
        state = OptimState()
        for step, gs in enumerate(grads):
            for (_, p), g in zip(pairs, gs):
                p.grad = g
            amsgrad_step(state, pairs, lr=1e-2)
            if step == 9:
                saved = json.loads(json.dumps(state.to_dict()))
                for (_, p), (_, q) in zip(pairs, resumed):
                    q.data = p.data.copy()
        # the stored format, fixed moments included, is unchanged
        assert {k: v for k, v in saved.items() if k != "slots"} == {
            "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
            "weight_decay": 0.0005, "t": 10}
        if reorder:
            saved["slots"] = dict(reversed(saved["slots"].items()))
        restored = OptimState.from_dict(saved)
        for gs in grads[10:]:
            for (_, p), g in zip(resumed, gs):
                p.grad = g
            amsgrad_step(restored, resumed, lr=1e-2)
        assert restored.t == state.t
        for (name, p), (_, q) in zip(pairs, resumed):
            assert p.data.tobytes() == q.data.tobytes()
            for k in ("m1", "v", "vhat"):
                assert (state.slots[name][k].tobytes()
                        == restored.slots[name][k].tobytes())
