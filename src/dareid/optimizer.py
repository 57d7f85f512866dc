"""AMSGrad optimizer with L2 weight decay and a stepped learning-rate schedule.

Update rule per parameter, with t the 1-based step count:
    g     = grad + weight_decay * param
    m1    = beta1 * m1 + (1 - beta1) * g
    v     = beta2 * v  + (1 - beta2) * g^2
    vhat  = max(vhat, v)                      (element-wise, never decreases)
    m1_c  = m1 / (1 - beta1^t)
    v_c   = vhat / (1 - beta2^t)
    param = param - lr * m1_c / (sqrt(v_c) + eps)
Bias correction is applied to both moments. The moments are fixed:
beta1 = 0.9, beta2 = 0.999, eps = 1e-8. The learning rate drops x0.1 at
each milestone epoch.
"""

from dataclasses import dataclass, field

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
DECAY = 0.1


@dataclass
class LrSchedule:
    base_lr: float = 3e-4
    milestones: tuple = (20, 40)

    def __post_init__(self):
        if not 0 <= self.base_lr < np.inf:      # false for NaN
            raise ValueError("base_lr must be finite and non-negative")


def lr_at_epoch(schedule, epoch):
    """Piecewise-constant rate: decayed once per milestone already reached."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    drops = sum(1 for ms in schedule.milestones if epoch >= ms)
    return schedule.base_lr * DECAY ** drops


@dataclass
class OptimState:
    """Step count and AMSGrad moments: flat m1, v and vhat vectors in the
    parameters' order at the first step; slots[name] holds views into them."""
    weight_decay: float = 0.0005
    t: int = 0
    slots: dict = field(default_factory=dict)  # name -> {m1, v, vhat}
    _names = None  # parameter order of the flat vectors
    _param = None  # the last step's parameter vector
    _views = ()    # the p.data views of _param that the last step set

    def _layout(self, pairs):
        """Flat m1, v, vhat and scratch vectors in the order of pairs;
        existing slots keep their values, new ones start at 0."""
        self._names = tuple(name for name, _ in pairs)
        ends = np.cumsum([p.data.size for _, p in pairs])
        self._spans = [slice(e - p.data.size, e)
                       for (_, p), e in zip(pairs, ends)]
        self._flat = [np.zeros(ends[-1]) for _ in range(4)]
        for (name, p), span in zip(pairs, self._spans):
            views = {k: f[span].reshape(p.data.shape)
                     for k, f in zip(("m1", "v", "vhat"), self._flat)}
            for k, values in self.slots.get(name, {}).items():
                views[k][...] = values
            self.slots[name] = views

    def to_dict(self):
        return {
            "beta1": BETA1, "beta2": BETA2, "eps": EPS,
            "weight_decay": self.weight_decay, "t": self.t,
            "slots": {name: {k: v.tolist() for k, v in s.items()}
                      for name, s in self.slots.items()},
        }

    @classmethod
    def from_dict(cls, d):
        for key, value in (("beta1", BETA1), ("beta2", BETA2), ("eps", EPS)):
            if d[key] != value:
                raise ValueError(f"optimizer state has {key}={d[key]!r}, "
                                 f"not {value!r}")
        state = cls(weight_decay=d["weight_decay"], t=d["t"])
        for name, s in d["slots"].items():
            state.slots[name] = {k: np.asarray(v, dtype=np.float64)
                                 for k, v in s.items()}
        return state


def amsgrad_step(state, named_params, lr):
    """One AMSGrad step over (name, Tensor) pairs, on flat vectors in the
    docstring's operation order, so bitwise equal to the per-tensor rule.
    Each p.data becomes a view of one fresh vector; no input is written.
    The parameters are read from the last step's vector while every p.data
    is still the view that step set.

    A non-finite gradient raises FloatingPointError before the state
    changes. So do new parameter values that are not finite, after the
    moments and the step count have taken the step but before any p.data
    is re-pointed, so the parameters keep their last finite values."""
    pairs = list(named_params)
    g = np.concatenate([p.grad.reshape(-1) for _, p in pairs])
    if not np.isfinite(g).all():
        name = next(name for name, p in pairs
                    if not np.isfinite(p.grad).all())
        raise FloatingPointError(f"non-finite gradient for parameter {name}")
    if state._names != tuple(name for name, _ in pairs):
        state._layout(pairs)
    state.t += 1
    m1, v, vhat, tmp = state._flat
    if (len(state._views) == len(pairs)
            and all(p.data is view
                    for (_, p), view in zip(pairs, state._views))):
        param = state._param
    else:
        param = np.concatenate([p.data.reshape(-1) for _, p in pairs])
    np.add(g, np.multiply(state.weight_decay, param, out=tmp), out=g)
    np.add(np.multiply(BETA1, m1, out=m1),
           np.multiply(1.0 - BETA1, g, out=tmp), out=m1)
    np.multiply(1.0 - BETA2, g, out=tmp)
    np.add(np.multiply(BETA2, v, out=v), np.multiply(tmp, g, out=tmp), out=v)
    np.maximum(vhat, v, out=vhat)
    np.sqrt(np.divide(vhat, 1.0 - BETA2 ** state.t, out=tmp), out=tmp)
    np.add(tmp, EPS, out=tmp)
    np.multiply(lr, np.divide(m1, 1.0 - BETA1 ** state.t, out=g), out=g)
    param = np.subtract(param, np.divide(g, tmp, out=g))
    if not np.isfinite(param).all():
        name = next(name for (name, _), span in zip(pairs, state._spans)
                    if not np.isfinite(param[span]).all())
        raise FloatingPointError(f"non-finite step for parameter {name}")
    state._param = param
    for (_, p), span in zip(pairs, state._spans):
        p.data = param[span].reshape(p.data.shape)
    state._views = [p.data for _, p in pairs]
    return state
