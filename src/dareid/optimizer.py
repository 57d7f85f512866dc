"""AMSGrad optimizer with L2 weight decay and a stepped learning-rate schedule.

Update rule per parameter, with t the 1-based step count:
    g     = grad + weight_decay * param
    m1    = beta1 * m1 + (1 - beta1) * g
    v     = beta2 * v  + (1 - beta2) * g^2
    vhat  = max(vhat, v)                      (element-wise, never decreases)
    m1_c  = m1 / (1 - beta1^t)
    v_c   = vhat / (1 - beta2^t)
    param = param - lr * m1_c / (sqrt(v_c) + eps)
Bias correction is applied to both moments.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class LrSchedule:
    base_lr: float = 3e-4
    decay: float = 0.1
    milestones: tuple = (20, 40)


def lr_at_epoch(schedule, epoch):
    """Piecewise-constant rate: decayed once per milestone already reached."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    drops = sum(1 for ms in schedule.milestones if epoch >= ms)
    return schedule.base_lr * schedule.decay ** drops


@dataclass
class OptimState:
    """Step count and AMSGrad moments: flat m1, v and vhat vectors in the
    parameters' order at the first step; slots[name] holds views into them."""
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0005
    t: int = 0
    slots: dict = field(default_factory=dict)  # name -> {m1, v, vhat}
    _names = None  # parameter order of the flat vectors

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
            "beta1": self.beta1, "beta2": self.beta2, "eps": self.eps,
            "weight_decay": self.weight_decay, "t": self.t,
            "slots": {name: {k: v.tolist() for k, v in s.items()}
                      for name, s in self.slots.items()},
        }

    @classmethod
    def from_dict(cls, d):
        state = cls(beta1=d["beta1"], beta2=d["beta2"], eps=d["eps"],
                    weight_decay=d["weight_decay"], t=d["t"])
        for name, s in d["slots"].items():
            state.slots[name] = {k: np.asarray(v, dtype=np.float64)
                                 for k, v in s.items()}
        return state


def amsgrad_step(state, named_params, lr):
    """One AMSGrad step over (name, Tensor) pairs, on flat vectors in the
    docstring's operation order, so bitwise equal to the per-tensor rule.
    Each p.data becomes a view of one fresh vector; no input is written."""
    pairs = list(named_params)
    g = np.concatenate([p.grad.reshape(-1) for _, p in pairs])
    if not np.isfinite(g).all():
        name = next(name for name, p in pairs
                    if not np.isfinite(p.grad).all())
        raise FloatingPointError(f"non-finite gradient for parameter {name}")
    if state._names != tuple(name for name, _ in pairs):
        state._layout(pairs)
    state.t += 1
    b1, b2, t = state.beta1, state.beta2, state.t
    m1, v, vhat, tmp = state._flat
    param = np.concatenate([p.data.reshape(-1) for _, p in pairs])
    np.add(g, np.multiply(state.weight_decay, param, out=tmp), out=g)
    np.add(np.multiply(b1, m1, out=m1), np.multiply(1.0 - b1, g, out=tmp),
           out=m1)
    np.multiply(1.0 - b2, g, out=tmp)
    np.add(np.multiply(b2, v, out=v), np.multiply(tmp, g, out=tmp), out=v)
    np.maximum(vhat, v, out=vhat)
    np.sqrt(np.divide(vhat, 1.0 - b2 ** t, out=tmp), out=tmp)
    np.add(tmp, state.eps, out=tmp)
    np.multiply(lr, np.divide(m1, 1.0 - b1 ** t, out=g), out=g)
    np.subtract(param, np.divide(g, tmp, out=g), out=param)
    for (_, p), span in zip(pairs, state._spans):
        p.data = param[span].reshape(p.data.shape)
    return state
