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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0005
    t: int = 0
    slots: dict = field(default_factory=dict)  # name -> {m1, v, vhat}

    def slot(self, name, shape):
        if name not in self.slots:
            self.slots[name] = {"m1": np.zeros(shape), "v": np.zeros(shape),
                                "vhat": np.zeros(shape)}
        return self.slots[name]

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
    """One in-place AMSGrad step over (name, Tensor) parameter pairs."""
    pairs = list(named_params)
    for name, p in pairs:
        if not np.all(np.isfinite(p.grad)):
            raise FloatingPointError(f"non-finite gradient for parameter {name}")
    state.t += 1
    t = state.t
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in pairs:
        g = p.grad + state.weight_decay * p.data
        s = state.slot(name, p.data.shape)
        s["m1"] = state.beta1 * s["m1"] + (1.0 - state.beta1) * g
        s["v"] = state.beta2 * s["v"] + (1.0 - state.beta2) * g * g
        s["vhat"] = np.maximum(s["vhat"], s["v"])
        p.data = p.data - lr * (s["m1"] / bc1) / (np.sqrt(s["vhat"] / bc2)
                                                  + state.eps)
    return state
