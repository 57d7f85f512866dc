"""Minimal reverse-mode autodiff over dense 2-D float64 arrays.

Every value is a (rows, cols) matrix; batches are rows, scalars are 1x1.
Graphs are built dynamically: each op returns a Tensor holding a backward
closure and references to its parents. Calling .backward() on a scalar
output propagates gradients to every reachable node. A node holds no
gradient until one reaches it. A plain array on the left of @ is a constant.
"""

import numpy as np


class GraphError(Exception):
    """Shape mismatch, non-finite input, or misuse of the graph API."""


class NonFiniteError(GraphError):
    """A tensor value came out NaN or infinite."""


def _as_matrix(data):
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise GraphError(f"only 2-D tensors supported, got ndim={arr.ndim}")
    return arr


class Tensor:
    """A 2-D float64 array node in a dynamically built computation graph."""

    __array_ufunc__ = None  # ndarray @ Tensor defers to __rmatmul__

    def __init__(self, data, parents=(), backward_fn=None, op=""):
        self.data = _as_matrix(data)
        # per node: relu maps -inf to 0, so a per-loss check could miss it
        if not np.isfinite(self.data).all():
            raise NonFiniteError(
                f"non-finite values in tensor (op={op or 'leaf'})")
        self._grad = None
        self._parents = tuple(parents)
        self._backward_fn = backward_fn
        self._op = op

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.size != 1:
            raise GraphError(f"item() on tensor of shape {self.shape}")
        return float(self.data[0, 0])

    @property
    def grad(self):
        """The accumulated gradient; zeros if backward never reached it."""
        return np.zeros_like(self.data) if self._grad is None else self._grad

    @grad.setter
    def grad(self, value):
        self._grad = value

    def zero_grad(self):
        self._grad = None

    def _accumulate(self, g):
        """Add a gradient contribution; the first is stored as g + 0.0, a
        copy (add hands one g to both parents) with zeros of +0.0."""
        if self._grad is None:
            self._grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self._grad += g

    # ---- graph construction ----

    def __matmul__(self, other):
        a, b = self, other
        if a.shape[1] != b.shape[0]:
            raise GraphError(f"matmul shape mismatch {a.shape} @ {b.shape}")
        out = Tensor(a.data @ b.data, parents=(a, b), op="matmul")

        def _bw(g):
            a._accumulate(g @ b.data.T)
            b._accumulate(a.data.T @ g)
        out._backward_fn = _bw
        return out

    def __rmatmul__(self, other):
        a, b = _as_matrix(other), self
        if a.shape[1] != b.shape[0]:
            raise GraphError(f"matmul shape mismatch {a.shape} @ {b.shape}")
        out = Tensor(a @ b.data, parents=(b,), op="matmul")
        out._backward_fn = lambda g: b._accumulate(a.T @ g)
        return out

    def __add__(self, other):
        a, b = self, _wrap(other)
        if a.shape != b.shape:
            # bias broadcast: (N, C) + (1, C)
            if not (b.shape[0] == 1 and a.shape[1] == b.shape[1]):
                raise GraphError(f"add shape mismatch {a.shape} + {b.shape}")
        out = Tensor(a.data + b.data, parents=(a, b), op="add")

        def _bw(g):
            a._accumulate(g)
            if b.shape == a.shape:
                b._accumulate(g)
            else:
                b._accumulate(g.sum(axis=0, keepdims=True))
        out._backward_fn = _bw
        return out

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            a, s = self, float(other)
            out = Tensor(a.data * s, parents=(a,), op="scale")

            def _bw(g):
                a._accumulate(g * s)
            out._backward_fn = _bw
            return out
        a, b = self, other
        if a.shape != b.shape:
            raise GraphError(f"mul shape mismatch {a.shape} * {b.shape}")
        out = Tensor(a.data * b.data, parents=(a, b), op="mul")

        def _bw(g):
            a._accumulate(g * b.data)
            b._accumulate(g * a.data)
        out._backward_fn = _bw
        return out

    __rmul__ = __mul__

    def sum(self):
        a = self
        out = Tensor([[a.data.sum()]], parents=(a,), op="sum")

        def _bw(g):
            a._accumulate(g[0, 0])
        out._backward_fn = _bw
        return out

    def relu(self):
        a = self
        active = a.data > 0.0  # subgradient at 0 is 0
        out = Tensor(np.where(active, a.data, 0.0), parents=(a,), op="relu")

        def _bw(g):
            a._accumulate(g * active)
        out._backward_fn = _bw
        return out

    # ---- backward pass ----

    def backward(self):
        if self.data.size != 1:
            raise GraphError("backward requires a scalar loss node")
        topo, seen = [], set()

        def visit(node):
            if id(node) in seen:
                return
            seen.add(id(node))
            for p in node._parents:
                visit(p)
            topo.append(node)
        visit(self)
        self._grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn(node._grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op or 'leaf'})"


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def grad_reversal(x, lam):
    """Identity in the forward pass; scales the backward gradient by -lam."""
    if lam < 0:
        raise GraphError(f"gradient reversal strength must be >= 0, got {lam}")
    out = Tensor(x.data, parents=(x,), op="grad_reversal")

    def _bw(g):
        x._accumulate(-lam * g)
    out._backward_fn = _bw
    return out


def l2_normalize_rows(x, eps=1e-12):
    """Scale each row to unit Euclidean norm."""
    norms = np.sqrt((x.data ** 2).sum(axis=1, keepdims=True))
    denom = np.maximum(norms, eps)
    y = x.data / denom
    out = Tensor(y, parents=(x,), op="l2_normalize")

    def _bw(g):
        # d(x/|x|)/dx = (I - y y^T) / |x| applied row-wise
        dot = (g * y).sum(axis=1, keepdims=True)
        x._accumulate((g - y * dot) / denom)
    out._backward_fn = _bw
    return out


def softmax_cross_entropy(logits, labels, mask=None):
    """Fused softmax + cross-entropy, averaged over the batch.

    L = -(1/N) * sum_i mask_i * log softmax(logits_i)[labels_i] over a batch
    of N rows. The gradient of row i is mask_i * (softmax_i - onehot_i) / N,
    exactly zero for masked rows.
    """
    n, c = logits.shape
    if n == 0:
        raise GraphError("cross-entropy on an empty batch")
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if labels.shape[0] != n:
        raise GraphError(f"expected {n} labels, got {labels.shape[0]}")
    if mask is None:
        mask = np.ones(n)
    else:
        mask = np.asarray(mask, dtype=np.float64).reshape(-1)
        if mask.shape[0] != n:
            raise GraphError(f"expected {n} mask values, got {mask.shape[0]}")
    active = mask != 0.0
    if np.any((labels[active] < 0) | (labels[active] >= c)):
        raise GraphError(f"label out of range [0, {c})")

    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    shifted = z - zmax
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True)) + zmax
    safe_labels = np.where(active, labels, 0)
    logp = z[np.arange(n), safe_labels] - lse[:, 0]
    value = -(mask * np.where(active, logp, 0.0)).sum() / n

    out = Tensor([[value]], parents=(logits,), op="softmax_xent")
    probs = np.exp(z - lse)

    def _bw(g):
        d = probs.copy()
        d[np.arange(n), safe_labels] -= 1.0
        d *= (mask / n)[:, None]
        d[~active] = 0.0
        logits._accumulate(g[0, 0] * d)
    out._backward_fn = _bw
    return out


def finite_difference_check(scalar_fn, point, eps=1e-5):
    """Max relative error between analytic and central-difference gradients.

    scalar_fn maps a leaf Tensor to a scalar Tensor. Relative error per
    coordinate is |analytic - numeric| / max(1, |analytic|).
    """
    if eps <= 0:
        raise GraphError("eps must be positive")
    point = _as_matrix(point)
    x = Tensor(point)
    out = scalar_fn(x)
    out.backward()
    analytic = x.grad.copy()

    numeric = np.zeros_like(point)
    flat = point.copy()
    for idx in np.ndindex(point.shape):
        orig = flat[idx]
        flat[idx] = orig + eps
        hi = scalar_fn(Tensor(flat)).item()
        flat[idx] = orig - eps
        lo = scalar_fn(Tensor(flat)).item()
        flat[idx] = orig
        numeric[idx] = (hi - lo) / (2.0 * eps)

    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    return float(rel.max())
