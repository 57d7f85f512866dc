"""Minimal reverse-mode autodiff over dense 2-D float64 arrays.

Every value is a (rows, cols) matrix; batches are rows, scalars are 1x1.
Graphs are built dynamically: each op returns a Tensor holding a backward
closure and references to its parents. Calling .backward() on a scalar
output propagates gradients to every reachable node. A node holds no
gradient until one reaches it. A plain array operand is a constant.
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
        a, b = self, _wrap(other)
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
        a, b = self, _wrap(other)
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
        out = Tensor(relu_array(a.data), parents=(a,), op="relu")

        def _bw(g):
            a._accumulate(g * (a.data > 0.0))  # subgradient at 0 is 0
        out._backward_fn = _bw
        return out

    # ---- backward pass ----

    def backward(self):
        if self.data.size != 1:
            raise GraphError("backward requires a scalar loss node")
        # a depth-first post-order (parents first, in order), kept on an
        # explicit stack so that no chain is too deep for it
        topo, seen = [], {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            for p in parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    break
            else:
                stack.pop()
                if node._backward_fn is not None:
                    node._grad = None   # starts afresh after an earlier call
                topo.append(node)
        self._grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn(node._grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op or 'leaf'})"


def relu_array(z, out=None):
    """max(z, 0) of a finite array, every zero +0.0 as np.where(z > 0, z, 0.0)
    gives it, without the branch on each entry's sign."""
    out = np.maximum(z, 0.0, out=out)
    out += 0.0  # -0.0 to +0.0
    return out


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


def cross_entropy(z, labels, mask=None):
    """Value and gradient of the fused softmax + cross-entropy of a logits
    array z, averaged over the batch.

    Nonzero mask rows are selected; without a mask every row is. Over a
    batch of N rows, L = -(1/N) * sum over selected rows i of
    log softmax(z_i)[labels_i]. The gradient of a selected row i is
    (softmax_i - onehot_i) / N, and exactly zero for the other rows.
    """
    n, c = z.shape
    if n == 0:
        raise GraphError("cross-entropy on an empty batch")
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if labels.shape[0] != n:
        raise GraphError(f"expected {n} labels, got {labels.shape[0]}")
    active = np.ones(n, dtype=bool) if mask is None else (
        np.asarray(mask, dtype=np.float64).reshape(-1) != 0.0)
    if active.shape[0] != n:
        raise GraphError(f"expected {n} mask values, got {active.shape[0]}")
    if np.any((labels[active] < 0) | (labels[active] >= c)):
        raise GraphError(f"label out of range [0, {c})")

    zmax = z.max(axis=1, keepdims=True)
    shifted = z - zmax
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True)) + zmax
    rows = np.arange(n)
    safe_labels = np.where(active, labels, 0)
    logp = z[rows, safe_labels] - lse[:, 0]
    value = -np.where(active, logp, 0.0).sum() / n

    d = np.exp(z - lse)
    d[rows, safe_labels] -= 1.0
    d *= 1.0 / n
    d[~active] = 0.0
    return value, d


def softmax_cross_entropy(logits, labels, mask=None):
    """cross_entropy of a logits Tensor, as a 1x1 graph node."""
    value, d = cross_entropy(logits.data, labels, mask)
    out = Tensor([[value]], parents=(logits,), op="softmax_xent")
    out._backward_fn = lambda g: logits._accumulate(g[0, 0] * d)
    return out


def finite_difference_check(scalar_fn, point):
    """Max relative error between analytic and central-difference gradients
    (step 1e-5).

    scalar_fn maps a leaf Tensor to a scalar Tensor. Relative error per
    coordinate is |analytic - numeric| / max(1, |analytic|).
    """
    eps = 1e-5
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
