"""A quick tour of the reverse-mode autodiff core.

Builds a tiny expression graph by hand, runs the backward pass, and shows
that the gradient-reversal node is an identity in the forward direction but
flips (and scales) gradients on the way back.
"""

import numpy as np

from dareid import Tensor, finite_difference_check, grad_reversal
from dareid.autodiff import softmax_cross_entropy


def main():
    rng = np.random.default_rng(0)

    # y = relu(x @ w + b), loss = sum(y)
    x = Tensor(rng.normal(size=(2, 3)))
    w = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(np.zeros((1, 4)))
    loss = ((x @ w + b).relu()).sum()
    loss.backward()
    print("loss      :", loss.item())
    print("dloss/dx  :\n", x.grad)

    # the analytic gradients agree with central differences
    err = finite_difference_check(
        lambda t: softmax_cross_entropy(t, np.array([1, 0])),
        rng.normal(size=(2, 4)))
    print(f"\ncross-entropy finite-difference max rel error: {err:.2e}")

    # gradient reversal: identity forward, -lam * grad backward
    lam = 0.5
    point = rng.normal(size=(2, 3))
    plain = Tensor(point)
    plain.sum().backward()
    reversed_leaf = Tensor(point)
    grad_reversal(reversed_leaf, lam).sum().backward()
    print("\nforward values identical :",
          np.array_equal(point, grad_reversal(Tensor(point), lam).data))
    print("backward grads scaled by -lam :",
          np.array_equal(reversed_leaf.grad, -lam * plain.grad))


if __name__ == "__main__":
    main()
