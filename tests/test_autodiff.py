import numpy as np
import pytest

from dareid.autodiff import (GraphError, NonFiniteError, Tensor,
                             finite_difference_check, grad_reversal,
                             l2_normalize_rows, softmax_cross_entropy)


def test_relu_forward():
    out = Tensor([[-1.0, 2.0]]).relu()
    assert np.array_equal(out.data, [[0.0, 2.0]])


def test_identity_matmul():
    x = Tensor([[3.0, 4.0]])
    out = x @ Tensor(np.eye(2))
    assert np.array_equal(out.data, [[3.0, 4.0]])


def test_two_layer_mlp_matches_hand_multiply():
    w1 = np.array([[1.0, -2.0], [0.5, 1.0], [2.0, 0.0]])
    b1 = np.array([[0.1, -0.1]])
    w2 = np.array([[1.0], [-1.0]])
    x = np.array([[1.0, 2.0, -1.0]])
    out = ((Tensor(x) @ Tensor(w1) + Tensor(b1)).relu() @ Tensor(w2))
    hidden = np.maximum(x @ w1 + b1, 0.0)
    assert np.allclose(out.data, hidden @ w2, atol=1e-15)


def test_backward_of_sum_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    x.sum().backward()
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_of_half_squared_norm():
    x = Tensor([[3.0, -2.0]])
    (0.5 * (x * x).sum()).backward()
    assert np.allclose(x.grad, [[3.0, -2.0]], atol=1e-15)


def test_mlp_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    w1 = Tensor(rng.normal(size=(5, 8)))
    b1 = Tensor(np.zeros((1, 8)))
    w2 = Tensor(rng.normal(size=(8, 3)))
    labels = rng.integers(3, size=4)

    def loss(x):
        return softmax_cross_entropy((x @ w1 + b1).relu() @ w2, labels)

    err = finite_difference_check(loss, rng.normal(size=(4, 5)))
    assert err < 1e-4


def test_shared_gradient_is_not_aliased():
    # add hands the same array to both parents; each stores a copy, or a
    # later contribution to x (from the scale node, which runs after the
    # add node here) would also show in y and in the add node's own grad
    x = Tensor(np.ones((2, 3)))
    (x + x).sum().backward()
    assert np.array_equal(x.grad, np.full((2, 3), 2.0))
    x, y = Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3)))
    both = x + y
    ((x * 2.0).sum() + both.sum()).backward()
    assert np.array_equal(x.grad, np.full((2, 3), 3.0))
    assert np.array_equal(y.grad, np.ones((2, 3)))
    assert np.array_equal(both.grad, np.ones((2, 3)))


def test_unreached_leaf_reads_zero_grad():
    x, unused = Tensor([[1.0, 2.0]]), Tensor(np.ones((3, 2)))
    (x * 3.0).sum().backward()
    assert np.array_equal(x.grad, [[3.0, 3.0]])
    assert np.array_equal(unused.grad, np.zeros((3, 2)))
    x.zero_grad()
    assert np.array_equal(x.grad, [[0.0, 0.0]])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflow_to_minus_inf_before_relu_is_rejected():
    # relu would map -inf to 0, so the check runs on every node
    big = Tensor(np.full((2, 1), -1e308))
    with pytest.raises(NonFiniteError, match="matmul"):
        (Tensor([[1.0, 1.0]]) @ big).relu()


def test_shape_mismatch_names_the_op():
    with pytest.raises(GraphError, match="matmul"):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))
    with pytest.raises(GraphError, match="add"):
        Tensor(np.ones((2, 3))) + Tensor(np.ones((3, 3)))


def test_non_finite_input_rejected():
    with pytest.raises(GraphError):
        Tensor([[np.nan, 1.0]])


def test_forward_is_deterministic():
    rng = np.random.default_rng(1)
    x, w = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    a = (Tensor(x) @ Tensor(w)).relu().sum().item()
    b = (Tensor(x) @ Tensor(w)).relu().sum().item()
    assert a == b


class TestGradReversal:
    def test_forward_is_identity_bit_for_bit(self):
        x = Tensor([[1.0, 2.0, 3.0]])
        out = grad_reversal(x, 0.5)
        assert np.array_equal(out.data, x.data)

    def test_backward_negates_and_scales(self):
        x = Tensor([[1.0, 1.0]])
        grad_reversal(x, 1.0).sum().backward()
        assert np.array_equal(x.grad, [[-1.0, -1.0]])

    def test_lambda_zero_detaches(self):
        x = Tensor([[1.0, -2.0]])
        grad_reversal(x, 0.0).sum().backward()
        assert np.array_equal(x.grad, [[0.0, 0.0]])

    def test_equals_minus_lambda_times_identity_backward(self):
        rng = np.random.default_rng(2)
        w = Tensor(rng.normal(size=(4, 3)))
        point = rng.normal(size=(2, 4))
        for lam in (0.0, 0.7, 2.0):
            x1 = Tensor(point)
            (grad_reversal(x1, lam) @ w).sum().backward()
            x2 = Tensor(point)
            (x2 @ w).sum().backward()
            assert np.array_equal(x1.grad, -lam * x2.grad)

    def test_negative_lambda_rejected(self):
        with pytest.raises(GraphError):
            grad_reversal(Tensor([[1.0]]), -0.1)


class TestFiniteDifferenceCheck:
    def test_quadratic_is_near_exact(self):
        err = finite_difference_check(lambda x: (x * x).sum(), [[2.0]])
        assert err < 1e-8

    def test_cross_entropy_on_random_logits(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(4, size=5)
        err = finite_difference_check(
            lambda x: softmax_cross_entropy(x, labels),
            rng.normal(size=(5, 4)))
        assert err < 1e-4

    def test_requires_positive_eps(self):
        with pytest.raises(GraphError):
            finite_difference_check(lambda x: x.sum(), [[1.0]], eps=0.0)


def test_every_node_type_passes_random_gradient_checks():
    rng = np.random.default_rng(4)
    w = rng.normal(size=(4, 3))
    labels = rng.integers(3, size=3)
    cases = {
        "matmul": lambda x: (x @ Tensor(w)).sum(),
        "add": lambda x: (x + Tensor(np.ones((1, 4)))).sum(),
        "mul": lambda x: (x * x).sum(),
        "scale": lambda x: (2.5 * x).sum(),
        "relu": lambda x: x.relu().sum(),
        "xent": lambda x: softmax_cross_entropy(x @ Tensor(w), labels),
        "l2norm": lambda x: (l2_normalize_rows(x) @ Tensor(w)).sum(),
        "constant @": lambda x: (w[:3].T @ x).sum(),  # plain array on the left
    }
    for name, fn in cases.items():
        worst = 0.0
        for _ in range(100):
            pts = rng.normal(size=(3, 4))
            pts[np.abs(pts) < 1e-3] += 0.01  # keep clear of the relu kink
            worst = max(worst, finite_difference_check(fn, pts))
        assert worst < 1e-4, f"{name}: {worst}"
