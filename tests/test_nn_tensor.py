"""Tests for the autograd Tensor (repro.nn.tensor)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.tensor import Tensor, as_tensor


def numerical_gradient(fn, array, epsilon=1e-6):
    """Central finite differences of a scalar function of one array."""
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + epsilon
        plus = fn()
        flat[i] = original - epsilon
        minus = fn()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * epsilon)
    return grad


class TestTensorBasics:
    def test_data_is_float64(self):
        assert Tensor([1, 2, 3]).data.dtype == np.float64

    def test_shape_ndim_size(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.shape == (2, 3)
        assert t.ndim == 2
        assert t.size == 6

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_detach_cuts_graph(self):
        t = Tensor([1.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_as_tensor_wraps_array(self):
        t = as_tensor(np.ones(3))
        assert isinstance(t, Tensor)

    def test_backward_on_non_scalar_without_grad_raises(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward()


class TestArithmeticGradients:
    def test_add_gradients(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_mul_gradients(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [3.0, 4.0])
        np.testing.assert_allclose(b.grad, [1.0, 2.0])

    def test_sub_and_neg(self):
        a = Tensor([5.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a - b).backward()
        np.testing.assert_allclose(a.grad, [1.0])
        np.testing.assert_allclose(b.grad, [-1.0])

    def test_div_gradients(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).backward()
        np.testing.assert_allclose(a.grad, [0.5])
        np.testing.assert_allclose(b.grad, [-1.5])

    def test_pow_gradient(self):
        a = Tensor([3.0], requires_grad=True)
        (a ** 2).backward()
        np.testing.assert_allclose(a.grad, [6.0])

    def test_scalar_broadcast(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (2.0 * a + 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 2.0])

    def test_broadcast_unbroadcast(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.ones((1, 2)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 2)
        assert b.grad.shape == (1, 2)
        np.testing.assert_allclose(b.grad, [[3.0, 3.0]])

    def test_matmul_gradients_match_numerical(self):
        rng = np.random.default_rng(0)
        a_data = rng.normal(size=(3, 4))
        b_data = rng.normal(size=(4, 2))
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        (a @ b).sum().backward()

        num_a = numerical_gradient(lambda: (a_data @ b_data).sum(), a_data)
        num_b = numerical_gradient(lambda: (a_data @ b_data).sum(), b_data)
        np.testing.assert_allclose(a.grad, num_a, atol=1e-6)
        np.testing.assert_allclose(b.grad, num_b, atol=1e-6)

    def test_reused_tensor_accumulates(self):
        a = Tensor([2.0], requires_grad=True)
        ((a * a) + a).backward()
        np.testing.assert_allclose(a.grad, [5.0])  # 2a + 1


class TestShapeOps:
    def test_reshape_gradient(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(6))

    def test_transpose_gradient(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        scale = Tensor(np.arange(6.0).reshape(3, 2))
        (a.transpose() * scale).sum().backward()
        np.testing.assert_allclose(a.grad, np.arange(6.0).reshape(3, 2).T)

    def test_getitem_gradient(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        a[1:3].sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 1.0, 0.0])

    def test_mean_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, 0.25 * np.ones((2, 2)))

    def test_sum_axis_keepdims(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        a.sum(axis=1, keepdims=True).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))


class TestNonlinearities:
    def test_relu_gradient(self):
        a = Tensor([-1.0, 2.0], requires_grad=True)
        a.relu().sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])

    def test_relu_is_maximum_without_negative_zeros(self):
        x = np.array([-3.0, 0.0, 1e-300, 2.5, -1e-300, 0.0])
        upstream = np.random.default_rng(0).normal(size=x.shape)
        a = Tensor(x, requires_grad=True)
        out = a.relu()
        np.testing.assert_array_equal(out.data, np.maximum(x, 0.0))
        assert not np.signbit(out.data).any()
        (out * Tensor(upstream)).sum().backward()
        np.testing.assert_array_equal(a.grad, upstream * (x > 0))

    def test_sigmoid_gradient(self):
        a = Tensor([0.0], requires_grad=True)
        a.sigmoid().backward()
        np.testing.assert_allclose(a.grad, [0.25])

    def test_tanh_gradient(self):
        a = Tensor([0.0], requires_grad=True)
        a.tanh().backward()
        np.testing.assert_allclose(a.grad, [1.0])

    def test_exp_log_inverse(self):
        a = Tensor([0.7], requires_grad=True)
        a.exp().log().backward()
        np.testing.assert_allclose(a.grad, [1.0], atol=1e-12)

    def test_abs_gradient(self):
        a = Tensor([-2.0, 3.0], requires_grad=True)
        a.abs().sum().backward()
        np.testing.assert_allclose(a.grad, [-1.0, 1.0])


class TestGradientProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_composite_expression_matches_numerical(self, seed):
        rng = np.random.default_rng(seed)
        x_data = rng.normal(size=(4, 3))
        w_data = rng.normal(size=(3, 2))

        def value():
            hidden = np.maximum(x_data @ w_data, 0.0)
            return float((hidden ** 2).mean())

        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        ((x @ w).relu() ** 2).mean().backward()

        np.testing.assert_allclose(w.grad, numerical_gradient(value, w_data),
                                   atol=1e-5)
        np.testing.assert_allclose(x.grad, numerical_gradient(value, x_data),
                                   atol=1e-5)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_grad_accumulates_across_backward_calls(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=3)
        a = Tensor(data, requires_grad=True)
        (a * 2).sum().backward()
        first = a.grad.copy()
        (a * 2).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * first)

    def test_zero_grad_resets(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 3).backward()
        a.zero_grad()
        assert a.grad is None
