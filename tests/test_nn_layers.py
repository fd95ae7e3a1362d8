"""Tests for repro.nn layers, losses, functional ops."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn import (
    AvgPool2d,
    Conv2d,
    Flatten,
    L1Loss,
    Linear,
    MSELoss,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    Tensor,
)
from repro.nn import functional as F


def numerical_gradient(fn, array, epsilon=1e-6):
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


class TestLinear:
    def test_output_shape(self):
        layer = Linear(4, 3, rng=0)
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_1d_input_promoted_to_batch(self):
        layer = Linear(4, 3, rng=0)
        assert layer(Tensor(np.ones(4))).shape == (1, 3)

    def test_parameter_count(self):
        assert Linear(4, 3, rng=0).weight.size + Linear(4, 3, rng=0).bias.size == 15

    def test_no_bias(self):
        layer = Linear(4, 3, bias=False, rng=0)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradients_match_numerical(self):
        rng = np.random.default_rng(0)
        layer = Linear(3, 2, rng=0)
        x = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 2))
        loss_fn = MSELoss()

        def value():
            out = x @ layer.weight.data.T + layer.bias.data
            return float(np.mean((out - target) ** 2))

        loss = loss_fn(layer(Tensor(x)), target)
        loss.backward()
        np.testing.assert_allclose(layer.weight.grad,
                                   numerical_gradient(value, layer.weight.data),
                                   atol=1e-6)
        np.testing.assert_allclose(layer.bias.grad,
                                   numerical_gradient(value, layer.bias.data),
                                   atol=1e-6)

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            Linear(0, 3)


class TestConv2d:
    def test_output_shape_no_padding(self):
        conv = Conv2d(1, 2, 3, rng=0)
        out = conv(Tensor(np.ones((2, 1, 8, 8))))
        assert out.shape == (2, 2, 6, 6)

    def test_output_shape_with_padding(self):
        conv = Conv2d(1, 2, 3, padding=1, rng=0)
        out = conv(Tensor(np.ones((2, 1, 8, 8))))
        assert out.shape == (2, 2, 8, 8)

    def test_stride(self):
        conv = Conv2d(1, 1, 3, stride=2, rng=0)
        out = conv(Tensor(np.ones((1, 1, 9, 9))))
        assert out.shape == (1, 1, 4, 4)

    def test_matches_manual_convolution(self):
        conv = Conv2d(1, 1, 2, bias=False, rng=0)
        conv.weight.data = np.array([[[[1.0, 0.0], [0.0, -1.0]]]])
        image = np.arange(9.0).reshape(1, 1, 3, 3)
        out = conv(Tensor(image)).numpy()
        expected = image[0, 0, :2, :2] - image[0, 0, 1:, 1:]
        np.testing.assert_allclose(out[0, 0], expected)

    def test_channel_mismatch_raises(self):
        conv = Conv2d(2, 1, 3, rng=0)
        with pytest.raises(ValueError):
            conv(Tensor(np.ones((1, 1, 5, 5))))

    def test_gradients_match_numerical(self):
        rng = np.random.default_rng(1)
        conv = Conv2d(2, 2, 3, padding=1, rng=0)
        x = rng.normal(size=(2, 2, 5, 5))
        target = rng.normal(size=(2, 2, 5, 5))
        loss_fn = MSELoss()

        def value():
            out = F.conv2d(Tensor(x), Tensor(conv.weight.data),
                           Tensor(conv.bias.data), padding=1).numpy()
            return float(np.mean((out - target) ** 2))

        loss = loss_fn(conv(Tensor(x)), target)
        loss.backward()
        np.testing.assert_allclose(conv.weight.grad,
                                   numerical_gradient(value, conv.weight.data),
                                   atol=1e-5)
        np.testing.assert_allclose(conv.bias.grad,
                                   numerical_gradient(value, conv.bias.data),
                                   atol=1e-5)

    def test_input_gradient(self):
        rng = np.random.default_rng(2)
        conv = Conv2d(1, 1, 3, rng=0)
        x_data = rng.normal(size=(1, 1, 5, 5))
        x = Tensor(x_data, requires_grad=True)
        conv(x).sum().backward()

        def value():
            out = F.conv2d(Tensor(x_data), Tensor(conv.weight.data),
                           Tensor(conv.bias.data)).numpy()
            return float(out.sum())

        np.testing.assert_allclose(x.grad, numerical_gradient(value, x_data),
                                   atol=1e-5)


def _per_cell_reference(x, kernel, stride, padding, cell):
    """Independent sliding-window loop: one output cell at a time.

    For every batch row and output position it gathers the zero-padded
    ``(C, kH, kW)`` window element by element and reduces it with
    ``cell(window) -> (out_channels,)``.  It shares no code with the
    row-tap convolution or the strided pooling taps.
    """
    n, c, h, w = x.shape
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    out = None
    for b in range(n):
        for i in range(out_h):
            for j in range(out_w):
                window = np.zeros((c, kh, kw))
                for p in range(kh):
                    for q in range(kw):
                        row, col = i * sh + p - ph, j * sw + q - pw
                        if 0 <= row < h and 0 <= col < w:
                            window[:, p, q] = x[b, :, row, col]
                values = cell(window)
                if out is None:
                    out = np.zeros((n, len(values), out_h, out_w))
                out[b, :, i, j] = values
    return out


def _conv_reference(x, weight, bias, stride, padding):
    def cell(window):
        return (weight * window).sum(axis=(1, 2, 3)) + bias
    return _per_cell_reference(x, weight.shape[2:], stride, padding, cell)


class TestConv2dOracle:
    """conv2d and average pooling against the per-cell loop and adjoint
    identities, off and on the stride-1 path."""

    STRIDE, PADDING = (2, 1), (1, 2)

    @pytest.fixture
    def problem(self):
        rng = np.random.default_rng(11)
        return (rng.normal(size=(2, 3, 7, 6)), rng.normal(size=(2, 3, 3, 2)),
                rng.normal(size=2), rng.normal(size=(2, 2, 4, 9)))

    def test_forward_matches_per_cell_loop(self, problem):
        x, weight, bias, _ = problem
        out = F.conv2d(Tensor(x), Tensor(weight), Tensor(bias),
                       stride=self.STRIDE, padding=self.PADDING).numpy()
        expected = _conv_reference(x, weight, bias, self.STRIDE, self.PADDING)
        assert out.shape == expected.shape == (2, 2, 4, 9)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kernel,stride", [((2, 2), None), ((3, 2), (2, 1))])
    def test_pool_forwards_match_per_cell_loop(self, kernel, stride):
        x = np.random.default_rng(12).normal(size=(2, 3, 7, 6))
        out = F.avg_pool2d(Tensor(x), kernel, stride).numpy()
        expected = _per_cell_reference(
            x, kernel, stride or kernel, (0, 0),
            lambda window: np.mean(window, axis=(1, 2)))
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kernel,stride", [((2, 2), None), ((3, 2), (2, 1))])
    def test_avg_pool_is_bit_identical_to_window_mean(self, kernel, stride):
        """Forward: the mean over the window axis of contiguous window
        columns.  Backward: every window adds ``g / (kH*kW)`` to its cells,
        windows visited tap by tap in window order."""
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=(2, 3, 7, 6)), requires_grad=True)
        (kh, kw), (sh, sw) = kernel, stride or kernel
        out = F.avg_pool2d(x, kernel, stride)
        g = rng.normal(size=out.shape)
        (out * Tensor(g)).sum().backward()

        n, c, out_h, out_w = out.shape
        windows = sliding_window_view(x.data, kernel, axis=(2, 3))[:, :, ::sh, ::sw]
        columns = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c, kh * kw, -1)
        np.testing.assert_array_equal(
            out.numpy(), columns.mean(axis=2).reshape(out.shape))

        share = g / (kh * kw)
        expected = np.zeros(x.shape)
        for i in range(kh):
            for j in range(kw):
                for p in range(out_h):
                    for q in range(out_w):
                        expected[:, :, p * sh + i, q * sw + j] += share[:, :, p, q]
        np.testing.assert_array_equal(x.grad, expected)

    def test_stride_1_tall_input_non_square_kernel(self):
        """The compressor's regime: H >> W, "same" padding, stride 1."""
        rng = np.random.default_rng(16)
        x_data = rng.normal(size=(2, 3, 41, 5))
        w_data = rng.normal(size=(4, 3, 3, 2))
        b_data = rng.normal(size=4)
        x = Tensor(x_data, requires_grad=True)
        weight = Tensor(w_data, requires_grad=True)
        out = F.conv2d(x, weight, Tensor(b_data), stride=1, padding=(1, 1))
        expected = _conv_reference(x_data, w_data, b_data, (1, 1), (1, 1))
        assert out.shape == expected.shape == (2, 4, 41, 6)
        np.testing.assert_allclose(out.numpy(), expected, rtol=0, atol=1e-12)

        g = rng.normal(size=out.shape)
        (out * Tensor(g)).sum().backward()
        linear_part = float(np.sum((out.numpy() - b_data[None, :, None, None]) * g))
        assert np.sum(x_data * x.grad) == pytest.approx(linear_part, rel=1e-12)
        assert np.sum(w_data * weight.grad) == pytest.approx(linear_part, rel=1e-12)

    def test_backward_satisfies_adjoint_identity(self, problem):
        x_data, w_data, b_data, g = problem
        x = Tensor(x_data, requires_grad=True)
        weight = Tensor(w_data, requires_grad=True)
        bias = Tensor(b_data, requires_grad=True)
        out = F.conv2d(x, weight, bias, stride=self.STRIDE, padding=self.PADDING)
        (out * Tensor(g)).sum().backward()
        # conv(x) - bias is bilinear in (x, weight): <conv(x) - b, g> equals
        # <x, dx> and <weight, dweight>; the bias gradient sums g.
        linear_part = float(np.sum((out.numpy() - b_data[None, :, None, None]) * g))
        assert np.sum(x_data * x.grad) == pytest.approx(linear_part, rel=1e-12)
        assert np.sum(w_data * weight.grad) == pytest.approx(linear_part, rel=1e-12)
        np.testing.assert_allclose(bias.grad, g.sum(axis=(0, 2, 3)), rtol=1e-12)

    def test_gradients_match_finite_differences_at_stride_2(self):
        rng = np.random.default_rng(13)
        x_data = rng.normal(size=(2, 2, 6, 5))
        w_data = rng.normal(size=(2, 2, 3, 3))
        b_data = rng.normal(size=2)
        g = rng.normal(size=(2, 2, 3, 3))

        def value():
            return float(np.sum(_conv_reference(x_data, w_data, b_data,
                                                (2, 2), (1, 1)) * g))

        x = Tensor(x_data, requires_grad=True)
        weight = Tensor(w_data, requires_grad=True)
        out = F.conv2d(x, weight, Tensor(b_data), stride=2, padding=1)
        assert out.shape == g.shape
        (out * Tensor(g)).sum().backward()
        np.testing.assert_allclose(x.grad, numerical_gradient(value, x_data),
                                   atol=1e-7)
        np.testing.assert_allclose(weight.grad,
                                   numerical_gradient(value, w_data), atol=1e-7)

    def test_avg_pool_backward_satisfies_adjoint_identity(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=(2, 3, 7, 6)), requires_grad=True)
        out = F.avg_pool2d(x, (3, 2), (2, 1))
        g = rng.normal(size=out.shape)
        (out * Tensor(g)).sum().backward()
        assert np.sum(x.data * x.grad) == pytest.approx(
            float(np.sum(out.numpy() * g)), rel=1e-12)


class TestPooling:
    def test_avg_pool_value(self):
        image = np.arange(16.0).reshape(1, 1, 4, 4)
        out = AvgPool2d(2)(Tensor(image)).numpy()
        assert out.shape == (1, 1, 2, 2)
        assert out[0, 0, 0, 0] == pytest.approx(np.mean([0, 1, 4, 5]))

    def test_avg_pool_gradient_uniform(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        AvgPool2d(2)(x).sum().backward()
        np.testing.assert_allclose(x.grad, 0.25 * np.ones((1, 1, 4, 4)))


class TestActivationsAndContainer:
    def test_relu_module(self):
        out = ReLU()(Tensor([-1.0, 1.0])).numpy()
        np.testing.assert_allclose(out, [0.0, 1.0])

    def test_sigmoid_range(self):
        out = Sigmoid()(Tensor([-10.0, 0.0, 10.0])).numpy()
        assert np.all(out > 0) and np.all(out < 1)

    def test_tanh_range(self):
        out = Tanh()(Tensor([-10.0, 10.0])).numpy()
        assert np.all(np.abs(out) < 1)

    def test_flatten(self):
        out = Flatten()(Tensor(np.ones((2, 3, 4))))
        assert out.shape == (2, 12)

    def test_sequential_composition(self):
        model = Sequential(Linear(4, 8, rng=0), ReLU(), Linear(8, 2, rng=1))
        assert model(Tensor(np.ones((3, 4)))).shape == (3, 2)

    def test_sequential_len_and_getitem(self):
        model = Sequential(ReLU(), Flatten())
        assert len(model) == 2
        assert isinstance(model[0], ReLU)


class TestModuleParameters:
    def test_named_parameters_nested(self):
        model = Sequential(Linear(2, 3, rng=0), ReLU(), Linear(3, 1, rng=1))
        names = [name for name, _ in model.named_parameters()]
        assert any("layers.0.weight" in name for name in names)
        assert any("layers.2.bias" in name for name in names)

    def test_num_parameters(self):
        model = Sequential(Linear(2, 3, rng=0))
        assert model.num_parameters() == 2 * 3 + 3

    def test_zero_grad(self):
        model = Sequential(Linear(2, 2, rng=0))
        loss = MSELoss()(model(Tensor(np.ones((1, 2)))), np.zeros((1, 2)))
        loss.backward()
        assert model.parameters()[0].grad is not None
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_state_dict_roundtrip(self):
        model = Sequential(Linear(2, 2, rng=0))
        state = model.state_dict()
        other = Sequential(Linear(2, 2, rng=99))
        other.load_state_dict(state)
        for (_, a), (_, b) in zip(model.named_parameters(), other.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_load_state_dict_rejects_mismatch(self):
        model = Sequential(Linear(2, 2, rng=0))
        with pytest.raises(KeyError):
            model.load_state_dict({"bogus": np.zeros(1)})


class TestLosses:
    def test_mse_value(self):
        loss = MSELoss()(Tensor([[1.0, 2.0]]), [[0.0, 0.0]])
        assert loss.item() == pytest.approx(2.5)

    def test_l1_value(self):
        loss = L1Loss()(Tensor([[1.0, -2.0]]), [[0.0, 0.0]])
        assert loss.item() == pytest.approx(1.5)

    def test_mse_zero_for_match(self):
        pred = Tensor(np.ones((2, 2)))
        assert MSELoss()(pred, np.ones((2, 2))).item() == 0.0
