"""Functional building blocks: convolution and pooling with autograd support.

The convolution is a row-tap convolution, the one-axis lowering of MEC
(Cho & Brand, ICML 2017, arXiv:1706.06873): the input is copied once,
unfolded along the kernel width only, into a zero-padded
``(N, C, kW, Hp, oW)`` buffer, ``1/kH`` the size of full im2col columns.
The forward pass and both gradients are then ``kH`` ``np.matmul`` calls
(BLAS) each, one per kernel row, against rows ``i, i + sH, ...`` of that
buffer (a view at stride 1, a copy at larger row strides).  Average pooling
sums its strided window taps directly, without unfolding anything.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.tensor import Tensor


def _pair(value) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError("expected a pair")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError("kernel larger than padded input")
    return out


def _width_taps(width: int, kw: int, sw: int, pw: int, out_w: int):
    """For each kernel column ``j`` whose taps reach the input, the output
    columns ``q`` that read it and the input columns ``j + q * sw - pw``
    they read, as a ``(j, out_slice, in_slice)`` list."""
    taps = []
    for j in range(kw):
        first = max(0, -((j - pw) // sw))
        stop = min(out_w, (width - 1 + pw - j) // sw + 1)
        if stop > first:
            start = j + first * sw - pw
            taps.append((j, slice(first, stop),
                         slice(start, start + (stop - first - 1) * sw + 1, sw)))
    return taps


def conv2d(inputs: Tensor, weight: Tensor, bias: Tensor = None,
           stride=1, padding=0) -> Tensor:
    """2-D cross-correlation (the deep-learning "convolution").

    Parameters
    ----------
    inputs:
        Tensor of shape ``(N, C_in, H, W)``.
    weight:
        Tensor of shape ``(C_out, C_in, kH, kW)``.
    bias:
        Optional tensor of shape ``(C_out,)``.
    """
    if inputs.ndim != 4:
        raise ValueError("conv2d expects inputs of shape (N, C, H, W)")
    if weight.ndim != 4:
        raise ValueError("conv2d expects weight of shape (C_out, C_in, kH, kW)")
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    n, c_in, h, w = inputs.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input channels {c_in} != weight channels {c_in_w}")
    out_h = _output_size(h, kh, sh, ph)
    out_w = _output_size(w, kw, sw, pw)
    depth, cells = c_in * kw, out_h * out_w

    # rows[:, c, j, r, q] is the zero-padded input at row r, column
    # j + q * sw: the input unfolded along the kernel width only.
    rows = np.zeros((n, c_in, kw, h + 2 * ph, out_w))
    columns = _width_taps(w, kw, sw, pw, out_w)
    for j, out_cols, in_cols in columns:
        rows[:, :, j, ph:ph + h, out_cols] = inputs.data[:, :, :, in_cols]
    # w_rows[i] is kernel row i as a (C_out, C_in * kW) matrix.
    w_rows = weight.data.transpose(2, 0, 1, 3).reshape(kh, c_out, depth)

    def row_tap(buffer: np.ndarray, i: int) -> np.ndarray:
        """Rows ``i, i + sh, ...`` of ``buffer``: ``(N, C_in, kW, oH, oW)``."""
        return buffer[:, :, :, i:i + sh * out_h:sh]

    out = np.matmul(w_rows[0], row_tap(rows, 0).reshape(n, depth, cells))
    for i in range(1, kh):
        out += np.matmul(w_rows[i], row_tap(rows, i).reshape(n, depth, cells))
    if bias is not None:
        out += bias.data.reshape(1, c_out, 1)
    out = out.reshape(n, c_out, out_h, out_w)

    parents = (inputs, weight) if bias is None else (inputs, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.reshape(n, c_out, cells)
        if weight.requires_grad:
            grad_w = np.stack([
                np.matmul(grad_mat, row_tap(rows, i).reshape(n, depth, cells)
                          .transpose(0, 2, 1)).sum(axis=0)
                for i in range(kh)])
            weight._accumulate(grad_w.reshape(kh, c_out, c_in, kw)
                               .transpose(1, 2, 0, 3))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_mat.sum(axis=(0, 2)))
        if inputs.requires_grad:
            grad_rows = np.zeros_like(rows)
            for i in range(kh):
                tap = row_tap(grad_rows, i)
                tap += np.matmul(w_rows[i].T, grad_mat).reshape(tap.shape)
            grad_input = np.zeros(inputs.shape)
            for j, out_cols, in_cols in columns:
                grad_input[:, :, :, in_cols] += grad_rows[:, :, j, ph:ph + h,
                                                          out_cols]
            inputs._accumulate(grad_input)

    return inputs._make(out, parents, backward)


def avg_pool2d(inputs: Tensor, kernel_size, stride=None) -> Tensor:
    """Average pooling over non-overlapping (or strided) windows.

    The output is the sum of the ``kH * kW`` strided window taps, taken in
    window order, divided by the window size; the gradient adds the same
    share back through the same taps.
    """
    kh, kw = kernel = _pair(kernel_size)
    sh, sw = _pair(stride) if stride is not None else kernel
    n, c, h, w = inputs.shape
    out_h = _output_size(h, kh, sh, 0)
    out_w = _output_size(w, kw, sw, 0)

    def taps(array: np.ndarray):
        return [array[:, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw]
                for i in range(kh) for j in range(kw)]

    first, *rest = taps(inputs.data)
    out = first + rest[0] if rest else first.copy()
    for tap in rest[1:]:
        out += tap
    out /= kh * kw

    def backward(grad: np.ndarray) -> None:
        if not inputs.requires_grad:
            return
        share = grad / (kh * kw)
        grad_input = np.zeros(inputs.shape)
        for tap in taps(grad_input):
            tap += share
        inputs._accumulate(grad_input)

    return inputs._make(out, (inputs,), backward)


def linear(inputs: Tensor, weight: Tensor, bias: Tensor = None) -> Tensor:
    """Affine map ``inputs @ weight.T + bias`` for 2-D inputs ``(N, features)``."""
    out = inputs @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out
