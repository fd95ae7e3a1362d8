"""Functional building blocks: convolution and pooling with autograd support.

The convolution is implemented with the classic ``im2col`` trick so that both
the forward pass and the gradients reduce to matrix multiplications, which
keeps the tiny CNNs in this repository fast enough to train inside tests.
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


def _im2col(images: np.ndarray, kernel: Tuple[int, int],
            stride: Tuple[int, int], padding: Tuple[int, int]):
    """Unfold ``images`` (N, C, H, W) into columns for convolution."""
    n, c, h, w = images.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError("kernel larger than padded input")
    padded = np.pad(images, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = np.empty((n, c, kh, kw, out_h, out_w), dtype=images.dtype)
    for i in range(kh):
        i_end = i + sh * out_h
        for j in range(kw):
            j_end = j + sw * out_w
            cols[:, :, i, j, :, :] = padded[:, :, i:i_end:sh, j:j_end:sw]
    return cols.reshape(n, c * kh * kw, out_h * out_w), (out_h, out_w)


def _col2im(cols: np.ndarray, image_shape, kernel, stride, padding) -> np.ndarray:
    """Fold columns back into image space (adjoint of :func:`_im2col`)."""
    n, c, h, w = image_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + sh * out_h
        for j in range(kw):
            j_end = j + sw * out_w
            padded[:, :, i:i_end:sh, j:j_end:sw] += cols[:, :, i, j, :, :]
    if ph == 0 and pw == 0:
        return padded
    return padded[:, :, ph:ph + h, pw:pw + w]


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
    stride = _pair(stride)
    padding = _pair(padding)
    n, c_in, h, w = inputs.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input channels {c_in} != weight channels {c_in_w}")

    cols, (out_h, out_w) = _im2col(inputs.data, (kh, kw), stride, padding)
    w_mat = weight.data.reshape(c_out, -1)
    out = np.einsum("ok,nkl->nol", w_mat, cols)
    if bias is not None:
        out = out + bias.data.reshape(1, c_out, 1)
    out = out.reshape(n, c_out, out_h, out_w)

    parents = (inputs, weight) if bias is None else (inputs, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.reshape(n, c_out, out_h * out_w)
        if weight.requires_grad:
            grad_w = np.einsum("nol,nkl->ok", grad_mat, cols).reshape(weight.shape)
            weight._accumulate(grad_w)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_mat.sum(axis=(0, 2)))
        if inputs.requires_grad:
            grad_cols = np.einsum("ok,nol->nkl", w_mat, grad_mat)
            grad_input = _col2im(grad_cols, inputs.shape, (kh, kw), stride, padding)
            inputs._accumulate(grad_input)

    return inputs._make(out, parents, backward)


def avg_pool2d(inputs: Tensor, kernel_size, stride=None) -> Tensor:
    """Average pooling over non-overlapping (or strided) windows."""
    kernel = _pair(kernel_size)
    stride = _pair(stride) if stride is not None else kernel
    n, c, h, w = inputs.shape
    cols, (out_h, out_w) = _im2col(inputs.data, kernel, stride, (0, 0))
    cols = cols.reshape(n, c, kernel[0] * kernel[1], out_h * out_w)
    out = cols.mean(axis=2).reshape(n, c, out_h, out_w)

    def backward(grad: np.ndarray) -> None:
        if not inputs.requires_grad:
            return
        grad_cols = np.repeat(
            grad.reshape(n, c, 1, out_h * out_w) / (kernel[0] * kernel[1]),
            kernel[0] * kernel[1], axis=2)
        grad_input = _col2im(grad_cols.reshape(n, c * kernel[0] * kernel[1], -1),
                             inputs.shape, kernel, stride, (0, 0))
        inputs._accumulate(grad_input)

    return inputs._make(out, (inputs,), backward)


def max_pool2d(inputs: Tensor, kernel_size, stride=None) -> Tensor:
    """Max pooling over windows; gradients route to the argmax element."""
    kernel = _pair(kernel_size)
    stride = _pair(stride) if stride is not None else kernel
    n, c, h, w = inputs.shape
    cols, (out_h, out_w) = _im2col(inputs.data, kernel, stride, (0, 0))
    cols = cols.reshape(n, c, kernel[0] * kernel[1], out_h * out_w)
    argmax = cols.argmax(axis=2)
    out = cols.max(axis=2).reshape(n, c, out_h, out_w)

    def backward(grad: np.ndarray) -> None:
        if not inputs.requires_grad:
            return
        grad_cols = np.zeros_like(cols)
        flat_grad = grad.reshape(n, c, out_h * out_w)
        n_idx, c_idx, l_idx = np.meshgrid(np.arange(n), np.arange(c),
                                          np.arange(out_h * out_w), indexing="ij")
        grad_cols[n_idx, c_idx, argmax, l_idx] = flat_grad
        grad_input = _col2im(grad_cols.reshape(n, c * kernel[0] * kernel[1], -1),
                             inputs.shape, kernel, stride, (0, 0))
        inputs._accumulate(grad_input)

    return inputs._make(out, (inputs,), backward)


def linear(inputs: Tensor, weight: Tensor, bias: Tensor = None) -> Tensor:
    """Affine map ``inputs @ weight.T + bias`` for 2-D inputs ``(N, features)``."""
    out = inputs @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out
