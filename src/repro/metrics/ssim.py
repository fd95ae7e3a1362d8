"""Structural Similarity Index (SSIM).

A windowed SSIM implementation following Wang et al. (2004), matching the
conventions used by OpenFWI and the QuGeo paper: a Gaussian (or uniform)
sliding window, the standard stabilising constants ``C1=(k1*L)^2`` and
``C2=(k2*L)^2``, and averaging of the local SSIM map.

For small images (e.g. the 8x8 velocity maps used after QuGeoData scaling)
the window is automatically shrunk so that it never exceeds the image.

The window is separable, so smoothing is two dense banded matrices applied
as ``M_z @ x @ M_x^T`` over the last two axes (see :func:`_filter_matrix`).
Their rows hold the 1-D window weights, with out-of-range taps folded back
by half-sample reflection (``d c b a | a b c d | d c b a``, the boundary
``scipy.ndimage`` calls ``mode="reflect"``).  The Gaussian window is
truncated at ``radius = int(truncate * sigma + 0.5)`` and an even uniform
window sits one tap left of centre, so the local means equal
``scipy.ndimage.gaussian_filter``/``uniform_filter`` up to summation order
(~1e-16) while this module needs only numpy.

Both :func:`ssim` and :func:`ssim_map` also accept an ``(N, H, W)`` stack of
images: the matrices broadcast over the leading axis, so scoring a whole
batch of predictions costs the same two matrix products as one image.  For a
stack :func:`ssim` returns the per-image mean-SSIM vector of shape ``(N,)``.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np


def _validate(a, b) -> Tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim not in (2, 3):
        raise ValueError("ssim expects 2-D images or (N, H, W) stacks")
    return a, b


def _filter_matrix(n: int, weights: np.ndarray,
                   offsets: np.ndarray) -> np.ndarray:
    """Dense ``(n, n)`` 1-D correlation with a half-sample-reflect boundary.

    Row ``i`` holds ``weights[k]`` at column ``i + offsets[k]``.  A column
    ``j`` outside ``[0, n)`` is folded back to ``j mod 2n``, then to
    ``2n - 1 - j`` when that is still ``>= n``, so a tap reaching past a
    whole image width keeps reflecting; folded taps accumulate onto their
    mirror column.
    """
    matrix = np.zeros((n, n), dtype=np.float64)
    rows = np.arange(n)
    for weight, offset in zip(weights, offsets):
        cols = (rows + offset) % (2 * n)
        cols = np.where(cols >= n, 2 * n - 1 - cols, cols)
        np.add.at(matrix, (rows, cols), weight)
    return matrix


def _window(window_size: int, gaussian: bool,
            sigma: float) -> Tuple[np.ndarray, np.ndarray]:
    """1-D ``(weights, offsets)`` of a window with a ``window_size`` footprint."""
    if gaussian:
        # Truncate the Gaussian so its footprint matches window_size.
        truncate = max((window_size - 1) / 2.0, 0.5) / sigma
        radius = int(truncate * sigma + 0.5)
        offsets = np.arange(-radius, radius + 1)
        weights = np.exp(-0.5 / (sigma * sigma) * offsets.astype(np.float64) ** 2)
        return weights / weights.sum(), offsets
    offsets = np.arange(-(window_size // 2), window_size - window_size // 2)
    return np.full(window_size, 1.0 / window_size), offsets


def ssim_map(image: np.ndarray, reference: np.ndarray, *,
             data_range: Optional[float] = None, window_size: int = 7,
             gaussian: bool = True, sigma: float = 1.5,
             k1: float = 0.01, k2: float = 0.03) -> np.ndarray:
    """Return the local SSIM map between ``image`` and ``reference``.

    Parameters
    ----------
    image, reference:
        2-D arrays of equal shape, or ``(N, H, W)`` stacks of images; for a
        stack the windows slide over the trailing two axes only and the
        returned map has the same ``(N, H, W)`` shape.
    data_range:
        Dynamic range ``L``.  Defaults to the range of ``reference`` (or 1 if
        the reference is constant); for a stack the default range is computed
        per image.  A range that is not positive and finite (including one
        derived from a reference holding NaN or inf) raises ``ValueError``.
    window_size:
        Side length of the sliding window; clipped to the image size.
    gaussian:
        Use a Gaussian-weighted window (as in the original SSIM paper) when
        ``True``; a uniform window otherwise.
    """
    image, reference = _validate(image, reference)
    batched = image.ndim == 3
    spatial = image.shape[-2:]
    if data_range is None:
        if batched:
            flat = reference.reshape(reference.shape[0], -1)
            data_range = flat.max(axis=1) - flat.min(axis=1)
            data_range = np.where(data_range == 0, 1.0, data_range)[:, None, None]
        else:
            data_range = float(reference.max() - reference.min())
            if data_range == 0:
                data_range = 1.0
    ranges = np.asarray(data_range, dtype=np.float64)
    if not np.all(np.isfinite(ranges) & (ranges > 0)):
        raise ValueError("data_range must be positive and finite")

    window_size = int(min(window_size, min(spatial)))
    if window_size < 1:
        raise ValueError("window_size must be at least 1")

    weights, offsets = _window(window_size, gaussian, sigma)
    m_z = _filter_matrix(spatial[0], weights, offsets)
    m_x = _filter_matrix(spatial[1], weights, offsets)

    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2

    moments = np.stack([image, reference, image * image,
                        reference * reference, image * reference])
    mu_x, mu_y, mu_xx, mu_yy, mu_xy = m_z @ moments @ m_x.T

    var_x = mu_xx - mu_x * mu_x
    var_y = mu_yy - mu_y * mu_y
    cov_xy = mu_xy - mu_x * mu_y

    numerator = (2 * mu_x * mu_y + c1) * (2 * cov_xy + c2)
    denominator = (mu_x**2 + mu_y**2 + c1) * (var_x + var_y + c2)
    return numerator / denominator


def ssim(image: np.ndarray, reference: np.ndarray,
         **kwargs) -> Union[float, np.ndarray]:
    """Mean SSIM between ``image`` and ``reference``.

    Accepts the same keyword arguments as :func:`ssim_map`.  Identical inputs
    give exactly 1.0; structurally unrelated inputs approach 0.  For an
    ``(N, H, W)`` stack the per-image means are returned as an ``(N,)``
    array.
    """
    values = ssim_map(image, reference, **kwargs)
    if values.ndim == 3:
        return values.mean(axis=(1, 2))
    return float(np.mean(values))
