"""Tests for repro.metrics (SSIM and error metrics)."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import mae, mse, psnr, relative_improvement, rmse, ssim, ssim_map


def _random_image(seed, shape=(16, 16)):
    return np.random.default_rng(seed).random(shape)


class TestMSE:
    def test_zero_for_identical(self):
        image = _random_image(0)
        assert mse(image, image) == 0.0

    def test_known_value(self):
        assert mse([1.0, 2.0], [0.0, 0.0]) == pytest.approx(2.5)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mse(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_symmetric(self):
        a, b = _random_image(1), _random_image(2)
        assert mse(a, b) == pytest.approx(mse(b, a))


class TestMAEAndRMSE:
    def test_mae_known_value(self):
        assert mae([1.0, -1.0], [0.0, 0.0]) == pytest.approx(1.0)

    def test_rmse_is_sqrt_mse(self):
        a, b = _random_image(3), _random_image(4)
        assert rmse(a, b) == pytest.approx(np.sqrt(mse(a, b)))

    def test_mae_lower_or_equal_rmse(self):
        a, b = _random_image(5), _random_image(6)
        assert mae(a, b) <= rmse(a, b) + 1e-12


class TestPSNR:
    def test_identical_is_infinite(self):
        image = _random_image(7)
        assert psnr(image, image) == float("inf")

    def test_larger_error_lower_psnr(self):
        target = _random_image(8)
        small = target + 0.01
        large = target + 0.1
        assert psnr(small, target, data_range=1.0) > psnr(large, target, data_range=1.0)

    def test_invalid_data_range(self):
        with pytest.raises(ValueError):
            psnr(np.ones((4, 4)), np.ones((4, 4)), data_range=0.0)


class TestRelativeImprovement:
    def test_positive_when_error_drops(self):
        assert relative_improvement(0.001, 0.0005) == pytest.approx(0.5)

    def test_negative_when_error_grows(self):
        assert relative_improvement(0.001, 0.002) == pytest.approx(-1.0)

    def test_zero_baseline_raises(self):
        with pytest.raises(ValueError):
            relative_improvement(0.0, 1.0)


class TestSSIM:
    def test_identical_images_score_one(self):
        image = _random_image(9)
        assert ssim(image, image) == pytest.approx(1.0)

    def test_range_bounded(self):
        a, b = _random_image(10), _random_image(11)
        value = ssim(a, b, data_range=1.0)
        assert -1.0 <= value <= 1.0

    def test_noise_lowers_ssim(self):
        image = _random_image(12)
        noisy = image + 0.5 * _random_image(13)
        assert ssim(noisy, image, data_range=1.0) < 0.99

    def test_more_noise_scores_lower(self):
        image = _random_image(14)
        rng = np.random.default_rng(15)
        noise = rng.normal(size=image.shape)
        slight = image + 0.05 * noise
        heavy = image + 0.5 * noise
        assert ssim(slight, image, data_range=1.0) > ssim(heavy, image, data_range=1.0)

    def test_small_images_supported(self):
        """8x8 velocity maps (the paper's output size) must work."""
        image = _random_image(16, shape=(8, 8))
        assert ssim(image, image) == pytest.approx(1.0)

    def test_uniform_window_variant(self):
        a, b = _random_image(17), _random_image(18)
        value = ssim(a, b, gaussian=False, data_range=1.0)
        assert -1.0 <= value <= 1.0

    def test_constant_reference_uses_unit_range(self):
        constant = np.full((8, 8), 0.5)
        assert ssim(constant, constant) == pytest.approx(1.0)

    def test_map_shape_matches_input(self):
        a, b = _random_image(19), _random_image(20)
        assert ssim_map(a, b).shape == a.shape

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((4, 4)), np.zeros((5, 5)))

    def test_non_2d_raises(self):
        with pytest.raises(ValueError):
            ssim(np.zeros(16), np.zeros(16))

    def test_shifted_structure_scores_below_identical(self):
        image = np.zeros((16, 16))
        image[4:8, :] = 1.0
        shifted = np.roll(image, 4, axis=0)
        assert ssim(shifted, image, data_range=1.0) < 0.95

    @pytest.mark.parametrize("data_range", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_explicit_data_range_raises(self, data_range):
        a, b = _random_image(21), _random_image(22)
        with pytest.raises(ValueError, match="data_range"):
            ssim_map(a, b, data_range=data_range)

    @pytest.mark.parametrize("shape", [(8, 8), (3, 8, 8)])
    def test_non_finite_reference_range_raises(self, shape):
        """A NaN in the reference makes the derived range NaN; that must not
        slip past the positivity check as an all-NaN map."""
        reference = _random_image(23, shape=shape)
        reference.flat[5] = np.nan
        with pytest.raises(ValueError, match="data_range"):
            ssim_map(_random_image(24, shape=shape), reference)


class TestSSIMScipyParity:
    """The banded reflect-boundary filters against ``scipy.ndimage``, whose
    ``gaussian_filter``/``uniform_filter`` define the reference windows."""

    SHAPES = [(16, 16), (9, 11), (8, 8), (2, 9), (1, 6),
              (3, 8, 8), (4, 2, 9), (2, 1, 6)]

    @staticmethod
    def _scipy_ssim_map(image, reference, window_size, gaussian,
                        sigma=1.5, k1=0.01, k2=0.03):
        ndimage = pytest.importorskip("scipy.ndimage")
        batched = image.ndim == 3
        if batched:
            flat = reference.reshape(reference.shape[0], -1)
            data_range = np.ptp(flat, axis=1)
            data_range = np.where(data_range == 0, 1.0, data_range)[:, None, None]
        else:
            data_range = float(np.ptp(reference)) or 1.0
        window_size = min(window_size, *image.shape[-2:])
        if gaussian:
            truncate = max((window_size - 1) / 2.0, 0.5) / sigma
            sigmas = (0, sigma, sigma) if batched else sigma

            def smooth(x):
                return ndimage.gaussian_filter(x, sigma=sigmas, truncate=truncate,
                                               mode="reflect")
        else:
            sizes = (1, window_size, window_size) if batched else window_size

            def smooth(x):
                return ndimage.uniform_filter(x, size=sizes, mode="reflect")

        c1, c2 = (k1 * data_range) ** 2, (k2 * data_range) ** 2
        mu_x, mu_y = smooth(image), smooth(reference)
        var_x = smooth(image * image) - mu_x * mu_x
        var_y = smooth(reference * reference) - mu_y * mu_y
        cov_xy = smooth(image * reference) - mu_x * mu_y
        return ((2 * mu_x * mu_y + c1) * (2 * cov_xy + c2)
                / ((mu_x ** 2 + mu_y ** 2 + c1) * (var_x + var_y + c2)))

    @pytest.mark.parametrize("gaussian", [True, False])
    @pytest.mark.parametrize("window_size", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_scipy(self, shape, window_size, gaussian):
        rng = np.random.default_rng(sum(shape) + 10 * window_size)
        image, reference = rng.random(shape), rng.random(shape)
        expected = self._scipy_ssim_map(image, reference, window_size, gaussian)
        kwargs = dict(window_size=window_size, gaussian=gaussian)
        np.testing.assert_allclose(ssim_map(image, reference, **kwargs),
                                   expected, rtol=0, atol=1e-12)
        means = expected.mean(axis=(-2, -1))
        np.testing.assert_allclose(ssim(image, reference, **kwargs), means,
                                   rtol=0, atol=1e-12)


def test_import_loads_no_scipy():
    """SSIM is pure numpy: importing the library must not pull in scipy."""
    code = ("import sys, repro.core, repro.data; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


class TestSSIMClosedForm:
    """Constant images: every window sees means ``a``/``b`` and zero
    variance, so the structure term is ``C2 / C2`` and SSIM is exactly
    ``(2ab + C1) / (a^2 + b^2 + C1)`` with ``C1 = (k1 L)^2``."""

    PAIRS = [(0.2, 0.7), (1.5, 0.25), (0.0, 1.0), (3.0, 3.0)]

    @staticmethod
    def _closed_form(a, b, data_range=1.0, k1=0.01):
        c1 = (k1 * data_range) ** 2
        return (2 * a * b + c1) / (a * a + b * b + c1)

    @pytest.mark.parametrize("gaussian", [True, False])
    @pytest.mark.parametrize("a,b", PAIRS)
    def test_single_image(self, a, b, gaussian):
        image, reference = np.full((9, 11), a), np.full((9, 11), b)
        expected = self._closed_form(a, b)
        values = ssim_map(image, reference, gaussian=gaussian)
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12)
        assert ssim(image, reference, gaussian=gaussian) == pytest.approx(
            expected, rel=0, abs=1e-12)
        # An explicit dynamic range enters through C1 only.
        assert ssim(image, reference, gaussian=gaussian,
                    data_range=2.0) == pytest.approx(
            self._closed_form(a, b, data_range=2.0), rel=0, abs=1e-12)

    @pytest.mark.parametrize("gaussian", [True, False])
    def test_stack(self, gaussian):
        images = np.stack([np.full((8, 8), a) for a, _ in self.PAIRS])
        references = np.stack([np.full((8, 8), b) for _, b in self.PAIRS])
        expected = np.array([self._closed_form(a, b) for a, b in self.PAIRS])
        values = ssim_map(images, references, gaussian=gaussian)
        np.testing.assert_allclose(values, np.broadcast_to(
            expected[:, None, None], values.shape), rtol=0, atol=1e-12)
        np.testing.assert_allclose(ssim(images, references,
                                        gaussian=gaussian),
                                   expected, rtol=0, atol=1e-12)


class TestSSIMProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_self_similarity_is_one(self, seed):
        image = np.random.default_rng(seed).random((12, 12))
        assert ssim(image, image) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), scale=st.floats(0.05, 0.5))
    def test_symmetry(self, seed, scale):
        rng = np.random.default_rng(seed)
        a = rng.random((10, 10))
        b = a + scale * rng.normal(size=a.shape)
        forward = ssim(a, b, data_range=1.0)
        backward = ssim(b, a, data_range=1.0)
        assert forward == pytest.approx(backward, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_mse_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.random((6, 6)), rng.random((6, 6))
        assert mse(a, b) >= 0.0
