"""Gaussian kernels and the two convolution routes."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from edgebench import filtering
from edgebench.canny import CannyParams, canny_detect
from edgebench.evaluation import synth_step
from edgebench.filtering import (
    Kernel1D,
    Kernel2D,
    convolve_2d,
    convolve_separable,
    gaussian_kernel_1d,
    check_blur,
    gaussian_radius,
    laplacian_kernel_2d,
    outer_kernel,
)
from edgebench.image_core import GrayImage
from edgebench.marr_hildreth import MHParams, mh_detect

# frozen from direct evaluation of exp(-k^2/2), k = -3..3, normalised
CENTER_TAP_SIGMA1_R3 = 0.3990502796524549

unit_images = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
    elements=st.floats(0.0, 1.0, allow_nan=False),
)


def oracle_gaussian_taps(sigma, radius):
    """Independent route: math.exp plus explicit normalisation."""
    raw = [math.exp(-(k * k) / (2.0 * sigma * sigma)) for k in range(-radius, radius + 1)]
    total = sum(raw)
    return [t / total for t in raw]


class TestGaussianKernel:
    def test_frozen_center_tap(self):
        k = gaussian_kernel_1d(1.0, 3)
        assert k.taps[3] == pytest.approx(CENTER_TAP_SIGMA1_R3, abs=1e-15)

    def test_full_tap_vector_matches_independent_oracle(self):
        k = gaussian_kernel_1d(1.0, 3)
        assert np.allclose(k.taps, oracle_gaussian_taps(1.0, 3), atol=1e-15, rtol=0.0)

    @given(st.floats(0.1, 5.0, allow_nan=False), st.integers(1, 6))
    def test_normalised_and_symmetric(self, sigma, radius):
        k = gaussian_kernel_1d(sigma, radius)
        assert abs(k.taps.sum() - 1.0) <= 1e-12
        assert np.array_equal(k.taps, k.taps[::-1])
        assert k.radius == radius

    @given(st.floats(0.1, 5.0, allow_nan=False), st.integers(1, 6))
    def test_taps_decrease_away_from_center(self, sigma, radius):
        taps = gaussian_kernel_1d(sigma, radius).taps
        center = radius
        for k in range(radius):
            assert taps[center + k] >= taps[center + k + 1]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gaussian_kernel_1d(0.0, 3)
        with pytest.raises(ValueError):
            gaussian_kernel_1d(-1.0, 3)
        with pytest.raises(ValueError):
            gaussian_kernel_1d(1.0, 0)

    @pytest.mark.parametrize("radius", [2.5, 0.5, math.nan, math.inf, -math.inf])
    def test_kernel_refuses_a_radius_that_is_not_a_whole_number_by_value(self, radius):
        with pytest.raises(ValueError, match=re.escape(f"radius must be a whole number of at least 1, got {radius}")):
            gaussian_kernel_1d(1.0, radius)

    @pytest.mark.parametrize("radius", [3, np.int64(3), 3.0])
    def test_kernel_takes_an_integral_radius_of_any_type(self, radius):
        assert gaussian_kernel_1d(1.0, radius).taps.tobytes() == gaussian_kernel_1d(1.0, 3).taps.tobytes()

    def test_default_radius(self):
        assert gaussian_radius(1.0) == 3
        assert gaussian_radius(0.5) == 2
        assert gaussian_radius(1.1) == 4
        with pytest.raises(ValueError):
            gaussian_radius(0.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, 1e308])
    def test_radius_refuses_nan_infinite_and_overflowing_sigma_by_value(self, sigma):
        # 1e308 is finite, but 3*sigma is not, so its radius does not exist
        with pytest.raises(ValueError, match=re.escape(f"got {sigma}")):
            gaussian_radius(sigma)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_kernel_refuses_nan_and_infinite_sigma_by_value(self, sigma):
        with pytest.raises(ValueError, match=f"got {sigma}"):
            gaussian_kernel_1d(sigma, 3)

    @pytest.mark.parametrize("sigma", [1e-300, 5e-324, 1e-162])
    def test_kernel_refuses_sigma_whose_spread_underflows_by_value(self, sigma):
        assert 2.0 * sigma * sigma == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"2*sigma**2 is not 0, got {sigma}")):
                gaussian_kernel_1d(sigma, 1)

    @pytest.mark.parametrize("sigma", [3e-162, 1e-160, 1e-100, 1e-10, 0.05, 0.3, 1.0, 1.4, 3.0, 1e10, 1e200])
    @pytest.mark.parametrize("radius", [1, 4])
    def test_tiny_and_huge_sigma_keep_their_taps_without_warnings(self, sigma, radius):
        # the taps as they were built before: the same expression, warnings off
        offsets = np.arange(-radius, radius + 1, dtype=np.float64)
        with np.errstate(all="ignore"):
            raw = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            taps = gaussian_kernel_1d(sigma, radius).taps
        assert taps.tobytes() == (raw / raw.sum()).tobytes()
        if sigma <= 1e-100:
            assert taps.tolist() == [0.0] * radius + [1.0] + [0.0] * radius


class TestKernelTypes:
    def test_kernel1d_rejects_even_length(self):
        with pytest.raises(ValueError):
            Kernel1D(np.array([1.0, 1.0]))

    def test_kernel1d_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            Kernel1D(np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("taps", [[math.inf], [math.nan], [-math.inf], [1.0, math.inf, 1.0],
                                      [math.nan, 1.0, math.nan]])
    def test_kernel1d_rejects_non_finite_taps(self, taps):
        with pytest.raises(ValueError, match="1-D kernel taps must be finite"):
            Kernel1D(np.array(taps))

    @pytest.mark.parametrize("taps", [[[math.nan]], [[math.inf]], [[0.0, 1.0, 0.0], [1.0, -math.inf, 1.0],
                                                                   [0.0, 1.0, 0.0]]])
    def test_kernel2d_rejects_non_finite_taps(self, taps):
        with pytest.raises(ValueError, match="2-D kernel taps must be finite"):
            Kernel2D(np.array(taps))

    def test_kernel2d_rejects_non_square_or_even(self):
        with pytest.raises(ValueError):
            Kernel2D(np.zeros((3, 5)))
        with pytest.raises(ValueError):
            Kernel2D(np.zeros((4, 4)))

    def test_outer_kernel_is_elementwise_product(self):
        ky = gaussian_kernel_1d(1.0, 2)
        kx = gaussian_kernel_1d(0.7, 2)
        k2 = outer_kernel(ky, kx)
        for i in range(5):
            for j in range(5):
                assert k2.taps[i, j] == ky.taps[i] * kx.taps[j]

    def test_laplacian_stencil(self):
        k = laplacian_kernel_2d()
        assert k.taps.sum() == 0.0
        assert k.taps[1, 1] == -4.0
        assert k.taps[0, 1] == k.taps[1, 0] == k.taps[1, 2] == k.taps[2, 1] == 1.0
        assert k.taps[0, 0] == k.taps[0, 2] == k.taps[2, 0] == k.taps[2, 2] == 0.0


class TestConvolution:
    def test_constant_image_is_preserved(self):
        k = gaussian_kernel_1d(1.3, 4)
        img = GrayImage(np.full((6, 9), 0.37))
        out = convolve_separable(img, k, k)
        assert np.allclose(out.pixels, 0.37, atol=1e-12, rtol=0.0)

    def test_impulse_stamps_outer_product(self):
        ky = gaussian_kernel_1d(1.0, 2)
        kx = gaussian_kernel_1d(1.5, 2)
        px = np.zeros((9, 9))
        px[4, 4] = 1.0
        out = convolve_separable(GrayImage(px), kx, ky).pixels
        assert np.allclose(out[2:7, 2:7], np.outer(ky.taps, kx.taps), atol=1e-15, rtol=0.0)
        assert out[0, 0] == 0.0
        assert out[8, 8] == 0.0

    def test_zero_sum_kernel_annihilates_constants(self):
        out = convolve_2d(GrayImage(np.full((5, 5), 0.8)), laplacian_kernel_2d())
        assert np.all(out.pixels == 0.0)

    def test_identity_kernel(self):
        ident = Kernel2D(np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
        rng = np.random.default_rng(0)
        px = rng.random((7, 5))
        out = convolve_2d(GrayImage(px), ident)
        assert np.array_equal(out.pixels, px)

    def test_quadratic_patch_through_laplacian(self):
        """x^2 sampled on a row has constant second difference 2."""
        xs = np.arange(7, dtype=np.float64)
        px = np.tile(xs**2, (5, 1))
        out = convolve_2d(GrayImage(px), laplacian_kernel_2d())
        assert np.all(out.pixels[:, 1:-1] == 2.0)

    def test_separable_matches_2d_reference(self):
        rng = np.random.default_rng(42)
        img = GrayImage(rng.random((8, 8)))
        k = gaussian_kernel_1d(1.2, 3)
        sep = convolve_separable(img, k, k)
        ref = convolve_2d(img, outer_kernel(k, k))
        assert np.abs(sep.pixels - ref.pixels).max() <= 1e-9

    def test_separable_matches_2d_with_distinct_kernels(self):
        rng = np.random.default_rng(43)
        img = GrayImage(rng.random((11, 6)))
        kx = gaussian_kernel_1d(0.8, 2)
        ky = gaussian_kernel_1d(2.1, 4)
        sep = convolve_separable(img, kx, ky)
        # Kernel2D is square-only, so widen the short axis with zero taps;
        # zero taps contribute nothing and edge padding is unaffected
        padded = np.zeros(len(ky.taps))
        padded[2:7] = kx.taps
        ref = convolve_2d(img, Kernel2D(np.outer(ky.taps, padded)))
        assert np.abs(sep.pixels - ref.pixels).max() <= 1e-9

    def test_single_pixel_image(self):
        k = gaussian_kernel_1d(1.0, 3)
        out = convolve_separable(GrayImage(np.array([[0.6]])), k, k)
        assert out.pixels[0, 0] == pytest.approx(0.6, abs=1e-12)

    @given(unit_images, st.floats(-2, 2), st.floats(-2, 2))
    def test_linearity(self, px_a, a, b):
        px_b = np.flip(px_a) * 0.7 + 0.1
        k = gaussian_kernel_1d(1.0, 2)
        mixed = convolve_separable(GrayImage(a * px_a + b * px_b), k, k).pixels
        parts = a * convolve_separable(GrayImage(px_a), k, k).pixels \
            + b * convolve_separable(GrayImage(px_b), k, k).pixels
        assert np.allclose(mixed, parts, atol=1e-9, rtol=0.0)

    def test_shift_covariance_in_the_interior(self):
        rng = np.random.default_rng(7)
        block = rng.random((5, 5))
        a = np.zeros((20, 20))
        b = np.zeros((20, 20))
        a[3:8, 4:9] = block
        b[6:11, 9:14] = block  # same block shifted by (3, 5)
        k = gaussian_kernel_1d(1.0, 3)
        oa = convolve_separable(GrayImage(a), k, k).pixels
        ob = convolve_separable(GrayImage(b), k, k).pixels
        # compare where both stencils stay off the replicated borders
        assert np.array_equal(oa[3:14, 3:14], ob[6:17, 8:19])

    @given(unit_images)
    def test_smoothing_reduces_total_variation(self, px):
        k = gaussian_kernel_1d(1.0, 3)
        out = convolve_separable(GrayImage(px), k, k).pixels

        def tv(p):
            return np.abs(np.diff(p, axis=0)).sum() + np.abs(np.diff(p, axis=1)).sum()

        assert tv(out) <= tv(px) + 1e-12


class TestRadiusCap:
    """check_blur refuses a radius above filtering._MAX_RADIUS, given or
    the default ceil(3*sigma), before any kernel is built; the tests that
    reach the cap patch it small, so no large kernel is ever sampled."""

    def test_the_cap_is_4096(self):
        assert filtering._MAX_RADIUS == 4096
        check_blur(1.0, 4096)
        check_blur(4096 / 3)

    @pytest.mark.parametrize("radius", [4097, 10**9, 1e300, np.int64(2**40)])
    def test_a_radius_past_the_cap_is_refused_by_value_before_any_kernel(self, radius):
        message = re.escape(f"radius must be at most 4096, got {radius}")
        for build in (lambda: check_blur(1.0, radius), lambda: gaussian_kernel_1d(1.0, radius),
                      lambda: CannyParams(radius=radius), lambda: MHParams(radius=radius)):
            with pytest.raises(ValueError, match=message):
                build()

    @pytest.mark.parametrize("sigma", [1366.0, 1e10, 1e300])
    def test_a_default_radius_past_the_cap_is_refused_by_value(self, sigma):
        message = re.escape(f"radius must be at most 4096, got ceil(3*sigma) = {math.ceil(3 * sigma)} for sigma {sigma}")
        for build in (lambda: check_blur(sigma), lambda: CannyParams(sigma=sigma), lambda: MHParams(sigma=sigma)):
            with pytest.raises(ValueError, match=message):
                build()

    def test_a_patched_cap_refuses_just_past_it_and_keeps_the_bytes_up_to_it(self, monkeypatch):
        scene = synth_step(24, 24, 12, 0.5)
        before = [canny_detect(scene.image, CannyParams(radius=r)).mask.tobytes() for r in (3, 4)]
        before += [mh_detect(scene.image, MHParams(sigma=1.0)).mask.tobytes()]
        monkeypatch.setattr(filtering, "_MAX_RADIUS", 4)
        after = [canny_detect(scene.image, CannyParams(radius=r)).mask.tobytes() for r in (3, 4)]
        after += [mh_detect(scene.image, MHParams(sigma=1.0)).mask.tobytes()]
        assert after == before
        with pytest.raises(ValueError, match=re.escape("radius must be at most 4, got 5")):
            CannyParams(radius=5)
        with pytest.raises(ValueError, match=re.escape("radius must be at most 4, got 5")):
            gaussian_kernel_1d(1.0, 5)
        # sigma 1.4 defaults to radius 5
        with pytest.raises(ValueError, match=re.escape("got ceil(3*sigma) = 5 for sigma 1.4")):
            MHParams(sigma=1.4)
