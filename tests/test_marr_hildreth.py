"""Laplacian-of-smoothed response and zero-crossing detection."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from edgebench import canny, filtering, marr_hildreth
from edgebench.evaluation import synth_step
from edgebench.image_core import GrayImage
from edgebench.marr_hildreth import (
    MHParams,
    crossing_slope_map,
    laplacian_of_smoothed,
    mh_detect,
    zero_crossings,
)

response_planes = hnp.arrays(
    np.float64,
    st.tuples(st.integers(2, 9), st.integers(2, 9)),
    elements=st.floats(-1.0, 1.0, allow_nan=False),
)


def smoothed_step_second_difference(width, column, contrast, sigma=1.0, radius=3):
    """1-D oracle built with plain loops: clamp-padded Gaussian smoothing of a
    step profile followed by the second difference l + r - 2c."""

    lo, hi = 0.5 - contrast / 2, 0.5 + contrast / 2
    raw = [math.exp(-(k * k) / (2 * sigma * sigma)) for k in range(-radius, radius + 1)]
    total = sum(raw)
    taps = [t / total for t in raw]
    profile = [lo if x < column else hi for x in range(width)]

    def clamped(x):
        return profile[min(max(x, 0), width - 1)]

    smoothed = []
    for x in range(width):
        acc = 0.0
        for k in range(-radius, radius + 1):
            acc += taps[k + radius] * clamped(x + k)
        smoothed.append(acc)

    second = []
    for x in range(width):
        l = smoothed[max(x - 1, 0)]
        r = smoothed[min(x + 1, width - 1)]
        second.append(l + r - 2 * smoothed[x])
    return second


class TestLaplacianOfSmoothed:
    def test_constant_image_gives_exact_zeros(self):
        resp = laplacian_of_smoothed(GrayImage(np.full((8, 8), 0.4)), 1.0)
        assert np.all(resp.pixels == 0.0)

    def test_linear_ramp_interior_is_zero(self):
        y, x = np.mgrid[0:16, 0:16]
        px = 0.02 * x + 0.03 * y
        resp = laplacian_of_smoothed(GrayImage(px), 1.0)
        # kernel radius 3 plus the stencil touches 4 border pixels
        assert np.abs(resp.pixels[4:-4, 4:-4]).max() < 1e-12

    def test_step_row_matches_1d_oracle(self):
        scene = synth_step(32, 9, 16, 0.5)
        resp = laplacian_of_smoothed(scene.image, 1.0)
        oracle = smoothed_step_second_difference(32, 16, 0.5)
        assert np.allclose(resp.pixels[4], oracle, atol=1e-12, rtol=0.0)

    def test_step_response_is_antisymmetric_with_one_sign_change(self):
        scene = synth_step(32, 9, 16, 0.5)
        row = laplacian_of_smoothed(scene.image, 1.0).pixels[4]
        # antisymmetry about the midpoint between columns 15 and 16
        for k in range(10):
            assert row[16 + k] == pytest.approx(-row[15 - k], abs=1e-12)
        signs = np.sign(row[np.nonzero(row)])
        flips = np.count_nonzero(signs[1:] != signs[:-1])
        assert flips == 1

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            laplacian_of_smoothed(GrayImage(np.zeros((4, 4))), 0.0)

    def test_response_type_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            GrayImage(np.zeros(4))


class TestZeroCrossings:
    def test_all_positive_response_is_empty(self):
        resp = GrayImage(np.ones((4, 4)))
        assert zero_crossings(resp, 0.0).count == 0

    def test_threshold_above_global_max_difference_is_empty(self):
        resp = GrayImage(np.array([[0.4, -0.4], [0.1, -0.1]]))
        assert zero_crossings(resp, 10.0).count == 0

    def test_opposite_pair_marks_by_slope(self):
        resp = GrayImage(np.array([[0.4, -0.4]]))
        marked = zero_crossings(resp, 0.5)
        assert marked.count == 1
        assert marked.mask[0, 0]  # tie on |value| goes to the earlier pixel
        assert zero_crossings(resp, 0.9).count == 0

    def test_smaller_magnitude_member_is_marked(self):
        resp = GrayImage(np.array([[0.7, -0.2]]))
        assert zero_crossings(resp, 0.0).mask.tolist() == [[False, True]]
        resp = GrayImage(np.array([[0.2, -0.7]]))
        assert zero_crossings(resp, 0.0).mask.tolist() == [[True, False]]

    def test_vertical_pairs_are_scanned_too(self):
        resp = GrayImage(np.array([[0.3], [-0.4]]))
        em = zero_crossings(resp, 0.0)
        assert em.mask.tolist() == [[True], [False]]

    def test_exact_zero_between_opposite_signs(self):
        resp = GrayImage(np.array([[0.3, 0.0, -0.5]]))
        em = zero_crossings(resp, 0.7)
        assert em.mask.tolist() == [[False, True, False]]
        assert zero_crossings(resp, 0.9).count == 0

    def test_exact_zero_between_same_signs_is_not_a_crossing(self):
        resp = GrayImage(np.array([[0.3, 0.0, 0.5]]))
        assert zero_crossings(resp, 0.0).count == 0

    def test_zero_against_nonzero_pair_is_not_opposite_signed(self):
        resp = GrayImage(np.array([[0.0, -0.5]]))
        assert zero_crossings(resp, 0.0).count == 0

    def test_slope_is_the_pair_difference(self):
        slopes = crossing_slope_map(GrayImage(np.array([[0.4, -0.4]])))
        assert slopes.pixels[0, 0] == pytest.approx(0.8, abs=1e-15)

    def test_pixel_reached_by_two_crossings_keeps_the_larger_slope(self):
        resp = GrayImage(np.array([
            [0.0, 0.9, 0.0],
            [0.8, -0.1, 0.05],
            [0.0, 0.2, 0.0],
        ]))
        slopes = crossing_slope_map(resp).pixels
        # centre participates in crossings of slopes 1.0, 0.9, 0.15 and 0.3
        assert slopes[1, 1] == pytest.approx(1.0, abs=1e-15)

    def test_huge_same_signed_neighbours_are_no_crossing_and_warn_nothing(self):
        # |a| + |b| of a same-signed pair overflows here, but it never lands
        for px in (np.full((3, 4), 1e308), np.full((4, 3), -1e308), np.array([[1e308, 0.0, 1e308]])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert not crossing_slope_map(GrayImage(px)).pixels.any()
                assert zero_crossings(GrayImage(px), 0.0).count == 0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            zero_crossings(GrayImage(np.zeros((3, 3))), -0.1)

    @pytest.mark.parametrize("threshold", [math.nan, -math.inf])
    def test_nan_or_negative_infinite_threshold_rejected_by_value(self, threshold):
        with pytest.raises(ValueError, match=f"got {threshold}"):
            zero_crossings(GrayImage(np.zeros((3, 3))), threshold)

    @given(response_planes, st.floats(0.0, 0.5), st.floats(0.0, 0.5))
    def test_raising_the_threshold_never_adds_pixels(self, values, t1, t2):
        resp = GrayImage(values)
        lo_t, hi_t = min(t1, t2), max(t1, t2)
        wide = zero_crossings(resp, lo_t).mask
        narrow = zero_crossings(resp, hi_t).mask
        assert not np.any(narrow & ~wide)

    @given(response_planes)
    def test_marked_pixels_sit_on_sign_changes(self, values):
        resp = GrayImage(values)
        em = zero_crossings(resp, 0.0)
        v = values
        h, w = v.shape
        for y, x in np.argwhere(em.mask):
            neighbours = []
            if x > 0:
                neighbours.append(v[y, x - 1])
            if x < w - 1:
                neighbours.append(v[y, x + 1])
            if y > 0:
                neighbours.append(v[y - 1, x])
            if y < h - 1:
                neighbours.append(v[y + 1, x])
            own = v[y, x]

            # compare signs, not products: tiny products underflow to zero
            def opposite(a, b):
                return (a < 0.0 < b) or (b < 0.0 < a)

            touches_opposite = any(opposite(own, n) for n in neighbours)
            straddled_zero = own == 0.0 and (
                (0 < x < w - 1 and opposite(v[y, x - 1], v[y, x + 1]))
                or (0 < y < h - 1 and opposite(v[y - 1, x], v[y + 1, x]))
            )
            assert touches_opposite or straddled_zero


class TestMhDetect:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("params", [MHParams(), MHParams(use_hysteresis=True, low=0.01, high=0.05)])
    def test_non_finite_pixels_are_refused_with_a_clear_message(self, bad, params):
        px = synth_step(16, 16, 8, 0.5).image.pixels.copy()
        px[5, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            mh_detect(GrayImage(px), params)

    @pytest.mark.parametrize("params", [MHParams(slope_threshold=0.02), MHParams(use_hysteresis=True, low=0.01, high=0.05)])
    def test_builds_no_slope_plane_and_links_by_seed_labels(self, monkeypatch, params):
        scene = synth_step(40, 40, 20, 0.5)
        expected = mh_detect(scene.image, params).mask
        assert expected.any()

        def absent(*args):
            raise AssertionError("the detector must not build this plane")

        for module, name in ((filtering, "convolve_2d"), (marr_hildreth, "crossing_slope_map"),
                             (marr_hildreth, "_crossing_slopes"), (canny, "component_maxima")):
            monkeypatch.setattr(module, name, absent)
        assert np.array_equal(mh_detect(scene.image, params).mask, expected)

    def test_constant_image_any_params(self):
        img = GrayImage(np.full((12, 12), 0.5))
        assert mh_detect(img, MHParams()).count == 0
        assert mh_detect(img, MHParams(use_hysteresis=True, low=0.0, high=0.1)).count == 0

    def test_clean_step_marks_every_row_near_the_column(self):
        scene = synth_step(64, 64, 32, 0.5)
        em = mh_detect(scene.image, MHParams(sigma=1.0, slope_threshold=0.0))
        for y in range(64):
            cols = np.nonzero(em.mask[y])[0]
            assert len(cols) >= 1
            assert np.all(np.abs(cols - 32) <= 1)

    def test_degenerate_hysteresis_equals_thresholdless(self):
        scene = synth_step(64, 64, 32, 0.5)
        plain = mh_detect(scene.image, MHParams(sigma=1.0, slope_threshold=0.0))
        linked = mh_detect(scene.image, MHParams(sigma=1.0, use_hysteresis=True,
                                                 low=0.0, high=0.0))
        assert np.array_equal(plain.mask, linked.mask)

    def test_hysteresis_variant_uses_the_pair(self):
        scene = synth_step(64, 64, 32, 0.5)
        tight = mh_detect(scene.image, MHParams(sigma=1.0, use_hysteresis=True,
                                                low=0.1, high=10.0))
        assert tight.count == 0

    def test_contrast_covariance_is_bit_exact_at_half(self):
        scene = synth_step(48, 48, 24, 0.8)
        a = mh_detect(scene.image, MHParams(sigma=1.0, slope_threshold=0.02))
        b = mh_detect(GrayImage(scene.image.pixels * 0.5),
                      MHParams(sigma=1.0, slope_threshold=0.01))
        assert a.count > 0
        assert np.array_equal(a.mask, b.mask)

    def test_response_scales_linearly_with_intensity(self):
        rng = np.random.default_rng(2)
        px = rng.random((10, 10))
        r1 = laplacian_of_smoothed(GrayImage(px), 1.0).pixels
        r2 = laplacian_of_smoothed(GrayImage(px * 0.5), 1.0).pixels
        assert np.array_equal(r2, r1 * 0.5)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            MHParams(sigma=0.0)
        with pytest.raises(ValueError):
            MHParams(slope_threshold=-0.1)
        with pytest.raises(ValueError):
            MHParams(use_hysteresis=True, low=0.5, high=0.1)
        with pytest.raises(ValueError):
            MHParams(low=-0.1)
        with pytest.raises(ValueError):
            MHParams(radius=0)
        # low > high is irrelevant when hysteresis is off
        MHParams(use_hysteresis=False, low=0.5, high=0.1)

    @pytest.mark.parametrize("field, value", [
        ("sigma", math.inf), ("sigma", -math.inf), ("sigma", math.nan),
        ("slope_threshold", math.nan), ("low", math.nan), ("high", math.nan),
    ])
    @pytest.mark.parametrize("use_hysteresis", [False, True])
    def test_params_refuse_nan_and_infinite_values_by_name(self, field, value, use_hysteresis):
        with pytest.raises(ValueError, match=f"{field}={value}" if field in ("low", "high") else f"got {value}"):
            MHParams(use_hysteresis=use_hysteresis, **{field: value})

    @pytest.mark.parametrize("radius", [2.5, math.nan, math.inf])
    def test_params_refuse_a_radius_that_is_not_a_whole_number_by_value(self, radius):
        with pytest.raises(ValueError, match=f"radius must be a whole number of at least 1, got {radius}"):
            MHParams(radius=radius)

    @pytest.mark.parametrize("radius", [3, np.int64(3), 3.0])
    def test_params_take_an_integral_radius_of_any_type(self, radius):
        scene = synth_step(16, 16, 8, 0.5)
        expected = mh_detect(scene.image, MHParams(radius=3)).mask
        assert np.array_equal(mh_detect(scene.image, MHParams(radius=radius)).mask, expected)
