"""Gradient, non-maximal suppression, hysteresis, and the full Canny chain."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from edgebench.canny import (
    CannyParams,
    EdgeMap,
    GradientField,
    canny_detect,
    gradient,
    hysteresis,
    nonmax_suppress,
    thinned_magnitude,
)
from edgebench.cli import run
from edgebench.evaluation import synth_step
from edgebench.filtering import convolve_separable, gaussian_kernel_1d
from edgebench.image_core import GrayImage, read_image, write_image

magnitude_planes = hnp.arrays(
    np.float64,
    st.tuples(st.integers(3, 10), st.integers(3, 10)),
    elements=st.floats(0.0, 1.0, allow_nan=False),
)

SMALL_SHAPES = [(1, 1), (1, 9), (9, 1), (2, 2), (2, 9)]
SMALL_IDS = [f"{h}x{w}" for h, w in SMALL_SHAPES]


def field_from_gx(gx):
    return GradientField(gx, np.zeros_like(np.asarray(gx, dtype=np.float64)))


class TestGradient:
    def test_constant_image(self):
        g = gradient(GrayImage(np.full((4, 5), 0.3)))
        assert np.all(g.gx == 0.0)
        assert np.all(g.gy == 0.0)
        assert np.all(g.magnitude == 0.0)

    def test_horizontal_ramp(self):
        s = 0.125
        px = s * np.arange(8, dtype=np.float64)[None, :].repeat(6, axis=0)
        g = gradient(GrayImage(px))
        interior = np.s_[1:-1, 1:-1]
        assert np.allclose(g.gx[interior], s, atol=1e-12, rtol=0.0)
        assert np.all(g.gy == 0.0)
        assert np.all(np.arctan2(g.gy, g.gx)[interior] == 0.0)

    def test_vertical_step_halves_the_height(self):
        h = 0.5
        px = np.zeros((8, 8))
        px[:, 4:] = h
        g = gradient(GrayImage(px))
        interior_rows = np.s_[1:-1]
        assert np.all(g.gx[interior_rows, 3] == h / 2)
        assert np.all(g.gx[interior_rows, 4] == h / 2)
        assert np.all(g.gx[interior_rows, :3] == 0.0)
        assert np.all(g.gx[interior_rows, 5:] == 0.0)
        assert np.all(g.magnitude[interior_rows, 3] == h / 2)

    def test_replicated_borders_make_edge_columns_zero(self):
        px = np.tile(np.arange(5, dtype=np.float64), (4, 1))
        g = gradient(GrayImage(px))
        # column 0 sees (I[1] - I[0]) / 2 under replication
        assert np.all(g.gx[:, 0] == 0.5)
        assert np.all(g.gy[0, :] == 0.0)

    @pytest.mark.parametrize("shape", SMALL_SHAPES, ids=SMALL_IDS)
    def test_images_below_3_px_give_an_empty_canny_map(self, shape, tmp_path):
        # every pixel is a border pixel, and NMS suppresses the border
        px = np.random.default_rng(5).random(shape)
        g = gradient(GrayImage(px))
        assert g.gx.shape == shape
        em = canny_detect(GrayImage(px), CannyParams(1.0, 0.0, 0.0))
        assert em.mask.shape == shape
        assert em.count == 0
        src, out = tmp_path / "small.pgm", tmp_path / "edges.pgm"
        write_image(GrayImage(px), src)
        assert run(["detect", "--detector", "canny", "--in", str(src), "--out", str(out),
                    "--low", "0", "--high", "0"]) == 0
        written = read_image(out)
        assert written.pixels.shape == shape
        assert not written.pixels.any()

    def test_field_invariants_from_components(self):
        rng = np.random.default_rng(1)
        gx = rng.normal(size=(6, 7))
        gy = rng.normal(size=(6, 7))
        g = GradientField(gx, gy)
        assert np.array_equal(g.magnitude, np.hypot(gx, gy))
        assert np.all(g.magnitude >= 0.0)
        for plane in (g.gx, g.gy, g.magnitude):
            assert not plane.flags.writeable

    def test_magnitude_is_derived_not_passed(self):
        z = np.zeros((3, 3))
        with pytest.raises(TypeError):
            GradientField(z, z, z + 1.0)

    def test_field_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            GradientField(gx=np.zeros((3, 3)), gy=np.zeros((3, 4)))


class TestNonmaxSuppress:
    def test_isolated_peak_is_preserved(self):
        gx = np.zeros((7, 7))
        gx[3, 3] = 0.7
        out = nonmax_suppress(field_from_gx(gx)).pixels
        assert out[3, 3] == 0.7
        assert out.sum() == 0.7

    def test_borders_are_suppressed(self):
        gx = np.full((5, 5), 0.4)
        gx[2, 2] = 0.9
        out = nonmax_suppress(field_from_gx(gx)).pixels
        assert np.all(out[0, :] == 0.0)
        assert np.all(out[-1, :] == 0.0)
        assert np.all(out[:, 0] == 0.0)
        assert np.all(out[:, -1] == 0.0)

    def test_equal_run_keeps_first_pixel_along_direction(self):
        # direction +x; the run member whose backward neighbour is off-run wins
        gx = np.zeros((5, 7))
        gx[2, 2:5] = 0.5
        out = nonmax_suppress(field_from_gx(gx)).pixels
        marked = np.argwhere(out > 0)
        assert marked.tolist() == [[2, 2]]

    def test_equal_run_against_negative_direction(self):
        # gradient pointing -x flips which end of the run survives
        gx = np.zeros((5, 7))
        gx[2, 2:5] = -0.5
        out = nonmax_suppress(field_from_gx(gx)).pixels
        marked = np.argwhere(out > 0)
        assert marked.tolist() == [[2, 4]]

    def test_vertical_direction_run(self):
        gy = np.zeros((7, 5))
        gy[2:5, 2] = 0.5
        g = GradientField(np.zeros_like(gy), gy)
        out = nonmax_suppress(g).pixels
        assert np.argwhere(out > 0).tolist() == [[2, 2]]

    def test_smoothed_step_keeps_one_pixel_per_row(self):
        scene = synth_step(32, 32, 16, 0.5)
        k = gaussian_kernel_1d(1.0, 3)
        g = gradient(convolve_separable(scene.image, k, k))
        out = nonmax_suppress(g).pixels
        for y in range(1, 31):
            cols = np.nonzero(out[y])[0]
            assert cols.tolist() == [15]
            # survivor carries the row maximum of the magnitude plane
            assert out[y, 15] == g.magnitude[y].max()

    def test_suppression_soundness(self):
        """Zeroed interior pixels always have an interpolated sample >= themselves.

        The oracle recomputes the two samples from the direction angle, an
        independent route from the gx/gy ratio arithmetic inside.
        """
        rng = np.random.default_rng(11)
        gx = rng.normal(size=(9, 9))
        gy = rng.normal(size=(9, 9))
        g = GradientField(gx, gy)
        out = nonmax_suppress(g).pixels
        mag = g.magnitude

        def sample(y, x, ux, uy):
            # bilinear along the dominant axis quadrant
            if abs(ux) >= abs(uy):
                sx = 1 if ux >= 0 else -1
                t = abs(uy / ux) if ux != 0 else 0.0
                sy = 1 if uy >= 0 else -1
                return (1 - t) * mag[y, x + sx] + t * mag[y + sy, x + sx]
            sy = 1 if uy >= 0 else -1
            t = abs(ux / uy)
            sx = 1 if ux >= 0 else -1
            return (1 - t) * mag[y + sy, x] + t * mag[y + sy, x + sx]

        for y in range(1, 8):
            for x in range(1, 8):
                if out[y, x] != 0.0 or mag[y, x] == 0.0:
                    continue
                angle = math.atan2(gy[y, x], gx[y, x])
                ux = math.cos(angle)
                uy = math.sin(angle)
                best = max(sample(y, x, ux, uy), sample(y, x, -ux, -uy))
                assert best >= mag[y, x] - 1e-9

    def test_survivors_keep_their_magnitude(self):
        rng = np.random.default_rng(12)
        g = GradientField(rng.normal(size=(8, 8)), rng.normal(size=(8, 8)))
        out = nonmax_suppress(g).pixels
        kept = out > 0
        assert np.array_equal(out[kept], g.magnitude[kept])


class TestHysteresis:
    def test_everything_at_or_below_low_is_dropped(self):
        plane = GrayImage(np.full((4, 4), 0.2))
        assert hysteresis(plane, 0.2, 0.5).count == 0

    def test_single_seed_is_marked_alone(self):
        px = np.zeros((5, 5))
        px[2, 2] = 0.9
        em = hysteresis(GrayImage(px), 0.1, 0.5)
        assert em.count == 1
        assert em.mask[2, 2]

    def test_chain_propagates_from_the_seed(self):
        px = np.zeros((3, 6))
        px[1, 1:4] = [0.51, 0.11, 0.11]
        em = hysteresis(GrayImage(px), 0.1, 0.5)
        assert em.mask[1, 1:4].tolist() == [True, True, True]
        assert em.count == 3

    def test_chain_without_its_seed_vanishes(self):
        px = np.zeros((3, 6))
        px[1, 2:4] = [0.11, 0.11]
        assert hysteresis(GrayImage(px), 0.1, 0.5).count == 0

    def test_propagation_is_8_connected(self):
        px = np.zeros((4, 4))
        px[0, 0] = 0.9
        px[1, 1] = 0.2
        px[2, 2] = 0.2
        px[3, 3] = 0.2
        em = hysteresis(GrayImage(px), 0.1, 0.5)
        assert em.count == 4

    def test_thresholds_are_strict(self):
        px = np.zeros((3, 3))
        px[1, 1] = 0.5
        assert hysteresis(GrayImage(px), 0.1, 0.5).count == 0  # == high is no seed
        px[1, 1] = 0.5000001
        assert hysteresis(GrayImage(px), 0.1, 0.5).count == 1

    def test_low_above_high_rejected(self):
        with pytest.raises(ValueError):
            hysteresis(GrayImage(np.zeros((3, 3))), 0.6, 0.5)

    @pytest.mark.parametrize("low, high", [(math.nan, 0.5), (0.1, math.nan), (math.nan, math.nan),
                                           (-math.inf, 0.5)])
    def test_nan_or_negative_infinite_thresholds_rejected_by_value(self, low, high):
        with pytest.raises(ValueError, match=f"low={low}, high={high}"):
            hysteresis(GrayImage(np.zeros((3, 3))), low, high)

    @given(magnitude_planes, st.floats(0.0, 0.5), st.floats(0.0, 0.4), st.floats(0.0, 0.4))
    def test_monotonicity_in_both_thresholds(self, px, low, dh1, dh2):
        plane = GrayImage(px)
        h1, h2 = low + min(dh1, dh2), low + max(dh1, dh2)
        wide = hysteresis(plane, low, h1).mask
        narrow = hysteresis(plane, low, h2).mask
        assert not np.any(narrow & ~wide)  # raising high never adds pixels

    @given(magnitude_planes, st.floats(0.0, 1.0))
    def test_low_equals_high_is_simple_threshold(self, px, t):
        em = hysteresis(GrayImage(px), t, t)
        assert np.array_equal(em.mask, px > t)

    @given(magnitude_planes, st.floats(0.0, 0.3), st.floats(0.0, 0.3), st.floats(0.3, 1.0))
    def test_nesting_in_low(self, px, l1, l2, high):
        plane = GrayImage(px)
        lo, hi_lo = min(l1, l2), max(l1, l2)
        big = hysteresis(plane, lo, high).mask
        small = hysteresis(plane, hi_lo, high).mask
        assert not np.any(small & ~big)


class TestCannyDetect:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixels_are_refused_with_a_clear_message(self, bad):
        px = synth_step(16, 16, 8, 0.5).image.pixels.copy()
        px[5, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            canny_detect(GrayImage(px), CannyParams())

    def test_constant_image_has_no_edges(self):
        assert canny_detect(GrayImage(np.full((10, 10), 0.6)),
                            CannyParams(1.0, 0.05, 0.15)).count == 0

    def test_clean_step_is_one_pixel_per_interior_row(self):
        scene = synth_step(64, 64, 32, 0.5)
        em = canny_detect(scene.image, CannyParams(1.0, 0.05, 0.15))
        for y in range(1, 63):
            cols = np.nonzero(em.mask[y])[0]
            assert len(cols) == 1
            assert abs(int(cols[0]) - 32) <= 1

    def test_unreachable_high_threshold_gives_empty_map(self):
        scene = synth_step(64, 64, 32, 0.5)
        peak = thinned_magnitude(scene.image, 1.0).pixels.max()
        em = canny_detect(scene.image, CannyParams(1.0, 0.01, peak + 1.0))
        assert em.count == 0

    def test_contrast_covariance_is_bit_exact_at_half(self):
        scene = synth_step(48, 48, 20, 0.8)
        a = canny_detect(scene.image, CannyParams(1.0, 0.05, 0.15))
        b = canny_detect(GrayImage(scene.image.pixels * 0.5),
                         CannyParams(1.0, 0.025, 0.075))
        assert np.array_equal(a.mask, b.mask)

    def test_rotation_consistency(self):
        rng = np.random.default_rng(99)
        base = synth_step(24, 24, 10, 0.6).image.pixels
        noisy = np.clip(base + rng.normal(0, 0.05, base.shape), 0, 1)
        params = CannyParams(1.0, 0.05, 0.15)
        e0 = canny_detect(GrayImage(noisy), params).mask
        for k in (1, 2, 3):
            ek = canny_detect(GrayImage(np.rot90(noisy, k)), params).mask
            assert np.array_equal(np.rot90(ek, -k), e0)

    def test_explicit_radius_overrides_the_default(self):
        scene = synth_step(32, 32, 16, 0.5)
        default = canny_detect(scene.image, CannyParams(1.0, 0.05, 0.15))
        wide = canny_detect(scene.image, CannyParams(1.0, 0.05, 0.15, radius=8))
        assert default.count > 0
        assert wide.count > 0

    def test_params_validation_names_the_thresholds(self):
        with pytest.raises(ValueError, match=r"0\.2.*0\.1"):
            CannyParams(1.0, 0.2, 0.1)
        with pytest.raises(ValueError):
            CannyParams(0.0, 0.05, 0.15)
        with pytest.raises(ValueError):
            CannyParams(1.0, -0.01, 0.15)
        with pytest.raises(ValueError):
            CannyParams(1.0, 0.05, 0.15, radius=0)

    @pytest.mark.parametrize("field, value", [
        ("sigma", math.inf), ("sigma", -math.inf), ("sigma", math.nan),
        ("low", math.nan), ("low", -math.inf), ("high", math.nan),
    ])
    def test_params_refuse_nan_and_infinite_values_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field}={value}" if field != "sigma" else f"got {value}"):
            CannyParams(**{field: value})

    @pytest.mark.parametrize("radius", [2.5, math.nan, math.inf])
    def test_params_refuse_a_radius_that_is_not_a_whole_number_by_value(self, radius):
        with pytest.raises(ValueError, match=f"radius must be a whole number of at least 1, got {radius}"):
            CannyParams(radius=radius)

    @pytest.mark.parametrize("radius", [3, np.int64(3), 3.0])
    def test_params_take_an_integral_radius_of_any_type(self, radius):
        scene = synth_step(16, 16, 8, 0.5)
        expected = canny_detect(scene.image, CannyParams(radius=3)).mask
        assert np.array_equal(canny_detect(scene.image, CannyParams(radius=radius)).mask, expected)

    def test_thinned_magnitude_is_the_detector_front_end(self):
        scene = synth_step(32, 32, 16, 0.5)
        thin = thinned_magnitude(scene.image, 1.0)
        em = canny_detect(scene.image, CannyParams(1.0, 0.05, 0.15))
        assert np.array_equal(em.mask, hysteresis(thin, 0.05, 0.15).mask)
