"""Scene generators, scoring, tuning helpers, and report serialisation."""

import functools
import gc
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from edgebench import canny, evaluation, filtering, marr_hildreth
from edgebench.canny import CannyParams, canny_detect
from edgebench.evaluation import (
    CSV_COLUMNS,
    THRESHOLD_GRID,
    EvalReport,
    Scene,
    add_gaussian_noise,
    circle_scene,
    comparison_record,
    count_components,
    f_score,
    noisy_step_suite,
    rectangle_scene,
    records_to_csv,
    records_to_json,
    run_comparison,
    score,
    synth_circle,
    synth_rectangle,
    synth_step,
    tune_canny,
    tune_mh,
)
from edgebench.image_core import EdgeMap, GrayImage
from edgebench.marr_hildreth import MHParams, mh_detect
from oracles import erosion_ring


def count_calls(monkeypatch, calls: dict, module, name: str) -> None:
    """Wrap module.<name> so that calls[name] counts its calls."""
    original = getattr(module, name)
    calls[name] = 0

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def count_calls_everywhere(monkeypatch, calls: dict, module, name: str) -> None:
    """count_calls, rebinding module.<name> in every edgebench module that
    imported it, so calls count whichever module makes them."""
    original = getattr(module, name)
    count_calls(monkeypatch, calls, module, name)
    for other in (canny, evaluation, filtering, marr_hildreth):
        if getattr(other, name, None) is original:
            monkeypatch.setattr(other, name, getattr(module, name))


bool_masks = hnp.arrays(np.bool_, st.tuples(st.integers(1, 10), st.integers(1, 10)))


def make_map(shape, coords):
    mask = np.zeros(shape, dtype=bool)
    for y, x in coords:
        mask[y, x] = True
    return EdgeMap(mask)


class TestSynthStep:
    def test_full_contrast_endpoints(self):
        scene = synth_step(8, 4, 4, 1.0)
        assert np.all(scene.image.pixels[:, :4] == 0.0)
        assert np.all(scene.image.pixels[:, 4:] == 1.0)

    def test_half_contrast_levels(self):
        scene = synth_step(8, 4, 4, 0.5)
        assert np.all(scene.image.pixels[:, :4] == 0.25)
        assert np.all(scene.image.pixels[:, 4:] == 0.75)

    def test_truth_marks_the_step_column_once_per_row(self):
        scene = synth_step(10, 7, 3, 0.5)
        assert scene.truth.count == 7
        assert np.all(scene.truth.mask[:, 3])

    def test_column_bounds(self):
        with pytest.raises(ValueError):
            synth_step(8, 4, 0, 0.5)
        with pytest.raises(ValueError):
            synth_step(8, 4, 8, 0.5)

    @pytest.mark.parametrize("width, height", [(1, 4), (8, 0)])
    def test_size_bounds(self, width, height):
        with pytest.raises(ValueError, match=f"width >= 2 and height >= 1, got {width}x{height}"):
            synth_step(width, height, 1, 0.5)

    def test_contrast_bounds(self):
        with pytest.raises(ValueError):
            synth_step(8, 4, 4, 0.0)
        with pytest.raises(ValueError):
            synth_step(8, 4, 4, 1.01)

    def test_truth_pixels_touch_an_intensity_change(self):
        scene = synth_step(12, 5, 6, 0.3)
        px = scene.image.pixels
        for y, x in np.argwhere(scene.truth.mask):
            neighbours = [px[y, x - 1] if x > 0 else None,
                          px[y, x + 1] if x < 11 else None]
            assert any(n is not None and n != px[y, x] for n in neighbours)


class TestSynthCircle:
    def test_degenerate_circle_is_one_pixel(self):
        scene = synth_circle(64, (31.0, 31.0), 0.4)
        assert np.argwhere(scene.image.pixels > 0).tolist() == [[31, 31]]
        assert np.argwhere(scene.truth.mask).tolist() == [[31, 31]]

    @pytest.mark.parametrize("size,center,radius", [
        (64, (31.5, 31.5), 19.2),
        (32, (15.5, 15.5), 9.0),
        (48, (23.0, 24.0), 13.7),
        (64, (31.0, 31.0), 0.4),
        (32, (15.5, 15.5), 13.5),
    ])
    def test_truth_is_a_single_closed_ring(self, size, center, radius):
        scene = synth_circle(size, center, radius)
        assert count_components(scene.truth, 8) == 1
        # ring pixels are inside pixels with at least one outside 4-neighbour
        inside = scene.image.pixels > 0
        padded = np.pad(inside, 1, constant_values=False)
        has_outside = ~(padded[:-2, 1:-1] & padded[2:, 1:-1]
                        & padded[1:-1, :-2] & padded[1:-1, 2:])
        assert np.array_equal(scene.truth.mask, inside & has_outside)

    @given(hnp.arrays(bool, st.tuples(st.integers(1, 12), st.integers(1, 12))))
    def test_ring_is_the_erosion_ring_on_random_masks(self, inside):
        assert np.array_equal(evaluation._inner_boundary(inside), erosion_ring(inside))

    @pytest.mark.parametrize("size,center,radius", [
        (32, (15.5, 15.5), 13.5),
        (32, (11.0, 20.0), 9.0),
        (40, (6.5, 30.0), 4.5),
        (17, (8.0, 8.0), 6.0),
    ])
    def test_ring_is_the_erosion_ring_at_the_clearance(self, size, center, radius):
        # radius + 2 is the clearance: the disc comes as near the border as allowed
        cx, cy = center
        assert radius + 2 == min(cx, cy, size - 1 - cx, size - 1 - cy)
        scene = synth_circle(size, center, radius)
        assert np.array_equal(scene.truth.mask, erosion_ring(scene.image.pixels == 1.0))

    @pytest.mark.parametrize("size,center,radius", [
        (64, (31.5, 31.5), 19.2),
        (64, (32.0, 31.0), 20.25),
        (32, (15.5, 15.5), 9.0),
        (48, (23.0, 24.0), 13.7),
    ])
    def test_interior_count_tracks_the_disc_area(self, size, center, radius):
        scene = synth_circle(size, center, radius)
        inside = scene.image.pixels.sum()
        assert abs(inside - np.pi * radius * radius) <= 4 * radius

    def test_empty_size_is_rejected(self):
        with pytest.raises(ValueError, match="size must be positive, got 0"):
            synth_circle(0, (0.0, 0.0), 1.0)

    def test_peak_memory_per_pixel(self):
        # tracemalloc measured 19 bytes a pixel: the disc's open grids leave
        # one float plane for its test; full index grids took 35
        size = 2048
        tracemalloc.start()
        try:
            synth_circle(size, ((size - 1) / 2, (size - 1) / 2), size * 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * size * size, peak / size**2

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_radius_must_be_positive(self, radius):
        with pytest.raises(ValueError, match=f"radius must be positive, got {radius}"):
            synth_circle(32, (15.5, 15.5), radius)

    def test_circle_touching_the_border_is_rejected(self):
        with pytest.raises(ValueError):
            synth_circle(32, (15.5, 15.5), 14.0)
        with pytest.raises(ValueError):
            synth_circle(32, (3.0, 15.5), 4.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["cx", "cy", "radius"])
    def test_non_finite_centre_or_radius_is_rejected(self, which, value):
        # a NaN slips past min() and every comparison, so it must be refused by name
        args = {"cx": 15.5, "cy": 15.5, "radius": 5.0, which: value}
        with pytest.raises(ValueError, match="finite"):
            synth_circle(32, (args["cx"], args["cy"]), args["radius"])


class TestSynthRectangle:
    def test_single_pixel_rectangle(self):
        scene = synth_rectangle(8, 3, 4, 3, 4)
        assert np.argwhere(scene.image.pixels > 0).tolist() == [[4, 3]]
        assert scene.truth.count == 1
        assert scene.truth.mask[4, 3]

    @pytest.mark.parametrize("x0,y0,x1,y1", [(2, 3, 6, 5), (1, 1, 8, 8), (3, 2, 4, 7)])
    def test_perimeter_count(self, x0, y0, x1, y1):
        scene = synth_rectangle(10, x0, y0, x1, y1)
        expected = 2 * (x1 - x0 + 1) + 2 * (y1 - y0 + 1) - 4
        assert scene.truth.count == expected

    def test_one_pixel_wide_strip_is_all_truth(self):
        # the perimeter formula assumes a proper rectangle; a strip is just
        # its own boundary
        scene = synth_rectangle(10, 4, 2, 4, 7)
        assert scene.truth.count == 6
        assert np.array_equal(scene.truth.mask, scene.image.pixels > 0)

    def test_corners_are_truth_pixels(self):
        scene = synth_rectangle(16, 3, 4, 9, 11)
        for y, x in [(4, 3), (4, 9), (11, 3), (11, 9)]:
            assert scene.truth.mask[y, x]

    def test_interior_is_not_truth(self):
        scene = synth_rectangle(16, 3, 3, 9, 9)
        assert not scene.truth.mask[6, 6]
        assert scene.image.pixels[6, 6] == 1.0

    def test_invalid_rectangles_are_rejected(self):
        with pytest.raises(ValueError):
            synth_rectangle(10, 6, 2, 4, 5)  # inverted x
        with pytest.raises(ValueError):
            synth_rectangle(10, 0, 2, 4, 5)  # touches the border
        with pytest.raises(ValueError):
            synth_rectangle(10, 2, 2, 9, 5)  # touches the border

    def test_truth_pixels_touch_an_intensity_change(self):
        scene = synth_rectangle(12, 2, 3, 8, 9)
        px = scene.image.pixels
        for y, x in np.argwhere(scene.truth.mask):
            diffs = [px[y + dy, x + dx] != px[y, x]
                     for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1))]
            assert any(diffs)


class TestNoise:
    def test_zero_stddev_returns_the_input_unchanged(self):
        img = GrayImage(np.full((4, 4), 0.5))
        assert add_gaussian_noise(img, 0.0, 7) is img

    def test_fixed_seed_is_deterministic(self):
        img = GrayImage(np.full((16, 16), 0.5))
        a = add_gaussian_noise(img, 0.1, 3)
        b = add_gaussian_noise(img, 0.1, 3)
        assert np.array_equal(a.pixels, b.pixels)

    def test_different_seeds_differ(self):
        img = GrayImage(np.full((16, 16), 0.5))
        a = add_gaussian_noise(img, 0.1, 3)
        b = add_gaussian_noise(img, 0.1, 4)
        assert not np.array_equal(a.pixels, b.pixels)

    def test_sample_stddev_window_at_mid_gray(self):
        img = GrayImage(np.full((256, 256), 0.5))
        out = add_gaussian_noise(img, 0.1, 0)
        assert 0.095 <= out.pixels.std(ddof=1) <= 0.105

    def test_output_is_clamped(self):
        img = GrayImage(np.full((64, 64), 0.99))
        out = add_gaussian_noise(img, 0.5, 1)
        assert out.pixels.max() <= 1.0
        assert out.pixels.min() >= 0.0

    def test_negative_stddev_rejected(self):
        with pytest.raises(ValueError):
            add_gaussian_noise(GrayImage(np.zeros((2, 2))), -0.1, 0)

    def test_negative_seed_rejected_by_value_unless_no_noise_is_drawn(self):
        img = GrayImage(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            add_gaussian_noise(img, 0.1, -1)
        assert add_gaussian_noise(img, 0.0, -1) is img

    @pytest.mark.parametrize("stddev", [math.nan, math.inf, -math.inf])
    def test_nan_and_infinite_stddev_rejected_by_value(self, stddev):
        with pytest.raises(ValueError, match=f"got {stddev}"):
            add_gaussian_noise(GrayImage(np.zeros((2, 2))), stddev, 0)


class TestScore:
    def test_perfect_match_at_zero_tolerance(self):
        em = make_map((5, 5), [(1, 1), (3, 4)])
        rep = score(em, em, 0.0)
        assert rep.false_positive_rate == 0.0
        assert rep.false_negative_rate == 0.0
        assert rep.mean_sq_distance == 0.0
        assert rep.matched_count == 2

    def test_empty_detection_against_truth(self):
        rep = score(make_map((4, 4), []), make_map((4, 4), [(1, 1)]), 1.5)
        assert rep.false_positive_rate == 0.0
        assert rep.false_negative_rate == 1.0

    def test_detection_against_empty_truth(self):
        rep = score(make_map((4, 4), [(1, 1)]), make_map((4, 4), []), 1.5)
        assert rep.false_positive_rate == 1.0
        assert rep.false_negative_rate == 0.0

    def test_adjacent_columns_mean_square_distance_is_one(self):
        shape = (6, 20)
        truth = make_map(shape, [(y, 10) for y in range(6)])
        det = make_map(shape, [(y, 11) for y in range(6)])
        rep = score(det, truth, 1.0)
        assert rep.false_positive_rate == 0.0
        assert rep.false_negative_rate == 0.0
        assert rep.mean_sq_distance == 1.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            score(make_map((4, 4), []), make_map((4, 5), []), 1.0)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            score(make_map((4, 4), []), make_map((4, 4), []), -1.0)

    @pytest.mark.parametrize("tolerance", [math.nan, -math.inf])
    def test_nan_and_negative_infinite_tolerance_rejected_by_value(self, tolerance):
        em = make_map((4, 4), [(1, 1)])
        with pytest.raises(ValueError, match=f"got {tolerance}"):
            score(em, em, tolerance)

    @pytest.mark.parametrize("tolerance", [0.0, 1.5, math.inf])
    def test_takes_one_truth_transform_per_call(self, monkeypatch, tolerance):
        # the detection is matched through one match of the truth, never
        # transformed itself; only above the offsets' bound is the truth transformed
        scene = noisy_step_suite([0])[0]
        edges = canny_detect(scene.image, CannyParams())
        calls = {}
        count_calls(monkeypatch, calls, evaluation, "_ToleranceMatch")
        count_calls(monkeypatch, calls, evaluation.ndimage, "distance_transform_edt")
        transforms = tolerance > evaluation._DISC_TOLERANCE
        for n in (1, 2):
            score(edges, scene.truth, tolerance)
            assert calls == {"_ToleranceMatch": n, "distance_transform_edt": n * transforms}

    @given(bool_masks, st.sampled_from([0.0, 1.0, 2.5]))
    def test_truth_against_itself_is_perfect(self, mask, tol):
        em = EdgeMap(mask)
        rep = score(em, em, tol)
        if em.count:
            assert rep.false_positive_rate == 0.0
            assert rep.false_negative_rate == 0.0

    @given(bool_masks, bool_masks, st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    def test_tolerance_monotonicity(self, a, b, t1, t2):
        if a.shape != b.shape:
            b = np.resize(b, a.shape)
        det, tru = EdgeMap(a), EdgeMap(b)
        lo_t, hi_t = min(t1, t2), max(t1, t2)
        r_lo = score(det, tru, lo_t)
        r_hi = score(det, tru, hi_t)
        assert r_hi.false_positive_rate <= r_lo.false_positive_rate
        assert r_hi.false_negative_rate <= r_lo.false_negative_rate

    @given(bool_masks, bool_masks)
    def test_report_invariants(self, a, b):
        if a.shape != b.shape:
            b = np.resize(b, a.shape)
        rep = score(EdgeMap(a), EdgeMap(b), 1.5)
        assert 0.0 <= rep.false_positive_rate <= 1.0
        assert 0.0 <= rep.false_negative_rate <= 1.0
        assert rep.mean_sq_distance >= 0.0
        assert rep.matched_count <= rep.detected_count


class TestFScore:
    def test_perfect_report_scores_one(self):
        rep = EvalReport(0.0, 0.0, 0.0, 5, 5, 5, 1.5)
        assert f_score(rep) == 1.0

    def test_total_failure_scores_zero(self):
        rep = EvalReport(1.0, 1.0, 0.0, 5, 5, 0, 1.5)
        assert f_score(rep) == 0.0

    def test_harmonic_mean(self):
        rep = EvalReport(0.5, 0.0, 0.0, 4, 2, 2, 1.5)
        assert f_score(rep) == pytest.approx(2 * 0.5 * 1.0 / 1.5)


class TestCountComponents:
    def test_empty_mask(self):
        assert count_components(make_map((4, 4), []), 8) == 0

    def test_diagonal_pair_depends_on_connectivity(self):
        em = make_map((4, 4), [(1, 1), (2, 2)])
        assert count_components(em, 8) == 1
        assert count_components(em, 4) == 2

    def test_invalid_connectivity(self):
        with pytest.raises(ValueError):
            count_components(make_map((4, 4), []), 6)

    @pytest.mark.parametrize("shape", [(5,), (2, 2, 2)])
    def test_mask_must_be_2d(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            count_components(np.zeros(shape, dtype=bool), 8)

    @given(bool_masks, st.sampled_from([4, 8]))
    def test_matches_scipy_label_oracle(self, mask, connectivity):
        structure = np.ones((3, 3)) if connectivity == 8 else None
        _, expected = ndimage.label(mask, structure=structure)
        assert count_components(EdgeMap(mask), connectivity) == expected


class TestSuitesAndTuning:
    def test_run_comparison_cardinality_and_order(self):
        scene = synth_step(16, 16, 8, 0.5)
        rows = run_comparison([scene], MHParams(), CannyParams())
        assert len(rows) == 2
        assert [r[1] for r in rows] == ["canny", "marr-hildreth"]
        assert rows[0][0] == scene.name

    def test_run_comparison_is_pure(self):
        scene = synth_step(16, 16, 8, 0.5)
        rows = run_comparison([scene, scene], MHParams(), CannyParams())
        assert rows[0] == rows[2]
        assert rows[1] == rows[3]

    def test_run_comparison_rejects_empty_input(self):
        with pytest.raises(ValueError):
            run_comparison([], MHParams(), CannyParams())

    @pytest.mark.parametrize("tolerance", [-0.5, -math.inf, math.nan])
    def test_run_comparison_refuses_bad_tolerance_before_detecting(self, monkeypatch, tolerance):
        scene = synth_step(16, 16, 8, 0.5)

        def blur(*args):
            raise AssertionError("a detector ran before the tolerance was checked")

        for module in (filtering, evaluation):
            monkeypatch.setattr(module, "_blur", blur)
        with pytest.raises(ValueError, match="match_tolerance"):
            run_comparison([scene], MHParams(), CannyParams(), tolerance)

    @pytest.mark.parametrize("mh, canny_params, blurs", [
        (MHParams(), CannyParams(), 10),
        (MHParams(radius=3), CannyParams(), 10),
        (MHParams(sigma=1.4), CannyParams(), 20),
        (MHParams(radius=2), CannyParams(), 20),
    ], ids=["defaults", "default-radius-resolved", "sigmas-differ", "radii-differ"])
    def test_run_comparison_shares_blurs_and_truth_transforms(self, monkeypatch, mh, canny_params, blurs):
        # ten scenes share one truth object, so one truth match; the
        # detections are matched through it and never transformed. The ten
        # run as one stack, blurred once per kernel, and each scene is blurred
        # once per kernel. Each Gaussian kernel is built once per run, and the
        # Laplacian never
        scenes = noisy_step_suite(range(10))
        calls, layers = {}, []
        for name in ("_blur", "gaussian_kernel_1d", "laplacian_kernel_2d"):
            count_calls_everywhere(monkeypatch, calls, filtering, name)
        count_calls(monkeypatch, calls, evaluation, "_ToleranceMatch")
        count_calls(monkeypatch, calls, evaluation.ndimage, "distance_transform_edt")
        counted = evaluation._blur

        def blur(px, kx, ky):
            layers.append(len(px))
            return counted(px, kx, ky)

        monkeypatch.setattr(evaluation, "_blur", blur)
        rows = run_comparison(scenes, mh, canny_params)
        assert all(report.detected_count for _, _, report in rows)
        assert calls == {"_blur": blurs // 10, "gaussian_kernel_1d": blurs // 10, "laplacian_kernel_2d": 0,
                         "_ToleranceMatch": 1, "distance_transform_edt": 0}
        assert sum(layers) == blurs

    def test_run_comparison_transforms_each_distinct_truth_once(self, monkeypatch):
        scenes = [circle_scene(), *noisy_step_suite([0, 1]), rectangle_scene(), circle_scene()]
        calls = {}
        count_calls(monkeypatch, calls, evaluation, "_ToleranceMatch")
        rows = run_comparison(scenes, MHParams(), CannyParams())
        assert all(report.detected_count for _, _, report in rows)
        # circle_scene() makes a new truth object per call
        assert calls == {"_ToleranceMatch": 4}

    def test_threshold_grid_shape(self):
        assert len(THRESHOLD_GRID) == 22
        assert THRESHOLD_GRID[0] == pytest.approx(1e-3)
        assert THRESHOLD_GRID[-1] == pytest.approx(1.0)
        assert all(a < b for a, b in zip(THRESHOLD_GRID, THRESHOLD_GRID[1:]))

    def test_tune_canny_result_is_reproducible_from_its_params(self):
        scene = synth_step(32, 32, 16, 0.5)
        params, report = tune_canny(scene)
        fresh = score(canny_detect(scene.image, params), scene.truth, 1.5)
        assert fresh == report

    def test_tune_mh_result_is_reproducible_from_its_params(self):
        scene = synth_step(32, 32, 16, 0.5)
        params, report = tune_mh(scene)
        assert not params.use_hysteresis
        fresh = score(mh_detect(scene.image, params), scene.truth, 1.5)
        assert fresh == report

    def test_tune_mh_hysteresis_mode(self):
        scene = synth_step(32, 32, 16, 0.5)
        params, report = tune_mh(scene, use_hysteresis=True)
        assert params.use_hysteresis
        assert params.low <= params.high
        fresh = score(mh_detect(scene.image, params), scene.truth, 1.5)
        assert fresh == report

    def test_noisy_step_suite_names_and_determinism(self):
        scenes = noisy_step_suite(range(3))
        assert [s.name for s in scenes] == [
            "noisy-step-seed0", "noisy-step-seed1", "noisy-step-seed2"]
        again = noisy_step_suite(range(3))
        for a, b in zip(scenes, again):
            assert np.array_equal(a.image.pixels, b.image.pixels)
            assert np.array_equal(a.truth.mask, b.truth.mask)

    def test_builtin_scenes(self):
        circle = circle_scene()
        assert circle.name == "circle"
        assert circle.truth.count == 108
        rect = rectangle_scene()
        assert rect.name == "rectangle-corners"
        assert rect.truth.count == 124
        for corner in [(16, 16), (16, 47), (47, 16), (47, 47)]:
            assert rect.truth.mask[corner]

    def test_scene_type_requires_matching_dimensions(self):
        with pytest.raises(ValueError):
            Scene(GrayImage(np.zeros((4, 4))), make_map((4, 5), []), "bad")


TUNERS = {"canny": tune_canny, "mh": tune_mh, "mh-hysteresis": functools.partial(tune_mh, use_hysteresis=True)}


class TestTuningWork:
    @pytest.mark.parametrize("tuner", TUNERS)
    def test_builds_params_for_one_check_and_the_winner(self, monkeypatch, tuner):
        # one check of the blur and the first grid value, then only the grid
        # values that are not plainly >= 0, and the winner; not one per value
        # or per (low, high) pair
        calls = {}
        for name in ("CannyParams", "MHParams"):
            count_calls(monkeypatch, calls, evaluation, name)
        params, report = TUNERS[tuner](noisy_step_suite([0])[0])
        assert sum(calls.values()) == 2
        assert type(params) in (CannyParams, MHParams)

    @pytest.mark.parametrize("tolerance", [1.5, 3.5])
    @pytest.mark.parametrize("tuner", ["canny", "mh-hysteresis"])
    def test_labels_and_filters_every_low_at_once(self, monkeypatch, tuner, tolerance):
        # one labelling of the stack of distinct layers and one of the winner's
        # map; one pass over the discs for the sweep and one for the winner's
        # report, not one of each per low, and above the offsets' bound one
        # maximum filter per disc box in each pass
        calls = {}
        for name in ("label", "maximum_filter"):
            count_calls(monkeypatch, calls, ndimage, name)
        count_calls(monkeypatch, calls, evaluation._ToleranceMatch, "disc_maxima")
        scene = noisy_step_suite([0])[0]
        TUNERS[tuner](scene, tolerance=tolerance)
        match = evaluation._ToleranceMatch(scene.truth, tolerance)
        assert calls["label"] <= 2 and calls["disc_maxima"] == 2
        assert calls["maximum_filter"] == (0 if match.taps is not None else 2 * len(match.boxes))


class TestTuningSlots:
    # consecutive tunes of one scene share the truth's match rule and the
    # image's slope plane, each through a one-entry slot keyed by the object's
    # identity and the exact tolerance or sigma

    def clear(self):
        evaluation._MATCHES.clear()
        evaluation._SLOPES.clear()

    def fresh(self, tuner, scene):
        self.clear()
        return TUNERS[tuner](scene)

    def slot_value(self, slot):
        (_, value), = slot.values()
        return value

    def test_scenes_in_turn_rebuild_every_time(self, monkeypatch):
        # A, B, then A again: a slot holds one scene, so each takes one truth
        # match and one slope plane, and every result equals that of a fresh tune
        a, b = noisy_step_suite([0])[0], noisy_step_suite([1])[0]
        expected = [repr(self.fresh(tuner, scene)) for scene in (a, b, a) for tuner in TUNERS]
        self.clear()
        calls = {}
        count_calls(monkeypatch, calls, evaluation, "_ToleranceMatch")
        count_calls(monkeypatch, calls, evaluation, "laplacian_of_smoothed")
        got = []
        for scene in (a, b, a):
            for tuner in TUNERS:
                got.append(repr(TUNERS[tuner](scene)))
                assert len(evaluation._MATCHES) <= 1 and len(evaluation._SLOPES) <= 1
        assert got == expected
        assert calls == {"_ToleranceMatch": 3, "laplacian_of_smoothed": 3}

    @pytest.mark.parametrize("tuner", TUNERS)
    def test_negative_zero_tolerance_is_its_own_key(self, tuner):
        scene = synth_step(16, 16, 8, 0.5)
        for tolerance in (-0.0, 0.0, -0.0):
            report = TUNERS[tuner](scene, tolerance=tolerance)[1]
            assert math.copysign(1.0, report.match_tolerance) == math.copysign(1.0, tolerance)

    def test_sigma_is_keyed_by_type_and_bits(self, monkeypatch):
        # a float32 sigma samples its kernel in float32, so its slope plane
        # differs from that of the float64 sigma with the same value
        scene = noisy_step_suite([0])[0]
        calls = {}
        count_calls(monkeypatch, calls, evaluation, "laplacian_of_smoothed")
        tune_mh(scene, np.float32(1.4))
        tune_mh(scene, float(np.float32(1.4)))
        assert calls == {"laplacian_of_smoothed": 2}
        expected = marr_hildreth.laplacian_of_smoothed(scene.image, float(np.float32(1.4)))
        assert np.array_equal(self.slot_value(evaluation._SLOPES), marr_hildreth.crossing_slope_map(expected).pixels)

    def test_values_go_with_their_scene(self):
        scene = synth_step(16, 16, 8, 0.5)
        tune_mh(scene)
        match, slopes = (weakref.ref(self.slot_value(slot)) for slot in (evaluation._MATCHES, evaluation._SLOPES))
        assert match() is not None and slopes() is not None
        del scene
        gc.collect()
        assert match() is None and slopes() is None
        assert not evaluation._MATCHES and not evaluation._SLOPES

    def test_shared_planes_are_read_only(self):
        scene = synth_step(16, 16, 8, 0.5)
        tune_mh(scene)
        match = self.slot_value(evaluation._MATCHES)
        for plane in (match.distance, match.near, match.ty, match.tx, match.wy, match.wx,
                      self.slot_value(evaluation._SLOPES)):
            with pytest.raises(ValueError, match="read-only"):
                plane.flat[0] = plane.flat[0]


class TestScoringMemoryIsBounded:
    # an infinite tolerance makes the disc the whole image; its coverage
    # maximum must still cost a few planes, not disc rows times truth pixels
    LIMIT = 32 * 2**20

    @pytest.fixture(scope="class")
    def scene(self):
        rng = np.random.default_rng(10)
        return Scene(GrayImage(rng.random((256, 256))), EdgeMap(rng.random((256, 256)) < 0.5), "dense-256")

    def peak(self, run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("tuner", TUNERS)
    def test_tuning_at_infinite_tolerance(self, scene, tuner):
        grid = THRESHOLD_GRID[::3]
        assert self.peak(lambda: TUNERS[tuner](scene, tolerance=math.inf, grid=grid)) < self.LIMIT

    def test_score_at_infinite_tolerance(self, scene):
        detected = EdgeMap(scene.image.pixels < 0.5)
        assert self.peak(lambda: score(detected, scene.truth, math.inf)) < self.LIMIT

    # A 512x512 plane takes one low per labelled stack. The sweep's peak must
    # stay near that of one labelling per low, which tracemalloc measured at
    # 36.6 MiB for tune_canny, 10.3 for tune_mh and 11.4 with use_hysteresis;
    # all 22 lows in one stack peaked at 69 and 84 MiB for the linked sweeps
    TUNING_LIMITS = {"canny": 41 * 2**20, "mh": 15 * 2**20, "mh-hysteresis": 16 * 2**20}

    @pytest.mark.parametrize("tuner", TUNERS)
    def test_tuning_a_large_scene(self, tuner):
        scene = noisy_step_suite([0], size=512)[0]
        assert self.peak(lambda: TUNERS[tuner](scene)) < self.TUNING_LIMITS[tuner]


class TestTuningRefusesBadSweeps:
    @pytest.fixture
    def no_detector(self, monkeypatch):
        # every refusal must come before the detector's front end runs
        def ran(*args, **kwargs):
            raise AssertionError("detector work started")
        for name in ("thinned_magnitude", "laplacian_of_smoothed"):
            monkeypatch.setattr(evaluation, name, ran)

    @pytest.mark.parametrize("tuner", TUNERS)
    @pytest.mark.parametrize("grid", [(), [], iter(())])
    def test_empty_grid(self, no_detector, tuner, grid):
        with pytest.raises(ValueError, match="grid must not be empty"):
            TUNERS[tuner](synth_step(16, 16, 8, 0.5), grid=grid)

    @pytest.mark.parametrize("tuner", ["canny", "mh-hysteresis"])
    @pytest.mark.parametrize("grid", [(0.1, 0.05), (0.01, 0.2, 0.1), tuple(reversed(THRESHOLD_GRID))])
    def test_hysteresis_grid_must_ascend(self, no_detector, tuner, grid):
        with pytest.raises(ValueError, match="ascending") as err:
            TUNERS[tuner](synth_step(16, 16, 8, 0.5), grid=grid)
        assert str(grid) in str(err.value)

    @pytest.mark.parametrize("tuner", TUNERS)
    @pytest.mark.parametrize("tolerance", [-1.0, -1e-9, math.nan, -math.inf])
    def test_tolerance(self, no_detector, tuner, tolerance):
        with pytest.raises(ValueError, match="match_tolerance must be non-negative"):
            TUNERS[tuner](synth_step(16, 16, 8, 0.5), tolerance=tolerance)

    @pytest.mark.parametrize("tuner", TUNERS)
    @pytest.mark.parametrize("grid", [(-0.1, 0.2), (0.1, math.nan)])
    def test_grid_values_the_parameters_refuse(self, no_detector, tuner, grid):
        with pytest.raises(ValueError, match="non-negative|low <= high"):
            TUNERS[tuner](synth_step(16, 16, 8, 0.5), grid=grid)

    @pytest.mark.parametrize("tuner, bad, error, message", [
        ("canny", math.nan, ValueError, "canny thresholds require 0 <= low <= high, got low=nan, high=nan"),
        ("canny", -1, ValueError, "a hysteresis sweep needs an ascending threshold grid"),
        ("canny", "0.1", TypeError, "'<' not supported between instances of 'str' and 'float'"),
        ("mh", math.nan, ValueError, "slope_threshold must be non-negative, got nan"),
        ("mh", -1, ValueError, "slope_threshold must be non-negative, got -1"),
        ("mh", "0.1", TypeError, "'>=' not supported between instances of 'str' and 'int'"),
        ("mh-hysteresis", math.nan, ValueError, "hysteresis thresholds must be non-negative, got low=nan, high=nan"),
        ("mh-hysteresis", -1, ValueError, "a hysteresis sweep needs an ascending threshold grid"),
        ("mh-hysteresis", "0.1", TypeError, "'<' not supported between instances of 'str' and 'float'"),
    ])
    def test_a_bad_value_mid_grid(self, no_detector, tuner, bad, error, message):
        # the default grid with one value swapped mid-grid raises what checking
        # every value through the parameters raised
        grid = THRESHOLD_GRID[:11] + (bad,) + THRESHOLD_GRID[12:]
        with pytest.raises(error) as err:
            TUNERS[tuner](synth_step(16, 16, 8, 0.5), grid=grid)
        assert type(err.value) is error
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("tuner", TUNERS)
    def test_tolerance_is_refused_before_grid_values(self, no_detector, tuner):
        with pytest.raises(ValueError, match="match_tolerance must be non-negative"):
            TUNERS[tuner](synth_step(16, 16, 8, 0.5), tolerance=-1.0, grid=(-0.1, 0.2))

    @pytest.mark.parametrize("tuner", TUNERS)
    def test_equal_grid_values_are_ascending(self, tuner):
        params, report = TUNERS[tuner](synth_step(16, 16, 8, 0.5), grid=(0.05, 0.05))
        assert report.truth_count == 16

    def test_single_threshold_grid_may_descend(self):
        scene = synth_step(32, 32, 16, 0.5)
        params, report = tune_mh(scene, grid=tuple(reversed(THRESHOLD_GRID)))
        assert params.slope_threshold in THRESHOLD_GRID
        assert f_score(report) == f_score(tune_mh(scene)[1])
        assert score(mh_detect(scene.image, params), scene.truth, 1.5) == report


class TestSerialisation:
    def record(self):
        rep = EvalReport(0.25, 0.5, 1.25, 4, 6, 3, 1.5)
        return comparison_record("scene-x", "canny", rep, sigma=1.0,
                                 low=0.05, high=0.15, seed=3)

    def test_csv_layout(self):
        text = records_to_csv([self.record()])
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[1].startswith("scene-x,canny,1.0,0.05,0.15,,0.25,0.5,1.25,4,6,3,1.5,3")
        assert text.endswith("\n")

    def test_csv_renders_none_as_empty(self):
        rep = EvalReport(0.0, 0.0, 0.0, 1, 1, 1, 1.5)
        rec = comparison_record("s", "marr-hildreth", rep, sigma=1.0,
                                slope_threshold=0.02)
        row = records_to_csv([rec]).splitlines()[1]
        assert row.split(",")[3] == ""  # low
        assert row.split(",")[4] == ""  # high
        assert row.split(",")[13] == ""  # seed

    def test_json_round_trip(self):
        parsed = json.loads(records_to_json([self.record()]))
        assert len(parsed) == 1
        assert parsed[0]["scene"] == "scene-x"
        assert parsed[0]["slope_threshold"] is None
        assert list(parsed[0].keys()) == list(CSV_COLUMNS)

    def test_record_fields_cover_the_schema(self):
        assert set(self.record().keys()) == set(CSV_COLUMNS)
