"""The vectorised kernels against their slow oracles.

nonmax_suppress, hysteresis, count_components, score and crossing_slope_map
must give exactly what the per-pixel loop, flood fills, k-d tree queries and
crossing scatter in oracles.py give, on every plane shape from one pixel up
to 128x128, including values that sit exactly on a threshold or exactly on
zero. The f-score the tuning sweeps read from counts must equal f_score of
score() for each candidate, and a tie must keep the earliest candidate. The
strip-wise convolutions and crossing-slope map must equal their whole-plane
forms, and thinning above low must leave every Canny map as it was. An
ASCII raster must read to the same bytes, or fail with the same error, as
the token-by-token parse.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from edgebench import evaluation, filtering, image_core
from edgebench.canny import (CannyParams, GradientField, canny_detect, component_maxima, gradient, hysteresis,
                             nonmax_suppress, thinned_magnitude)
from edgebench.evaluation import (THRESHOLD_GRID, Scene, _best_operating_point, _hysteresis_pairs, _linked_levels,
                                  _sweep_f_scores, add_gaussian_noise, circle_scene, count_components, f_score,
                                  noisy_step_suite, rectangle_scene, score, synth_step, tune_canny, tune_mh)
from edgebench.filtering import (_by_strips, convolve_2d, convolve_separable, gaussian_kernel_1d, gaussian_radius,
                                 laplacian_kernel_2d, outer_kernel)
from edgebench.image_core import EdgeMap, FormatError, GrayImage, TruncationError, read_image
from edgebench.marr_hildreth import MHParams, crossing_slope_map, laplacian_of_smoothed
from oracles import (bfs_count_components, bfs_hysteresis, kdtree_score, loop_nonmax_suppress,
                     scatter_crossing_slope_map, split_ascii_samples, whole_plane_convolve_2d,
                     whole_plane_convolve_separable, whole_plane_crossing_slope_map)

# mostly zeros, like a thinned plane; the other levels double as thresholds
LEVELS = (0.0, 0.0, 0.0, 0.1, 0.2, 0.3, 0.5, 0.7)
THRESHOLDS = (0.0, 0.1, 0.2, 0.3, 0.5, 0.7)
PAIRS = tuple((lo, hi) for i, lo in enumerate(THRESHOLDS) for hi in THRESHOLDS[i:])
SHAPES = [(1, 1), (1, 2), (2, 1), (1, 128), (128, 1), (2, 2), (3, 7), (7, 3),
          (17, 64), (64, 17), (128, 128)]
SHAPE_IDS = [f"{h}x{w}" for h, w in SHAPES]
TOLERANCES = (0.0, 1.0, math.sqrt(2.0), 1.5, 2.0, 2.5, 5.0)

shapes = st.tuples(st.integers(1, 128), st.integers(1, 128))
seeds = st.integers(0, 2**32 - 1)


def random_plane(rng, shape) -> np.ndarray:
    # quantised levels put pixels exactly on the thresholds; some pixels
    # are jittered off the levels
    px = rng.choice(LEVELS, size=shape)
    jitter = rng.random(shape) < 0.3
    px[jitter] = rng.random(np.count_nonzero(jitter))
    return px


def random_mask(rng, shape, density) -> np.ndarray:
    return rng.random(shape) < density


def assert_hysteresis_matches(plane: GrayImage, low: float, high: float) -> None:
    got = hysteresis(plane, low, high).mask
    assert np.array_equal(got, bfs_hysteresis(plane, low, high).mask), (plane.pixels.shape, low, high)


def assert_score_matches(det: EdgeMap, tru: EdgeMap, tolerance: float) -> None:
    # reprs print every float at round-trip precision, so equal reprs are equal bits
    assert repr(score(det, tru, tolerance)) == repr(kdtree_score(det, tru, tolerance))


class TestHysteresisMatchesFloodFill:
    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_seeded_planes_every_threshold_pair(self, shape):
        rng = np.random.default_rng(1000 * shape[0] + shape[1])
        plane = GrayImage(random_plane(rng, shape))
        for low, high in PAIRS:
            assert_hysteresis_matches(plane, low, high)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (128, 128)])
    def test_all_zero_plane(self, shape):
        plane = GrayImage(np.zeros(shape))
        labels, maxima = component_maxima(plane, 0.0)
        assert not labels.any()
        assert maxima.tolist() == [-math.inf]
        for low, high in [(0.0, 0.0), (0.0, 0.5), (0.5, 0.5)]:
            assert hysteresis(plane, low, high).count == 0
            assert_hysteresis_matches(plane, low, high)

    def test_values_on_both_thresholds(self):
        # a chain of pixels equal to low, touching a pixel equal to high, and
        # one strictly above high: only the strict seed and its strict
        # neighbours survive
        px = np.array([[0.2, 0.2, 0.5, 0.0, 0.6, 0.3],
                       [0.0, 0.0, 0.0, 0.0, 0.0, 0.2]])
        plane = GrayImage(px)
        got = hysteresis(plane, 0.2, 0.5).mask
        assert got.tolist() == [[False, False, False, False, True, True],
                                [False, False, False, False, False, False]]
        assert_hysteresis_matches(plane, 0.2, 0.5)

    @pytest.mark.parametrize("t", THRESHOLDS)
    def test_low_equal_to_high(self, t):
        plane = GrayImage(random_plane(np.random.default_rng(5), (40, 50)))
        assert np.array_equal(hysteresis(plane, t, t).mask, plane.pixels > t)
        assert_hysteresis_matches(plane, t, t)

    @given(shapes, seeds, st.sampled_from(PAIRS))
    def test_random_planes(self, shape, seed, pair):
        plane = GrayImage(random_plane(np.random.default_rng(seed), shape))
        assert_hysteresis_matches(plane, *pair)

    @given(shapes, seeds, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_random_planes_off_level_thresholds(self, shape, seed, a, b):
        plane = GrayImage(random_plane(np.random.default_rng(seed), shape))
        assert_hysteresis_matches(plane, min(a, b), max(a, b))


class TestComponentMaxima:
    @given(shapes, seeds, st.sampled_from(THRESHOLDS))
    def test_labels_cover_exactly_the_passable_pixels(self, shape, seed, low):
        values = random_plane(np.random.default_rng(seed), shape)
        labels, maxima = component_maxima(GrayImage(values), low)
        assert np.array_equal(labels > 0, values > low)
        assert maxima[0] == -math.inf
        assert labels.max(initial=0) == len(maxima) - 1
        for k in range(1, len(maxima)):
            assert maxima[k] == values[labels == k].max()

    @pytest.mark.parametrize("name", ["canny", "mh"])
    def test_per_low_lookup_matches_hysteresis_on_the_whole_grid(self, name):
        image = noisy_step_suite([3])[0].image
        if name == "canny":
            plane = thinned_magnitude(image, 1.0)
        else:
            plane = crossing_slope_map(laplacian_of_smoothed(image, 1.0))
        pairs = 0
        for i, low in enumerate(THRESHOLD_GRID):
            labels, maxima = component_maxima(plane, low)
            for high in THRESHOLD_GRID[i:]:
                assert np.array_equal((maxima > high)[labels], hysteresis(plane, low, high).mask), (low, high)
                pairs += 1
        assert pairs == 253


class TestCountComponentsMatchesFloodFill:
    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    @pytest.mark.parametrize("density", [0.0, 0.2, 0.5, 0.8, 1.0])
    def test_seeded_masks(self, shape, density):
        mask = random_mask(np.random.default_rng(7 * shape[0] + shape[1]), shape, density)
        for connectivity in (4, 8):
            assert count_components(mask, connectivity) == bfs_count_components(mask, connectivity)

    @given(shapes, seeds, st.floats(0.0, 1.0), st.sampled_from([4, 8]))
    def test_random_masks(self, shape, seed, density, connectivity):
        em = EdgeMap(random_mask(np.random.default_rng(seed), shape, density))
        assert count_components(em, connectivity) == bfs_count_components(em, connectivity)


class TestScoreMatchesKdTree:
    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    @pytest.mark.parametrize("tolerance", TOLERANCES)
    def test_seeded_mask_pairs(self, shape, tolerance):
        rng = np.random.default_rng(31 * shape[0] + shape[1])
        for det_density, tru_density in [(0.05, 0.05), (0.3, 0.02), (0.02, 0.3), (0.9, 0.9)]:
            det = EdgeMap(random_mask(rng, shape, det_density))
            tru = EdgeMap(random_mask(rng, shape, tru_density))
            assert_score_matches(det, tru, tolerance)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 40), (40, 1), (9, 23)])
    @pytest.mark.parametrize("tolerance", [0.0, 1.5])
    def test_empty_sides(self, shape, tolerance):
        rng = np.random.default_rng(3)
        empty = EdgeMap(np.zeros(shape, dtype=bool))
        full = EdgeMap(np.ones(shape, dtype=bool))
        some = EdgeMap(random_mask(rng, shape, 0.4) | (np.arange(np.prod(shape)).reshape(shape) == 0))
        for det, tru in [(empty, empty), (empty, some), (some, empty), (full, some), (some, full)]:
            assert_score_matches(det, tru, tolerance)

    def test_zero_tolerance_counts_only_exact_hits(self):
        det = EdgeMap(np.array([[True, False, True, False]]))
        tru = EdgeMap(np.array([[True, True, False, False]]))
        rep = score(det, tru, 0.0)
        assert (rep.matched_count, rep.false_positive_rate, rep.false_negative_rate) == (1, 0.5, 0.5)
        assert_score_matches(det, tru, 0.0)

    @given(shapes, seeds, st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 6.0))
    def test_random_mask_pairs(self, shape, seed, det_density, tru_density, tolerance):
        rng = np.random.default_rng(seed)
        det = EdgeMap(random_mask(rng, shape, det_density))
        tru = EdgeMap(random_mask(rng, shape, tru_density))
        assert_score_matches(det, tru, tolerance)


def oracle_tune(candidates, truth: EdgeMap, tolerance: float):
    # the sweep as it was before the per-low labelling and the sweep scorer:
    # one flood fill and one pair of k-d trees per (params, EdgeMap) candidate
    best = None
    for params, edges in candidates:
        report = kdtree_score(edges, truth, tolerance)
        if best is None or f_score(report) > f_score(best[1]):
            best = (params, report)
    return best


def bfs_candidates(plane: GrayImage, grid, make_params):
    return ((make_params(lo, hi), bfs_hysteresis(plane, lo, hi)) for i, lo in enumerate(grid) for hi in grid[i:])


class TestTuningMatchesTheOracleSweep:
    GRID = THRESHOLD_GRID[::3]

    @pytest.mark.parametrize("seed, tolerance", [(0, 1.5), (5, 1.5), (2, 0.0), (3, math.inf)])
    def test_tune_canny(self, seed, tolerance):
        scene = noisy_step_suite([seed])[0]
        candidates = bfs_candidates(thinned_magnitude(scene.image, 1.0), self.GRID,
                                    lambda lo, hi: CannyParams(sigma=1.0, low=lo, high=hi))
        expected = oracle_tune(candidates, scene.truth, tolerance)
        assert repr(tune_canny(scene, 1.0, tolerance, grid=self.GRID)) == repr(expected)

    @pytest.mark.parametrize("seed, tolerance", [(0, 1.5), (5, 1.5), (2, 0.0), (3, math.inf)])
    def test_tune_mh_with_hysteresis(self, seed, tolerance):
        scene = noisy_step_suite([seed])[0]
        slopes = crossing_slope_map(laplacian_of_smoothed(scene.image, 1.0))
        candidates = bfs_candidates(slopes, self.GRID,
                                    lambda lo, hi: MHParams(sigma=1.0, use_hysteresis=True, low=lo, high=hi))
        expected = oracle_tune(candidates, scene.truth, tolerance)
        assert repr(tune_mh(scene, 1.0, tolerance, use_hysteresis=True, grid=self.GRID)) == repr(expected)

    @pytest.mark.parametrize("seed, tolerance", [(0, 1.5), (5, 1.5), (2, 0.0), (3, math.inf)])
    def test_tune_mh_single_threshold(self, seed, tolerance):
        scene = noisy_step_suite([seed])[0]
        slopes = crossing_slope_map(laplacian_of_smoothed(scene.image, 1.0)).pixels
        candidates = ((MHParams(sigma=1.0, slope_threshold=t), EdgeMap(slopes > t)) for t in THRESHOLD_GRID)
        expected = oracle_tune(candidates, scene.truth, tolerance)
        assert repr(tune_mh(scene, 1.0, tolerance)) == repr(expected)


SWEEP_TOLERANCES = (0.0, 1.0, 1.5, 2.0, 3.3, math.inf)


def non_square_scene() -> Scene:
    base = synth_step(47, 33, 20, 0.5)
    return Scene(add_gaussian_noise(base.image, 0.3, 4), base.truth, "noisy-step-47x33")


SWEEP_SCENES = {
    "noisy-step": lambda: noisy_step_suite([1])[0],
    "circle": circle_scene,
    "rectangle": rectangle_scene,
    "33x47": non_square_scene,
}


def assert_sweep_f_scores_match_score(plane: GrayImage, truth: EdgeMap, tolerance: float, grid=THRESHOLD_GRID):
    # the candidates the tuning sweeps rank, with (low, high) or the
    # threshold standing in for the parameters; every f-score read from
    # counts must have the bits of f_score(score(...)) of the candidate
    rows = _hysteresis_pairs(grid, lambda low, high: (low, high))
    linked = [(level, pair, f) for level, pairs, fs in _sweep_f_scores(_linked_levels(plane, rows), truth, tolerance)
              for pair, f in zip(pairs, fs)]
    assert len(linked) == len(grid) * (len(grid) + 1) // 2
    for level, ((low, high), h), f in linked:
        edges = hysteresis(plane, low, high)
        assert np.array_equal(level > h, edges.mask), (low, high)
        assert float(f).hex() == f_score(score(edges, truth, tolerance)).hex(), (low, high)
    single = [(t, f) for _, pairs, fs in _sweep_f_scores([(plane.pixels, [(t, t) for t in grid])], truth, tolerance)
              for (t, _), f in zip(pairs, fs)]
    assert len(single) == len(grid)
    for t, f in single:
        assert float(f).hex() == f_score(score(EdgeMap(plane.pixels > t), truth, tolerance)).hex(), t


class TestSweepReportsMatchScore:
    @pytest.mark.parametrize("tolerance", SWEEP_TOLERANCES)
    @pytest.mark.parametrize("name", SWEEP_SCENES)
    def test_scene_planes_every_grid_pair(self, name, tolerance):
        scene = SWEEP_SCENES[name]()
        for plane in (thinned_magnitude(scene.image, 1.0),
                      crossing_slope_map(laplacian_of_smoothed(scene.image, 1.0))):
            assert_sweep_f_scores_match_score(plane, scene.truth, tolerance)

    @pytest.mark.parametrize("tolerance", SWEEP_TOLERANCES)
    def test_empty_truth(self, tolerance):
        scene = noisy_step_suite([2])[0]
        empty = EdgeMap(np.zeros(scene.truth.mask.shape, dtype=bool))
        assert_sweep_f_scores_match_score(thinned_magnitude(scene.image, 1.0), empty, tolerance)

    @pytest.mark.parametrize("tolerance", SWEEP_TOLERANCES)
    def test_nothing_above_low(self, tolerance):
        # every pixel sits on or below the lowest grid value
        px = np.where(np.random.default_rng(6).random((20, 30)) < 0.5, THRESHOLD_GRID[0], 0.0)
        truth = EdgeMap(np.random.default_rng(7).random((20, 30)) < 0.1)
        assert_sweep_f_scores_match_score(GrayImage(px), truth, tolerance)
        assert_sweep_f_scores_match_score(GrayImage(np.zeros((20, 30))), truth, tolerance)

    @pytest.mark.parametrize("tolerance", (1.5, 3.3, math.inf))
    @pytest.mark.parametrize("seed", range(4))
    def test_sparse_truth_under_dense_detections(self, seed, tolerance):
        # many detections against few truth pixels: rates far from 0 and 1
        rng = np.random.default_rng(seed)
        plane = GrayImage(random_plane(rng, (40, 48)))
        truth = EdgeMap(random_mask(rng, (40, 48), 0.02))
        assert_sweep_f_scores_match_score(plane, truth, tolerance, grid=THRESHOLDS)

    @given(st.tuples(st.integers(1, 24), st.integers(1, 24)), seeds, st.floats(0.0, 0.5),
           st.one_of(st.sampled_from(SWEEP_TOLERANCES + (math.sqrt(2.0), 30.0)), st.floats(0.0, 8.0)))
    def test_random_planes_and_masks(self, shape, seed, density, tolerance):
        rng = np.random.default_rng(seed)
        plane = GrayImage(random_plane(rng, shape))
        truth = EdgeMap(random_mask(rng, shape, density))
        assert_sweep_f_scores_match_score(plane, truth, tolerance, grid=THRESHOLDS)


class TestSweepSelection:
    @pytest.mark.parametrize("tolerance", (0.0, 1.5, 3.3))
    def test_a_tie_across_level_planes_goes_to_the_earlier_plane(self, tolerance):
        # each plane's best candidate is its second one and detects exactly
        # the truth column, so the planes tie at f = 1 on different candidates
        truth = EdgeMap(np.arange(12) == np.full((12, 1), 2))
        noisy = np.where(truth.mask, 0.5, np.where(np.arange(12) == 9, 0.15, 0.0))
        clean = np.where(truth.mask, 0.9, 0.0)
        first = (noisy, [("noisy-0.1", 0.1), ("noisy-0.2", 0.2)])
        second = (clean, [("clean-0.95", 0.95), ("clean-0.3", 0.3)])
        fs = [f.tolist() for _, _, f in _sweep_f_scores([first, second], truth, tolerance)]
        assert fs[0][1] == fs[1][1] == 1.0 and fs[0][0] < 1.0 and fs[1][0] < 1.0
        for sweeps, winner in (([first, second], "noisy-0.2"), ([second, first], "clean-0.3")):
            params, report = _best_operating_point(sweeps, truth, tolerance)
            assert params == winner
            assert report == score(truth, truth, tolerance)

    def test_tuning_runs_score_once(self, monkeypatch):
        calls = []
        real = evaluation.score
        monkeypatch.setattr(evaluation, "score", lambda *args: calls.append(args) or real(*args))
        scene = noisy_step_suite([0])[0]
        for tune in (tune_canny, tune_mh, lambda s: tune_mh(s, use_hysteresis=True)):
            calls.clear()
            params, report = tune(scene)
            assert len(calls) == 1
            assert report == real(*calls[0])


# gradient components where the sample arithmetic is delicate: signed zeros,
# the smallest denormal, a mid-range denormal, the smallest normal, and
# levels whose sums and ratios tie exactly
COMPONENT_LEVELS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
                    0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 3.0)
components = st.one_of(st.sampled_from(COMPONENT_LEVELS), st.floats(-1e3, 1e3, allow_nan=False))


def assert_nonmax_matches(field: GradientField) -> None:
    got = nonmax_suppress(field).pixels
    assert got.tobytes() == loop_nonmax_suppress(field).pixels.tobytes(), field.gx.shape


def quantised_field(rng, shape) -> GradientField:
    gx = rng.choice(COMPONENT_LEVELS, size=shape)
    gy = rng.choice(COMPONENT_LEVELS, size=shape)
    # about a third of the pixels sit exactly on a diagonal, |gx| == |gy|
    diagonal = rng.random(shape) < 0.35
    gy[diagonal] = gx[diagonal] * rng.choice((1.0, -1.0), size=np.count_nonzero(diagonal))
    return GradientField(gx, gy)


def perfbench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_detect_composite():
    return perfbench_workloads().detect_composite


class TestNonmaxMatchesLoop:
    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_seeded_fields(self, shape):
        rng = np.random.default_rng(31 * shape[0] + shape[1])
        assert_nonmax_matches(GradientField(rng.normal(size=shape), rng.normal(size=shape)))
        assert_nonmax_matches(gradient(GrayImage(random_plane(rng, shape))))

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_quantised_fields_with_diagonals_signed_zeros_and_denormals(self, shape, seed):
        assert_nonmax_matches(quantised_field(np.random.default_rng(seed), shape))

    def test_smoothed_detect_composite(self):
        gray, _ = load_detect_composite()(0)
        assert gray.shape == (1024, 1024)
        k = gaussian_kernel_1d(1.4, gaussian_radius(1.4))
        field = gradient(convolve_separable(GrayImage(gray), k, k))
        assert_nonmax_matches(field)

    @given(st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
        lambda shape: st.tuples(hnp.arrays(np.float64, shape, elements=components),
                                hnp.arrays(np.float64, shape, elements=components))))
    def test_random_fields(self, planes):
        assert_nonmax_matches(GradientField(*planes))


# Laplacian levels where the crossing rules are delicate: exact zeros of
# both signs, the smallest denormals, and opposite pairs whose magnitudes tie
RESPONSE_LEVELS = (0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5, 1.0, -1.0, 3.0, -3.0)
responses = st.one_of(st.sampled_from(RESPONSE_LEVELS), st.floats(-1e3, 1e3, allow_nan=False))


def assert_crossings_match(px: np.ndarray) -> None:
    resp = GrayImage(px)
    got = crossing_slope_map(resp).pixels
    assert got.tobytes() == scatter_crossing_slope_map(resp).pixels.tobytes(), px.shape


class TestCrossingSlopeMatchesScatter:
    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_seeded_planes(self, shape):
        rng = np.random.default_rng(17 * shape[0] + shape[1])
        assert_crossings_match(rng.normal(size=shape))
        assert_crossings_match(random_plane(rng, shape) - 0.2)

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_quantised_planes_with_exact_zeros_signed_zeros_and_ties(self, shape, seed):
        assert_crossings_match(np.random.default_rng(seed).choice(RESPONSE_LEVELS, size=shape))

    @pytest.mark.parametrize("row, overflows", [
        ([1e308, -1e-300, -1e308], False),  # the outer pair straddles no zero
        ([-1e308, 0.0, 1e308], True),       # a straddle whose slope overflows
        ([1.5e308, -1e308], True),          # a pair whose slope overflows, on the later member
        ([-1e308, 1e308], True),            # the same on a tie, on the earlier member
    ])
    def test_huge_opposite_neighbours(self, row, overflows):
        for px in (np.array([row]), np.array([row]).T):
            with np.errstate(over="ignore", invalid="ignore"):
                if not overflows:
                    assert_crossings_match(px)
                    continue
                for fn in (crossing_slope_map, scatter_crossing_slope_map):
                    with pytest.raises(ValueError, match="finite"):
                        fn(GrayImage(px))

    def test_laplacian_of_detect_composite(self):
        gray, _ = load_detect_composite()(0)
        # sigma 1.0 is what the detect workload's Marr-Hildreth runs use
        resp = laplacian_of_smoothed(GrayImage(gray), 1.0)
        assert np.count_nonzero(crossing_slope_map(resp).pixels) > 10_000
        assert_crossings_match(resp.pixels)

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 12)), elements=responses))
    def test_random_planes(self, px):
        assert_crossings_match(px)


def floored(plane: GrayImage, floor: float) -> np.ndarray:
    return np.where(plane.pixels > floor, plane.pixels, 0.0)


def magnitude_levels(field: GradientField) -> list:
    # floors that sit exactly on interior magnitudes, including kept ones
    inner = np.unique(field.magnitude[1:-1, 1:-1])
    return inner[np.linspace(0, inner.size - 1, 5).astype(int)].tolist() if inner.size else []


def assert_floor_matches(field: GradientField, floor: float) -> None:
    got = nonmax_suppress(field, floor).pixels
    assert got.tobytes() == floored(loop_nonmax_suppress(field), floor).tobytes(), (field.gx.shape, floor)


def assert_canny_unchanged_by_floor(img: GrayImage, params: CannyParams) -> None:
    expected = hysteresis(thinned_magnitude(img, params.sigma, params.radius), params.low, params.high)
    assert canny_detect(img, params).mask.tobytes() == expected.mask.tobytes(), params


def canny_cases(img: GrayImage, sigma: float = 1.0):
    """Threshold pairs for img: low 0, low == high, and lows that sit exactly
    on a thinned value and on a raw gradient magnitude."""
    k = gaussian_kernel_1d(sigma, gaussian_radius(sigma))
    magnitude = gradient(convolve_separable(img, k, k)).magnitude
    thinned = thinned_magnitude(img, sigma).pixels
    on_plane = [float(np.sort(values)[values.size // 2]) for values in (thinned[thinned > 0], magnitude.ravel())
                if values.size]
    pairs = [(0.0, 0.0), (0.0, 0.1), (0.05, 0.15), (0.1, 0.1)]
    pairs += [(low, low) for low in on_plane] + [(low, 2 * low) for low in on_plane]
    return [CannyParams(sigma=sigma, low=low, high=high) for low, high in pairs]


class TestNonmaxFloor:
    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_seeded_fields_floors_on_magnitudes(self, shape):
        rng = np.random.default_rng(41 * shape[0] + shape[1])
        for field in (GradientField(rng.normal(size=shape), rng.normal(size=shape)),
                      quantised_field(rng, shape)):
            for floor in [0.0, 0.05, math.inf] + magnitude_levels(field):
                assert_floor_matches(field, floor)

    @pytest.mark.parametrize("floor", [-1e-300, -1.0, math.nan, -math.inf])
    def test_refuses_negative_or_nan_floor(self, floor):
        field = quantised_field(np.random.default_rng(9), (5, 5))
        with pytest.raises(ValueError, match="floor"):
            nonmax_suppress(field, floor)

    @given(st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
        lambda shape: st.tuples(hnp.arrays(np.float64, shape, elements=components),
                                hnp.arrays(np.float64, shape, elements=components))),
        st.one_of(st.sampled_from((0.0, 0.25, 0.5, 1.0)), st.floats(0.0, 1e3)))
    def test_random_fields(self, planes, floor):
        field = GradientField(*planes)
        for f in [floor] + magnitude_levels(field):
            assert_floor_matches(field, f)


class TestCannyUnchangedByTheFloor:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 9), (9, 1), (2, 7), (3, 3), (17, 64),
                                       (64, 17), (128, 128)], ids=lambda s: f"{s[0]}x{s[1]}")
    def test_seeded_images(self, shape):
        rng = np.random.default_rng(53 * shape[0] + shape[1])
        for px in (rng.random(shape), random_plane(rng, shape)):
            img = GrayImage(px)
            for params in canny_cases(img):
                assert_canny_unchanged_by_floor(img, params)

    @pytest.mark.parametrize("name", SWEEP_SCENES)
    def test_scenes(self, name):
        img = SWEEP_SCENES[name]().image
        for sigma in (1.0, 1.4):
            for params in canny_cases(img, sigma):
                assert_canny_unchanged_by_floor(img, params)

    def test_detect_composite(self):
        gray, _ = load_detect_composite()(0)
        img = GrayImage(gray)
        for params in (CannyParams(sigma=1.4), CannyParams(sigma=1.4, low=0.1, high=0.1)):
            assert_canny_unchanged_by_floor(img, params)

    @given(shapes, seeds, st.floats(0.3, 3.0), st.floats(0.0, 0.3), st.floats(0.0, 0.3))
    def test_random_images(self, shape, seed, sigma, a, b):
        img = GrayImage(random_plane(np.random.default_rng(seed), shape))
        assert_canny_unchanged_by_floor(img, CannyParams(sigma=sigma, low=min(a, b), high=max(a, b)))
        for params in canny_cases(img, sigma):
            assert_canny_unchanged_by_floor(img, params)


STRIP_SHAPES = [(8, 8), (9, 8), (8, 13), (31, 17), (37, 100), (100, 37)]
STRIP_SIGMAS = (1.0, 1.4, 3.0)


def set_strip_rows(monkeypatch, rows: int, width: int) -> None:
    # a budget that gives strips of exactly `rows` rows at this width
    monkeypatch.setattr(filtering, "_STRIP_BYTES", rows * 8 * width)


def assert_strips_match(px: np.ndarray, sigma: float, radius=None) -> None:
    img = GrayImage(px)
    k = gaussian_kernel_1d(sigma, gaussian_radius(sigma) if radius is None else radius)
    narrow = gaussian_kernel_1d(0.7, 2)
    for kx, ky in ((k, k), (narrow, k), (k, narrow)):
        got = convolve_separable(img, kx, ky).pixels
        assert got.tobytes() == whole_plane_convolve_separable(img, kx, ky).pixels.tobytes(), (px.shape, sigma)
    for kernel in (laplacian_kernel_2d(), outer_kernel(k, k)):
        got = convolve_2d(img, kernel).pixels
        assert got.tobytes() == whole_plane_convolve_2d(img, kernel).pixels.tobytes(), (px.shape, sigma)
    resp = whole_plane_convolve_2d(whole_plane_convolve_separable(img, k, k), laplacian_kernel_2d())
    quantised = np.random.default_rng(px.size).choice(RESPONSE_LEVELS, size=px.shape)
    for plane in (resp, GrayImage(quantised), GrayImage(px - 0.5)):
        got = crossing_slope_map(plane).pixels
        assert got.tobytes() == whole_plane_crossing_slope_map(plane).pixels.tobytes(), (px.shape, sigma)


class TestStripsMatchWholePlane:
    @pytest.mark.parametrize("sigma", STRIP_SIGMAS)
    @pytest.mark.parametrize("shape", STRIP_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_seeded_planes_every_strip_height(self, monkeypatch, shape, sigma):
        rows = shape[0]
        px = np.random.default_rng(7 * shape[0] + shape[1]).random(shape)
        # 1 row, a few rows, rows - 1 (a last strip of one row, shorter than
        # any halo), rows and rows + 1 (one strip); 21 and 24 rows leave a
        # last strip of 16 and 4 rows under sigma 3's halo of 9 on 100 rows
        for strip in sorted({1, 2, 3, 5, 8, 21, 24, rows - 1, rows, rows + 1} - {0}):
            set_strip_rows(monkeypatch, strip, shape[1])
            assert_strips_match(px, sigma)

    @pytest.mark.parametrize("radius", [40, 60])
    def test_radius_override_takes_the_whole_plane(self, monkeypatch, radius):
        px = np.random.default_rng(radius).random((100, 37))
        set_strip_rows(monkeypatch, 32, 37)
        assert_strips_match(px, 1.4, radius)

    def test_plane_wider_than_a_strip(self, monkeypatch):
        px = np.random.default_rng(4).random((6, 50))
        # a budget below one row gives one-row strips, so every halo takes the whole-plane path
        monkeypatch.setattr(filtering, "_STRIP_BYTES", 100)
        assert_strips_match(px, 1.0)
        wide = np.random.default_rng(5).random((3, 40_000))
        monkeypatch.undo()
        assert filtering._STRIP_BYTES < 8 * wide.shape[1]
        assert_strips_match(wide, 1.0)

    def test_detect_composite_at_the_real_budget(self):
        gray, _ = load_detect_composite()(0)
        img = GrayImage(gray)
        assert filtering._STRIP_BYTES // (8 * img.width) < img.height
        for sigma in (1.0, 1.4):
            k = gaussian_kernel_1d(sigma, gaussian_radius(sigma))
            smoothed = convolve_separable(img, k, k)
            assert smoothed.pixels.tobytes() == whole_plane_convolve_separable(img, k, k).pixels.tobytes()
            resp = convolve_2d(smoothed, laplacian_kernel_2d())
            assert resp.pixels.tobytes() == whole_plane_convolve_2d(smoothed, laplacian_kernel_2d()).pixels.tobytes()
            got = crossing_slope_map(resp).pixels
            assert got.tobytes() == whole_plane_crossing_slope_map(resp).pixels.tobytes()

    @pytest.mark.parametrize("halo", [0, 1, 2, 5])
    @pytest.mark.parametrize("h, strip", [(1, 1), (10, 1), (10, 3), (10, 4), (10, 9), (10, 10), (10, 11), (33, 10)])
    def test_strips_and_their_halos(self, monkeypatch, h, strip, halo):
        plane = np.arange(h * 4, dtype=np.float64).reshape(h, 4)
        set_strip_rows(monkeypatch, strip, 4)
        seen = []

        def stage(px):
            seen.append((px[0, 0] // 4, px.shape[0]))
            return px + 1.0

        assert np.array_equal(_by_strips(stage, plane, halo), plane + 1.0)
        if h <= strip or 2 * halo > strip:
            assert seen == [(0, h)]
        else:
            tops = range(0, h, strip)
            assert seen == [(max(t - halo, 0), min(t + strip + halo, h) - max(t - halo, 0)) for t in tops]

    @given(st.tuples(st.integers(1, 40), st.integers(1, 40)), st.integers(1, 45), seeds,
           st.one_of(st.floats(0.3, 3.0).map(lambda s: (s, None)),
                     st.tuples(st.floats(0.3, 3.0), st.integers(1, 12))))
    def test_random_planes(self, shape, strip, seed, kernel):
        px = random_plane(np.random.default_rng(seed), shape) - 0.2
        with pytest.MonkeyPatch.context() as mp:
            set_strip_rows(mp, strip, shape[1])
            assert_strips_match(px, *kernel)


# the six Netpbm whitespace bytes and a CRLF line end
ASCII_SEPARATORS = (b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"\r\n")
# bytes a sample token must not hold
STRAY_BYTES = (b"\x00", b"\xff", b"+", b"-", b".")


@st.composite
def ascii_tokens(draw, maxval):
    token = draw(st.one_of(st.integers(0, maxval).map(b"%d".__mod__),
                           st.text("0123456789", min_size=1, max_size=25).map(str.encode)))
    if draw(st.integers(0, 29)) == 0:
        at = draw(st.integers(0, len(token)))
        token = token[:at] + draw(st.sampled_from(STRAY_BYTES)) + token[at:]
    return token


# a comment runs to its line end, which may come early or never
ascii_comments = st.tuples(st.binary(max_size=6), st.sampled_from((b"\n", b"\r", b"\r\n", b""))).map(
    lambda parts: b"#" + parts[0] + parts[1])


@st.composite
def ascii_fillers(draw):
    """Mostly one whitespace byte; now and then comments, or nothing, which glues two tokens."""
    if draw(st.integers(0, 9)):
        return draw(st.sampled_from(ASCII_SEPARATORS))
    return b"".join(draw(st.lists(st.one_of(st.sampled_from(ASCII_SEPARATORS), ascii_comments), max_size=3)))


@st.composite
def ascii_netpbm_files(draw):
    """A P2/P3 file whose raster may be short, malformed or followed by garbage."""
    magic = draw(st.sampled_from((b"P2", b"P3")))
    maxval = draw(st.sampled_from((1, 255, 256, 65535)))
    width, height = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    count = width * height * (3 if magic == b"P3" else 1)
    # the raster starts with whitespace or a comment, or it would run into maxval
    raster = draw(st.sampled_from(ASCII_SEPARATORS)) + draw(ascii_fillers())
    # fewer tokens than count truncate the raster; more leave tokens it never reads
    for _ in range(max(count + draw(st.sampled_from((0, 1, 3, -1))), 0)):
        raster += draw(ascii_tokens(maxval)) + draw(ascii_fillers())
    raster += draw(st.binary(max_size=6))
    return magic + b" %d %d %d" % (width, height, maxval) + raster


def read_outcome(path):
    try:
        img = read_image(path)
    except (FormatError, TruncationError) as exc:
        return type(exc), str(exc)
    return type(img), img.pixels.shape, img.pixels.tobytes()


def assert_ascii_read_matches(path) -> None:
    got = read_outcome(path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(image_core, "_ascii_samples", split_ascii_samples)
        assert got == read_outcome(path), path.read_bytes()[:200]


class TestAsciiRasterMatchesTokenSplit:
    @pytest.mark.parametrize("body", [
        b"P2 4 2 255\n1\t2\n3\r4\x0b5\x0c6 7\r\n8\r\n",
        b"P2 2 1 255 1 2#comment at the end of the file",
        b"P2 3 1 255\n1#glued\r2\r\n# line\n3#x",
        b"P2 3 1 255\n1 2 # 3 4 5\n",
        b"P2 3 1 255\n#1 2 3",
        b"P2 2 1 65535 " + b"0" * 24 + b"7 0000000000000000000065535",
        b"P2 2 1 255 " + b"9" * 18 + b" " + b"9" * 19,
        b"P2 3 1 255 " + b"1" * 25 + b" 0 " + b"9" * 400,
        b"P2 2 1 255 000255 18446744073709551617",
        b"P2 5 1 255 1\x002 1\xff2 +1 -1 1.0",
        b"P2 2 1 255 1 -2 +3",
        b"P2 2 1 255 1 2 \xff-junk.#\x00",
        b"P2 2 1 255 1 2\x00",
        b"P2 3 1 255 1 2",
        b"P2 3 1 255 1 x",
        b"P2 3 1 255 ",
        b"P2 3 1 255",
        b"P3 2 1 65535\n65535 0 32768\r\n1 65534 00065535\n",
        b"P3 1 1 65535 65535 65536 0",
        b"P3 1 1 65535 1 2 3 4 5 6 \xff",
    ], ids=["six-whitespace-bytes-and-crlf", "comment-at-eof", "glued-comments", "comment-hides-samples",
            "comment-hides-all", "leading-zeros-25-digits", "18-and-19-digits", "25-and-400-digits",
            "wider-than-uint64", "stray-bytes", "signs", "garbage-after-count", "nul-after-count",
            "truncated", "truncated-and-malformed", "empty-raster", "no-raster", "p3-65535",
            "p3-above-maxval", "p3-garbage-after-count"])
    def test_cases(self, tmp_path, body):
        path = tmp_path / "t.pnm"
        path.write_bytes(body)
        assert_ascii_read_matches(path)

    @settings(max_examples=400)
    @given(ascii_netpbm_files())
    def test_random_files(self, tmp_path_factory, body):
        path = tmp_path_factory.mktemp("ascii") / "t.pnm"
        path.write_bytes(body)
        assert_ascii_read_matches(path)

    def test_detect_composite_as_p2(self, tmp_path):
        workloads = perfbench_workloads()
        gray, rgb = workloads.detect_composite(0)
        path = tmp_path / "composite.pgm"
        path.write_bytes(workloads.encode_netpbm("p2", gray, rgb))
        assert read_image(path).pixels.shape == (1024, 1024)
        assert_ascii_read_matches(path)
