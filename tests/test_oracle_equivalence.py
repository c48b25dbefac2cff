"""The vectorised kernels against their slow oracles.

nonmax_suppress, hysteresis, count_components, score and crossing_slope_map
must give exactly what the per-pixel loop, flood fills, k-d tree queries and
crossing scatter in oracles.py give, on every plane shape from one pixel up
to 128x128, including values that sit exactly on a threshold or exactly on
zero. The f-score the tuning sweeps read from counts must equal f_score of
score() for each candidate, a tie must keep the earliest candidate, and the
sweep over one stacked labelling of each distinct layer the lows pass must
pick what the per-low sweep in oracles.py picks, with its report, however the
layers are chunked and however many lows share one. The
strip-wise convolutions and crossing-slope map must equal their whole-plane
forms, the slice-copy border padding must equal np.pad's edge mode, and
thinning above low must leave every Canny map as it was. The detector, which takes the gradient magnitude only where thinning reads it,
must give the whole-plane form's map, or its error, at every scale of low
and of the pixels, from zero and subnormals to overflow. An
ASCII raster must read to the same bytes, or fail with the same error, as
the token-by-token parse. run_comparison, which shares a scene's blur and
a truth mask's transform, must give the rows and report bytes of one
detector run and one score() per row. The Marr-Hildreth detector after its
blur, zero_crossings and hysteresis, which mark boolean strips and link by
seed labels, must give the maps of the whole float planes compared with
each threshold and linked by component maxima, or their refusals.
"""

import importlib.util
import itertools
import math
import os
import re
import signal
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from edgebench import cli, evaluation, filtering, image_core, marr_hildreth
from edgebench.canny import (CannyParams, GradientField, _canny_from_smoothed, _central_differences, _thin,
                             canny_detect, component_maxima, gradient, hysteresis, nonmax_suppress, thinned_magnitude)
from edgebench.evaluation import (THRESHOLD_GRID, Scene, add_gaussian_noise, circle_scene, comparison_record,
                                  count_components, f_score, noisy_step_suite, records_to_csv, records_to_json,
                                  rectangle_scene, run_comparison, score, synth_step, tune_canny, tune_mh)
from edgebench.filtering import (convolve_2d, convolve_separable, gaussian_kernel_1d, gaussian_radius,
                                 laplacian_kernel_2d, outer_kernel)
from edgebench.image_core import (EdgeMap, FormatError, GrayImage, RgbImage, TruncationError, _by_strips, read_image,
                                  rgb_to_gray, write_image)
from edgebench.marr_hildreth import (MHParams, _mh_from_smoothed, crossing_slope_map, laplacian_of_smoothed, mh_detect,
                                     zero_crossings)
from oracles import (bfs_count_components, bfs_hysteresis, horner_decimals, kdtree_score, loop_nonmax_suppress,
                     maxima_hysteresis, ScipyToleranceMatch, pad_central_differences, per_low_operating_point,
                     scatter_crossing_slope_map, slope_plane_mh_from_smoothed, split_ascii_samples, two_pass_comparison,
                     whole_buffer_ascii_samples, whole_plane_convolve_2d, whole_plane_convolve_separable,
                     whole_plane_crossing_slope_map, whole_plane_nonmax_suppress)
from test_canny import SMALL_IDS, SMALL_SHAPES
from test_evaluation import TUNERS

# mostly zeros, like a thinned plane; the other levels double as thresholds
LEVELS = (0.0, 0.0, 0.0, 0.1, 0.2, 0.3, 0.5, 0.7)
THRESHOLDS = (0.0, 0.1, 0.2, 0.3, 0.5, 0.7)
PAIRS = tuple((lo, hi) for i, lo in enumerate(THRESHOLDS) for hi in THRESHOLDS[i:])
SHAPES = [(1, 1), (1, 2), (2, 1), (1, 128), (128, 1), (2, 2), (3, 7), (7, 3),
          (17, 64), (64, 17), (128, 128)]
SHAPE_IDS = [f"{h}x{w}" for h, w in SHAPES]
# 200 clips the disc to the image on every shape here, and inf is the whole image
TOLERANCES = (0.0, 1.0, math.sqrt(2.0), 1.5, 2.0, 2.5, 5.0, 200.0, math.inf)

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
    @pytest.mark.parametrize("tolerance", [0.0, 1.5, math.inf])
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


# around the bound evaluation._DISC_TOLERANCE (3.0): 0, exactly sqrt(2), an
# ulp either side of integers below, at and above it, and inf
MATCH_TOLERANCES = (0.0, math.sqrt(2.0), 1.5, *(math.nextafter(float(k), k + side) for k in (1, 2, 3, 5)
                                               for side in (-1, 1)), 3.0, 4.0, math.inf)


def assert_match_matches_scipy(mask: np.ndarray, tolerance: float, seed: int) -> None:
    # near, its distances and the disc maxima of bool and float stacks, with
    # their dtype, equal to scipy's whole-plane transform and box filters
    truth = EdgeMap(mask)
    match, oracle = evaluation._ToleranceMatch(truth, tolerance), ScipyToleranceMatch(truth, tolerance)
    assert (match.taps is None) == (tolerance > evaluation._DISC_TOLERANCE)
    assert np.array_equal(match.near, oracle.near)
    assert np.array_equal(match.distance[match.near], oracle.distance[oracle.near])
    levels = random_plane(np.random.default_rng(seed), (3,) + mask.shape)
    for stack in (levels > 0.2, levels):
        got, expected = match.disc_maxima(stack[match.window]), oracle.disc_maxima(stack)
        assert got.dtype == expected.dtype and np.array_equal(got, expected), (mask.shape, tolerance)


class TestToleranceMatchMatchesScipy:
    # up to the bound the match reads the disc through its integer offsets;
    # on both sides it must give what scipy's transform and filters give
    small_shapes = st.tuples(st.integers(1, 23), st.integers(1, 23))

    @given(hnp.arrays(np.bool_, small_shapes), st.sampled_from(MATCH_TOLERANCES), seeds)
    def test_random_truths(self, mask, tolerance, seed):
        assert_match_matches_scipy(mask, tolerance, seed)

    @given(small_shapes, st.floats(0.0, 0.5), st.sampled_from(MATCH_TOLERANCES), seeds)
    def test_truths_on_every_border(self, shape, density, tolerance, seed):
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, shape, density)
        h, w = shape
        mask[[0, -1], rng.integers(w, size=2)] = True
        mask[rng.integers(h, size=2), [0, -1]] = True
        assert_match_matches_scipy(mask, tolerance, seed)

    @given(st.integers(1, 40), st.booleans(), st.floats(0.0, 1.0), st.sampled_from(MATCH_TOLERANCES), seeds)
    def test_one_pixel_wide_images(self, length, tall, density, tolerance, seed):
        shape = (length, 1) if tall else (1, length)
        assert_match_matches_scipy(random_mask(np.random.default_rng(seed), shape, density), tolerance, seed)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 2), (7, 12)])
    @pytest.mark.parametrize("tolerance", MATCH_TOLERANCES)
    def test_empty_truths(self, shape, tolerance):
        assert_match_matches_scipy(np.zeros(shape, dtype=bool), tolerance, 5)


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
    # every third default value, and a grid with equal neighbours, whose
    # equal lows label alike and whose equal highs tie
    HYSTERESIS_GRIDS = (THRESHOLD_GRID[::3], (0.02, 0.05, 0.05, 0.2))
    # the single-threshold sweep takes its grid in the order given
    SINGLE_GRIDS = (THRESHOLD_GRID, THRESHOLD_GRID[::-1], (0.2, 0.05, 0.05, 0.02))

    @pytest.mark.parametrize("seed, tolerance", [(0, 1.5), (5, 1.5), (2, 0.0), (3, math.inf)])
    def test_tune_canny(self, seed, tolerance):
        scene = noisy_step_suite([seed])[0]
        plane = thinned_magnitude(scene.image, 1.0)
        for grid in self.HYSTERESIS_GRIDS:
            candidates = bfs_candidates(plane, grid, lambda lo, hi: CannyParams(sigma=1.0, low=lo, high=hi))
            expected = oracle_tune(candidates, scene.truth, tolerance)
            assert repr(tune_canny(scene, 1.0, tolerance, grid=grid)) == repr(expected), grid

    @pytest.mark.parametrize("seed, tolerance", [(0, 1.5), (5, 1.5), (2, 0.0), (3, math.inf)])
    def test_tune_mh_with_hysteresis(self, seed, tolerance):
        scene = noisy_step_suite([seed])[0]
        slopes = crossing_slope_map(laplacian_of_smoothed(scene.image, 1.0))
        for grid in self.HYSTERESIS_GRIDS:
            candidates = bfs_candidates(slopes, grid,
                                        lambda lo, hi: MHParams(sigma=1.0, use_hysteresis=True, low=lo, high=hi))
            expected = oracle_tune(candidates, scene.truth, tolerance)
            assert repr(tune_mh(scene, 1.0, tolerance, use_hysteresis=True, grid=grid)) == repr(expected), grid

    @pytest.mark.parametrize("seed, tolerance", [(0, 1.5), (5, 1.5), (2, 0.0), (3, math.inf)])
    def test_tune_mh_single_threshold(self, seed, tolerance):
        scene = noisy_step_suite([seed])[0]
        slopes = crossing_slope_map(laplacian_of_smoothed(scene.image, 1.0)).pixels
        for grid in self.SINGLE_GRIDS:
            candidates = ((MHParams(sigma=1.0, slope_threshold=t), EdgeMap(slopes > t)) for t in grid)
            expected = oracle_tune(candidates, scene.truth, tolerance)
            assert repr(tune_mh(scene, 1.0, tolerance, grid=grid)) == repr(expected), grid


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


def traced_sweep(levels, grid, truth: EdgeMap, tolerance: float, linked: bool = False, stacks=None):
    # _best_operating_point with (low, high) standing in for the parameters.
    # levels is a list of level planes, row i of the sweep each, or with
    # linked one plane that row i links above grid[i]. Also returns the
    # f-scores it ranked, f[i, i:] for each row i, and appends the (layers,
    # h, w) label stacks it made to stacks. The winner must be the first
    # highest f in row-major order among the cells j >= i, and only its
    # params are built
    fs, built, stacks = [], [], [] if stacks is None else stacks
    real_harmonic_mean, real_label = evaluation._harmonic_mean, evaluation.ndimage.label

    def ranked(p, r):
        fs.append(real_harmonic_mean(p, r))
        return fs[-1].copy()

    def label(passable, **kwargs):
        result = real_label(passable, **kwargs)
        if passable.ndim == 3:
            stacks.append(result[0])
        return result

    def make_params(low, high):
        built.append((low, high))
        return low, high

    values = levels.pixels if linked else np.array(levels, dtype=np.float64)
    with mock.patch.object(evaluation, "_harmonic_mean", ranked), mock.patch.object(evaluation.ndimage, "label", label):
        winner = evaluation._best_operating_point(values, grid, linked, make_params, truth, tolerance)
    (f,) = fs
    assert f.shape == (len(grid) if linked else len(levels), len(grid))
    valid = np.arange(len(grid)) >= np.arange(len(f))[:, None]
    low, high = np.unravel_index(np.argmax(np.where(valid, f, -np.inf)), f.shape)
    assert built == [winner[0]] == [(grid[low], grid[high])]
    return winner, [row[i:] for i, row in enumerate(f.tolist())]


def assert_sweep_f_scores_match_score(plane: GrayImage, truth: EdgeMap, tolerance: float, grid=THRESHOLD_GRID):
    # the candidates the tuning sweeps rank: every f-score read from counts
    # must have the bits of f_score(score(...)) of the candidate, and the
    # winner is the first highest f, reported as score() of its map
    stacks = []
    (params, report), fs = traced_sweep(plane, grid, truth, tolerance, linked=True, stacks=stacks)
    assert [len(f) for f in fs] == [len(grid) - i for i in range(len(grid))]
    # the label stacks hold each distinct non-empty set of pixels above a
    # low once, in grid order. A low's level plane is the maxima of the
    # components of the layer that holds its pixels, and reads above high as
    # the hysteresis map; nothing above the low reads all -inf
    layers = [labels for stack in stacks for labels in stack]
    passing = [plane.pixels > low for low in grid]
    distinct = [p for i, p in enumerate(passing) if p.any() and (i == 0 or not np.array_equal(p, passing[i - 1]))]
    assert len(layers) == len(distinct) and all(map(np.array_equal, (labels > 0 for labels in layers), distinct))
    levels = []
    for above in passing:
        level = np.full(plane.pixels.shape, -np.inf)
        for labels in layers:
            if np.array_equal(labels > 0, above):
                maxima = np.full(labels.max() + 1, -np.inf)
                np.maximum.at(maxima, labels, plane.pixels)
                maxima[0] = -np.inf
                level = maxima[labels]
        levels.append(level)
    candidates = [((low, high), level, f) for i, (low, level, plane_fs) in enumerate(zip(grid, levels, fs))
                  for high, f in zip(grid[i:], plane_fs)]
    for (low, high), level, f in candidates:
        edges = hysteresis(plane, low, high)
        assert np.array_equal(level > high, edges.mask), (low, high)
        assert float(f).hex() == f_score(score(edges, truth, tolerance)).hex(), (low, high)
    best = max(candidates, key=lambda candidate: candidate[2])
    assert params == best[0]
    assert report == score(hysteresis(plane, *params), truth, tolerance)
    (params, report), (single,) = traced_sweep([plane.pixels], grid, truth, tolerance)
    assert len(single) == len(grid)
    for t, f in zip(grid, single):
        assert float(f).hex() == f_score(score(EdgeMap(plane.pixels > t), truth, tolerance)).hex(), t
    assert params == (grid[0], grid[int(np.argmax(single))])
    assert report == score(EdgeMap(plane.pixels > params[1]), truth, tolerance)


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
    def test_levels_below_zero(self, tolerance):
        # the disc maximum pads the plane with its own minimum, not with 0
        rng = np.random.default_rng(8)
        level = -rng.random((20, 30))
        truth = EdgeMap(rng.random((20, 30)) < 0.1)
        hs = (-0.9, -0.5, -0.1)
        _, (fs,) = traced_sweep([level], hs, truth, tolerance)
        for h, f in zip(hs, fs):
            assert float(f).hex() == f_score(score(EdgeMap(level > h), truth, tolerance)).hex(), h

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
        # level plane i is read at grid[i:], so the winner's low names its
        # plane. The noisy plane's best high is 0.2 and the clean plane's
        # best is its first; both detect exactly the truth column at f = 1
        truth = EdgeMap(np.arange(12) == np.full((12, 1), 2))
        noisy = np.where(truth.mask, 0.5, np.where(np.arange(12) == 9, 0.15, 0.0))
        clean = np.where(truth.mask, 0.9, 0.0)
        grid = (0.1, 0.2, 0.3)
        _, fs = traced_sweep([noisy, clean], grid, truth, tolerance)
        assert fs[0][0] < 1.0 and fs[0][1] == fs[1][0] == 1.0
        for levels, winner in (([noisy, clean], (0.1, 0.2)), ([clean, noisy], (0.1, 0.1))):
            (params, report), fs = traced_sweep(levels, grid, truth, tolerance)
            assert fs[1][0] == 1.0
            assert params == winner
            assert report == score(truth, truth, tolerance)

    def test_tuning_takes_one_transform_and_reports_score_of_the_winner(self, monkeypatch):
        # the three default tunes of one scene share one truth match; a tune
        # at another tolerance, or against another truth object, takes one
        # more. Every winner's report is score() of its detector's map
        calls = []
        real = evaluation._ToleranceMatch
        monkeypatch.setattr(evaluation, "_ToleranceMatch", lambda *args: calls.append(args) or real(*args))
        scene = noisy_step_suite([0])[0]
        other = Scene(scene.image, EdgeMap(scene.truth.mask), scene.name)
        tunes = [(tune_canny, canny_detect, scene, 1.5), (tune_mh, mh_detect, scene, 1.5),
                 (TUNERS["mh-hysteresis"], mh_detect, scene, 1.5),
                 (tune_canny, canny_detect, scene, 3.0), (tune_mh, mh_detect, other, 3.0)]
        results, totals = [], []
        for tune, _, s, tolerance in tunes:
            results.append(tune(s, tolerance=tolerance))
            totals.append(len(calls))
        assert totals == [1, 1, 1, 2, 3]
        for (_, detect, s, tolerance), (params, report) in zip(tunes, results):
            assert report == score(detect(s.image, params), s.truth, tolerance)


# the sweeps of tune_canny, tune_mh with use_hysteresis, and tune_mh
SWEEPS = {
    "canny": (True, lambda low, high: CannyParams(sigma=1.0, low=low, high=high)),
    "mh-hysteresis": (True, lambda low, high: MHParams(sigma=1.0, use_hysteresis=True, low=low, high=high)),
    "mh": (False, lambda _, t: MHParams(sigma=1.0, slope_threshold=t)),
}
# grid values on the plane levels, 0 and inf, and values between them
grid_values = st.one_of(st.sampled_from(LEVELS + (math.inf,)), st.floats(0.0, 1.0))
ORACLE_TOLERANCES = (0.0, math.sqrt(2.0), 1.5, math.inf)
# one layer per chunk, or a few layers of the small planes here
SMALL_BUDGETS = (1, 300)


def assert_sweep_matches_oracle(values: np.ndarray, grid, sweep: str, truth: EdgeMap, tolerance: float) -> None:
    # values is the plane the sweep links, or the one layer it thresholds
    linked, make_params = SWEEPS[sweep]
    values = values if linked else values[None]
    got = evaluation._best_operating_point(values, grid, linked, make_params, truth, tolerance)
    expected = per_low_operating_point(values, grid, linked, make_params, truth, tolerance)
    assert repr(got) == repr(expected), (sweep, grid, tolerance)


class TestSweepMatchesThePerLowOracle:
    # one stacked labelling and one tally per chunk of distinct layers must
    # pick the params, and give the report, of one labelling and one rates
    # pass per low

    @pytest.mark.parametrize("budget", (None,) + SMALL_BUDGETS)
    @pytest.mark.parametrize("tolerance", ORACLE_TOLERANCES)
    @pytest.mark.parametrize("tuner", SWEEPS)
    def test_tuners_on_the_builtin_scenes(self, tuner, tolerance, budget):
        linked, make_params = SWEEPS[tuner]
        grids = (THRESHOLD_GRID, (0.0, 0.02, 0.05, 0.05, 0.2, math.inf))
        if not linked:
            grids += (THRESHOLD_GRID[::-1], tuple(np.random.default_rng(9).permutation(THRESHOLD_GRID).tolist()))
        with mock.patch.object(evaluation, "_STACK_PIXELS", budget or evaluation._STACK_PIXELS):
            for scene in (noisy_step_suite([4])[0], circle_scene(), non_square_scene()):
                if tuner == "canny":
                    plane = thinned_magnitude(scene.image, 1.0).pixels
                else:
                    plane = crossing_slope_map(laplacian_of_smoothed(scene.image, 1.0)).pixels
                for grid in grids:
                    values = plane if linked else plane[None]
                    expected = per_low_operating_point(values, grid, linked, make_params, scene.truth, tolerance)
                    assert repr(TUNERS[tuner](scene, 1.0, tolerance, grid=grid)) == repr(expected), (scene.name, grid)

    @pytest.mark.parametrize("budget", (None,) + SMALL_BUDGETS)
    @pytest.mark.parametrize("tolerance", ORACLE_TOLERANCES)
    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_edge_cases(self, sweep, tolerance, budget):
        rng = np.random.default_rng(11)
        plane = random_plane(rng, (20, 30))
        truth = EdgeMap(random_mask(rng, (20, 30), 0.1))
        empty = EdgeMap(np.zeros((20, 30), dtype=bool))
        with mock.patch.object(evaluation, "_STACK_PIXELS", budget or evaluation._STACK_PIXELS):
            for grid in (THRESHOLDS, (0.0, 0.0, 0.2, 0.2, math.inf), (math.inf,), (0.7, 0.9)):
                assert_sweep_matches_oracle(plane, grid, sweep, truth, tolerance)
                assert_sweep_matches_oracle(plane, grid, sweep, empty, tolerance)
                # negative levels, so nothing is above any low
                assert_sweep_matches_oracle(plane - 1.0, grid, sweep, truth, tolerance)
                assert_sweep_matches_oracle(np.zeros((20, 30)), grid, sweep, truth, tolerance)

    @given(st.tuples(st.integers(1, 24), st.integers(1, 24)), seeds, st.floats(0.0, 0.5),
           st.sampled_from(tuple(SWEEPS)), st.lists(grid_values, min_size=1, max_size=8),
           st.one_of(st.sampled_from(ORACLE_TOLERANCES), st.floats(0.0, 6.0)),
           st.sampled_from((None,) + SMALL_BUDGETS), st.sampled_from((0.0, -0.5)))
    def test_random_planes_and_masks(self, shape, seed, density, sweep, grid, tolerance, budget, shift):
        # a shift below zero leaves some levels negative; the hysteresis
        # sweeps need an ascending grid, and the single-threshold one takes
        # its grid in any order
        rng = np.random.default_rng(seed)
        plane = random_plane(rng, shape) + shift
        truth = EdgeMap(random_mask(rng, shape, density))
        grid = tuple(sorted(grid)) if SWEEPS[sweep][0] else tuple(grid[k] for k in rng.permutation(len(grid)))
        with mock.patch.object(evaluation, "_STACK_PIXELS", budget or evaluation._STACK_PIXELS):
            assert_sweep_matches_oracle(plane, grid, sweep, truth, tolerance)

    # a plane of four levels: the lows between two levels pass one layer, so
    # the sweep labels 3 layers for the 12 lows of REPEATING_GRID, and its
    # last 2 lows pass nothing
    QUANTISED = (0.0, 0.1, 0.3, 0.6)
    REPEATING_GRID = (0.0, 0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7)

    @pytest.mark.parametrize("layers_per_stack", (None, 1, 2, 3))
    @pytest.mark.parametrize("tolerance", ORACLE_TOLERANCES)
    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_lows_that_pass_one_layer(self, sweep, tolerance, layers_per_stack):
        # stacks of one, two or three planes chunk the layers; chunked by low
        # instead, they would split the runs of lows that share a layer. Lows
        # that all pass the same pixels, nothing above the first low and a
        # flat plane must also match the sweep with one labelling per low.
        # The truth is random, or the pixels above 0.1, which only the lows
        # from 0.1 up to 0.3 detect alone, so a low read from the wrong layer
        # moves the winner
        rng = np.random.default_rng(12)
        plane = rng.choice(self.QUANTISED, size=(24, 30), p=(0.55, 0.2, 0.15, 0.1))
        budget = layers_per_stack and layers_per_stack * plane.size
        with mock.patch.object(evaluation, "_STACK_PIXELS", budget or evaluation._STACK_PIXELS):
            for truth in (EdgeMap(random_mask(rng, plane.shape, 0.1)), EdgeMap(plane > 0.1)):
                for grid in (self.REPEATING_GRID, (0.11, 0.15, 0.2, 0.25, 0.29), (0.6, 0.7, 0.9), (0.0, 0.6, 0.6)):
                    assert_sweep_matches_oracle(plane, grid, sweep, truth, tolerance)
                assert_sweep_matches_oracle(np.full(plane.shape, 0.3), self.REPEATING_GRID, sweep, truth, tolerance)

    @pytest.mark.parametrize("tolerance", (1.5, math.inf))
    def test_tuners_on_a_256_scene(self, tolerance):
        # a 256x256 plane takes two layers per labelled stack at the default
        # budget, and its lows pass 14 (Canny) and 16 distinct layers, so the
        # hysteresis sweeps run many chunks
        scene = noisy_step_suite([3], size=256)[0]
        magnitude = thinned_magnitude(scene.image, 1.0).pixels
        slopes = crossing_slope_map(laplacian_of_smoothed(scene.image, 1.0)).pixels
        for tuner, values in (("canny", magnitude), ("mh-hysteresis", slopes), ("mh", slopes[None])):
            linked, make_params = SWEEPS[tuner]
            expected = per_low_operating_point(values, THRESHOLD_GRID, linked, make_params, scene.truth, tolerance)
            assert repr(TUNERS[tuner](scene, 1.0, tolerance)) == repr(expected), tuner


# gradient components where the sample arithmetic is delicate: signed zeros,
# the smallest denormal, a mid-range denormal, the smallest normal, and
# levels whose sums and ratios tie exactly
COMPONENT_LEVELS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
                    0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 3.0)
components = st.one_of(st.sampled_from(COMPONENT_LEVELS), st.floats(-1e3, 1e3, allow_nan=False))
# the same levels, and any float but NaN: squares that underflow or overflow
extreme_components = st.one_of(st.sampled_from(COMPONENT_LEVELS), st.floats(allow_nan=False))


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


# 1024 wide, so strips are 64 rows at the real budget: 100 rows cross a strip boundary
WIDE = (100, 1024)
# rows whose crossing slopes overflow, or (the first) do not, with whether they do
HUGE_NEIGHBOURS = [
    ([1e308, -1e-300, -1e308], False),  # the outer pair straddles no zero
    ([-1e308, 0.0, 1e308], True),       # a straddle whose slope overflows
    ([1.5e308, -1e308], True),          # a pair whose slope overflows, on the later member
    ([-1e308, 1e308], True),            # the same on a tie, on the earlier member
]


def slopes_on(px: np.ndarray) -> list:
    """0 and five thresholds that sit exactly on crossing slopes of px."""
    slopes = np.unique(whole_plane_crossing_slope_map(GrayImage(px)).pixels)
    return [0.0] + slopes[np.linspace(0, slopes.size - 1, 5).astype(int)].tolist()


def mh_cases(thresholds: list) -> list:
    """Single thresholds, low == high, and pairs from thresholds."""
    pairs = [(lo, hi) for i, lo in enumerate(thresholds) for hi in thresholds[i:i + 2]]
    return ([MHParams(slope_threshold=t) for t in thresholds]
            + [MHParams(use_hysteresis=True, low=lo, high=hi) for lo, hi in pairs])


def assert_mh_matches(smoothed: np.ndarray, params: MHParams) -> None:
    got = outcome(_mh_from_smoothed, smoothed, params)
    assert got == outcome(slope_plane_mh_from_smoothed, GrayImage(smoothed), params), (smoothed.shape, params)


class TestMarrHildrethMatchesSlopePlanes:
    """zero_crossings, hysteresis and the detector after its blur mark
    boolean strips and link by seed labels; they must give the maps of the
    float slope plane compared with each threshold and linked by component
    maxima, or its refusal."""

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_crossings_on_wide_quantised_planes(self, seed):
        # exact and signed zeros, denormals and |a| == |b| ties
        px = np.random.default_rng(seed).choice(RESPONSE_LEVELS, size=WIDE)
        slopes = whole_plane_crossing_slope_map(GrayImage(px)).pixels
        for t in slopes_on(px):
            assert zero_crossings(GrayImage(px), t).mask.tobytes() == (slopes > t).tobytes(), t

    @pytest.mark.parametrize("seed", range(3))
    def test_hysteresis_on_wide_slope_planes(self, seed):
        px = np.random.default_rng(seed).choice(RESPONSE_LEVELS, size=WIDE)
        slopes = whole_plane_crossing_slope_map(GrayImage(px))
        ts = slopes_on(px)
        for low, high in [(lo, hi) for i, lo in enumerate(ts) for hi in ts[i:]]:
            got = hysteresis(slopes, low, high).mask
            assert got.tobytes() == maxima_hysteresis(slopes, low, high).mask.tobytes(), (low, high)

    @pytest.mark.parametrize("seed", range(3))
    def test_detector_on_wide_quantised_smoothed_planes(self, seed):
        # quantised smoothed levels give Laplacians with exact and signed zeros and ties
        px = np.random.default_rng(seed).choice(RESPONSE_LEVELS, size=WIDE)
        lap = whole_plane_convolve_2d(GrayImage(px), laplacian_kernel_2d()).pixels
        for params in mh_cases(slopes_on(lap)):
            assert_mh_matches(px, params)

    @pytest.mark.parametrize("shape", [(1, 1024), (2, 1024), (3, 1024), (1024, 1), (1024, 2), (1, 1)])
    def test_detector_on_planes_one_to_three_pixels_thin(self, shape):
        px = np.random.default_rng(shape[0]).choice(RESPONSE_LEVELS, size=shape)
        for params in mh_cases([0.0, 0.5, 1.0]):
            assert_mh_matches(px, params)

    def test_mh_detect_on_the_detect_composite(self):
        gray, _ = load_detect_composite()(0)
        img = GrayImage(gray)
        k = gaussian_kernel_1d(1.0, gaussian_radius(1.0))
        smoothed = whole_plane_convolve_separable(img, k, k)
        # the detect workload's two Marr-Hildreth invocations and the CLI's default
        for params in (MHParams(slope_threshold=0.02), MHParams(use_hysteresis=True, low=0.01, high=0.05), MHParams()):
            expected = slope_plane_mh_from_smoothed(smoothed, params).mask
            assert mh_detect(img, params).mask.tobytes() == expected.tobytes(), params

    @pytest.mark.parametrize("row, overflows", HUGE_NEIGHBOURS)
    def test_huge_opposite_neighbours(self, monkeypatch, row, overflows):
        # the Laplacian made the identity, so the rows reach the detector's
        # crossings as they are
        monkeypatch.setattr(marr_hildreth, "_laplacian", np.copy)
        for px in (np.array([row]), np.array([row]).T):
            expected = outcome(lambda p, t: EdgeMap(whole_plane_crossing_slope_map(p).pixels > t), GrayImage(px), 0.0)
            assert (expected == b"gray pixels must be finite, got NaN or infinity") == overflows
            assert outcome(zero_crossings, GrayImage(px), 0.0) == expected
            for params in (MHParams(), MHParams(use_hysteresis=True)):
                assert outcome(_mh_from_smoothed, px, params) == expected

    @pytest.mark.parametrize("levels", [(-1.0, -0.5, 0.0, 0.5, 1.0), (0.75, 1.0, 1.25)])
    @pytest.mark.parametrize("scale", [1e306, 1e307, 2e307, 1e308])
    def test_huge_smoothed_planes_in_strips(self, monkeypatch, scale, levels):
        # a Laplacian or slope that overflows must be refused, and one that
        # does not must give the map (levels near one scale do not)
        set_strip_rows(monkeypatch, 4, 9)
        rng = np.random.default_rng(int(scale // 1e305) + len(levels))
        for _ in range(4):
            px = np.zeros((24, 9))
            rows = slice(*sorted(rng.integers(0, 25, 2)))
            px[rows] = rng.choice(levels, size=px[rows].shape) * scale
            for params in mh_cases([0.0, scale]):
                assert_mh_matches(px, params)
            assert outcome(zero_crossings, GrayImage(px), 0.0) == outcome(
                lambda p, t: EdgeMap(whole_plane_crossing_slope_map(p).pixels > t), GrayImage(px), 0.0)

    def test_strip_halos_refuse_nothing_the_whole_planes_map(self, monkeypatch):
        # in strips of 4 rows, an edge-replicated halo row of this column
        # would have a Laplacian whose slopes overflow, while the whole
        # column's do not: crossings must be marked on the image's own
        # Laplacian rows, never on a strip's recomputed halo
        column = np.array([-1.0, -1.0, 0.0, -0.5, 0.5, 0.5, 1.0, 0.5, -1.0, 0.5, 1.0, 0.5])
        px = column[:, None] * (np.finfo(np.float64).max / 4)
        set_strip_rows(monkeypatch, 4, 1)
        assert outcome(slope_plane_mh_from_smoothed, GrayImage(px), MHParams()).count(1) == 7
        for params in mh_cases([0.0]):
            assert_mh_matches(px, params)
            assert_mh_matches(np.ascontiguousarray(px.T), params)

    @given(st.tuples(st.integers(1, 30), st.integers(1, 30)), st.integers(1, 32), seeds, st.sampled_from(PAIRS))
    def test_random_images_in_strips(self, shape, strip, seed, pair):
        # the Laplacian's and the crossing marks' halos across every strip height
        px = np.random.default_rng(seed).choice(RESPONSE_LEVELS, size=shape)
        img = GrayImage(random_plane(np.random.default_rng(seed), shape))
        k = gaussian_kernel_1d(1.0, gaussian_radius(1.0))
        with pytest.MonkeyPatch.context() as mp:
            set_strip_rows(mp, strip, shape[1])
            for params in (MHParams(slope_threshold=pair[0]), MHParams(use_hysteresis=True, low=pair[0], high=pair[1])):
                assert_mh_matches(px, params)
                assert_mh_matches(px + 0.2, params)
                expected = slope_plane_mh_from_smoothed(whole_plane_convolve_separable(img, k, k), params)
                assert mh_detect(img, params).mask.tobytes() == expected.mask.tobytes()


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


# lows whose squares are 0, subnormal, just below and at the underflow
# guard, normal, just either side of overflowing, and infinite
SQRT_MAX = math.sqrt(sys.float_info.max)
EXTREME_LOWS = (0.0, 5e-324, 1e-160, 1e-150, math.nextafter(2.0 ** -480, 0.0), 2.0 ** -480, 1e154, SQRT_MAX,
                math.nextafter(SQRT_MAX, math.inf), 1e200, math.inf)
EXTREME_IDS = [repr(low) for low in EXTREME_LOWS]


def outcome(fn, *args) -> bytes:
    # the output's bytes, or the message of the ValueError it raised; a
    # private stage's output is a bare array
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            result = fn(*args)
        except ValueError as exc:
            return str(exc).encode()
    if isinstance(result, np.ndarray):
        return result.tobytes()
    return (result.mask if isinstance(result, EdgeMap) else result.pixels).tobytes()


def thin_plane(gx: np.ndarray, gy: np.ndarray, floor: float) -> GrayImage:
    # _thin's kept pixels scattered into the dense plane nonmax_suppress returns
    thinned = np.zeros(gx.shape)
    np.put(thinned, *_thin(gx, gy, floor))
    return GrayImage(thinned)


def whole_plane_canny(img: GrayImage, params: CannyParams) -> EdgeMap:
    k = gaussian_kernel_1d(params.sigma, gaussian_radius(params.sigma))
    thinned = whole_plane_nonmax_suppress(gradient(convolve_separable(img, k, k)), params.low)
    return hysteresis(thinned, params.low, params.high)


def assert_canny_matches_whole_plane(img: GrayImage, params: CannyParams) -> None:
    assert outcome(canny_detect, img, params) == outcome(whole_plane_canny, img, params), params


def highs_above(low: float) -> list:
    return [low, 2.0 * low, math.inf]


def scale_for(low: float) -> float:
    # pixels at this scale have gradient magnitudes on both sides of low
    return low * 10.0 if 0.0 < low * 10.0 < math.inf else (1e300 if low else 1e-320)


def scaled_field(rng, shape, scale: float) -> GradientField:
    with np.errstate(over="ignore"):
        return GradientField(rng.normal(size=shape) * scale, rng.normal(size=shape) * scale)


def assert_thin_matches(gx: np.ndarray, gy: np.ndarray, floor: float) -> None:
    with np.errstate(over="ignore"):
        field = GradientField(gx, gy)
    expected = outcome(whole_plane_nonmax_suppress, field, floor)
    assert outcome(nonmax_suppress, field, floor) == expected, floor
    assert outcome(thin_plane, gx, gy, floor) == expected, floor


class TestCannyMatchesWholePlaneThinning:
    """The detector takes hypot only where thinning reads it; its maps must
    be those of the whole-plane magnitude, at every scale of low and of the
    pixels, and it must refuse what the whole-plane form refuses."""

    @pytest.mark.parametrize("low", EXTREME_LOWS, ids=EXTREME_IDS)
    @pytest.mark.parametrize("shape", [(3, 3), (17, 64), (64, 17)], ids=lambda s: f"{s[0]}x{s[1]}")
    def test_extreme_lows_on_scaled_images(self, low, shape):
        rng = np.random.default_rng(int(shape[0] * shape[1]))
        for scale in (scale_for(low), 1.0, 1e-300, 1e300):
            img = GrayImage(random_plane(rng, shape) * scale)
            for high in highs_above(low):
                assert_canny_matches_whole_plane(img, CannyParams(sigma=1.0, low=low, high=high))

    @pytest.mark.parametrize("low", EXTREME_LOWS, ids=EXTREME_IDS)
    @pytest.mark.parametrize("shape", SMALL_SHAPES, ids=SMALL_IDS)
    def test_extreme_lows_on_small_images(self, low, shape):
        img = GrayImage(np.random.default_rng(7).random(shape) * scale_for(low))
        assert_canny_matches_whole_plane(img, CannyParams(sigma=0.5, low=low, high=low))

    @pytest.mark.parametrize("low", EXTREME_LOWS, ids=EXTREME_IDS)
    def test_extreme_floors_on_scaled_fields(self, low):
        rng = np.random.default_rng(11)
        for scale in (scale_for(low), 1.0, 1e-300, 1e300, 1e308):
            field = scaled_field(rng, (16, 16), scale)
            assert_thin_matches(field.gx, field.gy, low)

    @pytest.mark.parametrize("exponent", [-470, 0, 500])
    def test_magnitudes_one_ulp_above_the_floor(self, exponent):
        # a lone pixel whose hypot is one ulp above the floor while
        # gx*gx + gy*gy rounds to at most floor*floor; scaling by a power
        # of two keeps both roundings while the squares stay normal
        rng = np.random.default_rng(5)
        gx, gy = rng.normal(size=(2, 4000))
        floors = np.nextafter(np.hypot(gx, gy), 0.0)
        hard = np.flatnonzero(gx * gx + gy * gy <= floors * floors)[:40]
        assert hard.size == 40
        for i in hard:
            cx, cy = np.zeros((3, 3)), np.zeros((3, 3))
            cx[1, 1], cy[1, 1], floor = np.ldexp([gx[i], gy[i], floors[i]], exponent)
            assert_thin_matches(cx, cy, floor)
            assert np.count_nonzero(thin_plane(cx, cy, floor).pixels) == 1

    @pytest.mark.parametrize("low", [0.0, 0.05, 1e200])
    def test_an_overflowing_gradient_is_still_refused(self, low):
        # columns 2 and 4 hold opposite halves of the range, so gx at
        # column 3 overflows to -inf and the thinned plane keeps it
        px = np.zeros((6, 7))
        px[:, 2] = 1.5e308
        px[:, 4] = -1.5e308
        img = GrayImage(px)
        params = CannyParams(sigma=0.3, low=low, high=1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            for detect in (canny_detect, whole_plane_canny):
                with pytest.raises(ValueError, match="finite"):
                    detect(img, params)

    @given(st.tuples(st.integers(1, 24), st.integers(1, 24)), seeds, st.integers(-300, 300),
           st.one_of(st.tuples(st.sampled_from(EXTREME_LOWS), st.just(False)),
                     st.tuples(st.floats(0.0, 0.3), st.just(True))),
           st.sampled_from((1.0, 1.5, 4.0, math.inf)), st.floats(0.3, 2.0))
    def test_random_scales(self, shape, seed, exponent, low_and_relative, factor, sigma):
        scale = 10.0 ** exponent
        low, relative = low_and_relative
        if relative:
            low *= scale  # a low in [0, 0.3] of the pixels' scale
        img = GrayImage(random_plane(np.random.default_rng(seed), shape) * scale)
        high = math.inf if factor == math.inf else low * factor
        assert_canny_matches_whole_plane(img, CannyParams(sigma=sigma, low=low, high=high))

    @given(st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
        lambda shape: st.tuples(hnp.arrays(np.float64, shape, elements=extreme_components),
                                hnp.arrays(np.float64, shape, elements=extreme_components))),
        st.sampled_from(EXTREME_LOWS + (0.25, 1.0)))
    def test_random_extreme_fields(self, planes, floor):
        assert_thin_matches(*planes, floor)


MAX = sys.float_info.max
# the blur's kernel is [0, 1, 0] at this sigma, so it passes a plane through bit for bit
IDENTITY_SIGMA = 0.01
# a sigma whose rounded taps sum past one: the blur of a plane at MAX overflows
OVERFLOWING_SIGMA = 0.20193397799266424
# in 2-row strips, the Laplacian of this plane's row 1, recomputed as the top
# halo of the strip of rows 2-3 with row 1 repeated above it, overflows at
# column 2; the image's own Laplacian and its crossing slopes are finite
HALO_ONLY_LAPLACIAN = np.array([[176, 99, -256, 108, 256], [256, 101, -230, 102, 256], [151, 256, 132, 256, 57],
                                [-162, 40, 230, 217, 38], [71, 87, 95, -33, 58]]) / 256 * (MAX / 4)


def plane_with(shape, *cells) -> np.ndarray:
    # zeros, with value at each (at, value) of cells
    px = np.zeros(shape)
    for at, value in cells:
        px[at] = value
    return px


# (plane, sigma, strip rows, whether Canny refuses, whether Marr-Hildreth refuses)
STRIP_REFUSALS = [
    pytest.param(plane_with((16, 6), (np.s_[9:11], MAX)), OVERFLOWING_SIGMA, 4, True, True,
                 id="blur-in-a-middle-strip"),
    pytest.param(plane_with((16, 6), (np.s_[7:9], MAX)), OVERFLOWING_SIGMA, 4, True, True,
                 id="blur-across-a-strip-boundary"),
    pytest.param(plane_with((16, 6), (np.s_[9:11], MAX)), 0.3, 4, False, True, id="finite-blur-laplacian-overflows"),
    pytest.param(plane_with((16, 7), (np.s_[8:12, 2], 1.5e308), (np.s_[8:12, 4], -1.5e308)), IDENTITY_SIGMA, 4, True, True,
                 id="gradient-in-a-middle-strip"),
    pytest.param(plane_with((16, 6), ((9, 2), MAX / 2)), IDENTITY_SIGMA, 4, False, True,
                 id="laplacian-in-a-middle-strip"),
    # rows whose Laplacian is +inf in row 8 alone, between rows of exact
    # zeros: no crossing lands there, so only the Laplacian's own check refuses it
    pytest.param(plane_with((16, 6), (np.s_[5:12], np.array([[1, 0, -1, -2, -1, 0, 1]]).T * 2.0 ** 1021)),
                 IDENTITY_SIGMA, 4, False, True, id="laplacian-with-no-crossing-in-a-middle-strip"),
    pytest.param(HALO_ONLY_LAPLACIAN, IDENTITY_SIGMA, 2, False, False, id="laplacian-only-in-a-halo-row"),
]
NOT_FINITE = "gray pixels must be finite, got NaN or infinity"


def wrapped_canny(img: GrayImage, params: CannyParams) -> EdgeMap:
    # the detector as a chain of whole-plane stages, each wrapped and so checked
    k = gaussian_kernel_1d(params.sigma, gaussian_radius(params.sigma))
    thinned = whole_plane_nonmax_suppress(gradient(whole_plane_convolve_separable(img, k, k)), params.low)
    return hysteresis(thinned, params.low, params.high)


def wrapped_mh(img: GrayImage, params: MHParams) -> EdgeMap:
    k = gaussian_kernel_1d(params.sigma, gaussian_radius(params.sigma))
    return slope_plane_mh_from_smoothed(whole_plane_convolve_separable(img, k, k), params)


class TestRefusalsAtStripBoundaries:
    """The private stages check finiteness only where overflow can arise: the
    rows each blur strip writes, the kept pixels of thinning, and each strip
    of the Laplacian that the crossing pass reads. Planes that overflow inside one strip, or
    only in a strip's halo, must be refused, or mapped, as by the chain of
    whole-plane stages wrapped in GrayImage at every hand-off, through the
    detectors and the CLI alike."""

    @pytest.mark.parametrize("px, sigma, strip, canny_refuses, mh_refuses", STRIP_REFUSALS)
    def test_detectors_and_cli(self, monkeypatch, tmp_path, capsys, px, sigma, strip, canny_refuses, mh_refuses):
        img = GrayImage(px)
        cases = [
            (canny_detect, wrapped_canny, CannyParams(sigma=sigma, low=0.05, high=0.15), canny_refuses,
             ["--detector", "canny", "--sigma", repr(sigma), "--low", "0.05", "--high", "0.15"]),
            (mh_detect, wrapped_mh, MHParams(sigma=sigma), mh_refuses,
             ["--detector", "marr-hildreth", "--sigma", repr(sigma)]),
            (mh_detect, wrapped_mh, MHParams(sigma=sigma, use_hysteresis=True, low=0.0, high=1e300), mh_refuses,
             ["--detector", "marr-hildreth", "--sigma", repr(sigma), "--mh-hysteresis", "--low", "0", "--high", "1e300"]),
        ]
        # no file holds these samples, so the CLI's reader hands over the plane
        monkeypatch.setattr(cli, "_read_gray", lambda path: px.copy())
        set_strip_rows(monkeypatch, strip, px.shape[1])
        out = tmp_path / "e.pgm"
        for detect, wrapped, params, refuses, flags in cases:
            expected = outcome(wrapped, img, params)
            assert (expected == NOT_FINITE.encode()) == refuses, params
            assert outcome(detect, img, params) == expected, params
            with np.errstate(over="ignore", invalid="ignore"):
                code = cli.run(["detect", "--in", "unread.pgm", "--out", str(out), *flags])
            err = capsys.readouterr().err
            if refuses:
                assert (code, err) == (1, f"edgebench: invalid parameters: {NOT_FINITE}\n"), flags
            else:
                write_image(EdgeMap(np.frombuffer(expected, dtype=bool).reshape(px.shape)), tmp_path / "w.pgm")
                assert (code, err) == (0, ""), flags
                assert out.read_bytes() == (tmp_path / "w.pgm").read_bytes(), flags

    def test_a_halo_row_that_overflows_is_not_refused(self, monkeypatch):
        # the crossing pass checks the strips it reads, cut from the whole
        # Laplacian, not the Laplacian strips, whose halo rows repeat a border
        set_strip_rows(monkeypatch, 2, 5)
        for params in (MHParams(), MHParams(use_hysteresis=True, low=0.0, high=1e300)):
            with np.errstate(over="ignore", invalid="ignore"):
                assert not np.isfinite(marr_hildreth._laplacian(HALO_ONLY_LAPLACIAN[1:3])[0]).all()
                got = _mh_from_smoothed(HALO_ONLY_LAPLACIAN, params)
                expected = slope_plane_mh_from_smoothed(GrayImage(HALO_ONLY_LAPLACIAN), params).mask
            assert got.tobytes() == expected.tobytes(), params


STRIP_SHAPES = [(8, 8), (9, 8), (8, 13), (31, 17), (37, 100), (100, 37)]
STRIP_SIGMAS = (1.0, 1.4, 3.0)


def set_strip_rows(monkeypatch, rows: int, width: int) -> None:
    # a budget that gives strips of exactly `rows` rows at this width
    monkeypatch.setattr(image_core, "_STRIP_BYTES", rows * 8 * width)


def assert_blur_matches(img: GrayImage, kx, ky) -> None:
    got = convolve_separable(img, kx, ky).pixels
    expected = whole_plane_convolve_separable(img, kx, ky).pixels
    assert got.tobytes() == expected.tobytes(), (img.pixels.shape, kx.radius, ky.radius)


def assert_strips_match(px: np.ndarray, sigma: float, radius=None) -> None:
    img = GrayImage(px)
    k = gaussian_kernel_1d(sigma, gaussian_radius(sigma) if radius is None else radius)
    narrow = gaussian_kernel_1d(0.7, 2)
    for kx, ky in ((k, k), (narrow, k), (k, narrow)):
        assert_blur_matches(img, kx, ky)
    for kernel in (laplacian_kernel_2d(), outer_kernel(k, k)):
        got = convolve_2d(img, kernel).pixels
        assert got.tobytes() == whole_plane_convolve_2d(img, kernel).pixels.tobytes(), (px.shape, sigma)
    resp = whole_plane_convolve_2d(whole_plane_convolve_separable(img, k, k), laplacian_kernel_2d())
    assert laplacian_of_smoothed(img, sigma, radius).pixels.tobytes() == resp.pixels.tobytes(), (px.shape, sigma)
    quantised = np.random.default_rng(px.size).choice(RESPONSE_LEVELS, size=px.shape)
    for plane in (resp, GrayImage(quantised), GrayImage(px - 0.5)):
        got = crossing_slope_map(plane).pixels
        assert got.tobytes() == whole_plane_crossing_slope_map(plane).pixels.tobytes(), (px.shape, sigma)


def assert_gradient_matches_pad(px: np.ndarray) -> None:
    field = gradient(GrayImage(px))
    gx, gy = pad_central_differences(px)
    assert (field.gx.tobytes(), field.gy.tobytes()) == (gx.tobytes(), gy.tobytes()), px.shape


class TestEdgePaddingMatchesNumpyPad:
    @given(st.tuples(st.integers(1, 12), st.integers(1, 12)), st.integers(0, 15), st.integers(0, 15), seeds)
    def test_random_planes_and_pads(self, shape, ry, rx, seed):
        # pads of up to 15 reach past every side of planes of up to 12
        px = random_plane(np.random.default_rng(seed), shape) - 0.2
        got = filtering._edge_padded(px, ry, rx)
        expected = np.pad(px, ((ry, ry), (rx, rx)), mode="edge")
        assert (got.shape, got.dtype) == (expected.shape, expected.dtype)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("sigma", (1.0, 3.0))
    @pytest.mark.parametrize("shape", SMALL_SHAPES, ids=SMALL_IDS)
    def test_planes_narrower_than_the_reach(self, shape, sigma):
        px = random_plane(np.random.default_rng(shape[0] * 10 + shape[1]), shape) - 0.2
        assert_strips_match(px, sigma)
        assert_gradient_matches_pad(px)

    @given(st.tuples(st.integers(1, 40), st.integers(1, 40)), seeds)
    def test_gradient_of_random_planes(self, shape, seed):
        assert_gradient_matches_pad(random_plane(np.random.default_rng(seed), shape) - 0.2)


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
        monkeypatch.setattr(image_core, "_STRIP_BYTES", 100)
        assert_strips_match(px, 1.0)
        wide = np.random.default_rng(5).random((3, 70_000))
        monkeypatch.undo()
        assert image_core._STRIP_BYTES < 8 * wide.shape[1]
        assert_strips_match(wide, 1.0)

    def test_detect_composite_at_the_real_budget(self):
        gray, _ = load_detect_composite()(0)
        img = GrayImage(gray)
        assert image_core._STRIP_BYTES // (8 * img.width) < img.height
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

    @pytest.mark.parametrize("h, strip", [(1, 1), (10, 1), (10, 3), (10, 10), (33, 10)])
    def test_layered_output_of_another_dtype(self, monkeypatch, h, strip):
        plane = np.arange(h * 4, dtype=np.float64).reshape(h, 4)
        set_strip_rows(monkeypatch, strip, 4)

        def stage(px):
            # row y of each layer reads rows y - 1 .. y + 1
            near = np.pad(px, ((1, 1), (0, 0)), mode="edge")
            return np.stack([near[:-2] < px, near[2:] > px + 4.0])

        got = _by_strips(stage, plane, 1)
        assert (got.dtype, got.shape) == (np.dtype(bool), (2, h, 4))
        assert np.array_equal(got, stage(plane))

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_laplacian_of_quantised_planes_with_signed_zeros(self, monkeypatch, shape):
        px = np.random.default_rng(shape[0] + 3 * shape[1]).choice(RESPONSE_LEVELS, size=shape)
        set_strip_rows(monkeypatch, 3, shape[1])
        # a +0 whose four neighbours are -0 sums to -0 unless the sum starts
        # from +0, as convolve_2d's does
        checkers = np.where(np.indices(shape).sum(axis=0) % 2 == 1, -0.0, 0.0)
        for plane in (px, checkers):
            expected = whole_plane_convolve_2d(GrayImage(plane), laplacian_kernel_2d()).pixels
            assert _by_strips(marr_hildreth._laplacian, plane, 1).tobytes() == expected.tobytes()
        assert not np.signbit(marr_hildreth._laplacian(checkers)).any()

    @given(st.tuples(st.integers(1, 40), st.integers(1, 40)), st.integers(1, 45), seeds,
           st.one_of(st.floats(0.3, 3.0).map(lambda s: (s, None)),
                     st.tuples(st.floats(0.3, 3.0), st.integers(1, 12))))
    def test_random_planes(self, shape, strip, seed, kernel):
        px = random_plane(np.random.default_rng(seed), shape) - 0.2
        with pytest.MonkeyPatch.context() as mp:
            set_strip_rows(mp, strip, shape[1])
            assert_strips_match(px, *kernel)


# rows of a float64 strip at width 1024 at the real budget
STRIP_ROWS_1024 = image_core._STRIP_BYTES // (8 * 1024)


class TestBlurPassesMatchWholePlane:
    """convolve_separable filters each row along x once, into a plane padded
    by ky's radius of replicated rows, and runs its y strips straight off
    that plane; it must give the whole-plane passes' bytes wherever the
    padding or the strips reach."""

    @pytest.mark.parametrize("radius", [STRIP_ROWS_1024 // 2 + 1, STRIP_ROWS_1024 // 2 + 8, STRIP_ROWS_1024 // 2 + 68])
    def test_radius_above_half_a_strip_at_width_1024(self, radius):
        # a plane of two strips and a short third at the real budget; every
        # y strip reads a halo taller than itself
        px = np.random.default_rng(radius).random((2 * STRIP_ROWS_1024 + 6, 1024))
        assert STRIP_ROWS_1024 < 2 * radius
        k = gaussian_kernel_1d(radius / 3.0, radius)
        assert_blur_matches(GrayImage(px), k, k)
        assert_blur_matches(GrayImage(px), gaussian_kernel_1d(0.7, 2), k)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (1, 300), (5, 1), (300, 1), (40, 2), (3, 2)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("radius", [1, 9, 40])
    def test_radius_larger_than_the_plane(self, monkeypatch, shape, radius):
        px = np.random.default_rng(shape[0] * 7 + shape[1]).random(shape) - 0.3
        k = gaussian_kernel_1d(max(radius / 3.0, 0.5), radius)
        assert_blur_matches(GrayImage(px), k, k)
        set_strip_rows(monkeypatch, 2, shape[1])
        assert_blur_matches(GrayImage(px), k, k)

    @pytest.mark.parametrize("rx, ry", [(1, 30), (30, 1), (2, 7), (7, 2), (12, 0), (0, 12)])
    @pytest.mark.parametrize("strip", [1, 5, 32])
    def test_kernels_of_different_radii(self, monkeypatch, rx, ry, strip):
        px = np.random.default_rng(rx * 31 + ry).random((45, 23)) - 0.5
        set_strip_rows(monkeypatch, strip, 23)
        # a radius-0 kernel is the single tap 1
        kx = gaussian_kernel_1d(max(rx, 1) / 2.0, rx) if rx else filtering.Kernel1D([1.0])
        ky = gaussian_kernel_1d(max(ry, 1) / 2.0, ry) if ry else filtering.Kernel1D([1.0])
        assert_blur_matches(GrayImage(px), kx, ky)

    @pytest.mark.parametrize("strip", [1, 3, 8, 40])
    def test_signed_zeros_and_denormals(self, monkeypatch, strip):
        rng = np.random.default_rng(strip)
        levels = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-320, 0.5)
        planes = [rng.choice(levels, size=(37, 11)), np.full((37, 11), -0.0), np.full((37, 11), -5e-324),
                  np.where(np.indices((37, 11)).sum(axis=0) % 2 == 1, -0.0, -5e-324)]
        kernels = (gaussian_kernel_1d(1.0, 3), filtering.Kernel1D([0.0, 1.0, 0.0]), filtering.Kernel1D([1.0]))
        set_strip_rows(monkeypatch, strip, 11)
        for px in planes:
            for kx in kernels:
                for ky in kernels:
                    assert_blur_matches(GrayImage(px), kx, ky)
        # each pass's sums start at +0: the y taps of a -5e-324 row round to
        # -0, and their sum is +0
        got = convolve_separable(GrayImage(planes[2]), kernels[2], kernels[0]).pixels
        assert not np.signbit(got).any()

    @given(st.integers(1, 9), st.integers(-1, 1), st.integers(0, 4), st.integers(1, 9), st.integers(0, 12),
           st.integers(0, 12), seeds)
    def test_heights_around_strip_multiples(self, strip, offset, strips, width, rx, ry, seed):
        shape = (max(1, strips * strip + offset), width)
        px = random_plane(np.random.default_rng(seed), shape) - 0.2
        kx = gaussian_kernel_1d(max(rx, 1) / 2.5, rx) if rx else filtering.Kernel1D([1.0])
        ky = gaussian_kernel_1d(max(ry, 1) / 2.5, ry) if ry else filtering.Kernel1D([1.0])
        with pytest.MonkeyPatch.context() as mp:
            set_strip_rows(mp, strip, width)
            assert_blur_matches(GrayImage(px), kx, ky)


def set_cpus(monkeypatch, cpus: int) -> None:
    # the CPUs the band driver sees, whatever this process may really use
    monkeypatch.setattr(image_core, "_cpus", lambda: cpus)


def canny_core(px: np.ndarray, params: CannyParams) -> np.ndarray:
    # the blur and the Canny core as detect runs them
    return _canny_from_smoothed(filtering._smooth(px, params.sigma, params.radius), params)


# row 8, the second band's first row in strips of 4, has two infinite
# magnitudes (gx between -0.6 and 0.6 of MAX) that the whole plane does not
# keep: each one's far interpolation sample on row 9 is infinite too (gy
# between rows 8 and 10), and that sample's weight of 0 times inf is NaN. The
# first band's halo ends at row 9, whose gy repeats row 9 for row 10, so the
# sample is finite there and the band's row 8 would keep both
HALO_ONLY_KEPT_INF = plane_with((16, 7), ((8, 1), -0.6 * MAX), ((8, 3), 0.6 * MAX), ((10, 3), -0.6 * MAX),
                                ((8, 5), -0.6 * MAX))


class TestBands:
    """A plane of at least 4 row strips runs its blur and Canny core as two
    bands of whole strips on two worker threads, when the process may use 2
    CPUs: the maps and refusals must be the whole-plane stages' and the
    one-band path's, the caller's np.errstate must hold in the workers, both
    bands must finish before the first band's error is raised, and a forked
    child must build its own workers."""

    @pytest.mark.parametrize("h, strip, cpus, expected", [
        (16, 4, 2, [[(0, 4), (4, 8)], [(8, 12), (12, 16)]]),
        (17, 4, 2, [[(0, 4), (4, 8)], [(8, 12), (12, 16), (16, 17)]]),
        (12, 4, 2, [[(0, 4), (4, 8), (8, 12)]]),
        (16, 4, 1, [[(0, 4), (4, 8), (8, 12), (12, 16)]]),
        (16, 16, 2, [[(0, 16)]]),
    ])
    def test_bands_are_halves_of_whole_strips(self, monkeypatch, h, strip, cpus, expected):
        # each band's (top, bottom) rows, and the strips _row_strips gives between them
        set_strip_rows(monkeypatch, strip, 3)
        set_cpus(monkeypatch, cpus)
        bands = image_core._bands((h, 3))
        assert bands == [(strips[0][0], strips[-1][1]) for strips in expected]
        assert [image_core._row_strips((h, 3), top, bottom) for top, bottom in bands] == expected

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("shape, strip", [((16, 5), 2), ((17, 9), 4), ((40, 3), 3), ((9, 4), 2)],
                             ids=lambda v: str(v))
    @pytest.mark.parametrize("sigma, radius", [(1.0, None), (1.4, None), (4.0, 12), (13.0, 40)])
    def test_seams_match_the_whole_plane(self, monkeypatch, shape, strip, cpus, sigma, radius):
        # radii 12 and 40 reach past a band of 8 or 9 rows, and past the image
        px = random_plane(np.random.default_rng(shape[0] * strip + cpus), shape) - 0.2
        set_strip_rows(monkeypatch, strip, shape[1])
        set_cpus(monkeypatch, cpus)
        k = gaussian_kernel_1d(sigma, gaussian_radius(sigma) if radius is None else radius)
        narrow = gaussian_kernel_1d(0.7, 2)
        for kx, ky in ((k, k), (narrow, k), (k, narrow)):
            assert_blur_matches(GrayImage(px), kx, ky)
        for low, high in ((0.0, 0.0), (0.01, 0.05), (0.05, 0.15)):
            params = CannyParams(sigma=sigma, low=low, high=high, radius=radius)
            with monkeypatch.context() as one:
                set_cpus(one, 1)
                serial = canny_core(px, params)
            assert canny_core(px, params).tobytes() == serial.tobytes(), params
            if radius is None:
                assert serial.tobytes() == whole_plane_canny(GrayImage(px), params).mask.tobytes(), params

    @given(st.tuples(st.integers(4, 40), st.integers(1, 12)), st.integers(1, 10), seeds,
           st.sampled_from([0.5, 1.0, 1.4, 3.0]))
    def test_random_planes_in_bands(self, shape, strip, seed, sigma):
        px = random_plane(np.random.default_rng(seed), shape) - 0.2
        img = GrayImage(px)
        params = CannyParams(sigma=sigma, low=0.05, high=0.15)
        with pytest.MonkeyPatch.context() as mp:
            set_strip_rows(mp, strip, shape[1])
            set_cpus(mp, 2)
            k = gaussian_kernel_1d(sigma, gaussian_radius(sigma))
            assert_blur_matches(img, k, k)
            assert canny_core(px, params).tobytes() == whole_plane_canny(img, params).mask.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_stack_of_at_least_4_strips(self, monkeypatch, cpus):
        # a (3, 20, 5) stack in strips of 3 rows spans 7 strips, so its blur
        # runs in two bands; Canny on a stack stays one call
        stack = np.random.default_rng(3).random((3, 20, 5)) - 0.3
        set_strip_rows(monkeypatch, 3, 3 * 5)
        set_cpus(monkeypatch, cpus)
        assert len(image_core._bands(stack.shape)) == cpus
        k = gaussian_kernel_1d(1.4, gaussian_radius(1.4))
        smoothed = filtering._blur(stack, k, k)
        for layer, blurred in zip(stack, smoothed):
            assert blurred.tobytes() == whole_plane_convolve_separable(GrayImage(layer), k, k).pixels.tobytes()
        params = CannyParams(sigma=1.4, low=0.01, high=0.05)
        for layer, mask in zip(stack, _canny_from_smoothed(smoothed, params)):
            assert mask.tobytes() == whole_plane_canny(GrayImage(layer), params).mask.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("px, sigma, strip, canny_refuses, mh_refuses", STRIP_REFUSALS)
    def test_refusals_in_bands(self, monkeypatch, px, sigma, strip, canny_refuses, mh_refuses, cpus):
        set_strip_rows(monkeypatch, strip, px.shape[1])
        set_cpus(monkeypatch, cpus)
        params = CannyParams(sigma=sigma, low=0.05, high=0.15)
        expected = outcome(wrapped_canny, GrayImage(px), params)
        assert (expected == NOT_FINITE.encode()) == canny_refuses
        assert outcome(canny_core, px, params) == expected

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_an_infinite_magnitude_kept_only_in_a_halo_row_is_not_refused(self, monkeypatch, cpus):
        px = HALO_ONLY_KEPT_INF
        set_strip_rows(monkeypatch, 4, px.shape[1])
        set_cpus(monkeypatch, cpus)
        params = CannyParams(sigma=IDENTITY_SIGMA, low=0.05, high=0.15)
        # the first band's rows 0-9, row 9 repeated below, keep an infinite
        # magnitude on row 8; the whole plane keeps none
        with np.errstate(over="ignore", invalid="ignore"):
            gradients = _central_differences(px[:10])
            with pytest.raises(ValueError, match=NOT_FINITE):
                _thin(*gradients, 0.05, rows=(8, 9))
            _thin(*gradients, 0.05, rows=(0, 8))
            _thin(*_central_differences(px), 0.05)
        expected = outcome(wrapped_canny, GrayImage(px), params)
        assert expected != NOT_FINITE.encode()
        assert outcome(canny_detect, GrayImage(px), params) == expected
        assert outcome(canny_core, px, params) == expected

    def test_the_callers_errstate_holds_in_the_workers(self, monkeypatch):
        # the blur of STRIP_REFUSALS' first plane overflows in the second band
        px = STRIP_REFUSALS[0].values[0]
        set_strip_rows(monkeypatch, 4, px.shape[1])
        set_cpus(monkeypatch, 2)
        k = gaussian_kernel_1d(OVERFLOWING_SIGMA, gaussian_radius(OVERFLOWING_SIGMA))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            filtering._blur(px, k, k)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=NOT_FINITE):
            filtering._blur(px, k, k)

    @pytest.mark.parametrize("slow", [0, 1])
    def test_both_bands_finish_before_the_first_bands_error(self, slow):
        # whichever band ends first, the first band's error is raised, and
        # only once both have ended
        ended = []

        def task(band):
            if band == slow:
                time.sleep(0.05)
            ended.append(band)
            if band == 0:
                raise ValueError("band 0")
            raise KeyError("band 1")

        with pytest.raises(ValueError, match="band 0"):
            image_core._run_bands(task, [(0,), (1,)])
        assert sorted(ended) == [0, 1]
        with pytest.raises(KeyError, match="band 1"):
            image_core._run_bands(lambda band: band if band == 0 else task(band), [(0,), (1,)])
        assert image_core._run_bands(lambda band: band * 10, [(1,), (2,)]) == [10, 20]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_builds_its_own_workers(self, monkeypatch):
        px = np.random.default_rng(8).random((16, 5))
        set_strip_rows(monkeypatch, 2, 5)
        set_cpus(monkeypatch, 2)
        k = gaussian_kernel_1d(1.4, gaussian_radius(1.4))
        expected = filtering._blur(px, k, k).tobytes()
        assert image_core._POOL
        with warnings.catch_warnings():
            # Python 3.12 and later warn on forking a process that has threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 2 if image_core._POOL else int(filtering._blur(px, k, k).tobytes() != expected)
            finally:
                os._exit(code)
        # the parent's workers are not in the child, so a child that kept
        # the parent's pool would wait on them for ever
        for _ in range(600):
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's blur did not finish")
        assert os.waitstatus_to_exitcode(status) == 0


# the band cut of a (16, w) plane in strips of 4 rows on 2 CPUs
MH_SEAM = 8
# a column whose Laplacian is +inf on its middle row alone, between rows of
# exact zeros, so no crossing lands near it
NO_CROSSING_INF = np.array([[1, 0, -1, -2, -1, 0, 1]]).T * 2.0 ** 1021


def impulses(r: int) -> list:
    """(16, 5) planes with a crossing on row r: an impulse on row r
    (Laplacian 1, -4, 1 down its column), and opposite impulses on rows
    r - 1 and r + 1, whose Laplacian is exactly 0 on row r between -4 and 4,
    a straddle there."""
    planes = [plane_with((16, 5), ((r, 2), sign)) for sign in (1.0, -1.0)]
    if 0 < r < 15:
        planes.append(plane_with((16, 5), ((r - 1, 2), 1.0), ((r + 1, 2), -1.0)))
    return planes


class TestMarrHildrethBands:
    """The detector after its blur runs one pass per row strip in the bands
    of _bands: each strip takes the Laplacian of its rows and two more on
    each side, keeps the image's own Laplacian rows, its rows and one on
    each side, refuses those unless finite and marks its crossings. On 1
    CPU and on 2, the maps and refusals must be the whole Laplacian and
    slope planes', wherever a crossing, a non-finite Laplacian or an
    overflowing slope falls against a strip's rows or the band cut."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("strip", [1, 2, 3, 4, 5])
    def test_crossings_on_every_row_of_a_strip(self, monkeypatch, strip, cpus):
        # over every r, crossings fall on rows t - 1, t, b - 1 and b of each
        # strip (t, b), and on both sides of the band cut
        set_strip_rows(monkeypatch, strip, 5)
        set_cpus(monkeypatch, cpus)
        for r in range(16):
            for px in impulses(r):
                assert slope_plane_mh_from_smoothed(GrayImage(px), MHParams()).mask[r].any(), r
                for params in mh_cases([0.0, 4.0, 5.0]):
                    assert_mh_matches(px, params)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("row", [MH_SEAM - 2, MH_SEAM - 1, MH_SEAM, MH_SEAM + 1])
    @pytest.mark.parametrize("crossing", [True, False], ids=["crossing", "no-crossing"])
    def test_a_non_finite_laplacian_row_at_the_seam_is_refused(self, monkeypatch, row, crossing, cpus):
        # MAX / 2 times -4 overflows on this row alone, where crossings land;
        # NO_CROSSING_INF's Laplacian is +inf on this row with no crossing, so
        # only the Laplacian's own check refuses it
        px = np.zeros((16, 6))
        if crossing:
            px[row, 2] = MAX / 2
        else:
            px[row - 3:row + 4] = NO_CROSSING_INF
        set_strip_rows(monkeypatch, 4, 6)
        set_cpus(monkeypatch, cpus)
        for params in mh_cases([0.0]):
            expected = outcome(slope_plane_mh_from_smoothed, GrayImage(px), params)
            assert expected == NOT_FINITE.encode()
            assert outcome(_mh_from_smoothed, px, params) == expected, params

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("strip", [1, 2])
    def test_an_overflowing_halo_only_row_at_the_seam_is_not_refused(self, monkeypatch, strip, cpus):
        # HALO_ONLY_LAPLACIAN between copies of its first and last rows,
        # which leave its own Laplacian rows as they were: its row 1, here
        # row 2, overflows when the strip from row 4, the second band's
        # first, recomputes it against a repeated border
        px = np.vstack([HALO_ONLY_LAPLACIAN[:1], HALO_ONLY_LAPLACIAN, HALO_ONLY_LAPLACIAN[-1:].repeat(2, axis=0)])
        set_strip_rows(monkeypatch, strip, 5)
        set_cpus(monkeypatch, 2)
        assert image_core._bands(px.shape)[1][0] == 4
        set_cpus(monkeypatch, cpus)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(marr_hildreth._laplacian(px[2:4])[0]).all()
        for params in mh_cases([0.0, 1e300]):
            expected = outcome(slope_plane_mh_from_smoothed, GrayImage(px), params)
            assert expected != NOT_FINITE.encode()
            assert outcome(_mh_from_smoothed, px, params) == expected, params

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("cells, overflows", [
        # -x and x on the rows either side of the cut: Laplacians 5x and
        # -5x, a pair across the cut with slope 10x
        ((((MH_SEAM - 1, 2), -MAX / 8), ((MH_SEAM, 2), MAX / 8)), True),
        ((((MH_SEAM - 1, 2), -MAX / 16), ((MH_SEAM, 2), MAX / 16)), False),
        # x and -x on rows 7 and 9: Laplacians -4x, exactly 0 and 4x, a
        # straddle on the cut's row with slope 8x
        ((((MH_SEAM - 1, 2), MAX / 6), ((MH_SEAM + 1, 2), -MAX / 6)), True),
        ((((MH_SEAM - 1, 2), MAX / 12), ((MH_SEAM + 1, 2), -MAX / 12)), False),
    ], ids=["pair", "finite-pair", "straddle", "finite-straddle"])
    def test_an_overflowing_slope_at_the_seam(self, monkeypatch, cells, overflows, cpus):
        px = plane_with((16, 5), *cells)
        set_strip_rows(monkeypatch, 4, 5)
        set_cpus(monkeypatch, cpus)
        for params in mh_cases([0.0]):
            expected = outcome(slope_plane_mh_from_smoothed, GrayImage(px), params)
            assert (expected == NOT_FINITE.encode()) == overflows
            assert outcome(_mh_from_smoothed, px, params) == expected, params

    @given(st.tuples(st.integers(4, 40), st.integers(1, 12)), st.integers(1, 10), seeds, st.sampled_from(PAIRS))
    def test_random_planes_in_bands(self, shape, strip, seed, pair):
        px = np.random.default_rng(seed).choice(RESPONSE_LEVELS, size=shape)
        with pytest.MonkeyPatch.context() as mp:
            set_strip_rows(mp, strip, shape[1])
            set_cpus(mp, 2)
            for params in (MHParams(slope_threshold=pair[0]), MHParams(use_hysteresis=True, low=pair[0], high=pair[1])):
                assert_mh_matches(px, params)
                assert_mh_matches(px + 0.2, params)


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


def read_outcome(path, read=read_image):
    # read's pixels with their type and shape, or its error; _read_gray's
    # bare plane counts as the GrayImage it stands for
    try:
        img = read(path)
    except (FormatError, TruncationError) as exc:
        return type(exc), str(exc)
    px = img if isinstance(img, np.ndarray) else img.pixels
    return GrayImage if px.ndim == 2 else type(img), px.shape, px.tobytes()


def gray_outcome(path):
    # what the CLI's reader must give: read_image's gray plane, a PPM's collapsed
    img = read_image(path)
    return rgb_to_gray(img) if isinstance(img, RgbImage) else img


# bytes per ASCII run: a handful, so a raster spans many runs, and the real budget
RUN_BUDGETS = (1, 2, 3, 5, 8, None)


def assert_ascii_read_matches(path, budgets=RUN_BUDGETS) -> None:
    """read_image and _read_gray, at every run budget, on 1 CPU (one band)
    and on 2 (two bands where the raster spans 4 runs), must read what the
    token split and the whole-buffer parse read, or fail alike."""
    expected = []
    for oracle in (split_ascii_samples, whole_buffer_ascii_samples):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(image_core, "_ascii_samples", oracle)
            expected.append((read_outcome(path), read_outcome(path, gray_outcome)))
    assert expected[0] == expected[1], path.read_bytes()[:200]
    for cpus in (1, 2):
        for budget in budgets:
            with pytest.MonkeyPatch.context() as mp:
                set_cpus(mp, cpus)
                if budget is not None:
                    mp.setattr(image_core, "_RUN_BYTES", budget)
                got = read_outcome(path), read_outcome(path, image_core._read_gray)
            assert got == expected[0], (cpus, budget, path.read_bytes()[:200])


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
        # runs of about one and two rows, and of the real budget
        assert_ascii_read_matches(path, (4096, 8192, None))


class TestAsciiRunBoundaries:
    """The ASCII parse tokenises byte runs of about _RUN_BYTES, each cut at
    a whitespace byte; with every budget from one byte to the whole file,
    each run boundary falls on each byte of these rasters once."""

    @pytest.mark.parametrize("body", [
        b"P2 4 1 255 1 234 5 67",
        b"P2 3 1 255 1 # a comment 99 that 7 spans runs\r\n2 #\n3",
        b"P2 3 1 65535 1 " + b"0" * 17 + b"65535 " + b"1" * 25 + b" 4",
        b"P2 2 1 65535 " + b"0" * 30 + b"7 " + b"9" * 40,
        b"P2 5 1 255 1 2 3 4 x5",
        b"P2 5 1 255 1 y 3 4 x",
        b"P2 6 1 255 1 x 3 4 5",
        b"P2 6 1 255 1 x 3 4\n#5 6 7\n",
        b"P2 2 1 255 1 2 \xff-junk.#\x00 " + b"9" * 30,
        b"P2 2 1 255 1 2" + b" " * 40,
        b"P3 2 1 255\r\n1 2 3\r\n4 5 6\r\n7",
    ], ids=["token", "comment", "18-and-25-digits", "31-and-40-digits", "malformed-in-the-last-run",
            "first-of-two-malformed", "truncated-and-malformed", "truncated-by-a-comment",
            "garbage-after-count", "blank-tail", "p3-crlf"])
    def test_every_budget(self, tmp_path, body):
        path = tmp_path / "t.pnm"
        path.write_bytes(body)
        assert_ascii_read_matches(path, range(1, len(body) + 1))

    def test_a_short_raster_with_a_bad_token_in_an_early_run_counts_every_token(self, monkeypatch, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P2 9 1 255 1 x 3 4 5 6 7 8")
        monkeypatch.setattr(image_core, "_RUN_BYTES", 2)
        with pytest.raises(TruncationError, match="expected 9 samples, got 8"):
            read_image(path)

    def test_runs_past_the_last_sample_are_never_read(self, monkeypatch, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P2 2 1 255 1 2 " + b"x" * 100)
        monkeypatch.setattr(image_core, "_RUN_BYTES", 3)
        with mock.patch.object(image_core, "_malformed_token", wraps=image_core._malformed_token) as scanned:
            assert read_image(path).pixels.tolist() == [[1 / 255, 2 / 255]]
        # both samples lie in the first run, and no run after it is tokenised
        assert scanned.call_count == 1


# tokens at each edge of the digit sums' dtypes: 4 and 5 digits (uint16),
# 9 and 10 (uint32), 18 and 19 (int64, then float()), with leading zeros
DTYPE_EDGE_TOKENS = {
    255: [b"0255", b"00255", b"000000255", b"0000000255", b"0" * 15 + b"255", b"0" * 16 + b"255"],
    65535: [b"9999", b"65535", b"000065535", b"0000065535", b"0" * 13 + b"65535", b"0" * 14 + b"65535"],
}


class TestAsciiDigitSums:
    """Each ASCII run sums its tokens' digits in the narrowest dtype that
    holds its longest token, uint16, uint32 or int64, and converts tokens of
    over 18 digits with float(): every sample must be the token split's and
    the Horner oracle's."""

    @pytest.mark.parametrize("maxval", [255, 65535])
    @pytest.mark.parametrize("order", ["rising", "falling", "mixed"])
    def test_tokens_at_each_dtype_edge(self, tmp_path, maxval, order):
        tokens = DTYPE_EDGE_TOKENS[maxval]
        tokens = {"rising": tokens, "falling": tokens[::-1], "mixed": tokens[1::2] + tokens[0::2]}[order]
        tokens = tokens + [b"7", b"0", b"1" + b"0" * (len(b"%d" % maxval) - 1)]
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P2 %d 1 %d\n" % (len(tokens), maxval) + b" ".join(tokens) + b"\n")
        # every budget, so the tokens share a run or take one each
        assert_ascii_read_matches(path, range(1, len(path.read_bytes()) + 1))
        assert read_image(path).pixels.max() == 1.0

    @pytest.mark.parametrize("digits", [4, 5, 9, 10, 17, 18, 19, 25])
    def test_the_largest_value_of_each_length_reaches_the_maxval_check(self, tmp_path, digits):
        # the refusal names the largest sample, so it shows the sum's value
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P2 3 1 255 1 " + b"9" * digits + b" 0" + b"0" * digits)
        assert_ascii_read_matches(path)
        with pytest.raises(FormatError, match=f"sample value {float('9' * digits):.0f} exceeds"):
            read_image(path)

    @settings(max_examples=200)
    @given(st.lists(st.one_of(st.text("0123456789", min_size=1, max_size=25),
                              st.sampled_from(["9999", "10000", "999999999", "1000000000", "9" * 18, "1" + "0" * 18,
                                               "0" * 18 + "1", "0000", "65535"])),
                    min_size=1, max_size=40),
           st.lists(st.sampled_from(ASCII_SEPARATORS), min_size=1, max_size=40), st.integers(1, 60))
    def test_runs_match_the_horner_oracle(self, tokens, separators, budget):
        data = b"".join(sep + tok.encode() for sep, tok in zip(itertools.cycle(separators), tokens))
        buf = np.frombuffer(data, np.uint8)
        tok = image_core._token_mask(buf)
        expected = np.empty(len(tokens))
        horner_decimals(buf, np.flatnonzero(tok[1:] != tok[:-1]), expected)
        got = np.empty(len(tokens))
        assert image_core._ascii_runs(data, 0, len(data), len(tokens), got, budget) == (len(tokens), None)
        assert got.tobytes() == expected.tobytes()


def two_band_body(tmp_path, header: bytes, raster: bytes, cut: int):
    """The path of header + raster, after checking that on 2 CPUs, in runs
    of 4 bytes, its raster's bands meet at raster byte cut."""
    path = tmp_path / "t.pgm"
    path.write_bytes(header + raster)
    count = math.prod(int(v) for v in header.split()[1:3])
    with pytest.MonkeyPatch.context() as mp:
        set_cpus(mp, 2)
        mp.setattr(image_core, "_RUN_BYTES", 4)
        pos, stop = len(header), len(header + raster)
        assert image_core._ascii_bands(header + raster, pos, count) == [(pos, pos + cut), (pos + cut, stop)]
    return path


class TestAsciiBands:
    """On 2 CPUs a raster whose count tokens need at least 4 runs is parsed
    in two bands cut at a whitespace byte: the second band counts the
    first's tokens, then parses the rest of the first count. The samples,
    errors and bytes read must be the one-band parse's."""

    def test_the_cut_lands_right_before_the_count_th_token(self, tmp_path):
        # a long tail puts the middle past the 8th token, which can start no
        # earlier than byte 14 of the tokens
        path = two_band_body(tmp_path, b"P2 8 1 255", b" 1 2 3 4 5 6 7 8 " + b"9" * 40, 14)
        assert_ascii_read_matches(path, range(1, 60))
        assert read_image(path).pixels.tolist() == [[v / 255 for v in range(1, 9)]]

    @pytest.mark.parametrize("raster, cut, error", [
        (b" 1 2 3 4 5 x 7 8\n", 8, (FormatError, "malformed sample token b'x'")),
        (b" 1 2 3 4 5 6 7 8 x\n", 10, None),
    ], ids=["before-the-count-th-token", "after-the-count-th-token"])
    def test_the_second_band_holds_the_first_malformed_token(self, tmp_path, raster, cut, error):
        path = two_band_body(tmp_path, b"P2 8 1 255", raster, cut)
        assert_ascii_read_matches(path, range(1, 20))
        if error is None:
            assert read_image(path).pixels.tolist() == [[v / 255 for v in range(1, 9)]]
        else:
            with pytest.raises(error[0], match=re.escape(error[1])):
                read_image(path)

    def test_a_malformed_first_band_and_a_truncated_second_band_count_every_token(self, tmp_path):
        path = two_band_body(tmp_path, b"P2 9 1 255", b" 1 x 3 4 5 6 7 8", 8)
        assert_ascii_read_matches(path, range(1, 20))
        with pytest.MonkeyPatch.context() as mp:
            set_cpus(mp, 2)
            mp.setattr(image_core, "_RUN_BYTES", 4)
            with pytest.raises(TruncationError, match="expected 9 samples, got 8"):
                read_image(path)

    @pytest.mark.parametrize("cpus, runs", [(1, 4), (2, 8)])
    def test_the_second_band_stops_at_the_run_holding_the_last_sample(self, tmp_path, cpus, runs):
        # junk longer than the raster: one band reads runs of 4 bytes, two
        # tokens each; two bands read runs of 2, one token each, and the
        # second band's first run holds the 8th token
        path = two_band_body(tmp_path, b"P2 8 1 255", b" 1 2 3 4 5 6 7 8 " + b"x" * 100, 14)
        with pytest.MonkeyPatch.context() as mp:
            set_cpus(mp, cpus)
            mp.setattr(image_core, "_RUN_BYTES", 4)
            with mock.patch.object(image_core, "_malformed_token", wraps=image_core._malformed_token) as scanned:
                assert read_image(path).pixels.tolist() == [[v / 255 for v in range(1, 9)]]
        assert scanned.call_count == runs


def flat_scene() -> Scene:
    # a constant image: neither detector finds anything against the step's truth
    return Scene(GrayImage(np.full((64, 64), 0.5)), synth_step(64, 64, 32, 0.5).truth, "flat")


COMPARISON_SCENES = {
    "noisy-step": lambda: noisy_step_suite(range(10)),
    "circle": lambda: [circle_scene()],
    "rectangle-corners": lambda: [rectangle_scene()],
    # two truth objects shared by two scenes each, and three used once
    "mixed-truths": lambda: (noisy_step_suite([0, 1]) + [circle_scene(), flat_scene(), non_square_scene()]
                             + noisy_step_suite([2]) + [circle_scene(), rectangle_scene()]),
    "empty-detection": lambda: [flat_scene()],
}

COMPARISON_PARAMS = {
    "defaults": (MHParams(), CannyParams()),
    "sigmas-differ": (MHParams(sigma=1.4), CannyParams(sigma=0.8)),
    "default-radius-vs-explicit": (MHParams(sigma=1.4), CannyParams(sigma=1.4, radius=gaussian_radius(1.4))),
    "explicit-radius-vs-default": (MHParams(radius=gaussian_radius(1.0)), CannyParams()),
    "radii-differ": (MHParams(radius=2), CannyParams()),
    "mh-hysteresis": (MHParams(sigma=2.0, use_hysteresis=True, low=0.01, high=0.05),
                      CannyParams(sigma=2.0, low=0.02, high=0.1)),
}


def report_bytes(rows, mh: MHParams, canny: CannyParams) -> tuple:
    sigma = {"canny": canny.sigma, "marr-hildreth": mh.sigma}
    records = [comparison_record(name, detector, report, sigma=sigma[detector]) for name, detector, report in rows]
    return records_to_csv(records).encode(), records_to_json(records).encode()


def compared(compare, scenes, mh: MHParams, canny: CannyParams):
    # compare's rows, or the message of the ValueError it raised
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return compare(scenes, mh, canny)
        except ValueError as exc:
            return str(exc)


class TestComparisonMatchesTwoPasses:
    @pytest.mark.parametrize("params", COMPARISON_PARAMS.values(), ids=COMPARISON_PARAMS.keys())
    @pytest.mark.parametrize("suite", COMPARISON_SCENES.values(), ids=COMPARISON_SCENES.keys())
    def test_rows_and_reports(self, suite, params):
        mh, canny = params
        rows = run_comparison(suite(), mh, canny)
        expected = two_pass_comparison(suite(), mh, canny)
        assert rows == expected
        assert report_bytes(rows, mh, canny) == report_bytes(expected, mh, canny)

    @pytest.mark.parametrize("tolerance", [0.0, 1.0, 3.3, math.inf])
    def test_tolerances(self, tolerance):
        scenes = COMPARISON_SCENES["mixed-truths"]()
        assert run_comparison(scenes, MHParams(), CannyParams(), tolerance) == \
            two_pass_comparison(scenes, MHParams(), CannyParams(), tolerance)

    @pytest.mark.parametrize("params", COMPARISON_PARAMS.values(), ids=COMPARISON_PARAMS.keys())
    @pytest.mark.parametrize("per_stack, sizes", [(3, [3, 3, 3, 1]), (1, [1] * 10)], ids=["threes", "ones"])
    def test_split_stacks(self, monkeypatch, params, per_stack, sizes):
        # a smaller stack budget splits the ten scenes that share one truth
        mh, canny = params
        monkeypatch.setattr(evaluation, "_STACK_PIXELS", per_stack * 64 * 64 + 63)
        assert self.stacks(monkeypatch, noisy_step_suite(range(10)), mh, canny) == sizes
        assert run_comparison(noisy_step_suite(range(10)), mh, canny) == \
            two_pass_comparison(noisy_step_suite(range(10)), mh, canny)

    def test_a_truth_between_runs_of_another(self, monkeypatch):
        # truths A, A, B, A, A of one shape: B cuts A's scenes into two stacks
        a, b = noisy_step_suite(range(4)), flat_scene()
        scenes = a[:2] + [b] + a[2:]
        assert self.stacks(monkeypatch, scenes, MHParams(), CannyParams()) == [2, 1, 2]
        for mh, canny in COMPARISON_PARAMS.values():
            assert run_comparison(scenes, mh, canny) == two_pass_comparison(scenes, mh, canny)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("px, sigma, strip, canny_refuses, mh_refuses", STRIP_REFUSALS)
    def test_one_later_scene_of_a_stack_overflows(self, monkeypatch, k, px, sigma, strip, canny_refuses, mh_refuses):
        # scene k of a three-scene stack overflows in the blur, in thinning or
        # in the crossings, and the stack's strips are `strip` rows tall: the
        # comparison raises what that scene alone raises, or maps as it maps,
        # and the stage that refuses is the first that can, so none after it runs
        truth = EdgeMap(np.zeros(px.shape, dtype=bool))
        images = [GrayImage(np.full(px.shape, 0.5)), GrayImage(np.eye(*px.shape)), GrayImage(px)]
        images[k], images[2] = images[2], images[k]
        scenes = [Scene(image, truth, f"scene{i}") for i, image in enumerate(images)]
        set_strip_rows(monkeypatch, strip, 3 * px.shape[1])
        params = MHParams(sigma=sigma), CannyParams(sigma=sigma, low=0.05, high=0.15)
        assert self.stacks(monkeypatch, scenes, *params) == [3]
        expected = compared(two_pass_comparison, scenes, *params)
        assert (expected == NOT_FINITE) == (canny_refuses or mh_refuses)
        entered = set()
        for name in ("_canny_from_smoothed", "_mh_from_smoothed"):
            monkeypatch.setattr(evaluation, name, lambda *args, stage=getattr(evaluation, name), name=name:
                                entered.add(name) or stage(*args))
        assert compared(run_comparison, scenes, *params) == expected
        kernel = gaussian_kernel_1d(sigma, gaussian_radius(sigma))
        blur_refuses = outcome(convolve_separable, GrayImage(px), kernel, kernel) == NOT_FINITE.encode()
        ran = {"_canny_from_smoothed"} if not blur_refuses else set()
        if not (blur_refuses or canny_refuses):
            ran.add("_mh_from_smoothed")
        assert entered == ran

    @staticmethod
    def stacks(monkeypatch, scenes, mh, canny) -> list:
        # the number of scenes in each stack that run_comparison blurs for Canny
        calls, blur = [], evaluation._blur

        def counted(px, kx, ky):
            calls.append((len(px), kx))
            return blur(px, kx, ky)

        with monkeypatch.context() as patch:
            patch.setattr(evaluation, "_blur", counted)
            compared(run_comparison, scenes, mh, canny)
        return [n for n, kx in calls if kx is calls[0][1]]

    def test_flat_scene_detects_nothing(self):
        rows = run_comparison([flat_scene()], MHParams(), CannyParams())
        assert [report.detected_count for _, _, report in rows] == [0, 0]
        assert all(report.false_negative_rate == 1.0 for _, _, report in rows)
