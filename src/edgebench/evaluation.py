"""Synthetic scenes with exact ground truth, detector scoring, and
comparison reports."""

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .canny import CannyParams, canny_detect, component_maxima, thinned_magnitude
from .canny import hysteresis  # noqa: F401  re-exported as edgebench.evaluation.hysteresis
from .image_core import EdgeMap, GrayImage
from .marr_hildreth import MHParams, crossing_slope_map, laplacian_of_smoothed, mh_detect

__all__ = [
    "CSV_COLUMNS",
    "EvalReport",
    "Scene",
    "THRESHOLD_GRID",
    "add_gaussian_noise",
    "circle_scene",
    "comparison_record",
    "count_components",
    "f_score",
    "noisy_step_suite",
    "records_to_csv",
    "records_to_json",
    "rectangle_scene",
    "run_comparison",
    "score",
    "synth_circle",
    "synth_rectangle",
    "synth_step",
    "tune_canny",
    "tune_mh",
]

# Shared operating-point grid for threshold tuning. Logarithmic so one grid
# serves both the gradient-magnitude and crossing-slope scales.
THRESHOLD_GRID: tuple = tuple(float(t) for t in np.geomspace(1e-3, 1.0, 22))


@dataclass(frozen=True, eq=False)
class Scene:
    """An input image paired with its exact ground-truth edge mask."""

    image: GrayImage
    truth: EdgeMap
    name: str

    def __post_init__(self) -> None:
        if (self.image.height, self.image.width) != (self.truth.height, self.truth.width):
            raise ValueError("scene image and truth must share dimensions")


@dataclass(frozen=True)
class EvalReport:
    """Distance-tolerance scoring of one detection against one truth mask."""

    false_positive_rate: float
    false_negative_rate: float
    mean_sq_distance: float
    detected_count: int
    truth_count: int
    matched_count: int
    match_tolerance: float


def synth_step(width: int, height: int, column: int, contrast: float) -> Scene:
    """Vertical step scene: intensity 0.5 -+ contrast/2 left/right of column.

    Truth marks every pixel of the first bright column.
    """
    if width < 2 or height < 1:
        raise ValueError(f"step scene needs width >= 2 and height >= 1, got {width}x{height}")
    if not 0 < column < width:
        raise ValueError(f"step column must satisfy 0 < column < width, got column={column}, width={width}")
    if not 0.0 < contrast <= 1.0:
        raise ValueError(f"contrast must lie in (0, 1], got {contrast}")
    px = np.full((height, width), 0.5 - contrast / 2.0)
    px[:, column:] = 0.5 + contrast / 2.0
    truth = np.zeros((height, width), dtype=bool)
    truth[:, column] = True
    return Scene(GrayImage(px), EdgeMap(truth), f"step-{width}x{height}-col{column}")


def synth_circle(size: int, center: tuple, radius: float) -> Scene:
    """Filled bright disc on a dark ground, truth on the inside boundary ring.

    center is (cx, cy) in pixel coordinates. A pixel is inside when its
    centre lies within radius of the centre point; truth marks inside pixels
    with at least one outside 4-neighbour. The disc must keep 2 pixels of
    clearance from every image border.
    """
    cx, cy = center
    if size < 1:
        raise ValueError(f"size must be positive, got {size}")
    if not all(map(math.isfinite, (cx, cy, radius))):
        raise ValueError(f"circle centre and radius must be finite, got centre {center}, radius {radius}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    clearance = min(cx, cy, size - 1 - cx, size - 1 - cy)
    if radius + 2 > clearance:
        raise ValueError(
            f"circle must stay 2 pixels clear of the border: radius {radius} + 2 exceeds clearance {clearance}"
        )
    ys, xs = np.mgrid[0:size, 0:size]
    inside = (xs - cx) ** 2 + (ys - cy) ** 2 <= radius * radius
    # erosion by the default cross keeps pixels whose 4-neighbours are all inside
    truth = inside & ~ndimage.binary_erosion(inside, border_value=1)
    return Scene(GrayImage(inside.astype(np.float64)), EdgeMap(truth), f"circle-{size}-r{radius:g}")


def synth_rectangle(size: int, x0: int, y0: int, x1: int, y1: int) -> Scene:
    """Filled bright axis-aligned rectangle (corners inclusive) on dark ground.

    Truth marks the rectangle's boundary pixels. The rectangle must not
    touch the image border; inverted corners are rejected.
    """
    if not (0 < x0 <= x1 < size - 1 and 0 < y0 <= y1 < size - 1):
        raise ValueError(
            "rectangle must satisfy 0 < x0 <= x1 < size-1 and 0 < y0 <= y1 < size-1, "
            f"got x0={x0}, x1={x1}, y0={y0}, y1={y1}, size={size}"
        )
    px = np.zeros((size, size))
    px[y0:y1 + 1, x0:x1 + 1] = 1.0
    truth = np.zeros((size, size), dtype=bool)
    truth[y0, x0:x1 + 1] = True
    truth[y1, x0:x1 + 1] = True
    truth[y0:y1 + 1, x0] = True
    truth[y0:y1 + 1, x1] = True
    return Scene(GrayImage(px), EdgeMap(truth), f"rect-{size}-{x0},{y0}-{x1},{y1}")


def add_gaussian_noise(img: GrayImage, stddev: float, seed: int) -> GrayImage:
    """Add seeded zero-mean Gaussian noise and clamp to [0, 1].

    The generator is numpy's PCG64 (numpy.random.default_rng), so a given
    (stddev, seed) pair reproduces the same image everywhere. stddev 0
    returns the input unchanged.
    """
    if not 0 <= stddev < math.inf:
        raise ValueError(f"stddev must be non-negative and finite, got {stddev}")
    if stddev == 0:
        return img
    rng = np.random.default_rng(seed)
    noisy = img.pixels + rng.normal(0.0, stddev, img.pixels.shape)
    return GrayImage(np.clip(noisy, 0.0, 1.0))


def score(detected: EdgeMap, truth: EdgeMap, match_tolerance: float = 1.5) -> EvalReport:
    """Score a detection against ground truth with a distance tolerance.

    A detected pixel is matched when some truth pixel lies within Euclidean
    distance match_tolerance; the false-positive rate is the unmatched
    fraction of detections. A truth pixel is covered when some detected
    pixel lies within the tolerance; the false-negative rate is the
    uncovered fraction of truth. mean_sq_distance averages the squared
    nearest-truth distance over matched detections (0.0 when nothing
    matched). Rates over an empty set are 0.0, except that an empty
    detection against non-empty truth gives a false-negative rate of 1.0.

    Nearest distances are read from exact Euclidean distance transforms
    (ndimage.distance_transform_edt) of each mask's complement, in
    row-major pixel order.
    """
    _check_tolerance(match_tolerance)
    if (detected.height, detected.width) != (truth.height, truth.width):
        raise ValueError("detected and truth masks must share dimensions")
    det = detected.mask
    tru = truth.mask
    n_det = int(np.count_nonzero(det))
    n_tru = int(np.count_nonzero(tru))
    # with nothing detected every truth pixel is uncovered
    matched, uncovered, msd = 0, n_tru, 0.0
    if n_det and n_tru:
        dist = ndimage.distance_transform_edt(~tru)[det]
        matched_sq = dist[dist <= match_tolerance] ** 2
        matched = matched_sq.size
        msd = float(np.mean(matched_sq)) if matched else 0.0
        uncovered = np.count_nonzero(ndimage.distance_transform_edt(~det)[tru] > match_tolerance)
    return EvalReport(
        false_positive_rate=float((n_det - matched) / max(n_det, 1)),
        false_negative_rate=float(uncovered / max(n_tru, 1)),
        mean_sq_distance=msd,
        detected_count=n_det,
        truth_count=n_tru,
        matched_count=matched,
        match_tolerance=float(match_tolerance),
    )


def _check_tolerance(match_tolerance: float) -> None:
    if not match_tolerance >= 0:
        raise ValueError(f"match_tolerance must be non-negative, got {match_tolerance}")


def _sweep_f_scores(sweeps, truth: EdgeMap, match_tolerance: float):
    """(level, pairs, f) for every (level, pairs) sweep, f in pairs' order.

    A candidate (params, h) in pairs detects level > h, and its f is
    f_score(score(EdgeMap(level > h), truth, match_tolerance)), read from
    counts: the detected, matched and uncovered counts of every h come from
    sorted arrays and the rates from score's arithmetic. The truth transform
    is taken once: near marks the pixels within the tolerance of truth.
    Coverage needs no transform of the detection: a truth pixel is covered
    at h exactly when the maximum of level over the disc of the tolerance
    around it (reach) is above h, and one max filter per level plane gives
    that maximum.
    """
    tru = truth.mask
    n_tru = int(np.count_nonzero(tru))
    if n_tru:
        near = ndimage.distance_transform_edt(~tru) <= match_tolerance
        # the offsets the transform would measure within the tolerance,
        # clipped to the image first so an infinite tolerance works
        ry, rx = (math.floor(min(match_tolerance, n - 1)) for n in tru.shape)
        dy, dx = np.ogrid[-ry:ry + 1, -rx:rx + 1]
        widths = np.count_nonzero(np.sqrt(dy * dy + dx * dx) <= match_tolerance, axis=1)
        ty, tx = np.nonzero(tru)
        # each disc row is a centred run of offsets, so the disc maximum is
        # the largest, over the disc's rows, of a running row maximum as wide
        # as that row's run: one maximum_filter1d per distinct width, read
        # in the plane padded by ry rows of -inf, where a footprint
        # maximum_filter would cost the disc's area per pixel
        spans = [(width, ty + np.flatnonzero(widths == width)[:, None]) for width in np.unique(widths)]
    for level, pairs in sweeps:
        hs = np.array([h for _, h in pairs], dtype=np.float64)
        n_det = _counts_above(level, hs)
        matched = uncovered = 0
        if n_tru:
            padded = np.pad(level, ((ry, ry), (0, 0)), constant_values=-np.inf)
            reach = np.max([
                ndimage.maximum_filter1d(padded, width, axis=1, mode="constant", cval=-np.inf)[rows, tx].max(axis=0)
                for width, rows in spans], axis=0)
            matched = _counts_above(level[near], hs)
            uncovered = n_tru - _counts_above(reach, hs)
        fp = (n_det - matched) / np.maximum(n_det, 1)
        fn = uncovered / max(n_tru, 1)
        yield level, pairs, _harmonic_mean(1.0 - fp, 1.0 - fn)


def _counts_above(values: np.ndarray, hs: np.ndarray) -> np.ndarray:
    # for each h in hs, the number of values above h
    return values.size - np.searchsorted(np.sort(values, axis=None), hs, side="right")


def _harmonic_mean(p, r):
    # elementwise 2pr / (p + r), and 0.0 where p and r are both 0.0
    return 2.0 * p * r / np.where(p + r == 0.0, 1.0, p + r)


def _best_operating_point(sweeps, truth: EdgeMap, match_tolerance: float):
    # the first (params, report) of the highest f in grid order; only it is scored
    best = None
    for level, pairs, f in _sweep_f_scores(sweeps, truth, match_tolerance):
        i = int(np.argmax(f))
        if best is None or f[i] > best[0]:
            best = f[i], level, pairs[i]
    _, level, (params, h) = best
    return params, score(EdgeMap(level > h), truth, match_tolerance)


def f_score(report: EvalReport) -> float:
    """Harmonic mean of (1 - FP) and (1 - FN); 0.0 when both are zero."""
    return float(_harmonic_mean(1.0 - report.false_positive_rate, 1.0 - report.false_negative_rate))


def count_components(edges, connectivity: int = 8) -> int:
    """Number of connected components of true pixels (4- or 8-connectivity).

    This is the label count of ndimage.label with the cross (4) or full
    3x3 (8) structuring element.
    """
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    mask = edges.mask if isinstance(edges, EdgeMap) else np.asarray(edges, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"edge mask must be 2-D, got shape {mask.shape}")
    structure = ndimage.generate_binary_structure(2, 1 if connectivity == 4 else 2)
    return ndimage.label(mask, structure=structure)[1]


def run_comparison(scenes, mh: MHParams, canny: CannyParams, tolerance: float = 1.5) -> list:
    """Run both detectors on every scene.

    Returns one (scene name, detector name, EvalReport) row per pair, scenes
    in the given order and detectors alphabetical within a scene.
    """
    scenes = list(scenes)
    if not scenes:
        raise ValueError("run_comparison needs at least one scene")
    rows = []
    for scene in scenes:
        rows.append((scene.name, "canny", score(canny_detect(scene.image, canny), scene.truth, tolerance)))
        rows.append((scene.name, "marr-hildreth", score(mh_detect(scene.image, mh), scene.truth, tolerance)))
    return rows


def _threshold_grid(grid, ascending: bool) -> tuple:
    grid = tuple(grid)
    if not grid:
        raise ValueError("the threshold grid must not be empty")
    if ascending and any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"a hysteresis sweep needs an ascending threshold grid, got {grid}")
    return grid


def _hysteresis_pairs(grid, make_params) -> list:
    # per low, the (params, high) of every high >= low; made up front, so
    # every threshold is checked before any detector work
    return [(low, [(make_params(low, high), high) for high in grid[i:]]) for i, low in enumerate(grid)]


def _linked_levels(plane: GrayImage, rows):
    # one labelling per low: pixels of the level plane maxima[labels] above
    # high are exactly hysteresis(plane, low, high)
    for low, pairs in rows:
        labels, maxima = component_maxima(plane, low)
        yield maxima[labels], pairs


def tune_mh(scene: Scene, sigma: float = 1.0, tolerance: float = 1.5,
            use_hysteresis: bool = False, grid=THRESHOLD_GRID):
    """Grid-search the slope threshold(s) maximising the scene's f_score.

    Returns (MHParams, EvalReport) for the best operating point; ties keep
    the earliest grid point, so the result is deterministic. Candidates are
    ranked by f-scores read from their detected, matched and uncovered
    counts; score() runs once, for the winner, to give the report. With
    use_hysteresis every (low, high) pair with high at or after low in the
    grid is tried, so the grid must be ascending (ties allowed). An empty
    grid, a grid that is not ascending where that is needed, any grid value
    the parameters refuse, and a negative or NaN tolerance raise ValueError
    before any detector work.
    """
    grid = _threshold_grid(grid, use_hysteresis)
    _check_tolerance(tolerance)
    if use_hysteresis:
        rows = _hysteresis_pairs(
            grid, lambda low, high: MHParams(sigma=sigma, use_hysteresis=True, low=low, high=high))
    else:
        pairs = [(MHParams(sigma=sigma, slope_threshold=t), t) for t in grid]
    slopes = crossing_slope_map(laplacian_of_smoothed(scene.image, sigma))
    sweeps = _linked_levels(slopes, rows) if use_hysteresis else [(slopes.pixels, pairs)]
    return _best_operating_point(sweeps, scene.truth, tolerance)


def tune_canny(scene: Scene, sigma: float = 1.0, tolerance: float = 1.5, grid=THRESHOLD_GRID):
    """Grid-search the (low, high) pair maximising the scene's f_score.

    Returns (CannyParams, EvalReport); ranked from counts and scored once
    for the winner, deterministic like tune_mh, and it refuses the same
    grids and tolerances as tune_mh with use_hysteresis.
    """
    grid = _threshold_grid(grid, True)
    _check_tolerance(tolerance)
    rows = _hysteresis_pairs(grid, lambda low, high: CannyParams(sigma=sigma, low=low, high=high))
    plane = thinned_magnitude(scene.image, sigma)
    return _best_operating_point(_linked_levels(plane, rows), scene.truth, tolerance)


def noisy_step_suite(seeds, size: int = 64, contrast: float = 0.5, noise_stddev: float = 0.1) -> list:
    """One noisy vertical-step scene per seed, named noisy-step-seed<N>."""
    base = synth_step(size, size, size // 2, contrast)
    scenes = []
    for seed in seeds:
        image = add_gaussian_noise(base.image, noise_stddev, seed)
        scenes.append(Scene(image, base.truth, f"noisy-step-seed{seed}"))
    return scenes


def circle_scene(size: int = 64) -> Scene:
    """Clean disc scene used by the built-in circle suite."""
    mid = (size - 1) / 2.0
    scene = synth_circle(size, (mid, mid), size * 0.3)
    return Scene(scene.image, scene.truth, "circle")


def rectangle_scene(size: int = 64) -> Scene:
    """Clean half-size centred square, the corner-behaviour suite scene."""
    x0 = size // 4
    x1 = x0 + size // 2 - 1
    scene = synth_rectangle(size, x0, x0, x1, x1)
    return Scene(scene.image, scene.truth, "rectangle-corners")


CSV_COLUMNS = (
    "scene", "detector", "sigma", "low", "high", "slope_threshold",
    "fp_rate", "fn_rate", "mean_sq_distance", "detected", "truth",
    "matched", "tolerance", "seed",
)


def comparison_record(scene: str, detector: str, report: EvalReport, sigma: float,
                      low=None, high=None, slope_threshold=None, seed=None) -> dict:
    """One serialisable report row; inapplicable parameters stay None."""
    return {
        "scene": scene,
        "detector": detector,
        "sigma": sigma,
        "low": low,
        "high": high,
        "slope_threshold": slope_threshold,
        "fp_rate": report.false_positive_rate,
        "fn_rate": report.false_negative_rate,
        "mean_sq_distance": report.mean_sq_distance,
        "detected": report.detected_count,
        "truth": report.truth_count,
        "matched": report.matched_count,
        "tolerance": report.match_tolerance,
        "seed": seed,
    }


def records_to_csv(records) -> str:
    """Render report records as CSV with the fixed column order; None is empty."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for record in records:
        writer.writerow({k: ("" if record[k] is None else record[k]) for k in CSV_COLUMNS})
    return buf.getvalue()


def records_to_json(records) -> str:
    """Render report records as a JSON array with the same fields as the CSV."""
    return json.dumps([{k: record[k] for k in CSV_COLUMNS} for record in records], indent=2) + "\n"
