"""Synthetic scenes with exact ground truth, detector scoring, and
comparison reports."""

import csv
import functools
import io
import itertools
import json
import math
import operator
import weakref
from dataclasses import dataclass

import numpy as np

from .canny import (_EIGHT_CONNECTED, CannyParams, _canny_from_smoothed, _ndimage, _stack_maxima, hysteresis,
                    thinned_magnitude)
from .filtering import _blur, gaussian_kernel_1d, gaussian_radius
from .image_core import EdgeMap, GrayImage
from .marr_hildreth import MHParams, _mh_from_smoothed, crossing_slope_map, laplacian_of_smoothed

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

# A hysteresis sweep labels its layers, and run_comparison runs its scenes,
# in (layers, h, w) stacks of at most this many pixels (one layer at least)
_STACK_PIXELS = 128 * 1024

# count_components' 4-connected structure
_CROSS = np.array([[False, True, False], [True, True, True], [False, True, False]])

# One-entry slots for what consecutive tunes of one scene share: the truth's
# _ToleranceMatch and the image's Marr-Hildreth slope plane (see _reused)
_MATCHES, _SLOPES = weakref.WeakKeyDictionary(), weakref.WeakKeyDictionary()

# _ToleranceMatch reads the tolerance disc through its integer offsets, in
# numpy, up to this tolerance, and through scipy's distance transform and box
# filters above it. The offsets were the faster up to 10 on sparse truths; the
# bound keeps them to 29 per truth pixel, so a dense truth's taps stay small
_DISC_TOLERANCE = 3.0
# the most pixels a synthetic scene may have: 4096 x 4096, a 128 MiB float64
# plane. A larger one is refused before any plane is built, since Linux may
# overcommit a huge allocation and kill the process later, not refuse it
_MAX_SCENE_PIXELS = 2**24


def __getattr__(name):
    # evaluation.ndimage is scipy.ndimage, imported on first use (PEP 562)
    if name == "ndimage":
        return _ndimage()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _check_scene_size(width: int, height: int) -> None:
    if width * height > _MAX_SCENE_PIXELS:
        raise ValueError(f"scene of {width}x{height} pixels exceeds the bound of {_MAX_SCENE_PIXELS} pixels")


def synth_step(width: int, height: int, column: int, contrast: float) -> Scene:
    """Vertical step scene: intensity 0.5 -+ contrast/2 left/right of column.

    Truth marks every pixel of the first bright column.
    """
    if width < 2 or height < 1:
        raise ValueError(f"step scene needs width >= 2 and height >= 1, got {width}x{height}")
    _check_scene_size(width, height)
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
    _check_scene_size(size, size)
    if not all(map(math.isfinite, (cx, cy, radius))):
        raise ValueError(f"circle centre and radius must be finite, got centre {center}, radius {radius}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    clearance = min(cx, cy, size - 1 - cx, size - 1 - cy)
    if radius + 2 > clearance:
        raise ValueError(
            f"circle must stay 2 pixels clear of the border: radius {radius} + 2 exceeds clearance {clearance}"
        )
    ys, xs = np.ogrid[0:size, 0:size]
    inside = (xs - cx) ** 2 + (ys - cy) ** 2 <= radius * radius
    return Scene(GrayImage(inside.astype(np.float64)), EdgeMap(_inner_boundary(inside)), f"circle-{size}-r{radius:g}")


def _inner_boundary(inside: np.ndarray) -> np.ndarray:
    # the pixels of the bool plane inside with an outside 4-neighbour, off-image
    # pixels counting as inside
    p = np.pad(inside, 1, constant_values=True)
    return inside & ~(p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2] & p[1:-1, 2:])


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
    _check_scene_size(size, size)
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
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
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

    Nearest-truth distances are exact. Up to a tolerance of 3 each is the
    square root of the least dy*dy + dx*dx over the disc's integer offsets
    (dy, dx) that reach the pixel from truth, the value an exact Euclidean
    distance transform of the truth's complement gives; above it they come
    from that transform (ndimage.distance_transform_edt). A truth pixel is
    covered when the detection's maximum over the tolerance disc around it,
    read through the disc's offsets or from box maximum filters, is set; the
    detection itself is never transformed.
    """
    _check_tolerance(match_tolerance)
    if (detected.height, detected.width) != (truth.height, truth.width):
        raise ValueError("detected and truth masks must share dimensions")
    return _ToleranceMatch(truth, match_tolerance).reports(detected.mask[None])[0]


def _check_tolerance(match_tolerance: float) -> None:
    if not match_tolerance >= 0:
        raise ValueError(f"match_tolerance must be non-negative, got {match_tolerance}")


class _ToleranceMatch:
    """score()'s match rule for one truth mask and one checked tolerance.

    It holds the truth's distances (+inf beyond the tolerance and outside
    the window below), near (the pixels within the tolerance of truth) and
    the tolerance disc. Every disc lies in the window, the truth's bounding
    box grown by the disc's reach. Up to _DISC_TOLERANCE the disc is its
    integer offsets: a pixel's distance is the square root of the least
    dy*dy + dx*dx over the offsets that reach it from truth, the value the
    exact transform measures, and taps holds each (offset, truth pixel)'s
    flat window index. Above it, where the offsets grow with the tolerance
    squared, the distances are scipy's transform of the window and the disc
    is boxes: one centred (rows, width) box per distinct disc-row width,
    spanning every disc row at least that wide. run_comparison and the
    tuning sweeps build one per truth mask and read every detection through it.
    """

    def __init__(self, truth: EdgeMap, tolerance: float) -> None:
        tru = truth.mask
        self.tolerance = float(tolerance)
        self.ty, self.tx = np.nonzero(tru)
        # the offsets within the tolerance, clipped to the image first so an
        # infinite tolerance works
        ry, rx = (math.floor(min(tolerance, n - 1)) for n in tru.shape)
        (y0, y1), (x0, x1) = ((max(t.min(initial=n) - r, 0), t.max(initial=0) + r + 1)
                              for t, r, n in zip((self.ty, self.tx), (ry, rx), tru.shape))
        self.window, self.wy, self.wx = np.s_[:, y0:y1, x0:x1], self.ty - y0, self.tx - x0
        # +inf outside the window, where no pixel is within the tolerance
        self.distance = np.full(tru.shape, np.inf)
        window = self.distance[y0:y1, x0:x1]
        if tolerance <= _DISC_TOLERANCE:
            h, w = window.shape
            square = np.add.outer(np.arange(-ry, ry + 1.0) ** 2, np.arange(-rx, rx + 1.0) ** 2)
            oy, ox = np.nonzero(np.sqrt(square) <= tolerance)
            # each (offset, truth pixel)'s flat index in the window padded by the reach
            at = (self.wy + oy[:, None]) * (w + 2 * rx) + (self.wx + ox[:, None])
            padded = np.full((h + 2 * ry, w + 2 * rx), np.inf)
            np.minimum.at(padded.ravel(), at.ravel(), np.repeat(square[oy, ox], self.ty.size))
            window[...] = np.sqrt(padded[ry:ry + h, rx:rx + w])
            # a tap reads the window pixel nearest its padded one, which is in
            # the same truth pixel's disc
            rows, cols = (np.arange(-r, n + r).clip(0, n - 1) for r, n in ((ry, h), (rx, w)))
            self.taps = (rows[:, None] * w + cols).ravel().take(at)
        else:
            # disc rows +-d are 2 * half[d] - 1 wide, and the disc is convex,
            # so the rows at least that wide are a centred run
            dy, dx = np.ogrid[:ry + 1, :rx + 1]
            half = np.count_nonzero(np.sqrt(dy * dy + dx * dx) <= tolerance, axis=1)
            self.taps = None
            self.boxes = [(2 * int(np.count_nonzero(half >= h)) - 1, 2 * int(h) - 1) for h in np.unique(half)]
            if self.ty.size:  # every truth pixel is in the window, so its distances are the whole image's
                window[...] = _ndimage().distance_transform_edt(~tru[y0:y1, x0:x1])
        self.near = (self.distance <= tolerance) & tru.any()  # nothing is near an empty truth
        for plane in (self.distance, self.near, self.ty, self.tx, self.wy, self.wx):
            plane.setflags(write=False)  # the tuners share one match across tunes

    def disc_maxima(self, levels: np.ndarray) -> np.ndarray:
        # (layers, truth pixels): each window layer's maximum over each truth
        # pixel's disc; a tap or box across the window's border reads what
        # "nearest" pads
        if self.taps is not None:
            return levels.reshape(len(levels), -1).take(self.taps, axis=1).max(axis=1)
        filtered = (_ndimage().maximum_filter(levels, (1,) + box, mode="nearest") for box in self.boxes)
        return functools.reduce(np.maximum, (plane[:, self.wy, self.wx] for plane in filtered))

    def reports(self, dets: np.ndarray) -> list:
        """score(EdgeMap(det), truth, tolerance) for each bool layer det of
        the (layers, h, w) stack dets, whose matches and discs are read in
        one pass over the stack."""
        n_tru, out = self.ty.size, []
        for det, hit, cover in zip(dets, dets & self.near, self.disc_maxima(dets[self.window])):
            n_det, matched = np.count_nonzero(det), np.count_nonzero(hit)
            fp = (n_det - matched) / max(n_det, 1)
            fn = (n_tru - np.count_nonzero(cover)) / max(n_tru, 1)
            msd = float(np.mean(self.distance[hit] ** 2)) if matched else 0.0
            out.append(EvalReport(float(fp), float(fn), msd, int(n_det), int(n_tru), int(matched), self.tolerance))
        return out


def _reused(slot, frozen, scalar, build):
    # slot's value for (frozen, scalar), built on a miss after dropping the old
    # entry. frozen, a GrayImage or EdgeMap, is a weak key compared by identity
    # (eq=False); scalar is keyed by its type and bits, so -0.0 is not 0.0
    bits = (type(scalar), float(scalar).hex())
    entry = slot.get(frozen)
    if entry is None or entry[0] != bits:
        slot.clear()
        entry = slot[frozen] = (bits, build())
    return entry[1]


def _harmonic_mean(p, r):
    # elementwise 2pr / (p + r), and 0.0 where p and r are both 0.0
    return 2.0 * p * r / np.where(p + r == 0.0, 1.0, p + r)


def _best_operating_point(values: np.ndarray, grid, linked: bool, make_params, truth: EdgeMap, tolerance: float):
    # Row i detects the levels above grid[j], for each j >= i, of the
    # components of the plane values linked above grid[i] (linked), or else
    # of the pixels of layer i of the (rows, h, w) values. Tallies by (layer,
    # bin), a level's bin being the number of grid values below it, count
    # them all; reach has a row per layer, and every row reads its layer's.
    # Linked, the layers above an ascending grid nest, so lows that pass
    # equal pixel counts pass equal layers: only each run's first non-empty
    # layer is labelled, and an empty one tallies 0. The first highest f in
    # row-major order wins, and only the winner gets params and a report.
    # Consecutive tunes against one truth object and tolerance share its match
    match = _reused(_MATCHES, truth, tolerance, lambda: _ToleranceMatch(truth, tolerance))
    lows = np.array(grid, dtype=np.float64)
    ranked, bins = np.sort(lows), lows.size + 1
    if linked:  # a pixel at or below ranked[0] is in bin 0, which no low passes
        counts = np.bincount(np.searchsorted(ranked, values[values > ranked[0]]), minlength=bins)
        passed = counts[:0:-1].cumsum()[::-1]  # the pixels above each low
        first = np.diff(passed, prepend=-1) != 0
        rows, layers, step = np.cumsum(first) - 1, lows[first & (passed > 0)], max(1, _STACK_PIXELS // values.size)
    else:
        rows, layers, step = np.arange(len(values)), values, len(values)
    tallies = []
    for k in range(0, len(layers), step):
        if linked:
            labels, maxima, where, component, pixel = _stack_maxima(values, values > layers[k:k + step, None, None])
            cells = where // values.size * bins + np.searchsorted(ranked, maxima)[component]
            near, reach = cells[match.near.ravel()[pixel]], maxima[labels[match.window]]
        else:  # each pixel is its own component
            cells = np.searchsorted(ranked, values) + bins * np.arange(len(values))[:, None, None]
            near, reach = cells[:, match.near], values[match.window]
        det = np.bincount(cells.ravel(), minlength=len(reach) * bins).reshape(-1, bins)
        reach = np.searchsorted(ranked, match.disc_maxima(reach)) + bins * np.arange(len(det))[:, None]
        tallies.append([det] + [np.bincount(c.ravel(), minlength=det.size).reshape(det.shape) for c in (near, reach)])
    tallies.append([np.zeros((1, bins), dtype=np.intp)] * 3)  # read by the lows that pass nothing
    # reverse cumulative sums count the bins above each grid value
    above = lows.size - np.searchsorted(ranked, lows, side="right")
    det, matched, covered = (np.cumsum(np.concatenate(t)[rows, ::-1], axis=1)[:, above] for t in zip(*tallies))
    f = _harmonic_mean(1.0 - (det - matched) / np.maximum(det, 1),
                       1.0 - (match.ty.size - covered) / max(match.ty.size, 1))
    f[np.arange(lows.size) < np.arange(len(f))[:, None]] = -1.0
    i, j = np.unravel_index(np.argmax(f), f.shape)
    edges = hysteresis(GrayImage(values), grid[i], grid[j]).mask if linked else values[i] > grid[j]
    return make_params(grid[i], grid[j]), match.reports(edges[None])[0]


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
    return _ndimage().label(mask, structure=_CROSS if connectivity == 4 else _EIGHT_CONNECTED)[1]


def run_comparison(scenes, mh: MHParams, canny: CannyParams, tolerance: float = 1.5) -> list:
    """Run both detectors on every scene.

    Returns one (scene name, detector name, EvalReport) row per pair, scenes
    in the given order and detectors alphabetical within a scene; each
    report equals score(canny_detect(...)) or score(mh_detect(...)). Each
    distinct Gaussian kernel is built once per call, not once per scene.
    Scenes in a row that share one truth mask object run as (scenes, h, w)
    stacks of at most _STACK_PIXELS pixels (one scene at least). A stack is
    blurred once per distinct kernel, so once when both detectors smooth
    alike (equal sigma, and radii equal once None stands for
    gaussian_radius(sigma)), runs Canny after its blur once, and is scored
    in one pass through the truth's one match; truths A, B, A build three.
    Marr-Hildreth, slower stacked, runs on each smoothed layer. An empty
    scene list or a negative or NaN tolerance raises ValueError before any
    detector work.
    """
    scenes = list(scenes)
    if not scenes:
        raise ValueError("run_comparison needs at least one scene")
    _check_tolerance(tolerance)
    canny_blur, mh_blur = ((p.sigma, gaussian_radius(p.sigma) if p.radius is None else p.radius) for p in (canny, mh))
    canny_k = gaussian_kernel_1d(*canny_blur)
    mh_k = canny_k if mh_blur == canny_blur else gaussian_kernel_1d(*mh_blur)
    rows = []
    for truth, run in itertools.groupby(scenes, key=operator.attrgetter("truth")):
        # scenes in a row that share one truth object share its match, as consecutive tunes do
        match = _reused(_MATCHES, truth, tolerance, lambda: _ToleranceMatch(truth, tolerance))
        run = list(run)
        step = max(1, _STACK_PIXELS // truth.mask.size)
        for stack in (run[k:k + step] for k in range(0, len(run), step)):
            pixels = stack[0].image.pixels[None] if len(stack) == 1 else np.stack([s.image.pixels for s in stack])
            smoothed = _blur(pixels, canny_k, canny_k)
            mh_smoothed = smoothed if mh_k is canny_k else _blur(pixels, mh_k, mh_k)
            del pixels  # freed before the Canny core allocates its stack planes
            canny_maps = _canny_from_smoothed(smoothed, canny)
            mh_maps = [_mh_from_smoothed(layer, mh) for layer in mh_smoothed]
            reports = match.reports(np.concatenate((canny_maps, mh_maps)))
            for scene, canny_report, mh_report in zip(stack, reports, reports[len(stack):]):
                rows += [(scene.name, "canny", canny_report), (scene.name, "marr-hildreth", mh_report)]
    return rows


def _threshold_grid(grid, ascending: bool, make_params, tolerance: float) -> tuple:
    # in an ascending grid every pair (low, high) has low <= high, so a pair
    # is refused exactly when one of its values is refused, as (t, t), alone.
    # Once the first value's parameters pass, which checks the blur, only a t
    # that fails t >= 0, or cannot be compared, can be refused: only it is built
    grid = tuple(grid)
    if not grid:
        raise ValueError("the threshold grid must not be empty")
    if ascending and any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"a hysteresis sweep needs an ascending threshold grid, got {grid}")
    _check_tolerance(tolerance)
    make_params(grid[0], grid[0])
    for t in grid[1:]:
        try:
            plain = t >= 0
        except TypeError:
            plain = False
        if not plain:
            make_params(t, t)
    return grid


def tune_mh(scene: Scene, sigma: float = 1.0, tolerance: float = 1.5,
            use_hysteresis: bool = False, grid=THRESHOLD_GRID):
    """Grid-search the slope threshold(s) maximising the scene's f_score.

    Returns (MHParams, EvalReport); ties keep the earliest grid point. With
    use_hysteresis every (low, high) pair with high at or after low in the
    grid is tried, so the grid must ascend (ties allowed), and one stacked
    labelling of the crossing-slope map above the lows gives every pair's
    counts; lows that pass the same pixels share one labelled layer, and a
    low that passes none is labelled not at all. One truth match ranks
    all candidates; the winner's report equals score() of its map, and only
    its MHParams is built. An empty grid, one that does not ascend where it
    must, a grid value the parameters refuse, and a negative or NaN
    tolerance raise ValueError before any detector work.

    Consecutive tunes share read-only planes through one-entry slots: the
    truth match of the last (truth, tolerance) of any tuner and the slope
    map of the last (image, sigma). The frozen objects are weak keys matched
    by identity, whose read-only arrays are trusted; the numbers are matched
    by type and bits. A new key drops the old entry, and an entry goes with
    its object, so the three default tunes of one scene take one of each.
    """
    make_params = ((lambda low, high: MHParams(sigma=sigma, use_hysteresis=True, low=low, high=high))
                   if use_hysteresis else (lambda _, t: MHParams(sigma=sigma, slope_threshold=t)))
    grid = _threshold_grid(grid, use_hysteresis, make_params, tolerance)
    slopes = _reused(_SLOPES, scene.image, sigma,
                     lambda: crossing_slope_map(laplacian_of_smoothed(scene.image, sigma)).pixels)
    levels = slopes if use_hysteresis else slopes[None]
    return _best_operating_point(levels, grid, use_hysteresis, make_params, scene.truth, tolerance)


def tune_canny(scene: Scene, sigma: float = 1.0, tolerance: float = 1.5, grid=THRESHOLD_GRID):
    """Grid-search the (low, high) pair maximising the scene's f_score.

    Returns (CannyParams, EvalReport). It labels the thinned magnitude above
    every low at once, one layer per distinct non-empty set of pixels the lows
    pass, and ranks, breaks ties, refuses grids and tolerances, builds params
    and shares the last tune's truth match like tune_mh with use_hysteresis.
    """
    make_params = lambda low, high: CannyParams(sigma=sigma, low=low, high=high)
    grid = _threshold_grid(grid, True, make_params, tolerance)
    plane = thinned_magnitude(scene.image, sigma).pixels
    return _best_operating_point(plane, grid, True, make_params, scene.truth, tolerance)


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
