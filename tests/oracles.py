"""Slow reference implementations kept as test oracles.

These are the per-pixel non-maximum suppression loop, the breadth-first
flood fills, the k-d tree queries and the index scatter of zero crossings
that edgebench used before its thinning moved to numpy gathers, its
linking, component counting and scoring moved to scipy.ndimage labelling
and distance transforms, and its crossing-slope map moved to whole-slice
maxima. They state each contract directly, one pixel or one crossing at a
time, so the fast versions can be checked against them.

The whole_plane_* functions are the convolutions and the crossing-slope map
as they ran before large planes were split into row strips, and
non-maximum suppression as it ran when the detector still read a full
magnitude plane; the strip-wise versions and the detector, which takes the
magnitude only where thinning reads it, must equal them bit for bit.
pad_central_differences is the gradient's central differences as they
ran when borders were replicated with np.pad; the slice-copy padding must
equal it bit for bit. split_ascii_samples is the P2/P3 raster parse as it
ran before it moved to whole-array byte passes, one bytes token at a time,
and whole_buffer_ascii_samples as it ran before those passes moved into
byte runs of about image_core._RUN_BYTES. horner_decimals is the runs'
digit conversion as it ran before it became one positional sum per run:
Horner's rule in int64, one group of tokens per length. two_pass_comparison
is run_comparison as it ran before a scene's blur and a truth mask's
distance transform were shared: each detector blurs every scene itself and
score() transforms the truth for every row. per_low_operating_point is the tuning
sweep as it ran before every low was labelled in one stack: one labelling,
one set of box maximum filters and three sorts per low. maxima_hysteresis
is hysteresis as it ran before it kept the components holding a seed: each
component's maximum from component_maxima, compared with high.
slope_plane_mh_from_smoothed is the Marr-Hildreth detector after its blur
as it ran before its crossings were marked as boolean strips, each taking
its own Laplacian rows: whole Laplacian and crossing-slope planes, then a
threshold or maxima_hysteresis.
erosion_ring is synth_circle's truth as it ran before it moved from
ndimage.binary_erosion to four shifted ands. ScipyToleranceMatch is score()'s
match rule as it ran before small tolerances moved to the disc's integer
offsets: one exact distance transform of the truth's complement, and the
tolerance disc as centred boxes of ndimage.maximum_filter.
"""

import functools
import math
import re
from collections import deque

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from edgebench.canny import CannyParams, GradientField, canny_detect, component_maxima
from edgebench.evaluation import EvalReport, _harmonic_mean, score
from edgebench.filtering import Kernel1D, Kernel2D, laplacian_kernel_2d
from edgebench.image_core import EdgeMap, FormatError, GrayImage, TruncationError
from edgebench.marr_hildreth import MHParams, mh_detect


def bfs_hysteresis(thinned: GrayImage, low: float, high: float) -> EdgeMap:
    """Flood fill from every pixel above high through 8-neighbours above low."""
    if low < 0 or low > high:
        raise ValueError(f"hysteresis thresholds require 0 <= low <= high, got low={low}, high={high}")
    values = thinned.pixels
    h, w = values.shape
    passable = values > low
    reached = values > high
    queue = deque(zip(*np.nonzero(reached)))
    while queue:
        y, x = queue.popleft()
        for ny in (y - 1, y, y + 1):
            if ny < 0 or ny >= h:
                continue
            for nx in (x - 1, x, x + 1):
                if 0 <= nx < w and passable[ny, nx] and not reached[ny, nx]:
                    reached[ny, nx] = True
                    queue.append((ny, nx))
    return EdgeMap(reached)


def maxima_hysteresis(thinned: GrayImage, low: float, high: float) -> EdgeMap:
    """Keep every component of the pixels above low whose maximum is above high."""
    if not 0 <= low <= high:
        raise ValueError(f"hysteresis thresholds require 0 <= low <= high, got low={low}, high={high}")
    labels, maxima = component_maxima(thinned, low)
    return EdgeMap((maxima > high)[labels])


def slope_plane_mh_from_smoothed(smoothed: GrayImage, params: MHParams) -> EdgeMap:
    """Marr-Hildreth after the blur from whole planes: the Laplacian, the
    crossing-slope map, then slope > slope_threshold, or maxima_hysteresis
    of the slope map with (low, high). A non-finite Laplacian or slope is
    refused by its GrayImage wrap."""
    slopes = whole_plane_crossing_slope_map(whole_plane_convolve_2d(smoothed, laplacian_kernel_2d()))
    if params.use_hysteresis:
        return maxima_hysteresis(slopes, params.low, params.high)
    return EdgeMap(slopes.pixels > params.slope_threshold)


def erosion_ring(inside: np.ndarray) -> np.ndarray:
    """synth_circle's truth as binary erosion gives it: the inside pixels the
    default cross erodes away, off-image pixels counting as inside."""
    return inside & ~ndimage.binary_erosion(inside, border_value=1)


def bfs_count_components(edges, connectivity: int = 8) -> int:
    """Count components of true pixels by flood fill from each unseen pixel."""
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    mask = edges.mask if isinstance(edges, EdgeMap) else np.asarray(edges, dtype=bool)
    if connectivity == 8:
        offsets = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    else:
        offsets = [(-1, 0), (0, -1), (0, 1), (1, 0)]
    h, w = mask.shape
    seen = np.zeros_like(mask)
    components = 0
    for sy, sx in zip(*np.nonzero(mask)):
        if seen[sy, sx]:
            continue
        components += 1
        seen[sy, sx] = True
        queue = deque([(sy, sx)])
        while queue:
            y, x = queue.popleft()
            for dy, dx in offsets:
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                    seen[ny, nx] = True
                    queue.append((ny, nx))
    return components


def kdtree_score(detected: EdgeMap, truth: EdgeMap, match_tolerance: float = 1.5) -> EvalReport:
    """score() with nearest distances from k-d tree queries over pixel lists."""
    if match_tolerance < 0:
        raise ValueError(f"match_tolerance must be non-negative, got {match_tolerance}")
    if (detected.height, detected.width) != (truth.height, truth.width):
        raise ValueError("detected and truth masks must share dimensions")
    det = np.argwhere(detected.mask)
    tru = np.argwhere(truth.mask)

    if det.shape[0] == 0:
        fp = 0.0
        matched = 0
        msd = 0.0
    elif tru.shape[0] == 0:
        fp = 1.0
        matched = 0
        msd = 0.0
    else:
        dist, _ = cKDTree(tru).query(det)
        matched_mask = dist <= match_tolerance
        matched = int(matched_mask.sum())
        fp = float((det.shape[0] - matched) / det.shape[0])
        msd = float(np.mean(dist[matched_mask] ** 2)) if matched else 0.0

    if tru.shape[0] == 0:
        fn = 0.0
    elif det.shape[0] == 0:
        fn = 1.0
    else:
        dist, _ = cKDTree(det).query(tru)
        fn = float((dist > match_tolerance).sum() / tru.shape[0])

    return EvalReport(
        false_positive_rate=fp,
        false_negative_rate=fn,
        mean_sq_distance=msd,
        detected_count=int(det.shape[0]),
        truth_count=int(tru.shape[0]),
        matched_count=matched,
        match_tolerance=float(match_tolerance),
    )


def two_pass_comparison(scenes, mh: MHParams, canny: CannyParams, tolerance: float = 1.5) -> list:
    """run_comparison with one full detector run and one score() per row."""
    scenes = list(scenes)
    if not scenes:
        raise ValueError("run_comparison needs at least one scene")
    rows = []
    for scene in scenes:
        rows.append((scene.name, "canny", score(canny_detect(scene.image, canny), scene.truth, tolerance)))
        rows.append((scene.name, "marr-hildreth", score(mh_detect(scene.image, mh), scene.truth, tolerance)))
    return rows


def loop_nonmax_suppress(field: GradientField) -> GrayImage:
    """Keep a pixel's magnitude only where it tops both directional samples.

    The two samples sit one pixel away along the gradient direction, each
    linearly interpolated between the two nearest grid neighbours in that
    quadrant. The keep rule is magnitude >= forward sample and strictly >
    backward sample, so a flat run of equal values keeps exactly one pixel.
    Border pixels are always suppressed.
    """
    mag = field.magnitude
    h, w = mag.shape
    out = np.zeros_like(mag)
    m = mag.tolist()
    gxs = field.gx.tolist()
    gys = field.gy.tolist()
    for y in range(1, h - 1):
        row = m[y]
        above = m[y - 1]
        below = m[y + 1]
        for x in range(1, w - 1):
            v = row[x]
            if v == 0.0:
                continue
            dx = gxs[y][x]
            dy = gys[y][x]
            ax = dx if dx >= 0.0 else -dx
            ay = dy if dy >= 0.0 else -dy
            sx = 1 if dx >= 0.0 else -1
            fwd_row = below if dy >= 0.0 else above
            bwd_row = above if dy >= 0.0 else below
            if ax >= ay:
                t = ay / ax
                fwd = (1.0 - t) * row[x + sx] + t * fwd_row[x + sx]
                bwd = (1.0 - t) * row[x - sx] + t * bwd_row[x - sx]
            else:
                t = ax / ay
                fwd = (1.0 - t) * fwd_row[x] + t * fwd_row[x + sx]
                bwd = (1.0 - t) * bwd_row[x] + t * bwd_row[x - sx]
            if v >= fwd and v > bwd:
                out[y, x] = v
    return GrayImage(out)


def whole_plane_nonmax_suppress(field: GradientField, floor: float = 0.0) -> GrayImage:
    """Keep a pixel's magnitude only where it tops both directional samples.

    The two samples sit one pixel away along the gradient direction, each
    linearly interpolated between the two nearest grid neighbours in that
    quadrant. The keep rule is magnitude >= forward sample and strictly >
    backward sample, so a flat run of equal values keeps exactly one pixel.
    Border pixels are always suppressed.

    Only pixels with magnitude strictly above floor are tested; the rest
    come out 0. The samples read every magnitude, so hysteresis with any
    low >= floor links the same pixels as at floor 0.
    """
    if not floor >= 0:
        raise ValueError(f"floor must be non-negative, got {floor}")
    mag = field.magnitude
    w = mag.shape[1]
    inner = np.zeros(mag.shape, dtype=bool)
    inner[1:-1, 1:-1] = mag[1:-1, 1:-1] > floor
    idx = np.flatnonzero(inner)
    gx = field.gx.ravel()[idx]
    gy = field.gy.ravel()[idx]
    ax = np.abs(gx)
    ay = np.abs(gy)
    t = np.minimum(ax, ay) / np.maximum(ax, ay)
    # flat offsets: the near sample steps along the dominant axis, the far
    # one along the diagonal of the gradient's quadrant
    step_x = np.where(gx >= 0.0, 1, -1)
    step_y = np.where(gy >= 0.0, w, -w)
    near = np.where(ax >= ay, step_x, step_y)
    far = step_x + step_y
    m = mag.ravel()
    v = m[idx]
    fwd = (1.0 - t) * m[idx + near] + t * m[idx + far]
    bwd = (1.0 - t) * m[idx - near] + t * m[idx - far]
    keep = idx[(v >= fwd) & (v > bwd)]
    out = np.zeros(mag.size)
    out[keep] = m[keep]
    return GrayImage(out.reshape(mag.shape))


def scatter_crossing_slope_map(resp: GrayImage) -> GrayImage:
    """Per-pixel slope magnitude at sign changes of the response, 0 elsewhere.

    A sign change between axis-aligned neighbours (a, b) with strictly
    opposite signs lands on the member with the smaller absolute value
    (scan-order earlier on a tie) and carries slope |a - b|. A pixel whose
    value is exactly 0 between opposite-signed axis neighbours carries the
    slope of that straddling pair. A pixel hit by several crossings keeps
    the largest slope.
    """
    v = resp.pixels
    slopes = np.zeros_like(v)

    def accumulate(ay, ax, by, bx):
        # a is the scan-order earlier member, so <= sends ties its way
        a, b = v[ay, ax], v[by, bx]
        diff = np.abs(a - b)
        pick_a = np.abs(a) <= np.abs(b)
        np.maximum.at(slopes, (np.where(pick_a, ay, by), np.where(pick_a, ax, bx)), diff)

    # horizontal neighbour pairs
    a, b = v[:, :-1], v[:, 1:]
    ys, xs = np.nonzero(((a > 0) & (b < 0)) | ((a < 0) & (b > 0)))
    if ys.size:
        accumulate(ys, xs, ys, xs + 1)

    # vertical neighbour pairs
    a, b = v[:-1, :], v[1:, :]
    ys, xs = np.nonzero(((a > 0) & (b < 0)) | ((a < 0) & (b > 0)))
    if ys.size:
        accumulate(ys, xs, ys + 1, xs)

    # exact zeros straddled by opposite signs
    if v.shape[1] >= 3:
        c, l, r = v[:, 1:-1], v[:, :-2], v[:, 2:]
        ys, xs = np.nonzero((c == 0) & (((l > 0) & (r < 0)) | ((l < 0) & (r > 0))))
        if ys.size:
            np.maximum.at(slopes, (ys, xs + 1), np.abs(v[ys, xs] - v[ys, xs + 2]))
    if v.shape[0] >= 3:
        c, up, dn = v[1:-1, :], v[:-2, :], v[2:, :]
        ys, xs = np.nonzero((c == 0) & (((up > 0) & (dn < 0)) | ((up < 0) & (dn > 0))))
        if ys.size:
            np.maximum.at(slopes, (ys + 1, xs), np.abs(v[ys, xs] - v[ys + 2, xs]))

    return GrayImage(slopes)


def whole_plane_convolve_separable(img: GrayImage, kx: Kernel1D, ky: Kernel1D) -> GrayImage:
    """Correlate with kx along rows, then ky along columns.

    Out-of-range samples replicate the nearest border pixel, which keeps
    the two 1-D passes exactly equivalent to the 2-D outer-product pass.
    """
    px = img.pixels
    h, w = px.shape

    rx = kx.radius
    padded = np.pad(px, ((0, 0), (rx, rx)), mode="edge")
    tmp = np.zeros_like(px)
    for i, tap in enumerate(kx.taps):
        tmp += tap * padded[:, i:i + w]

    ry = ky.radius
    padded = np.pad(tmp, ((ry, ry), (0, 0)), mode="edge")
    out = np.zeros_like(px)
    for i, tap in enumerate(ky.taps):
        out += tap * padded[i:i + h, :]
    return GrayImage(out)


def whole_plane_convolve_2d(img: GrayImage, kernel: Kernel2D) -> GrayImage:
    """Dense 2-D correlation with edge-replicated borders.

    Every output pixel accumulates the full tap grid directly; this is the
    reference path the separable route is checked against.
    """
    px = img.pixels
    h, w = px.shape
    r = kernel.radius
    padded = np.pad(px, r, mode="edge")
    out = np.zeros_like(px)
    side = 2 * r + 1
    for i in range(side):
        for j in range(side):
            tap = kernel.taps[i, j]
            if tap == 0.0:
                continue
            out += tap * padded[i:i + h, j:j + w]
    return GrayImage(out)


def pad_central_differences(pixels: np.ndarray) -> tuple:
    """(gx, gy) of gradient(): halved central differences over an edge-mode pad."""
    p = np.pad(pixels, 1, mode="edge")
    return (p[1:-1, 2:] - p[1:-1, :-2]) / 2.0, (p[2:, 1:-1] - p[:-2, 1:-1]) / 2.0


def whole_plane_crossing_slope_map(resp: GrayImage) -> GrayImage:
    """Per-pixel slope magnitude at sign changes of the response, 0 elsewhere.

    A sign change between axis-aligned neighbours (a, b) with strictly
    opposite signs lands on the member with the smaller absolute value
    (scan-order earlier on a tie) and carries slope |a - b|. A pixel whose
    value is exactly 0 between opposite-signed axis neighbours carries the
    slope of that straddling pair. A pixel hit by several crossings keeps
    the largest slope.
    """
    v = resp.pixels
    slopes = np.zeros_like(v)
    # row pairs, then column pairs as rows of the transpose, whose writes land in slopes
    for val, out in ((v, slopes), (v.T, slopes.T)):
        pos, neg = val > 0, val < 0
        a, b = val[:, :-1], val[:, 1:]
        # |a - b| is finite unless a and b have opposite signs, so the mask products
        # leave exact +0s; an overflowing slope turns inf or NaN, which GrayImage refuses
        slope = np.abs(a - b) * ((pos[:, :-1] & neg[:, 1:]) | (neg[:, :-1] & pos[:, 1:]))
        # a is the scan-order earlier member, so <= sends ties its way
        to_a = slope * (np.abs(a) <= np.abs(b))
        np.maximum(out[:, :-1], to_a, out=out[:, :-1])
        np.maximum(out[:, 1:], slope - to_a, out=out[:, 1:])
        # exact zeros straddled by opposite signs
        straddle = (val[:, 1:-1] == 0) & ((pos[:, :-2] & neg[:, 2:]) | (neg[:, :-2] & pos[:, 2:]))
        np.maximum(out[:, 1:-1], np.where(straddle, np.abs(val[:, :-2] - val[:, 2:]), 0.0), out=out[:, 1:-1])
    return GrayImage(slopes)


def split_ascii_samples(data: bytes, pos: int, count: int) -> np.ndarray:
    """The first count whitespace-separated decimal samples of data[pos:]."""
    raster = data[pos:]
    if b"#" in raster:
        # as in the header, a comment runs from '#' to the end of its line
        raster = re.sub(rb"#[^\r\n]*", b"", raster)
    kept = raster.split()[:count]
    if len(kept) < count:
        raise TruncationError(f"pixel data truncated: expected {count} samples, got {len(kept)}")
    # samples are unsigned decimals; float() rounds each one exactly as
    # int() then float64 would, and an overlong one becomes inf > maxval
    if not all(map(bytes.isdigit, kept)):
        bad = next(tok for tok in kept if not tok.isdigit())
        raise FormatError(f"malformed sample token {bad!r}")
    return np.fromiter(map(float, kept), np.float64, count)


# an ASCII sample of this many digits, with '0' offsets, still fits an int64
EXACT_DIGITS = 18


def whole_buffer_ascii_samples(data: bytes, pos: int, count: int) -> np.ndarray:
    """The first count samples of data[pos:], from byte passes over the whole raster."""
    if data.find(b"#", pos) >= 0:
        # as in the header, a comment runs from '#' to the end of its line
        data, pos = re.sub(rb"#[^\r\n]*", b"", data[pos:]), 0
    buf = np.frombuffer(data, np.uint8, offset=pos)
    # tok marks the bytes outside the six whitespace bytes 9-13 and 32, padded
    # with a blank at each end so every token has a start and an end change
    tok = np.zeros(buf.size + 2, dtype=bool)
    np.greater(buf - 9, 4, out=tok[1:-1])
    tok[1:-1] &= buf != 32
    bounds = np.flatnonzero(tok[1:] != tok[:-1])  # start, end, start, end, ...
    if bounds.size < 2 * count:
        raise TruncationError(f"pixel data truncated: expected {count} samples, got {bounds.size // 2}")
    bounds = bounds[:2 * count]
    # samples are unsigned decimals, and bytes after the last one are never
    # read; tok > digit marks the token bytes that are not digits
    end = bounds[-1]
    bad = tok[1:end + 1] > ((buf[:end] - 48) < 10)
    # the parse sets a large read's peak memory, so each mask goes once it is spent
    del tok
    if bad.any():
        first = np.searchsorted(bounds, np.argmax(bad), side="right") - 1
        raise FormatError(f"malformed sample token {buf[bounds[first]:bounds[first + 1]].tobytes()!r}")
    del bad
    samples = np.empty(count)
    horner_decimals(buf, bounds, samples)
    return samples


def horner_decimals(buf: np.ndarray, bounds: np.ndarray, out: np.ndarray) -> None:
    """out[i] = the value of the i-th token of bounds, (start, end) byte
    offsets into buf of all-digit tokens, by Horner's rule over each group
    of tokens of one length."""
    starts, lengths = bounds[0::2], bounds[1::2] - bounds[0::2]
    for length in np.flatnonzero(np.bincount(lengths)).tolist():
        group = lengths == length
        if length > EXACT_DIGITS:
            # float() rounds each one exactly as int() then float64 would,
            # and an overlong one becomes inf > maxval
            for i in np.flatnonzero(group):
                out[i] = float(buf[starts[i]:starts[i] + length].tobytes())
            continue
        # Horner's rule over the digit bytes; the ASCII '0' offsets of all
        # length digits come off at the end as 48 times the repunit
        at = starts[group]
        value = buf[at].astype(np.int64)
        for _ in range(length - 1):
            at += 1
            value *= 10
            value += buf[at]
        value -= 48 * ((10**length - 1) // 9)
        out[group] = value


class ScipyToleranceMatch:
    """evaluation._ToleranceMatch's rule through scipy, on whole planes.

    distance is the exact transform of the truth's complement (+inf
    everywhere for an empty truth), near the pixels within the tolerance of
    truth, and boxes the tolerance disc, clipped to the image, as one
    centred (rows, width) box per distinct disc-row width, spanning every
    disc row at least that wide.
    """

    def __init__(self, truth: EdgeMap, tolerance: float) -> None:
        tru = truth.mask
        self.tolerance = float(tolerance)
        self.ty, self.tx = np.nonzero(tru)
        ry, rx = (math.floor(min(tolerance, n - 1)) for n in tru.shape)
        dy, dx = np.ogrid[:ry + 1, :rx + 1]
        half = np.count_nonzero(np.sqrt(dy * dy + dx * dx) <= tolerance, axis=1)
        self.boxes = [(2 * int(np.count_nonzero(half >= h)) - 1, 2 * int(h) - 1) for h in np.unique(half)]
        self.distance = ndimage.distance_transform_edt(~tru) if tru.any() else np.full(tru.shape, np.inf)
        self.near = (self.distance <= tolerance) & tru.any()  # nothing is near an empty truth

    def disc_maxima(self, levels: np.ndarray) -> np.ndarray:
        """(layers, truth pixels): the maximum of each layer of the (layers,
        h, w) stack levels over each truth pixel's disc, clipped to the image."""
        filtered = (ndimage.maximum_filter(levels, (1,) + box, mode="nearest") for box in self.boxes)
        return functools.reduce(np.maximum, (plane[:, self.ty, self.tx] for plane in filtered))


def _counts_above(values: np.ndarray, hs: np.ndarray) -> np.ndarray:
    # for each h in hs, the number of values above h
    return values.size - np.searchsorted(np.sort(values, axis=None), hs, side="right")


def _rates(match: ScipyToleranceMatch, level: np.ndarray, hs, counts_above=_counts_above):
    """(detected, matched, fp, fn) of the detection level > h, per h in hs.

    A truth pixel is covered at h exactly when the maximum of level over
    its disc is above h. Padding with level's minimum leaves every disc
    maximum as it is, since each disc holds its own centre pixel.
    """
    n_tru = match.ty.size
    n_det = counts_above(level, hs)
    matched = uncovered = 0
    if n_tru:
        cval = level.min()
        reach = np.max([ndimage.maximum_filter(level, box, mode="constant", cval=cval)[match.ty, match.tx]
                        for box in match.boxes], axis=0)
        matched = counts_above(level[match.near], hs)
        uncovered = n_tru - counts_above(reach, hs)
    fp = (n_det - matched) / np.maximum(n_det, 1)
    fn = uncovered / max(n_tru, 1)
    return n_det, matched, fp, fn


def _report(match: ScipyToleranceMatch, detected: EdgeMap) -> EvalReport:
    det = detected.mask
    n_det, matched, fp, fn = _rates(match, det, None, lambda values, _: np.count_nonzero(values))
    msd = float(np.mean(match.distance[det & match.near] ** 2)) if matched else 0.0
    return EvalReport(float(fp), float(fn), msd, int(n_det), int(match.ty.size), int(matched), match.tolerance)


def _linked_levels(plane: GrayImage, grid):
    # one labelling per low: pixels of the level plane maxima[labels] above
    # high are exactly hysteresis(plane, low, high)
    for low in grid:
        labels, maxima = component_maxima(plane, low)
        yield maxima[labels]


def per_low_operating_point(values: np.ndarray, grid, linked: bool, make_params, truth: EdgeMap, tolerance: float):
    """evaluation._best_operating_point with one labelling and one rates pass per low.

    Level plane i is the plane values linked above grid[i] (linked), or else
    values[i]; it detects level > grid[j] for each j >= i. The first highest
    f in that order wins, and only the winner gets params and a report.
    """
    levels = _linked_levels(GrayImage(values), grid) if linked else values
    match = ScipyToleranceMatch(truth, tolerance)
    best = None
    for i, level in enumerate(levels):
        _, _, fp, fn = _rates(match, level, np.array(grid[i:], dtype=np.float64))
        f = _harmonic_mean(1.0 - fp, 1.0 - fn)
        j = int(np.argmax(f))
        if best is None or f[j] > best[0]:
            best = f[j], level, i, i + j
    _, level, i, j = best
    return make_params(grid[i], grid[j]), _report(match, EdgeMap(level > grid[j]))
