"""Marr-Hildreth edge detection: Laplacian of a smoothed image, then
zero-crossing localisation with a slope threshold."""

from dataclasses import dataclass

import numpy as np

from .canny import _link
from .filtering import _by_strips, _edge_padded, _gaussian, _smooth, check_blur, convolve_separable
from .image_core import EdgeMap, GrayImage, _finite

__all__ = [
    "MHParams",
    "crossing_slope_map",
    "laplacian_of_smoothed",
    "mh_detect",
    "zero_crossings",
]

# no crossing slope |a| + |b| overflows while every |value| is at most this
_SAFE = np.finfo(np.float64).max / 2


@dataclass(frozen=True)
class MHParams:
    """Smoothing width plus either a single slope threshold or, with
    use_hysteresis, a (low, high) pair applied to crossing slopes."""

    sigma: float = 1.0
    slope_threshold: float = 0.0
    use_hysteresis: bool = False
    low: float = 0.0
    high: float = 0.0
    radius: "int | None" = None

    def __post_init__(self) -> None:
        check_blur(self.sigma, self.radius)
        if not self.slope_threshold >= 0:
            raise ValueError(f"slope_threshold must be non-negative, got {self.slope_threshold}")
        if not (self.low >= 0 and self.high >= 0):
            raise ValueError(f"hysteresis thresholds must be non-negative, got low={self.low}, high={self.high}")
        if self.use_hysteresis and self.low > self.high:
            raise ValueError(f"hysteresis requires low <= high, got low={self.low}, high={self.high}")


def _laplacian(px: np.ndarray) -> np.ndarray:
    # the four-neighbour stencil as five adds in convolve_2d's tap order,
    # from +0 as it starts, so the bits are its own and a -0 sum is +0; the
    # taps are flat slices of the row-padded plane, and a left or right tap
    # that wraps to the next row is put right in the border column
    h, w = px.shape
    n = h * w
    p = _edge_padded(px, 1, 0)
    flat, mid = p.ravel(), p[1:-1]
    out = flat[:n] + 0.0
    rows = out.reshape(h, w)
    first = rows[:, 0] + mid[:, 0]
    out += flat[w - 1:w - 1 + n]
    rows[:, 0] = first
    out += flat[w:w + n] * -4.0
    last = rows[:, -1] + mid[:, -1]
    out += flat[w + 1:w + 1 + n]
    rows[:, -1] = last
    out += flat[2 * w:]
    return rows


def laplacian_of_smoothed(img: GrayImage, sigma: float, radius: "int | None" = None) -> GrayImage:
    """Gaussian smoothing followed by the four-neighbour Laplacian stencil."""
    k = _gaussian(sigma, radius)
    return GrayImage(_by_strips(_laplacian, convolve_separable(img, k, k).pixels, 1))


def crossing_slope_map(resp: GrayImage) -> GrayImage:
    """Per-pixel slope magnitude at sign changes of the response, 0 elsewhere.

    A sign change between axis-aligned neighbours (a, b) with strictly
    opposite signs lands on the member with the smaller absolute value
    (scan-order earlier on a tie) and carries slope |a - b|. A pixel whose
    value is exactly 0 between opposite-signed axis neighbours carries the
    slope of that straddling pair. A pixel hit by several crossings keeps
    the largest slope. Large planes run in row strips with a one-row halo,
    bit for bit. A slope that overflows is refused with ValueError.
    """
    return GrayImage(_by_strips(_crossing_slopes, resp.pixels, 1))


def _landings(v: np.ndarray, mag: np.ndarray):
    # every crossing of v as (target, lands, slope): a crossing marked in
    # lands lands on that slice of the flattened plane with that slope. Row
    # pairs are flat neighbours 1 apart, column pairs w apart; a row pair or
    # straddle that wraps to the next row is cleared. mag is |v| flattened
    w = v.shape[1]
    flat = v.ravel()
    sign = (flat > 0).view(np.int8) - (flat < 0).view(np.int8)
    zero = flat == 0
    for d, wraps in ((1, True), (w, False)):
        opposite = sign[:-d] * sign[d:] < 0
        if wraps:
            opposite[w - 1::w] = False
        # a pair lands on its smaller |value|, a tie on a, the scan-order
        # earlier; with opposite signs |a - b| is |a| + |b|, bit for bit
        to_a = mag[:-d] <= mag[d:]
        slope = mag[:-d] + mag[d:]
        yield np.s_[:-d], opposite & to_a, slope
        yield np.s_[d:], opposite > to_a, slope
        # exact zeros straddled by opposite signs
        if zero[d:-d].any():
            straddle = zero[d:-d] & (sign[:-2 * d] * sign[2 * d:] < 0)
            if wraps:
                straddle[w - 2::w] = straddle[w - 1::w] = False
            yield np.s_[d:-d], straddle, mag[:-2 * d] + mag[2 * d:]


def _crossing_slopes(v: np.ndarray) -> np.ndarray:
    # an overflowing slope lands as inf, which crossing_slope_map's GrayImage
    # refuses; a same-signed pair's sum may overflow too, but never lands
    slopes = np.zeros(v.size)
    with np.errstate(over="ignore"):
        for target, lands, slope in _landings(v, np.abs(v).ravel()):
            np.maximum(slopes[target], np.where(lands, slope, 0.0), out=slopes[target])
    return slopes.reshape(v.shape)


def _crossing_marks(v: np.ndarray, thresholds: tuple) -> np.ndarray:
    # layer i is crossing_slope_map(v) > thresholds[i], refused as it refuses
    # an overflowing slope: the pixels some crossing above thresholds[i] lands on
    mag = np.abs(v).ravel()
    safe = mag.max() <= _SAFE
    marks = np.zeros((len(thresholds), v.size), dtype=bool)
    with np.errstate(over="ignore"):
        for target, lands, slope in _landings(v, mag):
            if not safe:
                _finite(slope[lands])
            for mark, t in zip(marks, thresholds):
                mark[target] |= lands & (slope > t)
    return marks.reshape((len(thresholds),) + v.shape)


def zero_crossings(resp: GrayImage, slope_threshold: float) -> EdgeMap:
    """Mark sign changes whose slope magnitude strictly exceeds the threshold.

    This is crossing_slope_map(resp) > slope_threshold, with the same
    refusal of an overflowing slope, computed as boolean masks over row
    strips with a one-row halo: the float slope plane is never built.
    """
    if not slope_threshold >= 0:
        raise ValueError(f"slope_threshold must be non-negative, got {slope_threshold}")
    return EdgeMap(_by_strips(lambda v: _crossing_marks(v, (slope_threshold,))[0], resp.pixels, 1))


def _mh_from_smoothed(smoothed: np.ndarray, params: MHParams) -> np.ndarray:
    # the detector after its blur, on a float64 plane: the Laplacian, then one
    # strip pass refuses each strip of it unless finite, halo rows being its
    # own rows, and marks the crossings above each threshold as bool planes;
    # hysteresis links them by seed labels
    thresholds = (params.low, params.high) if params.use_hysteresis else (params.slope_threshold,)
    resp = _by_strips(_laplacian, smoothed, 1)
    marks = _by_strips(lambda v: _crossing_marks(_finite(v), thresholds), resp, 1)
    return _link(*marks) if params.use_hysteresis else marks[0]


def mh_detect(img: GrayImage, params: MHParams) -> EdgeMap:
    """Full detector: smooth, then keep the Laplacian's zero crossings whose
    slope is above slope_threshold (zero_crossings), or with use_hysteresis
    link those above low to those above high (hysteresis of
    crossing_slope_map). After the blur the Laplacian is taken in row
    strips, and one row-strip pass marks its crossings above each threshold
    as boolean planes; linking keeps every 8-connected component of the low
    plane that holds a pixel of the high plane. No float slope plane is
    built."""
    return EdgeMap(_mh_from_smoothed(_smooth(img.pixels, params.sigma, params.radius), params))
