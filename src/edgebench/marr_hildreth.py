"""Marr-Hildreth edge detection: Laplacian of a smoothed image, then
zero-crossing localisation with a slope threshold."""

from dataclasses import dataclass

import numpy as np

from .canny import hysteresis
from .filtering import _by_strips, _smooth, check_blur, convolve_2d, laplacian_kernel_2d
from .image_core import EdgeMap, GrayImage

__all__ = [
    "MHParams",
    "crossing_slope_map",
    "laplacian_of_smoothed",
    "mh_detect",
    "zero_crossings",
]

_LAPLACIAN = laplacian_kernel_2d()


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


def laplacian_of_smoothed(img: GrayImage, sigma: float, radius: "int | None" = None) -> GrayImage:
    """Gaussian smoothing followed by the four-neighbour Laplacian stencil."""
    return convolve_2d(_smooth(img, sigma, radius), _LAPLACIAN)


def crossing_slope_map(resp: GrayImage) -> GrayImage:
    """Per-pixel slope magnitude at sign changes of the response, 0 elsewhere.

    A sign change between axis-aligned neighbours (a, b) with strictly
    opposite signs lands on the member with the smaller absolute value
    (scan-order earlier on a tie) and carries slope |a - b|. A pixel whose
    value is exactly 0 between opposite-signed axis neighbours carries the
    slope of that straddling pair. A pixel hit by several crossings keeps
    the largest slope. Large planes run in row strips with a one-row halo,
    bit for bit.
    """
    return GrayImage(_by_strips(_crossing_slopes, resp.pixels, 1))


def _crossing_slopes(v: np.ndarray) -> np.ndarray:
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
    return slopes


def zero_crossings(resp: GrayImage, slope_threshold: float) -> EdgeMap:
    """Mark sign changes whose slope magnitude strictly exceeds the threshold."""
    if not slope_threshold >= 0:
        raise ValueError(f"slope_threshold must be non-negative, got {slope_threshold}")
    return EdgeMap(crossing_slope_map(resp).pixels > slope_threshold)


def _mh_from_smoothed(smoothed: GrayImage, params: MHParams) -> EdgeMap:
    # the detector after its blur: Laplacian, then threshold or link the crossings
    resp = convolve_2d(smoothed, _LAPLACIAN)
    if params.use_hysteresis:
        return hysteresis(crossing_slope_map(resp), params.low, params.high)
    return zero_crossings(resp, params.slope_threshold)


def mh_detect(img: GrayImage, params: MHParams) -> EdgeMap:
    """Full detector. With use_hysteresis the crossing-slope plane goes
    through the same two-threshold linking the Canny detector uses;
    otherwise a single slope threshold decides."""
    return _mh_from_smoothed(_smooth(img, params.sigma, params.radius), params)
