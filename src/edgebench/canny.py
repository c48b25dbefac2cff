"""Canny edge detection: gradient, non-maximum suppression, hysteresis."""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .filtering import convolve_separable, gaussian_kernel_1d, gaussian_radius
from .image_core import EdgeMap, GrayImage

__all__ = [
    "CannyParams",
    "EdgeMap",
    "GradientField",
    "canny_detect",
    "component_maxima",
    "gradient",
    "hysteresis",
    "nonmax_suppress",
    "thinned_magnitude",
]

_EIGHT_CONNECTED = ndimage.generate_binary_structure(2, 2)


@dataclass(frozen=True, eq=False)
class GradientField:
    """Per-pixel gradient components with derived magnitude and direction."""

    gx: np.ndarray
    gy: np.ndarray
    magnitude: np.ndarray
    direction: np.ndarray

    def __post_init__(self) -> None:
        planes = {}
        shape = None
        for name in ("gx", "gy", "magnitude", "direction"):
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True)
            if shape is None:
                shape = arr.shape
            if arr.ndim != 2 or arr.shape != shape or arr.size == 0:
                raise ValueError("gradient planes must be non-empty 2-D grids of equal shape")
            arr.setflags(write=False)
            planes[name] = arr
        hyp = np.hypot(planes["gx"], planes["gy"])
        if not np.allclose(planes["magnitude"], hyp, rtol=0.0, atol=1e-12):
            raise ValueError("magnitude plane disagrees with hypot(gx, gy)")
        for name, arr in planes.items():
            object.__setattr__(self, name, arr)

    @classmethod
    def from_components(cls, gx, gy) -> "GradientField":
        gx = np.asarray(gx, dtype=np.float64)
        gy = np.asarray(gy, dtype=np.float64)
        return cls(gx, gy, np.hypot(gx, gy), np.arctan2(gy, gx))

    @property
    def width(self) -> int:
        return self.gx.shape[1]

    @property
    def height(self) -> int:
        return self.gx.shape[0]


@dataclass(frozen=True)
class CannyParams:
    """Smoothing width plus the hysteresis threshold pair.

    radius overrides the default Gaussian truncation radius ceil(3*sigma).
    """

    sigma: float = 1.0
    low: float = 0.05
    high: float = 0.15
    radius: "int | None" = None

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.low < 0 or self.low > self.high:
            raise ValueError(
                f"canny thresholds require 0 <= low <= high, got low={self.low}, high={self.high}"
            )
        if self.radius is not None and self.radius < 1:
            raise ValueError(f"radius must be at least 1, got {self.radius}")


def gradient(img: GrayImage) -> GradientField:
    """Central-difference gradient with replicated borders.

    gx[y, x] = (I[y, x+1] - I[y, x-1]) / 2 and likewise for gy, where
    out-of-range samples repeat the nearest border pixel.
    """
    if img.width < 3 or img.height < 3:
        raise ValueError(f"gradient needs at least a 3x3 image, got {img.width}x{img.height}")
    p = np.pad(img.pixels, 1, mode="edge")
    gx = (p[1:-1, 2:] - p[1:-1, :-2]) / 2.0
    gy = (p[2:, 1:-1] - p[:-2, 1:-1]) / 2.0
    return GradientField.from_components(gx, gy)


def nonmax_suppress(field: GradientField) -> GrayImage:
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


def component_maxima(thinned: GrayImage, low: float) -> tuple:
    """Label the 8-connected components of pixels strictly above low.

    Returns (labels, maxima): labels is the ndimage.label plane, 0 off the
    components, and maxima[k] is the largest value in component k, with
    maxima[0] = -inf. For any high >= low, (maxima > high)[labels] is the
    hysteresis mask, so a sweep over high labels each low only once.
    """
    values = thinned.pixels
    passable = values > low
    labels, n = ndimage.label(passable, structure=_EIGHT_CONNECTED)
    # flat indices gather faster than two boolean-mask selections
    where = np.flatnonzero(passable)
    maxima = np.full(n + 1, -np.inf)
    np.maximum.at(maxima, labels.ravel()[where], values.ravel()[where])
    return labels, maxima


def hysteresis(thinned: GrayImage, low: float, high: float) -> EdgeMap:
    """Two-threshold edge linking over the thinned magnitude plane.

    Pixels strictly above high seed the edge set; pixels strictly above low
    join it when they are 8-connected to a seed through pixels above low.
    The result is the flood-fill closure, computed as a connected-component
    labelling of the pixels above low (component_maxima) that keeps every
    component whose maximum is above high, so it does not depend on any
    visitation order.
    """
    if low < 0 or low > high:
        raise ValueError(f"hysteresis thresholds require 0 <= low <= high, got low={low}, high={high}")
    labels, maxima = component_maxima(thinned, low)
    return EdgeMap((maxima > high)[labels])


def thinned_magnitude(img: GrayImage, sigma: float, radius: "int | None" = None) -> GrayImage:
    """Gaussian smoothing, gradient, and non-maximum suppression in one go.

    This is the threshold-free front half of the detector; sweeping
    hysteresis thresholds can reuse one thinned plane.
    """
    r = gaussian_radius(sigma) if radius is None else radius
    k = gaussian_kernel_1d(sigma, r)
    smoothed = convolve_separable(img, k, k)
    return nonmax_suppress(gradient(smoothed))


def canny_detect(img: GrayImage, params: CannyParams) -> EdgeMap:
    """Full detector: smooth, differentiate, thin, then link with hysteresis."""
    thinned = thinned_magnitude(img, params.sigma, params.radius)
    return hysteresis(thinned, params.low, params.high)
