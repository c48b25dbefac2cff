"""Canny edge detection: gradient, non-maximum suppression, hysteresis."""

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .filtering import _edge_padded, _gaussian, _smooth, check_blur, convolve_separable
from .image_core import EdgeMap, GrayImage, _bands, _finite, _run_bands

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
# 8-connected within each layer of a (layers, h, w) stack, never across layers
_LAYERED = np.pad(_EIGHT_CONNECTED[None], ((1, 1), (0, 0), (0, 0)))


@dataclass(frozen=True, eq=False)
class GradientField:
    """Per-pixel gradient components and their magnitude hypot(gx, gy)."""

    gx: np.ndarray
    gy: np.ndarray
    magnitude: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        gx = np.array(self.gx, dtype=np.float64, copy=True)
        gy = np.array(self.gy, dtype=np.float64, copy=True)
        if gx.ndim != 2 or gx.shape != gy.shape or gx.size == 0:
            raise ValueError("gradient planes must be non-empty 2-D grids of equal shape")
        for name, arr in (("gx", gx), ("gy", gy), ("magnitude", np.hypot(gx, gy))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


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
        check_blur(self.sigma, self.radius)
        if not 0 <= self.low <= self.high:
            raise ValueError(
                f"canny thresholds require 0 <= low <= high, got low={self.low}, high={self.high}"
            )


def _central_differences(pixels: np.ndarray) -> tuple:
    # (gx, gy) of a plane, or of each layer of a (layers, h, w) stack, each
    # halved in place: the bits of (a - b) / 2.0 with one plane fewer
    p = _edge_padded(pixels, 1, 1)
    planes = np.subtract(p[..., 1:-1, 2:], p[..., 1:-1, :-2]), np.subtract(p[..., 2:, 1:-1], p[..., :-2, 1:-1])
    for g in planes:
        g /= 2.0
    return planes


def gradient(img: GrayImage) -> GradientField:
    """Central-difference gradient with replicated borders.

    gx[y, x] = (I[y, x+1] - I[y, x-1]) / 2 and likewise for gy, where
    out-of-range samples repeat the nearest border pixel.
    """
    return GradientField(*_central_differences(img.pixels))


# At or above _TINY_SQUARE, squares are exact to a few ulps: a bound _SLACK
# below floor*floor passes every hypot(gx, gy) > floor, and inf squares too.
_TINY_SQUARE = 2.0 ** -960
_SLACK = 1.0 - 2.0 ** -40


def _thin(gx: np.ndarray, gy: np.ndarray, floor: float, magnitude: "np.ndarray | None" = None,
          rows: "tuple | None" = None) -> tuple:
    # NMS above floor, as (flat indices, values) of the kept pixels, all above
    # floor; a kept value that is not finite is refused as GrayImage refuses
    # it. With no magnitude plane, hypot is taken only where read. On a
    # (layers, h, w) stack each layer's border is suppressed, so no sample
    # leaves its layer. Only rows (top, bottom) may keep a pixel, so a strip
    # neither keeps nor refuses one on its halo rows
    h, w = gx.shape[-2:]
    top, bottom = rows or (0, h)
    if magnitude is not None:
        candidates = magnitude > floor
    elif floor * floor < _TINY_SQUARE:
        candidates = (gx != 0) | (gy != 0)
    else:
        candidates = gx * gx + gy * gy > min(floor * floor, np.finfo(np.float64).max) * _SLACK
    candidates[..., :max(top, 1), :] = False
    candidates[..., min(bottom, h - 1):, :] = False
    candidates[..., [0, -1]] = False
    idx = np.flatnonzero(candidates)
    gx, gy = gx.ravel(), gy.ravel()

    def sample(i):
        return magnitude.ravel()[i] if magnitude is not None else np.hypot(gx[i], gy[i])

    sx, sy = gx[idx], gy[idx]
    ax, ay = np.abs(sx), np.abs(sy)
    t = np.minimum(ax, ay) / np.maximum(ax, ay)
    # flat offsets: the near sample steps along the dominant axis, the far
    # one along the diagonal of the gradient's quadrant
    step_x = np.where(sx >= 0.0, 1, -1)
    step_y = np.where(sy >= 0.0, w, -w)
    near = np.where(ax >= ay, step_x, step_y)
    far = step_x + step_y
    v = sample(idx)
    fwd = (1.0 - t) * sample(idx + near) + t * sample(idx + far)
    bwd = (1.0 - t) * sample(idx - near) + t * sample(idx - far)
    keep = (v > floor) & (v >= fwd) & (v > bwd)
    return idx[keep], _finite(v[keep])


def nonmax_suppress(field: GradientField, floor: float = 0.0) -> GrayImage:
    """Keep a pixel's magnitude only where it tops both directional samples.

    The two samples sit one pixel away along the gradient direction, each
    linearly interpolated between the two nearest grid neighbours in that
    quadrant. The keep rule is magnitude >= forward sample and strictly >
    backward sample, so a flat run of equal values keeps exactly one pixel.
    Border pixels are always suppressed.

    Only pixels with magnitude strictly above floor are tested; the rest
    come out 0. The samples read every magnitude, so hysteresis with any
    low >= floor links the same pixels as at floor 0.

    This form and thinned_magnitude read the full magnitude plane and
    scatter the kept pixels into a dense one; the detector takes hypot only
    where gx*gx + gy*gy nears low*low (any nonzero component if low*low
    underflows, as at 0) and at their four samples, and links straight from
    the kept pixels' indices and values. A kept magnitude that is not finite
    is refused with ValueError.
    """
    if not floor >= 0:
        raise ValueError(f"floor must be non-negative, got {floor}")
    thinned = np.zeros(field.gx.shape)
    np.put(thinned, *_thin(field.gx, field.gy, floor, field.magnitude))
    return GrayImage(thinned)


def component_maxima(thinned: GrayImage, low: float) -> tuple:
    """Label the 8-connected components of pixels strictly above low.

    Returns (labels, maxima): labels is the ndimage.label plane, 0 off the
    components, and maxima[k] is the largest value in component k, with
    maxima[0] = -inf. For any high >= low, (maxima > high)[labels] is the
    hysteresis mask, so a sweep over high labels each low only once.
    """
    labels, maxima = _stack_maxima(thinned.pixels, (thinned.pixels > low)[None])[:2]
    return labels[0], maxima


def _stack_maxima(values: np.ndarray, passable: np.ndarray) -> tuple:
    # (labels, maxima, where, component, pixel) of the (layers, h, w) stack passable
    # over the (h, w) plane values: its ndimage.label stack, each label's largest value
    # (-inf for 0), and its pixels' flat stack indices, labels and flat indices in values
    labels, n = ndimage.label(passable, structure=_LAYERED)
    where = np.flatnonzero(passable)
    component, pixel = labels.ravel()[where], where % values.size
    maxima = np.full(n + 1, -np.inf)
    np.maximum.at(maxima, component, values.ravel()[pixel])
    return labels, maxima, where, component, pixel


def _link(passable: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    # the 8-connected components of passable, a plane or each layer of a
    # (layers, h, w) stack, that hold a seed; every seed is passable, so a
    # component with one has a pixel above high
    labels, n = ndimage.label(passable, structure=_EIGHT_CONNECTED if passable.ndim == 2 else _LAYERED)
    keep = np.zeros(n + 1, dtype=bool)
    keep[labels[seeds]] = True
    return keep.take(labels)


def hysteresis(thinned: GrayImage, low: float, high: float) -> EdgeMap:
    """Two-threshold edge linking over the thinned magnitude plane.

    Pixels strictly above high seed the edge set; pixels strictly above low
    join it when they are 8-connected to a seed through pixels above low.
    The result is the flood-fill closure, computed as a connected-component
    labelling of the pixels above low that keeps every component holding a
    seed, so it does not depend on any visitation order.
    """
    if not 0 <= low <= high:
        raise ValueError(f"hysteresis thresholds require 0 <= low <= high, got low={low}, high={high}")
    values = thinned.pixels
    return EdgeMap(_link(values > low, values > high))


def thinned_magnitude(img: GrayImage, sigma: float, radius: "int | None" = None) -> GrayImage:
    """Gaussian smoothing, gradient, and non-maximum suppression.

    This is the front half of the detector. It thins every nonzero
    magnitude, so it is threshold-free and sweeping hysteresis thresholds
    can reuse one thinned plane.
    """
    k = _gaussian(sigma, radius)
    return nonmax_suppress(gradient(convolve_separable(img, k, k)))


def _canny_from_smoothed(smoothed: np.ndarray, params: CannyParams) -> np.ndarray:
    # the detector after its blur, on a float64 plane or each layer of a
    # (layers, h, w) stack: differentiate, thin above low, then link the kept
    # pixels, every one above low, from those above high; no thinned plane
    # is built. A plane of two bands differentiates and thins each band in
    # one call with the 2 rows of halo that thinning reads, both at once
    def band(strips):
        top, bottom = strips[0][0], strips[-1][1]
        lo = max(top - 2, 0)
        idx, kept = _thin(*_central_differences(smoothed[lo:bottom + 2]), params.low, rows=(top - lo, bottom - lo))
        return idx + lo * smoothed.shape[1], kept

    bands = _bands(smoothed) if smoothed.ndim == 2 else []
    if len(bands) == 2:
        thinned = _run_bands(band, [(strips,) for strips in bands])
    else:
        thinned = [_thin(*_central_differences(smoothed), params.low)]
    passable, seeds = np.zeros((2,) + smoothed.shape, dtype=bool)
    for idx, kept in thinned:
        np.put(passable, idx, True)
        np.put(seeds, idx[kept > params.high], True)
    return _link(passable, seeds)


def canny_detect(img: GrayImage, params: CannyParams) -> EdgeMap:
    """Full detector: smooth, differentiate, thin above low, then link with hysteresis."""
    return EdgeMap(_canny_from_smoothed(_smooth(img.pixels, params.sigma, params.radius), params))
