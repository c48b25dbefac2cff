"""Gaussian kernels and image convolution with edge-replicated borders.

Kernels are applied as correlation; every kernel built here is symmetric,
so the distinction from convolution never shows.
"""

import math
from dataclasses import dataclass

import numpy as np

from .image_core import GrayImage, _bands, _finite, _row_strips, _run_bands

__all__ = [
    "Kernel1D",
    "Kernel2D",
    "convolve_2d",
    "convolve_separable",
    "gaussian_kernel_1d",
    "gaussian_radius",
    "laplacian_kernel_2d",
    "outer_kernel",
]

# the largest Gaussian truncation radius check_blur accepts
_MAX_RADIUS = 4096


@dataclass(frozen=True, eq=False)
class Kernel1D:
    """Odd-length symmetric tap vector centred on offset zero."""

    taps: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.taps, dtype=np.float64, copy=True)
        if arr.ndim != 1 or arr.size % 2 == 0:
            raise ValueError(f"1-D kernel needs an odd number of taps, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("1-D kernel taps must be finite, got NaN or infinity")
        if not np.array_equal(arr, arr[::-1]):
            raise ValueError("1-D kernel taps must be symmetric about the centre")
        arr.setflags(write=False)
        object.__setattr__(self, "taps", arr)

    @property
    def radius(self) -> int:
        return self.taps.size // 2


@dataclass(frozen=True, eq=False)
class Kernel2D:
    """Square odd-sided tap grid centred on offset (0, 0)."""

    taps: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.taps, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2 == 0:
            raise ValueError(f"2-D kernel must be square with odd side, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("2-D kernel taps must be finite, got NaN or infinity")
        arr.setflags(write=False)
        object.__setattr__(self, "taps", arr)

    @property
    def radius(self) -> int:
        return self.taps.shape[0] // 2


def gaussian_radius(sigma: float) -> int:
    """Default truncation radius for a Gaussian of width sigma: ceil(3*sigma)."""
    reach = 3.0 * sigma
    if not 0 < reach < math.inf:
        raise ValueError(f"sigma must be positive with 3*sigma finite, got {sigma}")
    return math.ceil(reach)


def check_blur(sigma: float, radius: "int | None" = None) -> None:
    """Refuse a Gaussian width that no kernel can be sampled for, and a
    truncation radius that is not a whole number from 1 to _MAX_RADIUS
    (4096), NaN and infinity included; 3.0 counts as 3. None stands for
    gaussian_radius's default, which must exist, 3*sigma finite, and stay
    within the same cap. The cap keeps every kernel at 8193 taps or fewer,
    where a radius of 10**9 would ask for a 16 GB tap vector, and each
    blur's border padding at 8192 rows or columns; it is a round number, not
    a time budget, since the blur's time still grows with radius times
    pixels."""
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if 2.0 * sigma * sigma == 0.0:
        raise ValueError(f"sigma must be large enough that 2*sigma**2 is not 0, got {sigma}")
    if radius is None:
        radius = gaussian_radius(sigma)
        if radius > _MAX_RADIUS:
            raise ValueError(f"radius must be at most {_MAX_RADIUS}, got ceil(3*sigma) = {radius} for sigma {sigma}")
    elif not 1 <= radius < math.inf or radius != math.floor(radius):
        raise ValueError(f"radius must be a whole number of at least 1, got {radius}")
    elif radius > _MAX_RADIUS:
        raise ValueError(f"radius must be at most {_MAX_RADIUS}, got {radius}")


def gaussian_kernel_1d(sigma: float, radius: int) -> Kernel1D:
    """Sampled Gaussian taps exp(-k^2 / (2 sigma^2)) for k in [-radius, radius].

    The truncated taps are re-normalised to sum to one, so smoothing
    preserves the mean intensity.
    """
    check_blur(sigma, radius)
    spread = 2.0 * sigma * sigma
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    # a tiny sigma sends the outer exponents to -inf, whose taps are exactly 0
    with np.errstate(over="ignore"):
        taps = np.exp(-(offsets**2) / spread)
    return Kernel1D(taps / taps.sum())


def laplacian_kernel_2d() -> Kernel2D:
    """Four-neighbour Laplacian stencil. Zero-sum, so constants map to zero."""
    return Kernel2D(np.array([
        [0.0, 1.0, 0.0],
        [1.0, -4.0, 1.0],
        [0.0, 1.0, 0.0],
    ]))


def outer_kernel(ky: Kernel1D, kx: Kernel1D) -> Kernel2D:
    """Outer-product kernel: taps[i, j] = ky[i] * kx[j]."""
    return Kernel2D(np.outer(ky.taps, kx.taps))


def _edge_padded(px: np.ndarray, ry: int, rx: int) -> np.ndarray:
    """px with ry rows above and below and rx columns left and right that
    repeat its nearest border pixel, built by slice copies into one new
    buffer: numpy's edge-mode pad costs more per call than the copying on
    small planes and strips. Leading axes, as of a (layers, h, w) stack,
    pad each layer alone."""
    h, w = px.shape[-2:]
    out = np.empty(px.shape[:-2] + (h + 2 * ry, w + 2 * rx), dtype=px.dtype)
    rows = out[..., ry:ry + h, :]
    rows[..., rx:rx + w] = px
    rows[..., :rx] = px[..., :1]
    rows[..., rx + w:] = px[..., -1:]
    out[..., :ry, :] = rows[..., :1, :]
    out[..., ry + h:, :] = rows[..., -1:, :]
    return out


def _accumulate(out: np.ndarray, terms) -> np.ndarray:
    """out = +0 + tap * window for each (tap, window) of terms, in order."""
    buf = np.empty_like(out)
    out.fill(0.0)
    for tap, window in terms:
        out += np.multiply(window, tap, out=buf)
    return out


def _by_strips(stage, plane: np.ndarray, halo: int) -> np.ndarray:
    """stage(plane), computed over the row strips of _row_strips.

    stage's output row y must read only input rows y - halo .. y + halo, and
    its border handling must start at the plane's first and last rows. Each
    strip runs with the halo rows the image has and keeps its own rows, so
    the result is bit-identical. The output takes its dtype and any leading
    axes from stage's, whose rows run along the second-to-last axis. A plane
    that fits in one strip, or a halo taller than half a strip, takes one
    whole-plane call.
    """
    strips = _row_strips(plane)
    if len(strips) == 1 or 2 * halo > strips[0][1]:
        return stage(plane)
    out = None
    for top, bottom in strips:
        lo = max(top - halo, 0)
        strip = stage(plane[lo:bottom + halo])[..., top - lo:bottom - lo, :]
        if out is None:
            out = np.empty(strip.shape[:-2] + plane.shape, dtype=strip.dtype)
        out[..., top:bottom, :] = strip
    return out


def _blur(px: np.ndarray, kx: Kernel1D, ky: Kernel1D) -> np.ndarray:
    """convolve_separable on a float64 plane, or on each layer of a (layers,
    h, w) stack, with no wrap, in the bands of _bands. Each band runs the kx
    pass over its rows and ky's radius of neighbour rows, repeating the
    image's first or last row only past its border, then its strips of the
    ky pass, each of which refuses the rows it writes unless finite, as
    GrayImage would: a finite image may still overflow. A stack's strips
    span every layer."""
    h, w = px.shape[-2:]
    ry = ky.radius
    bands = _bands(px)
    rows = bands[0][0][1] - bands[0][0][0]
    out = np.empty_like(px)

    def band(strips, tmp):
        # tmp row j holds the kx pass of image row top - ry + j
        top, bottom = strips[0][0], strips[-1][1]
        lo, hi = max(top - ry, 0), min(bottom + ry, h)
        for t in range(lo, hi, rows):
            b = min(t + rows, hi)
            padded = _edge_padded(px[..., t:b, :], 0, kx.radius)
            _accumulate(tmp[..., t - top + ry:b - top + ry, :],
                        ((tap, padded[..., i:i + w]) for i, tap in enumerate(kx.taps)))
        first, last = lo - top + ry, hi - top + ry
        tmp[..., :first, :], tmp[..., last:, :] = tmp[..., first:first + 1, :], tmp[..., last - 1:last, :]
        for t, b in strips:
            _finite(_accumulate(out[..., t:b, :],
                                ((tap, tmp[..., t - top + i:b - top + i, :]) for i, tap in enumerate(ky.taps))))

    _run_bands(band, [(strips, np.empty(px.shape[:-2] + (strips[-1][1] - strips[0][0] + 2 * ry, w)))
                      for strips in bands])
    return out


def convolve_separable(img: GrayImage, kx: Kernel1D, ky: Kernel1D) -> GrayImage:
    """Correlate with kx along rows, then ky along columns.

    Out-of-range samples replicate the nearest border pixel, which keeps
    the two 1-D passes exactly equivalent to the 2-D outer-product pass.
    Both run in row strips: the kx pass filters each row once, into a plane
    padded with ky's radius of repeated first and last rows, whose strips
    the ky pass reads with their halo. A plane of at least 4 strips runs as
    two bands of whole strips on two threads when the process may use 2
    CPUs. The bits are the whole-plane passes'.
    """
    return GrayImage(_blur(img.pixels, kx, ky))


def _gaussian(sigma: float, radius: "int | None" = None) -> Kernel1D:
    """gaussian_kernel_1d(sigma, radius), radius ceil(3*sigma) when None."""
    return gaussian_kernel_1d(sigma, gaussian_radius(sigma) if radius is None else radius)


def _smooth(px: np.ndarray, sigma: float, radius: "int | None" = None) -> np.ndarray:
    """Separable Gaussian blur of a float64 plane, with no wrap."""
    k = _gaussian(sigma, radius)
    return _blur(px, k, k)


def convolve_2d(img: GrayImage, kernel: Kernel2D) -> GrayImage:
    """Dense 2-D correlation with edge-replicated borders.

    Every output pixel accumulates the full tap grid directly; this is the
    reference path the separable route is checked against.
    """
    r = kernel.radius
    # zero taps are skipped: they add nothing to a finite sum
    nonzero = [(tap, i, j) for i, row in enumerate(kernel.taps.tolist()) for j, tap in enumerate(row) if tap]

    def stage(px):
        h, w = px.shape
        padded = _edge_padded(px, r, r)
        return _accumulate(np.empty_like(px), ((tap, padded[i:i + h, j:j + w]) for tap, i, j in nonzero))

    return GrayImage(_by_strips(stage, img.pixels, r))
