"""Canny edge detection: gradient, non-maximum suppression, hysteresis."""

from dataclasses import dataclass, field

import numpy as np

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

_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)
# 8-connected within each layer of a (layers, h, w) stack, never across layers
_LAYERED = np.pad(_EIGHT_CONNECTED[None], ((1, 1), (0, 0), (0, 0)))


def _ndimage():
    # scipy.ndimage, imported on first use, so a detect that links sparse Canny
    # pixels or marks Marr-Hildreth slopes never loads scipy; each caller looks
    # its function up here when it runs, so a patch of the module's is seen
    from scipy import ndimage
    return ndimage


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
    else:  # gx * gx + gy * gy, summed in place: the same bits with one temporary fewer
        candidates = gx * gx
        candidates += gy * gy
        candidates = candidates > min(floor * floor, np.finfo(np.float64).max) * _SLACK
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
    labels, n = _ndimage().label(passable, structure=_LAYERED)
    where = np.flatnonzero(passable)
    component, pixel = labels.ravel()[where], where % values.size
    maxima = np.full(n + 1, -np.inf)
    np.maximum.at(maxima, component, values.ravel()[pixel])
    return labels, maxima, where, component, pixel


def _plane_bands(shape: tuple) -> list:
    # the bands of a plane; a stack is one band, since its flat indices and
    # layered labels cannot be offset by rows
    return _bands(shape) if len(shape) == 2 else [(0, shape[-2])]


def _link(passable: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    # the 8-connected components of passable, a plane or each layer of a
    # (layers, h, w) stack, that hold a seed; every seed is passable, so a
    # component with one has a pixel above high. Each worker labels one of
    # _plane_bands into one intp plane and returns its seeds' labels. With
    # two bands, the labels that meet across the seam, each pixel of a's last
    # row against b's first row at shifts -1, 0 and +1, are merged by _hook;
    # one band keeps its seeds' labels as they are. Each worker then maps its
    # band through its part of the keep table
    label, structure = _ndimage().label, _EIGHT_CONNECTED if passable.ndim == 2 else _LAYERED
    labels, edges = np.empty(passable.shape, dtype=np.intp), np.empty(passable.shape, dtype=bool)

    def band(top, bottom):
        rows = np.s_[..., top:bottom, :]
        return label(passable[rows], structure=structure, output=labels[rows]), labels[rows][seeds[rows]]

    bands = _plane_bands(passable.shape)
    counts, seeded = zip(*_run_bands(band, bands))
    # in the keep table, band b's labels follow band a's and an entry for b's background 0
    starts, size = (0, counts[0] + 1), sum(counts) + len(counts)
    keep = np.zeros(size, dtype=bool)
    keep[seeded[0]] = True
    if len(bands) == 2:
        keep[seeded[1] + starts[1]] = True
        above, below = labels[bands[1][0] - 1], labels[bands[1][0]]
        src, dst = (np.concatenate(side) for side in zip((above[1:], below[:-1]), (above, below), (above[:-1], below[1:])))
        joined = (src != 0) & (dst != 0)
        # a round with an edge left hooks a component, so these rounds always end
        root = _hook(size, src[joined], dst[joined] + starts[1], size)
        # a merged component is kept when any of its labels holds a seed
        keep[root[keep]] = True
        keep = keep[root]
    _run_bands(lambda top, bottom, table: table.take(labels[..., top:bottom, :], out=edges[..., top:bottom, :],
                                                     mode="clip"),
               [band + (keep[start:start + count + 1],) for band, start, count in zip(bands, starts, counts)])
    return edges


def _hook(n: int, src: np.ndarray, dst: np.ndarray, rounds: int) -> "np.ndarray | None":
    # each of the nodes 0 .. n - 1 mapped to the least node of its component
    # of the edges (src, dst); None if rounds rounds leave an edge between two
    # components. Each round hooks every component's least node to the least
    # across its edges, then jumps pointers until every node points at its
    # least, so a round with an edge left hooks at least one component
    root = np.arange(n)
    for _ in range(rounds):
        a, b = root[src], root[dst]
        split = a != b
        if not split.any():
            return root
        np.minimum.at(root, np.maximum(a, b)[split], np.minimum(a, b)[split])
        while not ((up := root[root]) == root).all():
            root = up
    return None


# Canny links in numpy while it keeps at most this share of the plane's
# pixels, and labels dense planes with ndimage.label above it
_SPARSE_SHARE = 1 / 40
# hooking rounds before the numpy link gives way to ndimage.label
_SPARSE_ROUNDS = 16


def _sparse_link(idx: np.ndarray, seeded: np.ndarray, shape: tuple) -> "np.ndarray | None":
    # _link's map of the pixels _thin keeps on a plane or stack of this shape,
    # from their sorted flat indices idx, of which seeded are seeds; None if
    # _SPARSE_ROUNDS rounds leave an edge between two components. _thin keeps
    # no border pixel of any layer, so the forward neighbours +1, w-1, w and
    # w+1 never wrap to another row or layer, and those on the next row are
    # among the 3 kept pixels from the first at or past a pixel's index + w-1
    w = shape[-1]
    below = np.searchsorted(idx, idx + (w - 1))
    ends = np.concatenate(([np.arange(1, idx.size + 1)], below + np.array([[0], [1], [2]])))
    tail = np.append(idx, np.iinfo(idx.dtype).max)  # past the last kept pixel
    k, src = np.nonzero(tail.take(ends, mode="clip") - idx <= np.array([[1], [w + 1], [w + 1], [w + 1]]))
    dst = ends[k, src]
    root = _hook(idx.size, src, dst, _SPARSE_ROUNDS)
    if root is None:
        return None
    keep, edges = np.zeros(idx.size, dtype=bool), np.zeros(shape, dtype=bool)
    keep[root[seeded]] = True
    np.put(edges, idx[keep[root]], True)
    return edges


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
    # pixels, every one above low, from those above high, in numpy when few
    # are kept; no thinned plane is built. Each band of _plane_bands is
    # differentiated and thinned in one call with the 2 rows of halo that
    # thinning reads, so two bands run at once
    def band(top, bottom):
        lo = max(top - 2, 0)
        idx, kept = _thin(*_central_differences(smoothed[..., lo:bottom + 2, :]), params.low,
                          rows=(top - lo, bottom - lo))
        return idx + lo * smoothed.shape[-1], kept

    # the bands' indices, in order
    idx, kept = (np.concatenate(parts) for parts in zip(*_run_bands(band, _plane_bands(smoothed.shape))))
    seeded = kept > params.high
    if idx.size <= _SPARSE_SHARE * smoothed.size and (edges := _sparse_link(idx, seeded, smoothed.shape)) is not None:
        return edges
    passable, seeds = np.zeros((2,) + smoothed.shape, dtype=bool)
    np.put(passable, idx, True)
    np.put(seeds, idx[seeded], True)
    return _link(passable, seeds)


def canny_detect(img: GrayImage, params: CannyParams) -> EdgeMap:
    """Full detector: smooth, differentiate, thin above low, then link with hysteresis."""
    return EdgeMap(_canny_from_smoothed(_smooth(img.pixels, params.sigma, params.radius), params))
