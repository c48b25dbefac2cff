"""Pixel buffers, grayscale conversion, and PGM/PPM file I/O."""

import contextvars
import math
import os
import re
import secrets
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EdgeMap",
    "FormatError",
    "GrayImage",
    "RgbImage",
    "TruncationError",
    "read_image",
    "rgb_to_gray",
    "write_image",
]


class FormatError(ValueError):
    """A PGM/PPM header or sample stream is malformed."""


class TruncationError(ValueError):
    """A PGM/PPM file ends before all pixel data has arrived."""


# Luminance weights. The widely quoted BT.601 triple (0.2989, 0.5870, 0.1140)
# sums to 0.9999, which would pull pure white below 1.0, so the red and green
# weights are normalised by that sum and blue is the exact complement. White
# then maps to exactly 1.0 while the channel ratios stay as documented.
_RAW_SUM = 0.2989 + 0.5870 + 0.1140
LUMA_RED = 0.2989 / _RAW_SUM
LUMA_GREEN = 0.5870 / _RAW_SUM
LUMA_BLUE = 1.0 - (LUMA_RED + LUMA_GREEN)

_HEADER_WHITESPACE = b" \t\n\r\x0b\x0c"
# a comment runs from '#' to the end of its line
_COMMENT = re.compile(rb"#[^\r\n]*")
# netpbm allows whitespace and comments before each token
_HEADER_TOKEN = re.compile(rb"(?:[ \t\n\r\x0b\x0c]|%s)*([^ \t\n\r\x0b\x0c#]*)" % _COMMENT.pattern)
# comments before the whitespace byte that delimits a binary raster, each through its CR or LF
_RASTER_COMMENTS = re.compile(rb"(?:%s[\r\n]?)*" % _COMMENT.pattern)
# one whitespace byte, where an ASCII raster is cut into runs
_SEPARATOR = re.compile(rb"[ \t\n\r\x0b\x0c]")
# the first byte of an ASCII raster's first token
_TOKEN = re.compile(rb"[^ \t\n\r\x0b\x0c]")
# the dtype in which an ASCII run's digit sum accumulates, by the run's
# longest token: the narrowest that holds every value of that many digits;
# longer tokens take float(), which has no digit limit
_DIGIT_SUMS = ((4, np.uint16), (9, np.uint32), (18, np.int64))
# bytes per row strip of a float64 plane (32 rows at width 1024) and per ASCII byte run
_STRIP_BYTES = 256 * 1024


def _finite(px: np.ndarray) -> np.ndarray:
    """px, refused unless every value is finite: GrayImage's check, which the
    private stages run on the rows they write wherever overflow can arise."""
    if not np.isfinite(px).all():
        raise ValueError("gray pixels must be finite, got NaN or infinity")
    return px


def _row_strips(shape: tuple, top: int = 0, bottom: "int | None" = None) -> list:
    """(top, bottom) of each row strip of about _STRIP_BYTES of a float64
    plane of this shape, at least one row, in rows top up to bottom (the
    plane's height when None). Rows run along the second-to-last axis; a row
    of a (layers, h, w) stack spans every layer, layers * w values."""
    h = shape[-2]
    rows = max(1, _STRIP_BYTES // (8 * math.prod(shape) // h))
    bottom = h if bottom is None else bottom
    return [(t, min(t + rows, bottom)) for t in range(top, bottom, rows)]


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
    strips = _row_strips(plane.shape)
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


# the two workers that run a plane's two bands, built on first use; a forked
# child builds its own, since the parent's worker threads are not in it
_POOL = []
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_POOL.clear)


def _cpus() -> int:
    # the CPUs this process may run on
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _bands(shape: tuple) -> list:
    """(top, bottom) rows of each band of a float64 plane of this shape: the
    two halves of its _row_strips, in whole strips, when there are at least
    4 and the process may run on 2 CPUs, else one band of all its rows."""
    strips = _row_strips(shape)
    if len(strips) < 4 or _cpus() < 2:
        return [(0, shape[-2])]
    cut = strips[len(strips) // 2][0]
    return [(0, cut), (cut, shape[-2])]


def _run_bands(task, calls: list) -> list:
    """[task(*args) for args in calls], one call per band of _bands (or of
    _ascii_bands, whose bands are byte ranges of an ASCII raster). One band
    runs in this thread; two run on the two workers, each under a copy of
    this thread's context, so the caller's np.errstate holds there. Both
    finish before the first band's exception, in row order, is raised. A
    task must never call _run_bands itself: with both workers inside such
    tasks, each would wait for a worker the other holds."""
    if len(calls) == 1:
        return [task(*calls[0])]
    if not _POOL:
        from concurrent.futures import ThreadPoolExecutor
        _POOL.append(ThreadPoolExecutor(2))
    futures = [_POOL[0].submit(contextvars.copy_context().run, task, *args) for args in calls]
    for future in futures:
        future.exception()  # waits for the band without raising its error
    return [future.result() for future in futures]


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Rectangular grid of real intensities, row-major.

    File loaders produce values in [0, 1]; intermediate filter outputs may
    leave that range and are never clamped.
    """

    pixels: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.pixels, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"gray pixels must form a non-empty 2-D grid, got shape {arr.shape}")
        _finite(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __repr__(self) -> str:
        return f"GrayImage({self.width}x{self.height})"


@dataclass(frozen=True, eq=False)
class RgbImage:
    """Rectangular grid of (r, g, b) triples with channels in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.pixels, dtype=np.float64, copy=True)
        if arr.ndim != 3 or arr.shape[2] != 3 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValueError(f"rgb pixels must form a non-empty (h, w, 3) grid, got shape {arr.shape}")
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails both
            raise ValueError("rgb channels must lie in [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __repr__(self) -> str:
        return f"RgbImage({self.width}x{self.height})"


@dataclass(frozen=True, eq=False)
class EdgeMap:
    """Boolean mask of detected edge pixels."""

    mask: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.mask, copy=True)
        if arr.dtype != np.bool_:
            raise ValueError(f"edge mask must be boolean, got dtype {arr.dtype}")
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"edge mask must form a non-empty 2-D grid, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "mask", arr)

    @property
    def width(self) -> int:
        return self.mask.shape[1]

    @property
    def height(self) -> int:
        return self.mask.shape[0]

    @property
    def count(self) -> int:
        """Number of marked pixels."""
        return int(self.mask.sum())

    def __repr__(self) -> str:
        return f"EdgeMap({self.width}x{self.height}, {self.count} marked)"


def _luma(r: np.ndarray, g: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """rgb_to_gray's rule on three channel planes, into out."""
    np.multiply(r, LUMA_RED, out=out)
    out += g * LUMA_GREEN
    out += b * LUMA_BLUE
    np.copyto(out, r, where=(r == g) & (g == b))


def _collapse(rgb: np.ndarray, scale: float) -> np.ndarray:
    """rgb_to_gray's rule on the (h, w, 3) rgb / scale, by row strips, one
    plane per channel, in the bands of the gray plane's shape."""
    gray = np.empty(rgb.shape[:2])

    def band(top, bottom):
        for t, b in _row_strips(gray.shape, top, bottom):
            rows = rgb[t:b]
            _luma(*(rows[..., c] / scale for c in range(3)), out=gray[t:b])

    _run_bands(band, _bands(gray.shape))
    return gray


def rgb_to_gray(img: RgbImage) -> GrayImage:
    """Collapse RGB to luminance with the BT.601 weights.

    The weighted sum is a convex combination, so output intensities stay
    in [0, 1]. A pixel whose three channels equal v gives v exactly, so a
    gray picture stored as RGB reads as the same gray plane. It runs row
    strip by row strip, one plane per channel, as the CLI's PPM reader does.
    """
    return GrayImage(_collapse(img.pixels, 1.0))


def _next_header_token(data: bytes, pos: int) -> tuple[bytes, int]:
    match = _HEADER_TOKEN.match(data, pos)
    if not match[1]:
        raise FormatError("unexpected end of file inside header")
    return match[1], match.end()


def _header_int(data: bytes, pos: int, what: str, lo: int, hi: int) -> tuple[int, int]:
    token, pos = _next_header_token(data, pos)
    if not token.isdigit():
        raise FormatError(f"malformed {what} token {token!r}")
    # float() has no digit limit; every in-range value converts exactly
    value = float(token)
    if not lo <= value <= hi:
        raise FormatError(f"{what} token {token!r} out of range [{lo}, {hi}]")
    return int(value), pos


def _ascii_bands(data: bytes, pos: int, count: int) -> list:
    """(start, stop) bytes of each band of the ASCII raster data[pos:] of
    count samples: two when the 2 * count - 1 bytes from its first token,
    which count tokens must fill, span at least 4 runs of _STRIP_BYTES and
    the process may run on 2 CPUs, as _bands rules for strips; else one.
    The cut is the last whitespace byte at most a run's bytes back from the
    middle of the bytes from the first token, and before the earliest byte
    where the count-th token could start, so no token spans the two bands
    and the first holds fewer than count tokens and no byte after the last
    sample. With no such byte after the first token, there is one band."""
    first = _TOKEN.search(data, pos)
    if first is None or 2 * count - 1 <= 3 * _STRIP_BYTES or _cpus() < 2:
        return [(pos, len(data))]
    first = first.start()
    target = min((first + len(data)) // 2, first + 2 * (count - 1) - 1)
    lo = max(first + 1, target - _STRIP_BYTES)
    cut = max(data.rfind(byte, lo, target + 1) for byte in _HEADER_WHITESPACE)
    return [(pos, cut), (cut, len(data))] if cut > first else [(pos, len(data))]


def _ascii_samples(data: bytes, pos: int, count: int) -> np.ndarray:
    if data.find(b"#", pos) >= 0:
        data, pos = _COMMENT.sub(b"", data[pos:]), 0
    # n tokens take at least 2n - 1 bytes, so a huge header allocates nothing huge
    samples = np.empty(min(count, (len(data) - pos + 1) // 2))
    bands = _ascii_bands(data, pos, count)
    budget = max(_STRIP_BYTES // len(bands), 1)

    def band(start, stop):
        # the second band first counts the first band's tokens, the samples before its own
        before = _token_count(np.frombuffer(data, np.uint8, start - pos, pos))
        seen, bad = _ascii_runs(data, start, stop, count - before, samples[before:], budget)
        return before + seen, bad

    runs = _run_bands(band, bands)
    # the errors in file order: the first band's malformed token, then the second's
    seen, bad = runs[-1][0], next((bad for _, bad in runs if bad is not None), None)
    if seen < count:
        raise TruncationError(f"pixel data truncated: expected {count} samples, got {seen}")
    if bad is not None:
        raise FormatError(f"malformed sample token {bad!r}")
    return samples


def _token_mask(buf: np.ndarray) -> np.ndarray:
    # the bytes of buf outside the six whitespace bytes 9-13 and 32, padded
    # with a blank at each end so every token has a start and an end
    tok = np.zeros(buf.size + 2, dtype=bool)
    np.greater(buf - 9, 4, out=tok[1:-1])
    tok[1:-1] &= buf != 32
    return tok


def _token_count(buf: np.ndarray) -> int:
    # the tokens of buf, from one mask pass
    tok = _token_mask(buf)
    return int(np.count_nonzero(tok[1:] > tok[:-1]))


def _ascii_runs(data: bytes, pos: int, stop: int, limit: int, out: np.ndarray, budget: int) -> tuple:
    """(tokens, the first malformed one or None) of data[pos:stop] up to
    limit tokens, with the all-digit ones' values in out. It reads runs of
    about budget bytes, each cut at a whitespace byte so no token spans two,
    until limit tokens are found; once one is malformed the runs after it
    are only counted, so a short raster stays truncated."""
    seen, bad = 0, None
    while seen < limit and pos < stop:
        cut = _SEPARATOR.search(data, pos + budget, stop)
        end = cut.start() if cut else stop
        buf = np.frombuffer(data, np.uint8, end - pos, pos)
        tok = _token_mask(buf)
        bounds = np.flatnonzero(tok[1:] != tok[:-1])[:2 * (limit - seen)]  # start, end, start, end, ...
        if bad is None and bounds.size:
            # each byte's digit value, laid out as tok is
            digits = np.empty_like(tok, dtype=np.uint8)
            np.subtract(buf, 48, out=digits[1:-1])
            bad = _malformed_token(buf, digits, tok, bounds)
            if bad is None:
                digits *= tok
                _decimals(buf, digits, bounds, out[seen:seen + bounds.size // 2])
        seen += bounds.size // 2
        pos = end
    return seen, bad


def _malformed_token(buf: np.ndarray, digits: np.ndarray, tok: np.ndarray, bounds: np.ndarray) -> "bytes | None":
    # the first token of bounds that is not all digits; samples are unsigned
    # decimals, and bytes after the last token are never read. tok > digit
    # marks the token bytes that are not digits
    end = bounds[-1] + 1
    bad = tok[1:end] > (digits[1:end] < 10)
    if not bad.any():
        return None
    first = np.searchsorted(bounds, np.argmax(bad), side="right") - 1
    return buf[bounds[first]:bounds[first + 1]].tobytes()


def _decimals(buf: np.ndarray, digits: np.ndarray, bounds: np.ndarray, out: np.ndarray) -> None:
    # out[i] = the value of the i-th token of bounds, from the digit values
    # laid out as _token_mask lays out bytes and zero outside tokens: one
    # positional sum, 10**k times each token's k-th digit from its end while
    # the token is longer than k. A token's last digit is digits[end]; one
    # place past its first digit lies a zero, so only k > 1 needs the length
    at = bounds[1::2].copy()  # contiguous, as take wants its indices
    lengths = at - bounds[0::2]
    longest = int(lengths.max())
    places, dtype = next(((n, t) for n, t in _DIGIT_SUMS if longest <= n), _DIGIT_SUMS[-1])
    value = digits.take(at).astype(dtype)
    for k in range(1, min(longest, places)):
        at -= 1
        term = digits.take(at).astype(dtype)
        if k > 1:
            term *= lengths > k
        term *= dtype(10**k)
        value += term
    out[:] = value
    if longest > places:
        # float() rounds each one exactly as int() then float64 would, and an
        # overlong one becomes inf > maxval
        for i in np.flatnonzero(lengths > places).tolist():
            out[i] = float(buf[bounds[2 * i]:bounds[2 * i + 1]].tobytes())


def _read_samples(path) -> tuple:
    """read_image's checked samples before scaling, shaped (h, w) or (h, w, 3):
    views of a binary raster or the ASCII parse's own float64 array; and the scale."""
    with open(path, "rb") as fh:
        data = fh.read()

    magic, pos = _next_header_token(data, 0)
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise FormatError(f"unsupported magic token {magic!r}")
    width, pos = _header_int(data, pos, "width", 1, 2**31 - 1)
    height, pos = _header_int(data, pos, "height", 1, 2**31 - 1)
    maxval, pos = _header_int(data, pos, "maxval", 1, 65535)

    shape = (height, width, 3) if magic in (b"P3", b"P6") else (height, width)
    count = math.prod(shape)

    if magic in (b"P5", b"P6"):
        pos = _RASTER_COMMENTS.match(data, pos).end()
        if pos >= len(data) or data[pos] not in _HEADER_WHITESPACE:
            raise FormatError("missing whitespace between maxval and pixel data")
        bytes_per_sample = 1 if maxval <= 255 else 2
        needed = count * bytes_per_sample
        # a copy of just the raster's bytes: a view at a 16-bit header's odd offset reads slower
        raster = data[pos + 1:pos + 1 + needed]
        if len(raster) < needed:
            raise TruncationError(f"pixel data truncated: expected {needed} bytes, got {len(raster)}")
        samples = np.frombuffer(raster, dtype=np.uint8 if bytes_per_sample == 1 else np.dtype(">u2"))
    else:
        samples = _ascii_samples(data, pos, count)

    if samples.max(initial=0) > maxval:
        raise FormatError(f"sample value {samples.max():.0f} exceeds maxval {maxval}")
    return samples.reshape(shape), 255.0 if maxval <= 255 else 65535.0


def _scaled(samples: np.ndarray, scale: float) -> np.ndarray:
    # samples / scale; the ASCII parse's own float samples are divided in place
    return np.divide(samples, scale, out=samples if samples.dtype == np.float64 else None)


def read_image(path) -> "GrayImage | RgbImage":
    """Read a PGM (P2/P5) or PPM (P3/P6) file.

    Returns a GrayImage for PGM input and an RgbImage for PPM input.
    Sample values are normalised by 255 (one byte per sample) or 65535
    (two bytes, big-endian).

    Raises FormatError for a malformed header or a sample above maxval,
    TruncationError for missing pixel data, and OSError for filesystem failures.
    """
    pixels = _scaled(*_read_samples(path))
    return GrayImage(pixels) if pixels.ndim == 2 else RgbImage(pixels)


def _read_gray(path) -> np.ndarray:
    """read_image(path)'s pixels as a float64 plane, with no wrap; a PPM is
    collapsed as rgb_to_gray does, one row strip at a time, from one plane
    per channel. The samples are checked and in range, so it is finite."""
    samples, scale = _read_samples(path)
    return _scaled(samples, scale) if samples.ndim == 2 else _collapse(samples, scale)


def atomic_write_bytes(path, payload: bytes) -> None:
    """Write payload to path via a temporary file in the same directory.

    The target either keeps its old content or receives the complete new
    content; a partial file is never left behind. The file, new or
    replaced, gets mode 0o666 less the umask, as a new file from open() does.
    A target that exists and is not a regular file once symlinks are
    followed, such as a FIFO or a device, is opened and written in place.
    """
    target = os.fspath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "wb") as fh:
            fh.write(payload)
        return
    tmp = os.path.join(os.path.dirname(target), f".edgebench-{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_p5(body: np.ndarray, path) -> None:
    h, w = body.shape
    atomic_write_bytes(path, f"P5\n{w} {h}\n255\n".encode("ascii") + body.tobytes())


def _write_mask(mask: np.ndarray, path) -> None:
    """write_image(EdgeMap(mask), path) for a 2-D bool plane, with no wrap."""
    _write_p5(mask.astype(np.uint8) * np.uint8(255), path)


def write_image(img, path) -> None:
    """Write a GrayImage or EdgeMap as a binary 8-bit PGM (P5, maxval 255).

    Gray intensities are clamped to [0, 1] and quantised with round-half-up;
    edge maps come out as 255 (edge) and 0 (background). The file is written
    atomically.
    """
    if isinstance(img, EdgeMap):
        _write_mask(img.mask, path)
    elif isinstance(img, GrayImage):
        clamped = np.clip(img.pixels, 0.0, 1.0)
        _write_p5(np.floor(clamped * 255.0 + 0.5).astype(np.uint8), path)
    else:
        raise TypeError(f"write_image expects a GrayImage or EdgeMap, got {type(img).__name__}")
