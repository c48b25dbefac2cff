"""Dense linking and the PPM collapse in two row bands.

A 2-D plane that the blur would run in two bands links in two: each worker
labels its band, the labels that meet across the seam are merged, and each
worker maps its band through the keep table. Its map must equal the one-band
labelling's and the flood fill's, for components that cross the seam in
each 8-neighbour direction or touch only at a corner, a zig-zag that crosses
it many times, seeds in either band, bands of one row, an empty band and a
full one, and random planes; a cut at any row is reached by patching the
driver's bands. The PPM collapse runs its row strips in the same two bands
and must give the same bits on one CPU or two. Small planes and stacks keep
one labelling call.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import ndimage

from edgebench import canny
from edgebench.canny import _link
from edgebench.image_core import GrayImage, RgbImage, _read_gray, read_image, rgb_to_gray
from oracles import bfs_hysteresis
from test_image_core import netpbm_bytes
from test_oracle_equivalence import set_cpus, set_strip_rows

# in strips of 2 rows, a plane 8 rows high runs as bands of rows 0-3 and 4-7
SEAM = 4


def one_band(passable: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    # the whole plane labelled in one call
    labels, n = ndimage.label(passable, structure=np.ones((3, 3), dtype=bool))
    keep = np.zeros(n + 1, dtype=bool)
    keep[labels[seeds]] = True
    return keep[labels]


def flood_fill(passable: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    values = passable.astype(np.float64) + seeds
    return bfs_hysteresis(GrayImage(values), 0.5, 1.5).mask


def banded_link(passable: np.ndarray, seeds: np.ndarray, cut: int) -> np.ndarray:
    # _link with the band driver cutting the plane into bands at row cut
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(canny, "_bands", lambda shape: seen.append(shape) or [(0, cut), (cut, shape[-2])])
        got = _link(passable, seeds)
    assert seen == [passable.shape]
    return got


def assert_link_matches(passable: np.ndarray, seeds: np.ndarray, cut: "int | None" = None) -> np.ndarray:
    # _link with its bands cut at row cut, or with the bands in force,
    # against both references; returns the map
    assert not (seeds & ~passable).any()
    got = _link(passable, seeds) if cut is None else banded_link(passable, seeds, cut)
    assert (got.dtype, got.shape) == (np.dtype(bool), passable.shape)
    assert got.tobytes() == one_band(passable, seeds).tobytes()
    assert got.tobytes() == flood_fill(passable, seeds).tobytes()
    return got


def two_bands(monkeypatch, width: int, cpus: int = 2) -> None:
    set_strip_rows(monkeypatch, 2, width)
    set_cpus(monkeypatch, cpus)


def plane(rows: list) -> tuple:
    # a bool plane drawn as text rows: '.' off, 'o' passable, 'S' a seed
    grid = np.array([list(row) for row in rows])
    return grid != ".", grid == "S"


def count_labels(monkeypatch) -> list:
    # the shape of every ndimage.label call made from now on
    calls, label = [], ndimage.label
    monkeypatch.setattr(ndimage, "label", lambda a, *args, **kw: calls.append(a.shape) or label(a, *args, **kw))
    return calls


class TestSeam:
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("dx", [-1, 0, 1], ids=["down-left", "straight-down", "down-right"])
    def test_a_component_across_the_seam(self, monkeypatch, dx, cpus):
        # a line down column 4 above the seam and column 4 + dx below it,
        # seeded only on its top row: the lower part is kept only if the pair
        # at that shift is merged
        passable = np.zeros((8, 9), dtype=bool)
        passable[:SEAM, 4] = passable[SEAM:, 4 + dx] = True
        seeds = np.zeros_like(passable)
        seeds[0, 4] = True
        two_bands(monkeypatch, 9, cpus)
        assert assert_link_matches(passable, seeds)[SEAM:].any()
        assert assert_link_matches(passable, seeds, SEAM)[SEAM:].any()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("rows, lower_kept", [
        (["S.......", "o.......", "oo......", "..o.....", "...o....", "....ooo.", "........", "........"], True),
        (["......S.", "......o.", ".....o..", "....o...", "...o....", "..o.....", "........", "........"], True),
        (["S.......", "o.......", "o.......", "o.......", "..o.....", "..o.....", "..oooo..", "........"], False),
        (["S....o..", "o....o..", "o....o..", "oooooo..", "......o.", "......o.", "......o.", "......o."], True),
    ], ids=["right-corner", "left-corner", "two-apart", "corner-off-a-bend"])
    def test_two_components_that_touch_only_at_a_corner(self, monkeypatch, rows, lower_kept, cpus):
        # each band's part is one component of its own; they join only where
        # a pixel of the last upper row and one of the first lower row meet
        # diagonally, and stay apart when two columns separate them
        passable, seeds = plane(rows)
        two_bands(monkeypatch, 8, cpus)
        for cut in (None, SEAM):
            assert assert_link_matches(passable, seeds, cut)[SEAM:].any() == lower_kept

    @pytest.mark.parametrize("seeded", ["first-bar-top", "last-bar-bottom"])
    @pytest.mark.parametrize("bars", [3, 4, 9, 40])
    def test_a_zig_zag_across_the_seam(self, monkeypatch, bars, seeded):
        # vertical bars across the seam, joined in pairs alternately by a
        # connector above it and one below it, so each band holds many parts
        # that only the chain of seam pairs joins; one seed at one end
        h, w = 8, 4 * bars + 2
        passable = np.zeros((h, w), dtype=bool)
        for k in range(bars):
            x = 1 + 4 * k
            passable[SEAM - 2:SEAM + 2, x] = True
            if k + 1 < bars:
                row = SEAM - 2 if k % 2 == 0 else SEAM + 1
                passable[row, x:x + 5] = True
        seeds = np.zeros_like(passable)
        if seeded == "first-bar-top":
            seeds[SEAM - 2, 1] = True
        else:
            seeds[SEAM + 1, 1 + 4 * (bars - 1)] = True
        for band in (passable[:SEAM], passable[SEAM:]):
            assert ndimage.label(band, structure=np.ones((3, 3)))[1] >= bars // 2
        two_bands(monkeypatch, w)
        got = assert_link_matches(passable, seeds)
        assert got.tobytes() == passable.tobytes()
        assert assert_link_matches(passable, seeds, SEAM).tobytes() == passable.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("seed_row", [0, SEAM - 1, SEAM, 7])
    def test_a_seed_only_in_either_band(self, monkeypatch, seed_row, cpus):
        # a line bent at the seam, seeded at one row only; both parts are kept
        passable = np.zeros((8, 9), dtype=bool)
        passable[:SEAM, 2] = passable[SEAM:, 3] = True
        seeds = np.zeros_like(passable)
        seeds[seed_row, 2 if seed_row < SEAM else 3] = True
        two_bands(monkeypatch, 9, cpus)
        for cut in (None, SEAM):
            assert assert_link_matches(passable, seeds, cut).tobytes() == passable.tobytes()

    @pytest.mark.parametrize("cut", [1, 7])
    @pytest.mark.parametrize("seed", range(4))
    def test_a_band_of_one_row(self, cut, seed):
        rng = np.random.default_rng(seed)
        passable = rng.random((8, 11)) < 0.45
        seeds = passable & (rng.random((8, 11)) < 0.1)
        assert_link_matches(passable, seeds, cut)
        # a one-row band joined to the other only through the seam
        passable[cut - 1] = passable[cut] = True
        seeds[:] = False
        seeds[cut - 1, 0] = True
        assert assert_link_matches(passable, seeds, cut)[cut].all()

    @pytest.mark.parametrize("band", ["upper", "lower"])
    @pytest.mark.parametrize("fill", ["empty", "full", "full-seeded"])
    def test_an_empty_band_and_a_full_band(self, band, fill):
        rng = np.random.default_rng(7)
        passable = rng.random((8, 10)) < 0.4
        seeds = passable & (rng.random((8, 10)) < 0.15)
        rows = slice(0, SEAM) if band == "upper" else slice(SEAM, 8)
        passable[rows] = fill != "empty"
        seeds[rows] = False
        if fill == "full-seeded":
            seeds[rows.start, 5] = True
        assert_link_matches(passable, seeds, SEAM)
        assert_link_matches(passable, np.zeros_like(seeds), SEAM)
        assert not banded_link(np.zeros((8, 10), dtype=bool), np.zeros((8, 10), dtype=bool), SEAM).any()


class TestRandomPlanes:
    @given(st.integers(2, 40), st.integers(1, 40), st.floats(0.0, 0.6), st.floats(0.0, 0.2),
           st.integers(0, 2**32 - 1), st.data())
    def test_random_planes_at_every_cut(self, h, w, share, seeded, seed, data):
        rng = np.random.default_rng(seed)
        passable = rng.random((h, w)) < share
        seeds = passable & (rng.random((h, w)) < seeded)
        assert_link_matches(passable, seeds, data.draw(st.integers(1, h - 1)))

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("share", [0.0, 0.05, 0.2, 0.4, 0.6])
    def test_random_planes_in_the_bands_of_the_blur(self, monkeypatch, share, cpus):
        # 37 rows in strips of 3 rows: bands of rows 0-17 and 18-36 on 2 CPUs
        rng = np.random.default_rng(int(share * 100))
        passable = rng.random((37, 23)) < share
        seeds = passable & (rng.random((37, 23)) < 0.05)
        set_strip_rows(monkeypatch, 3, 23)
        set_cpus(monkeypatch, cpus)
        calls = count_labels(monkeypatch)
        assert_link_matches(passable, seeds)
        # the two bands' calls come from two threads, in either order
        assert sorted(calls[:cpus]) == ([(37, 23)] if cpus == 1 else [(18, 23), (19, 23)])


class TestOneLabelCall:
    def test_a_plane_of_one_band_and_a_stack(self, monkeypatch):
        # at the real strip budget a 64x64 plane spans one strip, and a
        # (layers, h, w) stack links in one call whatever its size
        set_cpus(monkeypatch, 2)
        calls = count_labels(monkeypatch)
        rng = np.random.default_rng(3)
        for shape in ((64, 64), (4, 64, 64), (3, 300, 200)):
            passable = rng.random(shape) < 0.3
            seeds = passable & (rng.random(shape) < 0.05)
            calls.clear()
            got = _link(passable, seeds)
            assert calls == [shape]
            layers = zip(passable, seeds) if len(shape) == 3 else [(passable, seeds)]
            assert got.tobytes() == np.stack([one_band(p, s) for p, s in layers]).reshape(shape).tobytes()


class TestConcurrentCallers:
    def test_more_callers_than_workers(self, monkeypatch):
        # six threads share the two band workers, switching often; each must
        # get its own plane's map and gray plane every time
        two_bands(monkeypatch, 23)
        rng = np.random.default_rng(11)
        planes = [(p, p & (rng.random(p.shape) < 0.1)) for p in rng.random((6, 16, 23)) < 0.4]
        rgbs = [RgbImage(rng.random((16, 23, 3))) for _ in planes]
        expected = [(one_band(*plane).tobytes(), rgb_to_gray(rgb).pixels.tobytes()) for plane, rgb in zip(planes, rgbs)]

        def calls(k):
            return {(_link(*planes[k]).tobytes(), rgb_to_gray(rgbs[k]).pixels.tobytes()) for _ in range(20)}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(6) as callers:
                results = [f.result(timeout=120) for f in [callers.submit(calls, k) for k in range(6)]]
        finally:
            sys.setswitchinterval(interval)
        assert results == [{pair} for pair in expected]


def colour_samples(maxval: int) -> np.ndarray:
    # random (37, 11, 3) samples, a third of the pixels with three equal channels
    rng = np.random.default_rng(maxval)
    samples = rng.integers(0, maxval + 1, (37, 11, 3))
    gray = rng.random((37, 11)) < 1 / 3
    samples[gray] = samples[gray][:, :1]
    return samples


class TestCollapseInBands:
    @pytest.mark.parametrize("magic", [b"P6", b"P3"])
    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_colour_reads_on_one_and_two_cpus(self, monkeypatch, tmp_path, magic, maxval):
        samples = colour_samples(maxval)
        path = tmp_path / "c.ppm"
        path.write_bytes(netpbm_bytes(magic, samples, maxval))
        set_strip_rows(monkeypatch, 3, 11)
        planes = []
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            got = _read_gray(path)
            assert got.tobytes() == rgb_to_gray(read_image(path)).pixels.tobytes()
            planes.append(got)
        assert planes[0].tobytes() == planes[1].tobytes()
        equal = (samples[..., 0] == samples[..., 1]) & (samples[..., 1] == samples[..., 2])
        assert equal.any()
        assert np.array_equal(planes[1][equal], samples[equal][:, 0] / maxval)

    def test_rgb_to_gray_on_one_and_two_cpus(self, monkeypatch):
        rgb = RgbImage(colour_samples(255) / 255.0)
        set_strip_rows(monkeypatch, 2, 11)
        set_cpus(monkeypatch, 1)
        serial = rgb_to_gray(rgb).pixels
        set_cpus(monkeypatch, 2)
        assert rgb_to_gray(rgb).pixels.tobytes() == serial.tobytes()
