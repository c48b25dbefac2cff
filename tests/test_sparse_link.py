"""The Canny detector's numpy link against ndimage.label.

When thinning keeps at most canny._SPARSE_SHARE of a plane's pixels,
_canny_from_smoothed links them from their sorted flat indices, by hooking
each component to its least index and jumping pointers, with no passable or
seed plane. Its map must be the one _link gives on the dense planes, on
either side of the switch, across the seam of two row bands in every
8-neighbour direction, with seeds in either band, on an empty plane, on a
(layers, h, w) stack, and when the hooking rounds run out and the dense
link takes over.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgebench import canny
from edgebench.canny import CannyParams, _canny_from_smoothed, _central_differences, _link, _sparse_link, _thin
from test_oracle_equivalence import set_cpus, set_strip_rows

# in strips of 4 rows, a plane 16 rows high runs as bands of rows 0-7 and 8-15
SEAM = 8
PARAMS = CannyParams(low=0.05, high=0.15)
# a step's contrast falling 0.04 a row, too gently to keep a pixel across the
# step's bright side: its line keeps values above FADING's high only above
# the seam
RAMP = 1.0 - 0.04 * np.arange(16)[:, None]
FADING = CannyParams(low=0.05, high=0.35)
COMB = CannyParams(low=0.05, high=0.4)


def kept_mask(smoothed: np.ndarray, low: float) -> np.ndarray:
    idx = _thin(*_central_differences(smoothed), low)[0]
    mask = np.zeros(smoothed.shape, dtype=bool)
    np.put(mask, idx, True)
    return mask


def dense_link(smoothed: np.ndarray, params: CannyParams) -> np.ndarray:
    # the whole plane thinned in one call and linked by ndimage.label
    idx, kept = _thin(*_central_differences(smoothed), params.low)
    passable, seeds = np.zeros((2,) + smoothed.shape, dtype=bool)
    np.put(passable, idx, True)
    np.put(seeds, idx[kept > params.high], True)
    return _link(passable, seeds)


def assert_links_match(monkeypatch, smoothed: np.ndarray, params: CannyParams = PARAMS, dense: bool = False) -> None:
    # the detector's map equals the dense link's, and labels with ndimage
    # only when dense says it should
    calls = []
    with monkeypatch.context() as counted:
        counted.setattr(canny, "_link", lambda *planes: calls.append(1) or _link(*planes))
        got = _canny_from_smoothed(smoothed, params)
    assert got.tobytes() == dense_link(smoothed, params).tobytes()
    assert len(calls) == dense


def two_bands(monkeypatch, width: int) -> None:
    set_strip_rows(monkeypatch, 4, width)
    set_cpus(monkeypatch, 2)


def shifted_step(h: int, w: int, top: int, bottom: int, at: int) -> np.ndarray:
    # a vertical step at column top above row at, and at column bottom from it
    y, x = np.mgrid[:h, :w]
    return (x >= np.where(y < at, top, bottom)).astype(np.float64)


def seam_offsets(mask: np.ndarray) -> set:
    # the forward offsets, as (dy, dx), that join a kept pixel on the band
    # above the seam to one below it; no kept pixel is on a border column
    above, below = mask[SEAM - 1], mask[SEAM]
    return {(1, dx) for dx in (-1, 0, 1) for x in np.flatnonzero(above) if below[x + dx]}


def ruler_comb(teeth: int) -> np.ndarray:
    # a step image of a comb at level 0.5 with a handle at level 1 on its
    # base's left end: teeth 3 wide and 3 apart, tooth j (from 1) the taller
    # the more times 2 divides j, so the tips' raster order alternates along
    # the base at every scale and each hooking round merges only about half
    # the components it starts with. Only the handle's outline keeps values
    # above COMB's high, so every tooth is kept only if linked to it
    depth, top = teeth.bit_length(), 20
    base = top + 3 * depth + 6  # the base's top row
    comb = np.zeros((base + 23, 6 * teeth + 40))
    for j in range(1, teeth + 1):
        v = (j & -j).bit_length() - 1
        comb[top + 3 * (depth - v):base, 20 + 6 * (j - 1):23 + 6 * (j - 1)] = 0.5
    comb[base:base + 3, 20:17 + 6 * teeth] = 0.5
    comb[base - 3:base + 6, 6:20] = 1.0
    return comb


def bumps(seed: int, share: float) -> np.ndarray:
    # about share of a 48x40 plane's pixels at random heights, the rest 0;
    # each bump keeps a ring of a few pixels
    rng = np.random.default_rng(seed)
    return np.where(rng.random((48, 40)) < share, rng.random((48, 40)), 0.0)


class TestSparseLink:
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("share", [0.001, 0.003, 0.006, 0.02, 0.05])
    def test_random_sparse_planes_on_both_sides_of_the_switch(self, monkeypatch, share, seed, cpus):
        smoothed = bumps(seed, share)
        set_strip_rows(monkeypatch, 4, 40)
        set_cpus(monkeypatch, cpus)
        kept = np.count_nonzero(kept_mask(smoothed, 0.05)) / smoothed.size
        assert_links_match(monkeypatch, smoothed, CannyParams(low=0.05, high=0.3), dense=kept > canny._SPARSE_SHARE)

    def test_the_random_planes_straddle_the_switch(self):
        kept = [np.count_nonzero(kept_mask(bumps(0, share), 0.05)) / (48 * 40) for share in (0.001, 0.05)]
        assert kept[0] <= canny._SPARSE_SHARE < kept[1]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 12))
    def test_random_discs_in_bands(self, seed, discs, strip):
        # overlapping discs of random levels: curves that meet, and some too
        # faint to hold a seed, cut into bands of strip rows
        rng = np.random.default_rng(seed)
        y, x = np.mgrid[:64, :64]
        smoothed = np.zeros((64, 64))
        for cy, cx, r, level in zip(*rng.uniform((4, 4, 2, 0), (60, 60, 12, 1), (discs, 4)).T):
            smoothed[(y - cy) ** 2 + (x - cx) ** 2 <= r * r] = level
        params = CannyParams(low=0.05, high=0.3)
        with pytest.MonkeyPatch.context() as mp:
            set_strip_rows(mp, strip, 64)
            set_cpus(mp, 2)
            kept = np.count_nonzero(kept_mask(smoothed, params.low)) / smoothed.size
            assert_links_match(mp, smoothed, params, dense=kept > canny._SPARSE_SHARE)

    @pytest.mark.parametrize("at, mirrored, offset", [(0, False, (1, 0)), (7, False, (1, 1)), (7, True, (1, -1))],
                             ids=["straight-down", "down-right-corner", "down-left-corner"])
    def test_a_component_across_the_seam(self, monkeypatch, at, mirrored, offset):
        # one thin line joined across the seam in one direction only, the two
        # diagonal ones at a single corner; its contrast falls gently down the
        # rows, so only the upper band holds seeds and the lower band's part
        # is kept only if linked across the seam
        step = shifted_step(16, 48, 5, 5 if at == 0 else 6, at)
        smoothed = (step[:, ::-1] if mirrored else step) * RAMP
        assert seam_offsets(kept_mask(smoothed, 0.05)) == {offset}
        two_bands(monkeypatch, 48)
        assert _canny_from_smoothed(smoothed, FADING)[SEAM:].any()
        assert_links_match(monkeypatch, smoothed, FADING)

    @pytest.mark.parametrize("seeded", ["upper", "lower"])
    def test_a_seed_only_in_the_other_band(self, monkeypatch, seeded):
        # only the seeded band keeps values above high, and the line links
        # from it into the other band
        smoothed = shifted_step(16, 48, 5, 5, 0) * (RAMP if seeded == "upper" else RAMP[::-1])
        idx, kept = _thin(*_central_differences(smoothed), FADING.low)
        seed_rows = idx[kept > FADING.high] // 48
        assert seed_rows.size and ((seed_rows < SEAM) if seeded == "upper" else (seed_rows >= SEAM)).all()
        two_bands(monkeypatch, 48)
        assert np.count_nonzero(_canny_from_smoothed(smoothed, FADING)) == idx.size > seed_rows.size
        assert_links_match(monkeypatch, smoothed, FADING)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_plane_with_no_kept_pixel(self, monkeypatch, cpus):
        set_strip_rows(monkeypatch, 4, 9)
        set_cpus(monkeypatch, cpus)
        for smoothed in (np.zeros((16, 9)), np.full((16, 9), 0.7), shifted_step(16, 9, 4, 4, 0) * 0.01):
            assert not kept_mask(smoothed, 0.05).any()
            assert_links_match(monkeypatch, smoothed)

    def test_a_stack_links_within_each_layer(self, monkeypatch):
        # a step per layer, the third too faint to hold a seed: it stays
        # empty, linked to no other layer
        stack = np.stack([shifted_step(16, 48, 10 + 5 * k, 12 + 5 * k, 2 + 3 * k) for k in range(4)])
        stack[2] *= 0.2
        assert_links_match(monkeypatch, stack)
        assert [layer.any() for layer in _canny_from_smoothed(stack, PARAMS)] == [True, True, False, True]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_comb_needing_many_rounds_falls_back_when_the_cap_is_hit(self, monkeypatch, cpus):
        smoothed = np.pad(ruler_comb(16), ((0, 96), (0, 0)))
        set_strip_rows(monkeypatch, 4, smoothed.shape[1])
        set_cpus(monkeypatch, cpus)
        idx, kept = _thin(*_central_differences(smoothed), COMB.low)
        seeded = kept > COMB.high
        assert idx.size <= canny._SPARSE_SHARE * smoothed.size and (idx[seeded] % smoothed.shape[1]).max() <= 20
        for needed in range(1, canny._SPARSE_ROUNDS + 1):
            monkeypatch.setattr(canny, "_SPARSE_ROUNDS", needed)
            if _sparse_link(idx, seeded, smoothed.shape) is not None:
                break
        assert needed >= 6
        assert np.count_nonzero(_canny_from_smoothed(smoothed, COMB)) == idx.size
        assert_links_match(monkeypatch, smoothed, COMB)
        monkeypatch.setattr(canny, "_SPARSE_ROUNDS", needed - 1)
        assert _sparse_link(idx, seeded, smoothed.shape) is None
        assert_links_match(monkeypatch, smoothed, COMB, dense=True)
