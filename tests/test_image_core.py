"""Pixel types, grayscale conversion, and PGM/PPM round trips."""

import io
import os
import re
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from edgebench.image_core import (
    LUMA_BLUE,
    LUMA_GREEN,
    LUMA_RED,
    EdgeMap,
    FormatError,
    GrayImage,
    RgbImage,
    TruncationError,
    _ascii_samples,
    _read_gray,
    read_image,
    rgb_to_gray,
    write_image,
)


def rgb1(r, g, b):
    return RgbImage(np.array([[[r, g, b]]], dtype=np.float64))


rgb_arrays = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 8), st.integers(1, 8), st.just(3)),
    elements=st.floats(0.0, 1.0, allow_nan=False),
)


# separators a header may use between tokens, comments included
HEADER_SEPARATORS = (b" ", b"\n", b"\t", b"\r", b"\r\n", b"\x0b\x0c", b" # note\n", b"#\r", b"\n#\n\t")
# bytes that move a damaged file across the reader's token and comment rules
MUTATION_BYTES = tuple(b"# \t\n\r0123456789-")


@st.composite
def netpbm_files(draw):
    """A valid P2/P3/P5/P6 file at maxval 255 or 65535, with its samples."""
    magic = draw(st.sampled_from((b"P2", b"P3", b"P5", b"P6")))
    maxval = draw(st.sampled_from((255, 65535)))
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    count = width * height * (3 if magic in (b"P3", b"P6") else 1)
    samples = draw(st.lists(st.integers(0, maxval), min_size=count, max_size=count))
    seps = [draw(st.sampled_from(HEADER_SEPARATORS)) for _ in range(3)]
    header = magic + seps[0] + b"%d" % width + seps[1] + b"%d" % height + seps[2] + b"%d" % maxval
    if magic in (b"P5", b"P6"):
        last = draw(st.sampled_from((b" ", b"\n", b"\t", b"\r")))
        raster = np.array(samples, dtype=np.uint8 if maxval == 255 else ">u2").tobytes()
    else:
        last = draw(st.sampled_from(HEADER_SEPARATORS))
        raster = b" ".join(b"%d" % v for v in samples) + b"\n"
    return header + last + raster, samples, maxval


@st.composite
def damaged_netpbm_files(draw):
    """A valid file, maybe truncated, then with 1 to 3 bytes replaced, inserted or deleted."""
    data = bytearray(draw(netpbm_files())[0])
    if draw(st.booleans()):
        del data[draw(st.integers(0, len(data))):]
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(data)))
        byte = draw(st.one_of(st.sampled_from(MUTATION_BYTES), st.integers(0, 255)))
        kind = draw(st.sampled_from(("replace", "insert", "delete")))
        if pos == len(data) or kind == "insert":
            data.insert(pos, byte)
        elif kind == "replace":
            data[pos] = byte
        else:
            del data[pos]
    return bytes(data)


class TestLuma:
    def test_weights_sum_to_exactly_one(self):
        assert LUMA_RED + LUMA_GREEN + LUMA_BLUE == 1.0

    def test_weights_keep_documented_ratios(self):
        # normalisation rescales the published triple by at most 1e-4 of itself
        assert LUMA_RED == pytest.approx(0.2989, abs=1e-4)
        assert LUMA_GREEN == pytest.approx(0.5870, abs=1e-4)
        assert LUMA_BLUE == pytest.approx(0.1140, abs=1e-4)

    def test_white_maps_to_exactly_one(self):
        assert rgb_to_gray(rgb1(1.0, 1.0, 1.0)).pixels[0, 0] == 1.0

    def test_black_maps_to_zero(self):
        assert rgb_to_gray(rgb1(0.0, 0.0, 0.0)).pixels[0, 0] == 0.0

    def test_pure_red(self):
        got = rgb_to_gray(rgb1(1.0, 0.0, 0.0)).pixels[0, 0]
        assert got == LUMA_RED
        assert got == pytest.approx(0.2989, abs=5e-5)

    def test_dimensions_preserved(self):
        img = RgbImage(np.zeros((3, 5, 3)))
        gray = rgb_to_gray(img)
        assert (gray.height, gray.width) == (3, 5)

    @given(rgb_arrays)
    def test_convex_combination_of_channels(self, px):
        gray = rgb_to_gray(RgbImage(px)).pixels
        lo = px.min(axis=2)
        hi = px.max(axis=2)
        assert np.all(gray >= lo - 1e-12)
        assert np.all(gray <= hi + 1e-12)

    @given(rgb_arrays)
    def test_output_stays_in_unit_range(self, px):
        gray = rgb_to_gray(RgbImage(px)).pixels
        assert gray.min() >= 0.0
        assert gray.max() <= 1.0

    @given(rgb_arrays, st.sampled_from([0.5, 0.25, 0.0625]))
    def test_scaling_channels_by_power_of_two_scales_output_exactly(self, px, t):
        base = rgb_to_gray(RgbImage(px)).pixels
        scaled = rgb_to_gray(RgbImage(px * t)).pixels
        assert np.array_equal(scaled, base * t)

    @given(rgb_arrays, st.floats(0.001, 1.0, allow_nan=False))
    def test_scaling_channels_scales_output(self, px, t):
        # general factors cannot be bit-exact; float products do not
        # distribute over the three-term sum
        base = rgb_to_gray(RgbImage(px)).pixels
        scaled = rgb_to_gray(RgbImage(px * t)).pixels
        assert np.allclose(scaled, base * t, atol=1e-12, rtol=0.0)

    def test_every_8_bit_gray_level_reads_the_same_from_p6_as_from_p5(self, tmp_path):
        # the weighted sum alone moves 49 of these levels by one ulp
        levels = bytes(range(256))
        (tmp_path / "g.pgm").write_bytes(b"P5 256 1 255\n" + levels)
        (tmp_path / "g.ppm").write_bytes(b"P6 256 1 255\n" + bytes(np.repeat(np.arange(256, dtype=np.uint8), 3)))
        gray = rgb_to_gray(read_image(tmp_path / "g.ppm")).pixels
        assert gray.tobytes() == read_image(tmp_path / "g.pgm").pixels.tobytes()

    @given(rgb_arrays)
    def test_pixels_with_unequal_channels_keep_the_weighted_sum(self, px):
        gray = rgb_to_gray(RgbImage(px)).pixels
        weighted = px[..., 0] * LUMA_RED + px[..., 1] * LUMA_GREEN + px[..., 2] * LUMA_BLUE
        unequal = (px[..., 0] != px[..., 1]) | (px[..., 1] != px[..., 2])
        assert gray[unequal].tobytes() == weighted[unequal].tobytes()
        assert np.array_equal(gray[~unequal], px[..., 0][~unequal])


class TestTypes:
    def test_gray_rejects_empty_and_wrong_rank(self):
        with pytest.raises(ValueError):
            GrayImage(np.zeros((0, 4)))
        with pytest.raises(ValueError):
            GrayImage(np.zeros(5))

    def test_gray_pixels_are_immutable(self):
        img = GrayImage(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1.0

    def test_gray_copies_its_input(self):
        src = np.zeros((2, 2))
        img = GrayImage(src)
        src[0, 0] = 9.0
        assert img.pixels[0, 0] == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_gray_rejects_non_finite_pixels(self, bad):
        px = np.zeros((3, 3))
        px[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            GrayImage(px)

    def test_rgb_rejects_nan_channels(self):
        px = np.zeros((2, 2, 3))
        px[0, 1, 2] = np.nan
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            RgbImage(px)

    def test_rgb_rejects_out_of_range_channels(self):
        with pytest.raises(ValueError):
            RgbImage(np.full((1, 1, 3), 1.5))
        with pytest.raises(ValueError):
            RgbImage(np.full((1, 1, 3), -0.1))

    def test_rgb_rejects_wrong_channel_count(self):
        with pytest.raises(ValueError):
            RgbImage(np.zeros((2, 2, 4)))

    def test_edge_map_requires_boolean_mask(self):
        with pytest.raises(ValueError):
            EdgeMap(np.zeros((2, 2), dtype=np.float64))

    def test_edge_map_rejects_an_empty_grid(self):
        with pytest.raises(ValueError, match="non-empty 2-D grid"):
            EdgeMap(np.zeros((0, 3), dtype=bool))

    def test_edge_map_count(self):
        em = EdgeMap(np.array([[True, False], [True, True]]))
        assert em.count == 3
        assert (em.height, em.width) == (2, 2)

    def test_reprs_give_the_size(self):
        assert repr(GrayImage(np.zeros((2, 3)))) == "GrayImage(3x2)"
        assert repr(RgbImage(np.zeros((2, 3, 3)))) == "RgbImage(3x2)"
        assert repr(EdgeMap(np.array([[True, False, True]]))) == "EdgeMap(3x1, 2 marked)"

    def test_rgb_width_and_height(self):
        img = RgbImage(np.zeros((2, 5, 3)))
        assert (img.height, img.width) == (2, 5)

    def test_intermediate_values_may_leave_unit_range(self):
        # filter outputs are never clamped, so the type cannot be either
        img = GrayImage(np.array([[-3.0, 42.0]]))
        assert img.pixels[0, 1] == 42.0


class TestRead:
    @pytest.mark.parametrize("magic, count", [(b"P2", 2147483647**2), (b"P3", 3 * 2147483647**2)], ids=["P2", "P3"])
    def test_a_short_raster_under_a_huge_header_is_truncated(self, tmp_path, magic, count):
        # no array of count samples can exist; the raster's 6 bytes hold at most 3
        p = tmp_path / "t.pnm"
        p.write_bytes(magic + b"\n2147483647 2147483647\n255\n1 2 3\n")
        for read in (read_image, _read_gray):
            with pytest.raises(TruncationError, match=f"^pixel data truncated: expected {count} samples, got 3$"):
                read(p)

    def test_binary_pgm_endpoints(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n2 1\n255\n" + bytes([0, 255]))
        img = read_image(p)
        assert isinstance(img, GrayImage)
        assert img.pixels.tolist() == [[0.0, 1.0]]

    def test_binary_ppm_endpoint(self, tmp_path):
        p = tmp_path / "t.ppm"
        p.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        img = read_image(p)
        assert isinstance(img, RgbImage)
        assert img.pixels[0, 0].tolist() == [1.0, 0.0, 0.0]

    def test_ascii_pgm_mid_sample(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_text("P2\n1 1\n255\n128\n")
        img = read_image(p)
        assert img.pixels[0, 0] == 128 / 255

    def test_ascii_ppm(self, tmp_path):
        p = tmp_path / "t.ppm"
        p.write_text("P3\n2 1\n255\n255 0 0  0 255 0\n")
        img = read_image(p)
        assert img.pixels[0, 0].tolist() == [1.0, 0.0, 0.0]
        assert img.pixels[0, 1].tolist() == [0.0, 1.0, 0.0]

    def test_header_comments_are_skipped(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_text("P2 # magic\n# a comment line\n2 # width\n1\n# more\n255\n7 9\n")
        img = read_image(p)
        assert np.allclose(img.pixels, [[7 / 255, 9 / 255]])

    def test_raster_comment_runs_to_the_end_of_its_line(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P2 2 2 255\n1 2 # 3\n4 5\n")
        img = read_image(p)
        assert img.pixels.tolist() == [[1 / 255, 2 / 255], [4 / 255, 5 / 255]]

    def test_raster_comment_glued_to_a_sample_and_cr_line_ends(self, tmp_path):
        p = tmp_path / "t.ppm"
        p.write_bytes(b"P3\r1 1\r255\r7#r g b\r8 9 #trailing")
        img = read_image(p)
        assert img.pixels[0, 0].tolist() == [7 / 255, 8 / 255, 9 / 255]

    def test_commented_out_samples_do_not_count(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P2\n3 1\n255\n1 2 # 3\n")
        with pytest.raises(TruncationError, match=r"3.*2"):
            read_image(p)

    def test_sixteen_bit_samples_are_big_endian(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n2 1\n65535\n" + bytes([0xFF, 0xFF, 0x01, 0x00]))
        img = read_image(p)
        assert img.pixels[0, 0] == 1.0
        assert img.pixels[0, 1] == 256 / 65535

    def test_maxval_between_255_and_65535_uses_two_bytes(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n1 1\n1000\n" + bytes([0x01, 0xF4]))
        img = read_image(p)
        assert img.pixels[0, 0] == 500 / 65535

    def test_trailing_bytes_are_tolerated(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n1 1\n255\n" + bytes([7]) + b"junk")
        assert read_image(p).pixels[0, 0] == 7 / 255

    def test_unknown_magic_names_the_token(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P7\n1 1\n255\n\x00")
        with pytest.raises(FormatError, match="P7"):
            read_image(p)

    def test_malformed_width_names_the_token(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\nabc 1\n255\n\x00")
        with pytest.raises(FormatError, match="abc"):
            read_image(p)

    def test_zero_width_rejected(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n0 1\n255\n")
        with pytest.raises(FormatError, match="width"):
            read_image(p)

    def test_maxval_out_of_range_rejected(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n1 1\n70000\n\x00\x00")
        with pytest.raises(FormatError, match="maxval"):
            read_image(p)

    def test_truncated_binary_reports_byte_counts(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
        with pytest.raises(TruncationError, match=r"16.*10"):
            read_image(p)

    def test_truncated_ascii_reports_sample_counts(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_text("P2\n3 1\n255\n1 2\n")
        with pytest.raises(TruncationError, match=r"3.*2"):
            read_image(p)

    def test_ascii_parse_of_512_squared_stays_within_its_memory_budget(self):
        count = 512 * 512
        samples = np.random.default_rng(0).integers(0, 256, count)
        buf = io.BytesIO()
        np.savetxt(buf, samples.reshape(-1, 16), fmt="%d")
        raster = buf.getvalue()
        tracemalloc.start()
        try:
            parsed = _ascii_samples(raster, 0, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(parsed, samples)
        # about 20 bytes a sample: the 8-byte result and one byte run's masks
        # and token bounds; the whole-buffer passes took about 38, and one
        # bytes object per token, as bytes.split() makes, needs over 50
        assert peak < 24 * count, peak / count

    def test_header_cut_short(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n3 3")
        with pytest.raises(FormatError):
            read_image(p)

    def test_ascii_sample_above_maxval_rejected(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_text("P2\n1 1\n100\n101\n")
        with pytest.raises(FormatError, match="101"):
            read_image(p)

    @pytest.mark.parametrize("header, bad", [
        (b"P2 -2 1 255", b"-2"), (b"P2 +2 1 255", b"+2"), (b"P2 2 +1 255", b"+1"),
        (b"P2 2 1_0 255", b"1_0"), (b"P2 2 1 +255", b"+255"), (b"P2 2 1 2_55", b"2_55"),
    ])
    def test_signed_and_underscored_header_integers_are_malformed(self, tmp_path, header, bad):
        p = tmp_path / "t.pgm"
        p.write_bytes(header + b"\n1 2\n")
        with pytest.raises(FormatError, match=f"malformed .* {re.escape(repr(bad))}"):
            read_image(p)

    @pytest.mark.parametrize("raster, bad", [
        (b"-1 +2\n1_0 4\n", b"-1"), (b"1 +2\n1_0 4\n", b"+2"), (b"1 2\n1_0 4\n", b"1_0"),
        (b"1 2\n3 1.0\n", b"1.0"), (b"1 2\n3 0x4\n", b"0x4"), (b"1 2\n3 \xd9\xa3\n", b"\xd9\xa3"),
    ])
    def test_samples_must_be_unsigned_decimal_digits(self, tmp_path, raster, bad):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P2 2 2 255\n" + raster)
        with pytest.raises(FormatError, match=re.escape(f"malformed sample token {bad!r}")):
            read_image(p)

    def test_overlong_integers_fail_as_format_errors(self, tmp_path):
        p = tmp_path / "t.pgm"
        for body in (b"P2 " + b"9" * 5000 + b" 1 255\n1\n", b"P2 1 1 255\n" + b"9" * 400 + b"\n",
                     b"P2 1 1 255\n" + b"9" * 5000 + b"\n"):
            p.write_bytes(body)
            with pytest.raises(FormatError):
                read_image(p)

    def test_leading_zeros_are_plain_decimals(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P2 " + b"0" * 5000 + b"2 1 0255\n0000 00255\n")
        assert read_image(p).pixels.tolist() == [[0.0, 1.0]]

    @pytest.mark.parametrize("body, pixels", [
        (b"P2#magic\n1 1 255#maxval\n7\n", [[7 / 255]]),
        (b"P5\r1\r1\r255\r\x07", [[7 / 255]]),
        (b"P2\r#c\r2 1\r255\r1\r2\r", [[1 / 255, 2 / 255]]),
    ], ids=["comments-glued-to-magic-and-maxval", "cr-line-ends", "cr-ended-comments"])
    def test_header_filler_edge_cases_parse(self, tmp_path, body, pixels):
        p = tmp_path / "t.pgm"
        p.write_bytes(body)
        assert read_image(p).pixels.tolist() == pixels

    @pytest.mark.parametrize("body, message", [
        (b"", "unexpected end of file inside header"),
        (b"P5 1 1 # no line end", "unexpected end of file inside header"),
        (b"P5 1 1\r\n#\r\n", "unexpected end of file inside header"),
        (b"P5 1 1 255#\n\x07", "missing whitespace between maxval and pixel data"),
    ], ids=["empty", "comment-to-eof", "comment-then-eof", "comment-glued-to-p5-maxval"])
    def test_header_filler_edge_cases_fail(self, tmp_path, body, message):
        p = tmp_path / "t.pgm"
        p.write_bytes(body)
        with pytest.raises(FormatError, match=message):
            read_image(p)

    @given(netpbm_files())
    def test_valid_files_read_back_their_samples(self, tmp_path_factory, case):
        body, samples, maxval = case
        p = tmp_path_factory.mktemp("netpbm") / "t.pnm"
        p.write_bytes(body)
        assert read_image(p).pixels.ravel().tolist() == [v / maxval for v in samples]

    @settings(max_examples=300)
    @given(damaged_netpbm_files())
    def test_damaged_files_give_an_image_or_a_netpbm_error(self, tmp_path_factory, body):
        p = tmp_path_factory.mktemp("netpbm") / "t.pnm"
        p.write_bytes(body)
        try:
            assert isinstance(read_image(p), (GrayImage, RgbImage))
        except (FormatError, TruncationError):
            pass

    def test_errors_are_value_errors(self):
        assert issubclass(FormatError, ValueError)
        assert issubclass(TruncationError, ValueError)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_image(tmp_path / "absent.pgm")


def netpbm_bytes(magic: bytes, samples: np.ndarray, maxval: int) -> bytes:
    """A P2/P3/P5/P6 file of integer samples shaped (h, w) or (h, w, 3)."""
    h, w = samples.shape[:2]
    header = b"%s\n%d %d\n%d\n" % (magic, w, h, maxval)
    if magic in (b"P5", b"P6"):
        return header + samples.astype(np.uint8 if maxval <= 255 else ">u2").tobytes()
    return header + b"\n".join(b" ".join(b"%d" % v for v in row) for row in samples.reshape(h, -1)) + b"\n"


def assert_reads_to_the_same_gray(path) -> None:
    img = read_image(path)
    expected = rgb_to_gray(img) if isinstance(img, RgbImage) else img
    got = _read_gray(path)
    assert got.dtype == np.float64 and got.shape == expected.pixels.shape
    assert got.tobytes() == expected.pixels.tobytes()


# one entry per way a P5/P6/P2/P3 file can fail to read: header, raster
# and sample-value faults of each format
MALFORMED_NETPBM = [
    pytest.param(b"P7\n1 1\n255\n\x00", id="unknown-magic"),
    pytest.param(b"P6\n0 1\n255\n", id="p6-zero-width"),
    pytest.param(b"P3\n1 -1\n255\n1 2 3", id="p3-signed-height"),
    pytest.param(b"P6\n1 1\n70000\n\x00\x00", id="p6-maxval-out-of-range"),
    pytest.param(b"P6\n3 3", id="p6-header-cut-short"),
    pytest.param(b"P3 # note", id="p3-header-cut-short"),
    pytest.param(b"P6\n1 1\n255", id="p6-no-raster-whitespace"),
    pytest.param(b"P5\n1 1\n255", id="p5-no-raster-whitespace"),
    pytest.param(b"P6\n2 2\n255\n" + bytes(11), id="p6-truncated"),
    pytest.param(b"P6\n1 1\n65535\n" + bytes(5), id="p6-16-bit-truncated"),
    pytest.param(b"P5\n4 4\n255\n" + bytes(10), id="p5-truncated"),
    pytest.param(b"P3\n2 1\n255\n1 2 3 4 5\n", id="p3-truncated"),
    pytest.param(b"P2\n3 1\n255\n1 2\n", id="p2-truncated"),
    # headers whose sample count no array can hold, over a raster of 3 samples
    pytest.param(b"P2\n2147483647 2147483647\n255\n1 2 3\n", id="p2-huge-header-truncated"),
    pytest.param(b"P3\n2147483647 2147483647\n255\n1 2 3\n", id="p3-huge-header-truncated"),
    pytest.param(b"P6\n1 1\n100\n" + bytes([0, 101, 0]), id="p6-over-maxval"),
    pytest.param(b"P6\n1 1\n300\n" + np.array([0, 0, 301], ">u2").tobytes(), id="p6-16-bit-over-maxval"),
    pytest.param(b"P5\n1 1\n7\n\x08", id="p5-over-maxval"),
    pytest.param(b"P3\n1 1\n1\n0 1 2\n", id="p3-over-maxval"),
    pytest.param(b"P2\n1 1\n100\n101\n", id="p2-over-maxval"),
    pytest.param(b"P3\n1 1\n255\n1 2 x\n", id="p3-malformed-sample"),
    pytest.param(b"P3\n1 1\n255\n1 +2 3\n", id="p3-signed-sample"),
    pytest.param(b"P2\n1 1\n255\n1.5\n", id="p2-decimal-point"),
]


def netpbm_error(read, path) -> tuple:
    with pytest.raises((FormatError, TruncationError)) as info:
        read(path)
    return type(info.value), str(info.value)


class TestReadGray:
    """_read_gray, the CLI's reader, must give the pixels of
    rgb_to_gray(read_image(p)) for a PPM and of read_image(p) for a PGM,
    byte for byte, or the same error."""

    @pytest.mark.parametrize("maxval", [1, 7, 255, 256, 65535])
    @pytest.mark.parametrize("magic", [b"P6", b"P3", b"P5", b"P2"])
    def test_random_pixels_at_every_maxval(self, tmp_path, magic, maxval):
        rng = np.random.default_rng(maxval)
        channels = (3,) if magic in (b"P3", b"P6") else ()
        samples = rng.integers(0, maxval + 1, (9, 13) + channels)
        if channels:
            samples[::2, ::3] = samples[::2, ::3, :1]  # equal channels here and there
        p = tmp_path / "t.pnm"
        p.write_bytes(netpbm_bytes(magic, samples, maxval))
        assert_reads_to_the_same_gray(p)

    @pytest.mark.parametrize("maxval", [255, 65535])
    @pytest.mark.parametrize("magic", [b"P6", b"P3"])
    def test_all_256_levels_in_each_channel(self, tmp_path, magic, maxval):
        levels = np.arange(256) * (maxval // 255)
        grid = np.stack(np.meshgrid(levels, levels[::-1]), axis=-1)
        for other in (levels[None, :], levels[:, None], np.full((1, 1), levels[77])):
            rgb = np.concatenate([grid, np.broadcast_to(other, (256, 256))[..., None]], axis=-1)
            for order in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
                p = tmp_path / "t.pnm"
                p.write_bytes(netpbm_bytes(magic, rgb[..., order], maxval))
                assert_reads_to_the_same_gray(p)

    def test_equal_channels_keep_their_level_exactly(self, tmp_path):
        levels = np.arange(256)
        p = tmp_path / "t.ppm"
        p.write_bytes(netpbm_bytes(b"P6", np.repeat(levels, 3).reshape(1, 256, 3), 255))
        assert _read_gray(p).tobytes() == (levels[None, :] / 255.0).tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (1, 300), (300, 1)], ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("magic, maxval", [(b"P6", 255), (b"P6", 65535), (b"P3", 255), (b"P3", 1000)])
    def test_one_pixel_and_one_wide_images(self, tmp_path, shape, magic, maxval):
        samples = np.random.default_rng(shape[0] + maxval).integers(0, maxval + 1, shape + (3,))
        p = tmp_path / "t.ppm"
        p.write_bytes(netpbm_bytes(magic, samples, maxval))
        assert_reads_to_the_same_gray(p)

    @given(netpbm_files())
    def test_valid_files(self, tmp_path_factory, case):
        p = tmp_path_factory.mktemp("netpbm") / "t.pnm"
        p.write_bytes(case[0])
        assert_reads_to_the_same_gray(p)

    @pytest.mark.parametrize("body", MALFORMED_NETPBM)
    def test_malformed_files_fail_alike(self, tmp_path, body):
        p = tmp_path / "t.pnm"
        p.write_bytes(body)
        assert netpbm_error(_read_gray, p) == netpbm_error(read_image, p)

    @settings(max_examples=300)
    @given(damaged_netpbm_files())
    def test_damaged_files_read_or_fail_alike(self, tmp_path_factory, body):
        p = tmp_path_factory.mktemp("netpbm") / "t.pnm"
        p.write_bytes(body)
        try:
            img = read_image(p)
        except (FormatError, TruncationError) as exc:
            assert netpbm_error(_read_gray, p) == (type(exc), str(exc))
        else:
            expected = rgb_to_gray(img) if isinstance(img, RgbImage) else img
            assert _read_gray(p).tobytes() == expected.pixels.tobytes()

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            _read_gray(tmp_path / "absent.ppm")


class TestWrite:
    def test_endpoint_and_half_rounding(self, tmp_path):
        p = tmp_path / "t.pgm"
        write_image(GrayImage(np.array([[1.0, 0.5, 0.0]])), p)
        raw = p.read_bytes()
        assert raw.startswith(b"P5\n3 1\n255\n")
        # 0.5 * 255 = 127.5, round-half-up
        assert list(raw[-3:]) == [255, 128, 0]

    def test_out_of_range_values_are_clamped(self, tmp_path):
        p = tmp_path / "t.pgm"
        write_image(GrayImage(np.array([[-0.4, 1.7]])), p)
        assert list(p.read_bytes()[-2:]) == [0, 255]

    def test_edge_map_encoding(self, tmp_path):
        p = tmp_path / "t.pgm"
        write_image(EdgeMap(np.array([[True, False]])), p)
        assert list(p.read_bytes()[-2:]) == [255, 0]

    def test_rejects_other_types(self, tmp_path):
        with pytest.raises(TypeError):
            write_image(np.zeros((2, 2)), tmp_path / "t.pgm")

    def test_write_into_missing_directory_raises_oserror(self, tmp_path):
        target = tmp_path / "nodir" / "t.pgm"
        with pytest.raises(OSError):
            write_image(GrayImage(np.zeros((2, 2))), target)
        assert not target.exists()

    def test_failed_write_leaves_no_temp_files(self, tmp_path):
        with pytest.raises(TypeError):
            write_image(object(), tmp_path / "t.pgm")
        assert list(tmp_path.iterdir()) == []

    def test_failed_replace_keeps_the_target_and_leaves_no_temp_file(self, monkeypatch, tmp_path):
        target = tmp_path / "t.pgm"
        target.write_bytes(b"old bytes")

        def refuse(src, dst):
            assert os.path.basename(src).startswith(".edgebench-") and os.path.exists(src)
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            write_image(GrayImage(np.zeros((2, 2))), target)
        assert [path.name for path in tmp_path.iterdir()] == ["t.pgm"]
        assert target.read_bytes() == b"old bytes"

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_file_mode_is_that_of_open_under_the_umask(self, tmp_path, umask):
        # a new file and a replaced one, whatever mode the old one had
        replaced = tmp_path / "replaced.pgm"
        replaced.write_bytes(b"old")
        replaced.chmod(0o640)
        old = os.umask(umask)
        try:
            write_image(GrayImage(np.zeros((2, 2))), tmp_path / "new.pgm")
            write_image(GrayImage(np.zeros((2, 2))), replaced)
            (tmp_path / "plain").open("wb").close()
        finally:
            os.umask(old)
        modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
        assert modes == dict.fromkeys(("new.pgm", "replaced.pgm", "plain"), 0o666 & ~umask)

    @given(
        px=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.integers(1, 8)),
            elements=st.floats(0.0, 1.0, allow_nan=False),
        )
    )
    def test_round_trip_within_quantisation(self, px, tmp_path_factory):
        p = tmp_path_factory.mktemp("rt") / "t.pgm"
        write_image(GrayImage(px), p)
        back = read_image(p)
        assert np.abs(back.pixels - px).max() <= 1 / 510

    def test_round_trip_is_idempotent_after_first_quantisation(self, tmp_path):
        rng = np.random.default_rng(3)
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_image(GrayImage(rng.random((9, 7))), p1)
        once = read_image(p1)
        write_image(once, p2)
        assert p1.read_bytes()[p1.read_bytes().index(b"\n255\n"):] == \
            p2.read_bytes()[p2.read_bytes().index(b"\n255\n"):]
        assert np.array_equal(read_image(p2).pixels, once.pixels)
