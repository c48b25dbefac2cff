"""detect on files at real strip sizes: a map depends neither on how its
picture is encoded (P2/P3/P5/P6, 8 or 16 bits) nor on the route that
computes it. Each map is compared byte for byte with another encoding's
map or with one written from the public stages and tests/oracles.py."""

import os
import stat

import numpy as np
import pytest

from edgebench.canny import gradient, hysteresis, nonmax_suppress
from edgebench.cli import run
from edgebench.filtering import (convolve_2d, convolve_separable, gaussian_kernel_1d, gaussian_radius,
                                 laplacian_kernel_2d)
from edgebench.image_core import EdgeMap, read_image, rgb_to_gray, write_image
from edgebench.marr_hildreth import crossing_slope_map
from oracles import (bfs_hysteresis, whole_plane_convolve_2d, whole_plane_convolve_separable,
                     whole_plane_crossing_slope_map)

# 512x512 runs in row strips
BIG = ["--scene", "circle", "--size", "512", "--cx", "255.5", "--cy", "255.5", "--circle-radius", "150"]
CANNY_14 = ["--detector", "canny", "--sigma", "1.4"]
MH_SLOPE = ["--detector", "marr-hildreth", "--slope-threshold", "0.02"]
MH_HYST = ["--detector", "marr-hildreth", "--mh-hysteresis"]


def raster(path) -> np.ndarray:
    return np.frombuffer(path.read_bytes()[-512 * 512:], np.uint8)


def save_ascii(px: np.ndarray, path, magic: str) -> None:
    # 16 samples a line, or 12 (four pixels) in a P3
    per_row = 12 if magic == "P3" else 16
    np.savetxt(path, px.reshape(-1, per_row), fmt="%d", header=f"{magic} 512 512 255", comments="")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("files")
    for name, flags in [("big", BIG), ("noisy", BIG + ["--noise-stddev", "0.1", "--seed", "3"]),
                        ("thin-col", ["--scene", "step", "--width", "2", "--height", "40", "--column", "1"]),
                        ("thin-row", ["--scene", "step", "--width", "40", "--height", "1", "--column", "20"])]:
        assert run(["synth", *flags, "--out-image", str(d / f"{name}.pgm"),
                    "--out-truth", str(d / f"{name}-truth.pgm")]) == 0
    for name in ("big", "noisy"):
        px = raster(d / f"{name}.pgm")
        save_ascii(px, d / f"{name}-p2.pgm", "P2")
        save_ascii(px.repeat(3), d / f"{name}-p3.ppm", "P3")
    # each sample times 257, read as k * 257 / 65535, which rounds to the same
    # double as k / 255: a binary P5, and an ASCII P2 with CRLF line ends and
    # comments between samples, whose raster spans several of the parser's byte runs
    px = raster(d / "noisy.pgm").astype(np.uint32) * 257
    (d / "noisy16.pgm").write_bytes(b"P5 512 512 65535\n" + px.astype(">u2").tobytes())
    lines = [b" ".join(b"%d" % v for v in row[:5]) + b" # five\r\n" + b" ".join(b"%d" % v for v in row[5:]) + b"\r\n"
             for row in px.reshape(-1, 16)]
    (d / "noisy16-p2.pgm").write_bytes(b"P2\r\n# 16-bit\r\n512 512\r\n65535\r\n" + b"".join(lines))
    # a colour picture whose channels differ
    tint = np.random.default_rng(5).integers(-40, 41, (512, 512, 3))
    rgb = np.clip(raster(d / "noisy.pgm").reshape(512, 512)[..., None] + tint, 0, 255).astype(np.uint8)
    (d / "colour.ppm").write_bytes(b"P6 512 512 255 " + rgb.tobytes())
    save_ascii(rgb, d / "colour-p3.ppm", "P3")
    return d


def detect(path, *flags) -> bytes:
    out = path.with_name("map.pgm")
    assert run(["detect", *flags, "--in", str(path), "--out", str(out)]) == 0
    return out.read_bytes()


def written(edges: EdgeMap, files) -> bytes:
    write_image(edges, files / "oracle.pgm")
    return (files / "oracle.pgm").read_bytes()


def canny_stages(img, blur, sigma: float, radius: int, low: float) -> EdgeMap:
    k = gaussian_kernel_1d(sigma, radius)
    return hysteresis(nonmax_suppress(gradient(blur(img, k, k)), low), low, 0.15)


def whole_plane_blur_sigma_1(img):
    k = gaussian_kernel_1d(1.0, gaussian_radius(1.0))
    return whole_plane_convolve_separable(img, k, k)


@pytest.mark.parametrize("name, flags", [
    ("big", ["--detector", "canny"]), ("noisy", ["--detector", "canny"]), ("noisy", ["--detector", "marr-hildreth"]),
], ids=["big-canny", "noisy-canny", "noisy-mh"])
def test_ascii_copies_give_the_map_of_the_p5(files, name, flags):
    expected = detect(files / f"{name}.pgm", *flags)
    assert detect(files / f"{name}-p2.pgm", *flags) == expected
    assert detect(files / f"{name}-p3.ppm", *flags) == expected


@pytest.mark.parametrize("flags", [CANNY_14, MH_SLOPE, MH_HYST], ids=["canny-1.4", "mh-slope", "mh-hysteresis"])
@pytest.mark.parametrize("name", ["noisy16.pgm", "noisy16-p2.pgm"])
def test_16_bit_copies_give_the_map_of_the_8_bit_p5(files, name, flags):
    assert detect(files / name, *flags) == detect(files / "noisy.pgm", *flags)


@pytest.mark.parametrize("name, flags, blur, sigma, radius, low", [
    ("noisy", CANNY_14, convolve_separable, 1.4, gaussian_radius(1.4), 0.05),
    ("noisy", CANNY_14 + ["--low", "0", "--high", "0.15"], convolve_separable, 1.4, gaussian_radius(1.4), 0.0),
    # each blur strip reads a halo of rows taller than itself from the row-padded x pass
    ("big", ["--detector", "canny", "--radius", "40"], whole_plane_convolve_separable, 1.0, 40, 0.05),
], ids=["low-0.05", "low-0", "radius-40"])
def test_canny_gives_the_map_of_the_whole_plane_stages(files, name, flags, blur, sigma, radius, low):
    expected = canny_stages(read_image(files / f"{name}.pgm"), blur, sigma, radius, low)
    assert detect(files / f"{name}.pgm", *flags) == written(expected, files)


@pytest.mark.parametrize("name, flags", [
    # images narrower than the blur's reach replicate their border pixels past every side
    ("thin-col", MH_SLOPE), ("thin-row", MH_SLOPE),
    ("big", ["--detector", "marr-hildreth"]), ("big", MH_SLOPE), ("big", MH_HYST),
    ("noisy", MH_SLOPE), ("noisy", MH_HYST),
], ids=["thin-col", "thin-row", "big-slope-0", "big-slope", "big-hysteresis", "noisy-slope", "noisy-hysteresis"])
def test_mh_gives_the_map_of_the_whole_plane_oracles(files, name, flags):
    slopes = whole_plane_crossing_slope_map(
        whole_plane_convolve_2d(whole_plane_blur_sigma_1(read_image(files / f"{name}.pgm")), laplacian_kernel_2d()))
    if flags == MH_HYST:
        expected = bfs_hysteresis(slopes, 0.05, 0.15)
    else:
        expected = EdgeMap(slopes.pixels > (0.02 if flags == MH_SLOPE else 0.0))
    assert detect(files / f"{name}.pgm", *flags) == written(expected, files)


@pytest.mark.parametrize("flags", [CANNY_14, MH_SLOPE, MH_HYST], ids=["canny-1.4", "mh-slope", "mh-hysteresis"])
@pytest.mark.parametrize("name", ["colour.ppm", "colour-p3.ppm"])
def test_colour_gives_the_map_of_its_gray_plane(files, name, flags):
    # read straight to gray as one plane per channel, against rgb_to_gray
    rgb = read_image(files / "colour.ppm")
    gray = rgb_to_gray(rgb)
    assert (gray.pixels != rgb.pixels[..., 0]).mean() > 0.5
    if flags == CANNY_14:
        expected = canny_stages(gray, whole_plane_convolve_separable, 1.4, gaussian_radius(1.4), 0.05)
    else:
        slopes = crossing_slope_map(convolve_2d(whole_plane_blur_sigma_1(gray), laplacian_kernel_2d()))
        expected = hysteresis(slopes, 0.05, 0.15) if flags == MH_HYST else EdgeMap(slopes.pixels > 0.02)
    assert detect(files / name, *flags) == written(expected, files)


def test_synth_writes_mode_0644_under_umask_022(tmp_path):
    # output files get the mode open() gives under the umask, as 0666 less it
    old = os.umask(0o022)
    try:
        assert run(["synth", "--scene", "circle", "--out-image", str(tmp_path / "mode.pgm"),
                    "--out-truth", str(tmp_path / "mode-truth.pgm")]) == 0
    finally:
        os.umask(old)
    assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()} == {
        "mode.pgm": 0o644, "mode-truth.pgm": 0o644}
