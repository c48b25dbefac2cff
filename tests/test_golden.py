"""Golden fixtures: the bytes the CLI writes, pinned by sha256.

The edge maps come from one seeded 256x256 scene built here: a ramp, a
disc and a dark rectangle, with Gaussian noise on the left half only, so
the right half keeps exactly flat runs whose gradient is exactly zero.
The detector invocations are the three README `detect` examples and Canny
at low 0, 0.05 and 1e-170 (whose square underflows to zero), each with
high 0.15 and with high equal to low. The reports are the CSVs `compare`
writes for each suite with its default flags, `compare` runs whose rows
carry other thresholds or another format, and the `evaluate` records of
each detector mode on the circle scene, one of them noisy and seeded.

Any change to an edge map or a report changes a digest here. A change
that means to keep every output must pass this file unchanged.
"""

import hashlib

import numpy as np
import pytest

from edgebench import cli
from edgebench.image_core import GrayImage, write_image

SCENE_DIGEST = "f5db1773f6162025c45fd3b9b8c8fcf7e193df6858d4ceb31a186297e237166a"

DETECT = {
    "readme-canny": (["--detector", "canny", "--sigma", "1.4", "--low", "0.05", "--high", "0.15"],
                     "463642b0a109751b9c2e0b2c5400cad7ac9886a3802f8dfe0494f52f9ee1422d"),
    "readme-mh": (["--detector", "marr-hildreth", "--slope-threshold", "0.02"],
                  "d0001a2041c1c00ac4a44064b21ad2cf0332700fec3c26228078d807a5645339"),
    "readme-mh-hysteresis": (["--detector", "marr-hildreth", "--mh-hysteresis", "--low", "0.01", "--high", "0.05"],
                             "e3f25fa41e291b728679461dd980d7b1c8420e55789a96b7f8e4955c44d21a16"),
    "canny-low-0": (["--detector", "canny", "--low", "0", "--high", "0.15"],
                    "9ac6fb6597616b9e2b70e498b89650c4c64652025592d5c111f3ca69fb4cbe32"),
    "canny-low-0.05": (["--detector", "canny", "--low", "0.05", "--high", "0.15"],
                       "9ac6fb6597616b9e2b70e498b89650c4c64652025592d5c111f3ca69fb4cbe32"),
    "canny-low-1e-170": (["--detector", "canny", "--low", "1e-170", "--high", "0.15"],
                         "9ac6fb6597616b9e2b70e498b89650c4c64652025592d5c111f3ca69fb4cbe32"),
    "canny-low-high-0": (["--detector", "canny", "--low", "0", "--high", "0"],
                         "2ff8cc6bd9dfb8ac8f5d0edde514d04155b03879decf4e2c0080806a5250127b"),
    "canny-low-high-0.05": (["--detector", "canny", "--low", "0.05", "--high", "0.05"],
                            "87f012bc8198372aa9a1e290375e04c0add58d5146618c219908b3761cc51162"),
    "canny-low-high-1e-170": (["--detector", "canny", "--low", "1e-170", "--high", "1e-170"],
                              "2ff8cc6bd9dfb8ac8f5d0edde514d04155b03879decf4e2c0080806a5250127b"),
}

COMPARE = {
    "noisy-step": "24c2bab0230fa5671b6134b635cac8bb6a08537da711a4e041670fde9e72a019",
    "circle": "fb77fb88da77eefe84ea232c24e8ea8c18470cae4634fd3cb48b732ea9bff7ed",
    "rectangle-corners": "9ffe155146b4f8abea0b4901afafeedd023ef60a7522e96503fa848412958a61",
}

COMPARE_FLAGS = {
    "noisy-step-mh-hysteresis": (["--suite", "noisy-step", "--mh-hysteresis", "--low", "0.01", "--high", "0.05"],
                                 "4119d67169b57b2d79629bf2cef9f0d82093350487d0fbe025d9fc93f8985841"),
    "circle-json": (["--suite", "circle", "--format", "json"],
                    "97749d813547cc57dae1ed54789e5b9ce511110854f35007ae9a86f0588ce411"),
}

EVALUATE = {
    "canny": (["--detector", "canny"],
              "43af902ebfd6f9504fd6feaf55cbd4527e34d6a56119a06648c2fa058f84c7c4"),
    "mh": (["--detector", "marr-hildreth", "--slope-threshold", "0.02"],
           "8f3ab76daf11bdb0fe1afa8783b53afce3b1137d1f432c2edab721ec5c358d84"),
    "mh-hysteresis": (["--detector", "marr-hildreth", "--mh-hysteresis", "--low", "0.01", "--high", "0.05"],
                      "114cab81ea7cedb328d4dd742765e43a89016286886b3f0cdc7614d28baeca14"),
    "canny-noisy-seed-3": (["--detector", "canny", "--noise-stddev", "0.1", "--seed", "3"],
                           "a1d91f2666589d3d153be86a0b870a0483318b4012555b05d5933174aaa19b5d"),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def scene_path(tmp_path_factory):
    y, x = np.mgrid[0:256, 0:256]
    px = 0.2 + 0.3 * (x // 32) / 7.0
    px[(x - 100.5) ** 2 + (y - 120.5) ** 2 < 60.0 ** 2] = 0.8
    px[40:90, 150:230] = 0.05
    rng = np.random.default_rng(20131)
    px[:, :128] += rng.normal(0.0, 0.05, (256, 128))
    path = tmp_path_factory.mktemp("golden") / "scene.pgm"
    write_image(GrayImage(np.clip(px, 0.0, 1.0)), path)
    return path


def test_scene(scene_path):
    assert sha256(scene_path) == SCENE_DIGEST


@pytest.mark.parametrize("name", DETECT)
def test_detect_maps(scene_path, tmp_path, name):
    flags, digest = DETECT[name]
    out = tmp_path / "edges.pgm"
    assert cli.run(["detect", "--in", str(scene_path), "--out", str(out), *flags]) == 0
    assert sha256(out) == digest


@pytest.mark.parametrize("suite", COMPARE)
def test_compare_reports(tmp_path, suite):
    out = tmp_path / "report.csv"
    assert cli.run(["compare", "--suite", suite, "--format", "csv", "--out", str(out)]) == 0
    assert sha256(out) == COMPARE[suite]


@pytest.mark.parametrize("name", COMPARE_FLAGS)
def test_compare_reports_with_flags(tmp_path, name):
    flags, digest = COMPARE_FLAGS[name]
    out = tmp_path / "report"
    assert cli.run(["compare", *flags, "--out", str(out)]) == 0
    assert sha256(out) == digest


@pytest.mark.parametrize("name", EVALUATE)
def test_evaluate_records(capsys, name):
    flags, digest = EVALUATE[name]
    assert cli.run(["evaluate", "--scene", "circle", *flags]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest
