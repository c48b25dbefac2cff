"""Exit codes, flag validation, and file/stream output of the edgebench CLI."""

import json
import os
import stat
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

from edgebench import canny, cli, evaluation, filtering, image_core, marr_hildreth
from edgebench.cli import run
from edgebench.canny import CannyParams, canny_detect
from edgebench.evaluation import CSV_COLUMNS, EvalReport, add_gaussian_noise, synth_circle, synth_step
from edgebench.image_core import EdgeMap, GrayImage, RgbImage, read_image, rgb_to_gray, write_image
from edgebench.marr_hildreth import MHParams, mh_detect
from test_image_core import MALFORMED_NETPBM, damaged_netpbm_files, netpbm_bytes
from test_oracle_equivalence import perfbench_workloads


@pytest.fixture
def step_pgm(tmp_path):
    path = tmp_path / "step.pgm"
    write_image(synth_step(64, 64, 32, 0.5).image, path)
    return path


def detect_args(in_path, out_path, *extra):
    return ["detect", "--detector", "canny", "--in", str(in_path),
            "--out", str(out_path), *extra]


class TestDetect:
    def test_happy_path_writes_an_edge_map(self, step_pgm, tmp_path):
        out = tmp_path / "edges.pgm"
        code = run(detect_args(step_pgm, out, "--sigma", "1.0",
                               "--low", "0.05", "--high", "0.15"))
        assert code == 0
        edges = read_image(out)
        values = set(np.unique(edges.pixels))
        assert values == {0.0, 1.0}
        cols = np.nonzero(edges.pixels[32])[0]
        assert len(cols) == 1 and abs(int(cols[0]) - 32) <= 1

    def test_marr_hildreth_detector(self, step_pgm, tmp_path):
        out = tmp_path / "edges.pgm"
        code = run(["detect", "--detector", "marr-hildreth", "--in", str(step_pgm),
                    "--out", str(out), "--slope-threshold", "0.01"])
        assert code == 0
        assert read_image(out).pixels.max() == 1.0

    def test_color_input_is_converted(self, tmp_path):
        src = tmp_path / "c.ppm"
        body = bytes([200, 200, 200, 10, 10, 10] * 8 * 4)
        src.write_bytes(b"P6\n8 8\n255\n" + body)
        out = tmp_path / "edges.pgm"
        assert run(detect_args(src, out)) == 0
        assert out.exists()

    @pytest.mark.parametrize("detector", [["canny"], ["marr-hildreth"], ["marr-hildreth", "--mh-hysteresis"]])
    def test_gray_picture_as_p6_gives_the_map_of_p5(self, tmp_path, detector):
        scene = synth_circle(96, (47.5, 47.5), 30.0)
        p5 = tmp_path / "g.pgm"
        write_image(add_gaussian_noise(scene.image, 0.1, 3), p5)
        body = p5.read_bytes()[-96 * 96:]
        p6 = tmp_path / "g.ppm"
        p6.write_bytes(b"P6\n96 96\n255\n" + bytes(np.frombuffer(body, np.uint8).repeat(3)))
        maps = []
        for src in (p5, p6):
            out = tmp_path / f"{src.suffix[1:]}-edges.pgm"
            assert run(["detect", "--detector", *detector, "--in", str(src), "--out", str(out)]) == 0
            maps.append(out.read_bytes())
        assert maps[0] == maps[1]

    def test_threshold_violation_exits_1_and_names_values(self, step_pgm, tmp_path, capsys):
        code = run(detect_args(step_pgm, tmp_path / "e.pgm",
                               "--low", "0.2", "--high", "0.1"))
        assert code == 1
        err = capsys.readouterr().err
        assert "0.2" in err and "0.1" in err

    def test_validation_happens_before_reading_files(self, tmp_path, capsys):
        # bad thresholds on a missing input must report the parameter error
        code = run(detect_args(tmp_path / "absent.pgm", tmp_path / "e.pgm",
                               "--low", "0.2", "--high", "0.1"))
        assert code == 1
        assert "invalid parameters" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = run(detect_args(tmp_path / "absent.pgm", tmp_path / "e.pgm"))
        assert code == 2
        assert "i/o error" in capsys.readouterr().err

    def test_corrupt_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"not a pgm at all")
        code = run(detect_args(bad, tmp_path / "e.pgm"))
        assert code == 2
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [b"P2 2 2 255\n-1 +2\n1_0 4\n", b"P2 +2 2 255\n1 2\n3 4\n",
                                      b"P2 2 2 -255\n1 2\n3 4\n"])
    def test_signed_or_underscored_netpbm_integers_exit_2(self, tmp_path, capsys, body):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(body)
        assert run(detect_args(bad, tmp_path / "e.pgm")) == 2
        assert "malformed" in capsys.readouterr().err
        assert not (tmp_path / "e.pgm").exists()

    @given(damaged_netpbm_files())
    def test_damaged_netpbm_input_exits_0_or_2(self, tmp_path_factory, body):
        tmp = tmp_path_factory.mktemp("detect")
        (tmp / "in.pnm").write_bytes(body)
        code = run(detect_args(tmp / "in.pnm", tmp / "e.pgm"))
        assert code in (0, 2)
        assert (tmp / "e.pgm").exists() == (code == 0)

    @pytest.mark.parametrize("body", MALFORMED_NETPBM)
    def test_malformed_netpbm_input_exits_2_with_the_readers_message(self, tmp_path, capsys, body):
        bad = tmp_path / "bad.pnm"
        bad.write_bytes(body)
        with pytest.raises(ValueError) as info:
            read_image(bad)
        assert run(detect_args(bad, tmp_path / "e.pgm")) == 2
        assert capsys.readouterr().err == f"edgebench: i/o error: {info.value}\n"
        assert not (tmp_path / "e.pgm").exists()

    @pytest.mark.parametrize("magic, maxval", [(b"P6", 255), (b"P6", 65535), (b"P3", 255)])
    def test_ppm_reaches_gray_without_an_rgb_image(self, monkeypatch, tmp_path, magic, maxval):
        rng = np.random.default_rng(maxval)
        levels = rng.integers(0, maxval + 1, (40, 40))
        # unequal channels around a step, equal ones in a corner
        rgb = np.stack([levels, levels // 2, maxval - levels], axis=-1)
        rgb[:, 20:] //= 3
        rgb[:8, :8] = rgb[:8, :8, :1]
        path = tmp_path / "in.ppm"
        path.write_bytes(netpbm_bytes(magic, rgb, maxval))
        gray = rgb_to_gray(read_image(path))
        cases = [(["--detector", "canny", "--low", "0.01", "--high", "0.05"], canny_detect, CannyParams(low=0.01, high=0.05)),
                 (["--detector", "marr-hildreth", "--slope-threshold", "0.01"], mh_detect, MHParams(slope_threshold=0.01))]
        expected = []
        for i, (_, detect, params) in enumerate(cases):
            write_image(detect(gray, params), tmp_path / f"expected{i}.pgm")
            expected.append((tmp_path / f"expected{i}.pgm").read_bytes())

        def absent(*args):
            raise AssertionError("detect must not build an RgbImage or collapse one")

        monkeypatch.setattr(image_core, "RgbImage", absent)
        monkeypatch.setattr(image_core, "rgb_to_gray", absent)
        for i, (flags, _, _) in enumerate(cases):
            out = tmp_path / f"e{i}.pgm"
            assert run(["detect", "--in", str(path), "--out", str(out), *flags]) == 0
            assert out.read_bytes() == expected[i]

    @pytest.mark.parametrize("fmt", ["p5-8", "p5-16", "p6", "p2"])
    def test_detect_wraps_nothing_from_read_to_write(self, monkeypatch, tmp_path, fmt):
        # detect passes bare arrays from its reader to its mask writer: with
        # every GrayImage, EdgeMap and RgbImage construction made to fail, it
        # must still write what read_image, rgb_to_gray for a PPM, the public
        # detector and write_image write, for each of the README's invocations
        workloads = perfbench_workloads()
        path = tmp_path / f"in.{fmt}"
        path.write_bytes(workloads.encode_netpbm(fmt, *workloads.detect_composite(1, size=80)))
        img = read_image(path)
        gray = rgb_to_gray(img) if isinstance(img, RgbImage) else img
        invocations = workloads.DETECT_INVOCATIONS
        detectors = {"canny": (canny_detect, CannyParams(sigma=1.4, low=0.05, high=0.15)),
                     "mh": (mh_detect, MHParams(slope_threshold=0.02)),
                     "mh-hyst": (mh_detect, MHParams(use_hysteresis=True, low=0.01, high=0.05))}
        # strips of 8 rows, so every stage runs in several
        monkeypatch.setattr(image_core, "_STRIP_BYTES", 8 * 8 * 80)
        expected = {}
        for name, (detect, params) in detectors.items():
            write_image(detect(gray, params), tmp_path / f"{name}.pgm")
            expected[name] = (tmp_path / f"{name}.pgm").read_bytes()
            assert expected[name].count(255) > 100, name

        def refuse(*args, **kwargs):
            raise AssertionError("detect built a GrayImage, EdgeMap or RgbImage")

        for cls in (GrayImage, EdgeMap, RgbImage):
            monkeypatch.setattr(cls, "__post_init__", refuse)
        for module in (cli, filtering, image_core, canny, marr_hildreth, evaluation):
            for name in ("GrayImage", "EdgeMap", "RgbImage"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        for name, flags in invocations.items():
            out = tmp_path / f"out-{name}.pgm"
            assert run(["detect", "--in", str(path), "--out", str(out), *flags]) == 0
            assert out.read_bytes() == expected[name], name

    def test_unknown_flag_exits_1_with_usage(self, capsys):
        code = run(["detect", "--no-such-flag"])
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_unwritable_output_exits_2_and_leaves_nothing(self, step_pgm, tmp_path, capsys):
        target = tmp_path / "nodir" / "e.pgm"
        code = run(detect_args(step_pgm, target))
        assert code == 2
        assert not target.exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_writes_into_a_fifo(self, step_pgm, tmp_path):
        # the read end opens first and without blocking, so the write end opens
        # at once; a 64x64 map is 4,109 bytes, within the pipe's buffer
        fifo = tmp_path / "edges.fifo"
        os.mkfifo(fifo)
        assert run(detect_args(step_pgm, tmp_path / "edges.pgm")) == 0
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run(detect_args(step_pgm, fifo)) == 0
            got = os.read(reader, 2**16)
        finally:
            os.close(reader)
        assert got == (tmp_path / "edges.pgm").read_bytes()
        # still a FIFO, and no .edgebench-* file is left
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["edges.fifo", "edges.pgm", "step.pgm"]


class TestSynth:
    def test_writes_scene_and_truth(self, tmp_path):
        img, truth = tmp_path / "s.pgm", tmp_path / "t.pgm"
        code = run(["synth", "--scene", "step", "--width", "32", "--height", "16",
                    "--column", "8", "--contrast", "1.0",
                    "--out-image", str(img), "--out-truth", str(truth)])
        assert code == 0
        scene = read_image(img)
        assert scene.pixels[0, 0] == 0.0
        assert scene.pixels[0, 31] == 1.0
        assert int((read_image(truth).pixels == 1.0).sum()) == 16

    def test_noisy_scene_is_seeded(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            img, truth = tmp_path / f"{name}.pgm", tmp_path / f"{name}t.pgm"
            assert run(["synth", "--scene", "step", "--noise-stddev", "0.1",
                        "--seed", "5", "--out-image", str(img),
                        "--out-truth", str(truth)]) == 0
            outs.append(img.read_bytes())
        assert outs[0] == outs[1]

    def test_rectangle_and_circle_scenes(self, tmp_path):
        assert run(["synth", "--scene", "rectangle", "--out-image", str(tmp_path / "r.pgm"),
                    "--out-truth", str(tmp_path / "rt.pgm")]) == 0
        assert run(["synth", "--scene", "circle", "--out-image", str(tmp_path / "c.pgm"),
                    "--out-truth", str(tmp_path / "ct.pgm")]) == 0

    def test_invalid_scene_geometry_exits_1(self, tmp_path, capsys):
        code = run(["synth", "--scene", "step", "--column", "99", "--width", "32",
                    "--out-image", str(tmp_path / "s.pgm"),
                    "--out-truth", str(tmp_path / "t.pgm")])
        assert code == 1
        assert "invalid parameters" in capsys.readouterr().err


class TestFailedWrite:
    """Each output file is written to a temporary file, then renamed over
    its target; a target that exists and is not a regular file is opened
    in place. When the rename or the open fails, the run exits 2, the
    target keeps what it held and no temporary file is left."""

    @pytest.mark.parametrize("argv", [
        ["synth", "--scene", "circle", "--out-image", "{tmp}/t.pgm", "--out-truth", "{tmp}/s.pgm"],
        ["detect", "--detector", "canny", "--in", "{tmp}/in.pgm", "--out", "{tmp}/t.pgm"],
        ["compare", "--suite", "circle", "--out", "{tmp}/t.pgm"],
    ], ids=["synth", "detect", "compare"])
    @pytest.mark.parametrize("target", ["existing-file", "directory"])
    def test_exits_2_and_keeps_the_target(self, monkeypatch, tmp_path, capsys, argv, target):
        write_image(synth_circle(16, (7.5, 7.5), 3.0).image, tmp_path / "in.pgm")
        if target == "directory":
            (tmp_path / "t.pgm").mkdir()  # a directory cannot be opened for writing
        else:
            (tmp_path / "t.pgm").write_bytes(b"old bytes")

            def refuse(src, dst):
                raise OSError("replace refused")

            monkeypatch.setattr(os, "replace", refuse)
        names = sorted(path.name for path in tmp_path.iterdir())
        assert run([arg.format(tmp=tmp_path) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith("edgebench: i/o error: ")
        # no .edgebench-* file is left, and synth never wrote its second file
        assert sorted(path.name for path in tmp_path.iterdir()) == names
        if target == "directory":
            assert not list((tmp_path / "t.pgm").iterdir())
        else:
            assert (tmp_path / "t.pgm").read_bytes() == b"old bytes"

    def test_failed_cleanup_still_exits_2_with_the_original_error(self, monkeypatch, step_pgm, tmp_path, capsys):
        def refuse(what):
            def call(*args):
                raise OSError(f"{what} refused")
            return call

        monkeypatch.setattr(os, "replace", refuse("replace"))
        monkeypatch.setattr(os, "unlink", refuse("unlink"))
        assert run(detect_args(step_pgm, tmp_path / "t.pgm")) == 2
        assert capsys.readouterr().err == "edgebench: i/o error: replace refused\n"


class TestEvaluate:
    def test_csv_record_on_stdout(self, capsys):
        code = run(["evaluate", "--detector", "canny", "--scene", "step"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2
        row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
        assert row["detector"] == "canny"
        assert row["scene"].startswith("step-")
        assert row["slope_threshold"] == ""
        assert row["seed"] == ""  # clean scene records no seed

    def test_json_format(self, capsys):
        code = run(["evaluate", "--detector", "canny", "--scene", "step",
                    "--format", "json"])
        assert code == 0
        parsed = json.loads(capsys.readouterr().out)
        assert len(parsed) == 1
        assert parsed[0]["fp_rate"] == 0.0
        assert parsed[0]["fn_rate"] == 0.0

    def test_mh_single_threshold_record_fills_slope_only(self, capsys):
        code = run(["evaluate", "--detector", "marr-hildreth", "--scene", "step",
                    "--slope-threshold", "0.02"])
        assert code == 0
        row = dict(zip(CSV_COLUMNS, capsys.readouterr().out.splitlines()[1].split(",")))
        assert row["slope_threshold"] == "0.02"
        assert row["low"] == "" and row["high"] == ""

    def test_mh_hysteresis_record_fills_the_pair(self, capsys):
        code = run(["evaluate", "--detector", "marr-hildreth", "--scene", "step",
                    "--mh-hysteresis", "--low", "0.01", "--high", "0.05"])
        assert code == 0
        row = dict(zip(CSV_COLUMNS, capsys.readouterr().out.splitlines()[1].split(",")))
        assert row["low"] == "0.01" and row["high"] == "0.05"
        assert row["slope_threshold"] == ""

    def test_noisy_scene_records_its_seed(self, capsys):
        code = run(["evaluate", "--detector", "canny", "--scene", "step",
                    "--noise-stddev", "0.1", "--seed", "7"])
        assert code == 0
        row = dict(zip(CSV_COLUMNS, capsys.readouterr().out.splitlines()[1].split(",")))
        assert row["seed"] == "7"

    @pytest.mark.parametrize("detector", ["canny", "marr-hildreth"])
    def test_non_finite_scene_exits_1_with_a_clear_message(self, detector, capsys):
        # NaN noise makes NaN pixels, which the image type refuses
        code = run(["evaluate", "--detector", detector, "--scene", "step",
                    "--noise-stddev", "nan"])
        assert code == 1
        captured = capsys.readouterr()
        assert "finite" in captured.err
        assert captured.out == ""

    def test_negative_tolerance_exits_1(self, capsys):
        code = run(["evaluate", "--detector", "canny", "--scene", "step",
                    "--tolerance", "-1"])
        assert code == 1
        capsys.readouterr()


class TestCompare:
    def test_noisy_step_row_cardinality(self, capsys):
        code = run(["compare", "--suite", "noisy-step", "--seeds", "0..3"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 2 * 4
        seeds = [line.split(",")[-1] for line in lines[1:]]
        assert seeds == ["0", "0", "1", "1", "2", "2", "3", "3"]

    def test_seed_list_forms(self, capsys):
        assert run(["compare", "--suite", "noisy-step", "--seeds", "5"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert run(["compare", "--suite", "noisy-step", "--seeds", "1,4,7"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 7

    def test_bad_seed_string_exits_1(self, capsys):
        code = run(["compare", "--suite", "noisy-step", "--seeds", "a..b"])
        assert code == 1
        assert "seeds" in capsys.readouterr().err

    def test_descending_seed_range_exits_1(self, capsys):
        assert run(["compare", "--suite", "noisy-step", "--seeds", "5..3"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "edgebench: invalid parameters: at least one seed is required\n")

    def test_output_file_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["compare", "--suite", "noisy-step", "--seeds", "0..2"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 7

    def test_clean_suites_have_no_seed_column_value(self, capsys):
        code = run(["compare", "--suite", "rectangle-corners"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert all(line.endswith(",") for line in lines[1:])

    def test_circle_suite_json(self, capsys):
        code = run(["compare", "--suite", "circle", "--format", "json"])
        assert code == 0
        parsed = json.loads(capsys.readouterr().out)
        assert [r["detector"] for r in parsed] == ["canny", "marr-hildreth"]
        assert all(r["seed"] is None for r in parsed)

    def test_unknown_suite_exits_1(self, capsys):
        assert run(["compare", "--suite", "nope"]) == 1
        capsys.readouterr()

    def test_unwritable_report_path_exits_2(self, tmp_path, capsys):
        target = tmp_path / "nodir" / "r.csv"
        code = run(["compare", "--suite", "circle", "--out", str(target)])
        assert code == 2
        assert not target.exists()


EVALUATE = ["evaluate", "--scene", "step"]
COMPARE = ["compare", "--suite", "noisy-step", "--seeds", "0"]


class TestNonFiniteParameters:
    @pytest.mark.parametrize("detector", ["canny", "marr-hildreth"])
    @pytest.mark.parametrize("sigma", ["inf", "nan", "1e308"])
    def test_detect_sigma(self, step_pgm, tmp_path, capsys, detector, sigma):
        out = tmp_path / "e.pgm"
        code = run(["detect", "--detector", detector, "--in", str(step_pgm), "--out", str(out),
                    "--sigma", sigma])
        assert code == 1
        assert f"got {float(sigma)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("detector", ["canny", "marr-hildreth"])
    @pytest.mark.parametrize("extra", [[], ["--radius", "3"]])
    def test_detect_sigma_too_small_for_a_kernel(self, step_pgm, tmp_path, capsys, detector, extra):
        out = tmp_path / "e.pgm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["detect", "--detector", detector, "--in", str(step_pgm), "--out", str(out),
                        "--sigma", "1e-300", *extra])
        assert code == 1
        err = capsys.readouterr().err
        assert "invalid parameters" in err and "2*sigma**2 is not 0, got 1e-300" in err
        assert not out.exists()

    @pytest.mark.parametrize("detector", ["canny", "marr-hildreth"])
    @pytest.mark.parametrize("sigma", ["1e-300", "1e308"])
    def test_detect_sigma_is_refused_before_the_input_is_opened(self, tmp_path, capsys, detector, sigma):
        # 1e308 is finite, but 3*sigma, its default radius, is not
        code = run(["detect", "--detector", detector, "--in", str(tmp_path / "absent.pgm"),
                    "--out", str(tmp_path / "e.pgm"), "--sigma", sigma])
        assert code == 1
        err = capsys.readouterr().err
        assert "invalid parameters" in err and "sigma" in err and "i/o error" not in err

    @pytest.mark.parametrize("detector", ["canny", "marr-hildreth"])
    def test_detect_tiny_sigma_runs_without_warnings(self, step_pgm, tmp_path, detector):
        out = tmp_path / "e.pgm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["detect", "--detector", detector, "--in", str(step_pgm), "--out", str(out),
                        "--sigma", "1e-160"]) == 0
        assert out.exists()

    @pytest.mark.parametrize("argv, value", [
        (EVALUATE + ["--detector", "canny", "--sigma", "inf"], "inf"),
        (EVALUATE + ["--detector", "marr-hildreth", "--sigma", "nan"], "nan"),
        (EVALUATE + ["--detector", "canny", "--noise-stddev", "inf"], "inf"),
        (EVALUATE + ["--detector", "canny", "--tolerance", "nan"], "nan"),
        (EVALUATE + ["--detector", "canny", "--high", "nan"], "nan"),
        (EVALUATE + ["--detector", "marr-hildreth", "--slope-threshold", "nan"], "nan"),
        (COMPARE + ["--noise-stddev", "inf"], "inf"),
        (COMPARE + ["--tolerance", "nan"], "nan"),
        (COMPARE + ["--tolerance", "-1"], "-1.0"),
        (COMPARE + ["--sigma", "1e308"], "1e+308"),
        (COMPARE + ["--low", "nan"], "nan"),
        (COMPARE + ["--low", "0.2", "--high", "0.1"], "0.2"),
        (COMPARE + ["--slope-threshold", "-1"], "-1.0"),
        (EVALUATE + ["--detector", "marr-hildreth", "--mh-hysteresis", "--low", "0.2", "--high", "0.1"], "0.2"),
        (EVALUATE + ["--detector", "marr-hildreth", "--low", "nan"], "nan"),
        (EVALUATE + ["--detector", "marr-hildreth", "--low", "-1"], "-1.0"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_report_commands(self, capsys, argv, value):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert "invalid parameters" in captured.err
        assert f"got {value}" in captured.err or f"={value}" in captured.err
        assert captured.out == ""


    @pytest.mark.parametrize("flag", ["--cx", "--cy", "--circle-radius"])
    def test_synth_circle_geometry(self, tmp_path, capsys, flag):
        image, truth = tmp_path / "c.pgm", tmp_path / "ct.pgm"
        assert run(["synth", "--scene", "circle", flag, "nan",
                    "--out-image", str(image), "--out-truth", str(truth)]) == 1
        assert "invalid parameters" in capsys.readouterr().err
        assert not image.exists() and not truth.exists()


# (detector flags, flags that detector never reads)
UNREAD_FLAGS = [
    pytest.param(["--detector", "marr-hildreth", "--slope-threshold", "0.02"], ["--low", "0.2", "--high", "0.1"],
                 id="mh-low-above-high"),
    pytest.param(["--detector", "canny"], ["--slope-threshold", "-1"], id="canny-negative-slope"),
]


class TestRadiusCap:
    @pytest.mark.parametrize("detector", ["canny", "marr-hildreth"])
    @pytest.mark.parametrize("extra, shown", [(["--radius", "5"], "got 5"),
                                              (["--sigma", "1.4"], "got ceil(3*sigma) = 5 for sigma 1.4")])
    def test_detect_past_a_patched_cap_exits_1_before_the_input_is_opened(self, monkeypatch, tmp_path, capsys,
                                                                          detector, extra, shown):
        monkeypatch.setattr(filtering, "_MAX_RADIUS", 4)
        out = tmp_path / "e.pgm"
        code = run(["detect", "--detector", detector, "--in", str(tmp_path / "absent.pgm"),
                    "--out", str(out), *extra])
        assert code == 1
        err = capsys.readouterr().err
        assert "invalid parameters" in err and f"radius must be at most 4, {shown}" in err
        assert not out.exists()

    def test_compare_past_the_cap_exits_1(self, capsys):
        assert run(["compare", "--suite", "circle", "--radius", "4097"]) == 1
        assert "radius must be at most 4096, got 4097" in capsys.readouterr().err


class TestUnreadDetectorFlags:
    @pytest.mark.parametrize("flags, unread", UNREAD_FLAGS)
    def test_detect_ignores_them(self, step_pgm, tmp_path, flags, unread):
        maps = []
        for extra in ([], unread):
            out = tmp_path / f"e{len(maps)}.pgm"
            assert run(["detect", "--in", str(step_pgm), "--out", str(out), *flags, *extra]) == 0
            maps.append(out.read_bytes())
        assert maps[0] == maps[1]

    @pytest.mark.parametrize("flags, unread", UNREAD_FLAGS)
    def test_evaluate_ignores_them(self, capsys, flags, unread):
        records = []
        for extra in ([], unread):
            assert run(["evaluate", "--scene", "circle", *flags, *extra]) == 0
            records.append(capsys.readouterr().out)
        assert records[0] == records[1]


class TestOutOfMemory:
    """A refused allocation exits 1 with a message, not a traceback. The
    allocation is a patched function that raises: no test asks for a large
    array."""

    @pytest.mark.parametrize("argv", [
        ["synth", "--scene", "circle", "--size", "100000000", "--out-image", "{tmp}/s.pgm", "--out-truth", "{tmp}/t.pgm"],
        ["evaluate", "--detector", "canny", "--scene", "circle", "--size", "100000000"],
    ], ids=["synth", "evaluate"])
    @pytest.mark.parametrize("error, shown", [
        (MemoryError("Unable to allocate 74.5 PiB"), "Unable to allocate 74.5 PiB"),
        (MemoryError(), "an allocation was refused"),
    ], ids=["numpy-message", "bare"])
    def test_memory_error_exits_1(self, monkeypatch, tmp_path, capsys, argv, error, shown):
        def refuse(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "synth_circle", refuse)
        assert run([arg.format(tmp=tmp_path) for arg in argv]) == 1
        assert capsys.readouterr().err == f"edgebench: out of memory: {shown}\n"
        assert not list(tmp_path.iterdir())


class TestTopLevel:
    def test_annotations_resolve(self):
        assert typing.get_type_hints(cli._params) == {"detector": str, "return": CannyParams | MHParams}
        assert typing.get_type_hints(cli._record) == {
            "scene": str, "detector": str, "report": EvalReport, "params": CannyParams | MHParams, "return": dict}

    def test_no_subcommand_exits_1(self, capsys):
        assert run([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_help_exits_0_and_shows_defaults(self, capsys):
        assert run(["detect", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--sigma" in out
        assert "1.0" in out
        assert "0.15" in out

    @pytest.mark.parametrize("module", ["edgebench", "edgebench.cli"])
    def test_python_dash_m_runs_the_cli(self, module, tmp_path, capsys):
        argv = ["compare", "--suite", "circle"]
        assert run(argv) == 0
        expected = capsys.readouterr().out

        def python_m(*args):
            env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
            return subprocess.run([sys.executable, "-m", module, *args], cwd=tmp_path, env=env,
                                  capture_output=True, text=True, timeout=120)

        done = python_m(*argv)
        assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")
        bad = python_m("compare", "--no-such-flag")
        assert bad.returncode == 1
        assert bad.stderr.startswith("usage: edgebench")


class TestParserReuse:
    def sequence(self, step_pgm, out_path):
        return [
            ["compare", "--suite", "no-such-suite"],
            ["compare", "--suite", "noisy-step", "--seeds", "0..2"],
            ["--help"],
            detect_args(step_pgm, out_path, "--sigma", "1.4"),
            ["evaluate", "--detector", "marr-hildreth", "--scene", "circle", "--format", "json"],
        ]

    def outcome(self, argv, out_path, capsys):
        out_path.unlink(missing_ok=True)
        code = run(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err, out_path.read_bytes() if out_path.exists() else None

    def test_back_to_back_calls_match_first_calls(self, step_pgm, tmp_path, capsys):
        out_path = tmp_path / "edges.pgm"
        sequence = self.sequence(step_pgm, out_path)
        first = []
        for argv in sequence:
            cli._parser.cache_clear()
            first.append(self.outcome(argv, out_path, capsys))
        assert [code for code, *_ in first] == [1, 0, 0, 0, 0]
        detect_written = first[3][3]
        assert detect_written is not None

        cli._parser.cache_clear()
        again = [self.outcome(argv, out_path, capsys) for argv in sequence]
        assert cli._parser.cache_info().misses == 1
        assert again == first
