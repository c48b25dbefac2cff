"""Exit codes, flag validation, and file/stream output of the edgebench CLI."""

import json
import typing
import warnings

import numpy as np
import pytest
from hypothesis import given

from edgebench import cli
from edgebench.cli import run
from edgebench.evaluation import CSV_COLUMNS, add_gaussian_noise, synth_circle, synth_step
from edgebench.image_core import EdgeMap, GrayImage, read_image, write_image
from test_image_core import damaged_netpbm_files


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

    def test_unknown_flag_exits_1_with_usage(self, capsys):
        code = run(["detect", "--no-such-flag"])
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_unwritable_output_exits_2_and_leaves_nothing(self, step_pgm, tmp_path, capsys):
        target = tmp_path / "nodir" / "e.pgm"
        code = run(detect_args(step_pgm, target))
        assert code == 2
        assert not target.exists()


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
    def test_detect_tiny_sigma_is_refused_before_the_input_is_opened(self, tmp_path, capsys, detector):
        code = run(["detect", "--detector", detector, "--in", str(tmp_path / "absent.pgm"),
                    "--out", str(tmp_path / "e.pgm"), "--sigma", "1e-300"])
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


class TestTopLevel:
    def test_annotations_resolve(self):
        hints = typing.get_type_hints(cli._run_detector)
        assert hints == {"image": GrayImage, "return": EdgeMap}

    def test_no_subcommand_exits_1(self, capsys):
        assert run([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_help_exits_0_and_shows_defaults(self, capsys):
        assert run(["detect", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--sigma" in out
        assert "1.0" in out
        assert "0.15" in out
