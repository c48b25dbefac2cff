"""Tests of the benchmark itself: input generation, statistics, tracing and
the output contract.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import edgebench  # noqa: E402
import edgebench.canny  # noqa: E402
import edgebench.evaluation  # noqa: E402
from speed import DUTY, NOMINAL_MS, WINDOW_S, SpeedMeter  # noqa: E402
from stats import by_kind, failed_ratio, latency, tail  # noqa: E402
from tracer import Tracer, per_layer_units  # noqa: E402
from workloads import (  # noqa: E402
    DETECT_FORMATS,
    Compare,
    Sweep,
    detect_composite,
    encode_netpbm,
    sweep_scene,
)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


def test_detect_input_is_fixed_by_its_seed():
    gray, rgb = detect_composite(3, size=96)
    again_gray, again_rgb = detect_composite(3, size=96)
    other_gray, _ = detect_composite(4, size=96)
    assert np.array_equal(gray, again_gray) and np.array_equal(rgb, again_rgb)
    assert not np.array_equal(gray, other_gray)
    assert gray.min() >= 0.0 and gray.max() <= 1.0 and rgb.min() >= 0.0 and rgb.max() <= 1.0


@pytest.mark.parametrize("fmt", DETECT_FORMATS)
def test_detect_input_files_read_back(tmp_path, fmt):
    gray, rgb = detect_composite(5, size=48)
    path = tmp_path / f"in.{fmt}"
    path.write_bytes(encode_netpbm(fmt, gray, rgb))
    image = edgebench.read_image(path)
    if fmt == "p6":
        np.testing.assert_allclose(image.pixels, rgb, atol=0.5 / 255)
    else:
        np.testing.assert_allclose(image.pixels, gray, atol=0.5 / (65535 if fmt == "p5-16" else 255))


def test_sweep_and_compare_inputs_follow_the_seed():
    assert Sweep(1, ROOT).keys != Sweep(2, ROOT).keys
    assert np.array_equal(sweep_scene(7).image.pixels, sweep_scene(7).image.pixels)
    assert not np.array_equal(sweep_scene(7).image.pixels, sweep_scene(8).image.pixels)
    assert Compare(0, ROOT)._seeds == "0..9"
    assert Compare(2, ROOT)._seeds == "20..29"


def test_tail_is_the_order_statistic_with_ten_ops_beyond():
    times = list(range(100, 0, -1))
    assert tail(times) == {"value": 90, "percentile": 90.0, "beyond": 10, "ops": 100}
    result = tail(range(21))
    assert result["value"] == 10 and result["beyond"] == 10
    assert result["percentile"] == pytest.approx(100 * 11 / 21)


def test_tail_falls_back_to_the_median_below_21_ops():
    assert tail([5.0, 1.0, 3.0]) == {"value": 3.0, "percentile": 50.0, "beyond": 1, "ops": 3}
    assert tail(range(20))["value"] == 9.5
    with pytest.raises(ValueError):
        tail([])


def test_latency_is_taken_per_kind():
    records = [{"kind": "cheap", "ms": ms} for ms in (1.0, 2.0, 3.0)] + \
              [{"kind": "dear", "ms": ms} for ms in (100.0, 300.0)]
    groups = by_kind(records, "ms")
    assert groups == {"cheap": [1.0, 2.0, 3.0], "dear": [100.0, 300.0]}
    result = latency(groups)
    assert result["p50"] == (2.0 + 200.0) / 2
    assert result["tail"] == {"kind": "dear", "value": 200.0, "percentile": 50.0, "beyond": 1, "ops": 2}


def test_speed_meter_scales_by_nearby_samples():
    kernel_ms = iter([NOMINAL_MS * 2] * 100)
    meter = SpeedMeter(kernel=lambda: next(kernel_ms))
    meter.keep_up(busy_s=1.0)
    assert len(meter.samples) == int(DUTY * 1.0 / (NOMINAL_MS * 2 / 1e3)) + 1
    meter.samples = [(0.0, 10.0), (1.0, 30.0), (10.0, 60.0)]
    assert meter.scale(0.5, 0.6) == NOMINAL_MS / 20.0
    assert meter.scale(10.0 + WINDOW_S / 2, 10.0 + WINDOW_S) == NOMINAL_MS / 60.0
    assert meter.scale(100.0, 101.0) == NOMINAL_MS / 30.0


def test_failed_ratio():
    assert failed_ratio(0, 10) == 0.0
    assert failed_ratio(3, 12) == 0.25
    assert failed_ratio(4, 4) == 1.0
    for failed, attempted in ((0, 0), (5, 4), (-1, 4)):
        with pytest.raises(ValueError):
            failed_ratio(failed, attempted)


def test_tracer_sees_calls_between_modules_and_restores_originals():
    original = edgebench.canny.hysteresis
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.coverage_problems() == []
        assert edgebench.evaluation.hysteresis is edgebench.canny.hysteresis is edgebench.hysteresis
        assert edgebench.canny.hysteresis is not original
        tracer.begin_op(0)
        edgebench.evaluation.tune_mh(sweep_scene(0), use_hysteresis=True, grid=(0.01, 0.1))
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert edgebench.evaluation.hysteresis is original and edgebench.canny.hysteresis is original
    names = {sid: name for sid, _, _, name, _, _, _ in tracer.spans}
    parents = {names[parent] for _, parent, _, name, _, _, _ in tracer.spans if name == "canny.hysteresis"}
    assert parents == {"evaluation.tune_mh"}
    metrics = tracer.metrics(1.0)
    assert metrics["canny.hysteresis.calls"]["value"] == 3
    assert metrics["canny.hysteresis.calls_per_low"]["value"] == 1.5
    assert metrics["evaluation.score.calls"]["value"] == 3
    assert all(span[6] >= 0 for span in tracer.spans)


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced = run_bench("--workload", "compare", "--seed", "1", "--seconds", "1", "--trace", "0")
    traced = run_bench("--workload", "compare", "--seed", "1", "--seconds", "1", "--trace", "1")
    for proc, key in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec[key]}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()


def test_smoke_checks_every_workload_against_pinned_outputs():
    proc = run_bench("--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "compare", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
