"""scipy is imported on first use, not with the package.

detect with Canny below the sparse-link switch, detect with Marr-Hildreth
in slope mode, and synth must never load it; nor must compare and evaluate
when their Canny planes stay below that switch and their tolerance is at
most evaluation._DISC_TOLERANCE, which scores through the disc's offsets:
compare --suite noisy-step, evaluate --scene step, and Marr-Hildreth slope
evaluations. detect with Marr-Hildreth hysteresis, which labels a dense
plane, compare --suite circle, whose 64x64 Canny plane keeps 3.2% of its
pixels (above canny._SPARSE_SHARE), and a tolerance above the bound, which
takes scipy's distance transform, still load it. Each case runs the CLI in
a fresh interpreter with src on PYTHONPATH, which reports its exit codes,
the sha256 of what each run printed, and the scipy modules it loaded; the
files and records it writes keep their golden bytes.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from edgebench.image_core import read_image
from oracles import erosion_ring
from test_golden import COMPARE, DETECT, EVALUATE, scene_path, sha256  # noqa: F401 (scene_path is a fixture)

SRC = Path(__file__).resolve().parents[1] / "src"

# run each argv of the JSON list argv[1] through cli.run, then print the exit
# codes, the sha256 of each run's stdout and the scipy modules loaded
SCRIPT = """
import contextlib, hashlib, io, json, sys
import edgebench, edgebench.cli
codes, printed = [], []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(edgebench.cli.run(argv))
    printed.append(hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest())
print(json.dumps({"codes": codes, "printed": printed,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

# what a run that writes only files prints, and the record of evaluate
# --scene step --detector canny at the default tolerance, pinned while scoring
# still took scipy's distance transform
EMPTY = hashlib.sha256(b"").hexdigest()
STEP_CANNY_RECORD = "36e3cad06b80070271268418a6999afd8eda29a3cad1a4f7bd013900b7c503b2"


def run_fresh(*argvs) -> dict:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argvs)], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def detect_argv(scene_path, out, name: str) -> list:
    return ["detect", "--in", str(scene_path), "--out", str(out), *DETECT[name][0]]


def test_detect_and_synth_never_load_scipy(scene_path, tmp_path):
    image, truth = tmp_path / "circle.pgm", tmp_path / "circle-truth.pgm"
    assert run_fresh(detect_argv(scene_path, tmp_path / "canny.pgm", "readme-canny"),
                     detect_argv(scene_path, tmp_path / "mh.pgm", "readme-mh"),
                     ["synth", "--scene", "circle", "--out-image", str(image), "--out-truth", str(truth)]) == \
        {"codes": [0, 0, 0], "printed": [EMPTY] * 3, "scipy": []}
    for name in ("canny", "mh"):
        assert sha256(tmp_path / f"{name}.pgm") == DETECT[f"readme-{name}"][1]
    inside = read_image(image).pixels == 1.0
    assert np.array_equal(read_image(truth).pixels == 1.0, erosion_ring(inside))


def test_sparse_scoring_within_the_bound_never_loads_scipy(tmp_path):
    report = tmp_path / "noisy-step.csv"
    assert run_fresh(["compare", "--suite", "noisy-step", "--format", "csv", "--out", str(report)],
                     ["evaluate", "--scene", "step", "--detector", "canny"],
                     ["evaluate", "--scene", "circle", *EVALUATE["mh"][0]]) == \
        {"codes": [0, 0, 0], "printed": [EMPTY, STEP_CANNY_RECORD, EVALUATE["mh"][1]], "scipy": []}
    assert sha256(report) == COMPARE["noisy-step"]


def test_dense_links_and_scoring_load_scipy_on_first_use(scene_path, tmp_path):
    edges, report = tmp_path / "mh-hysteresis.pgm", tmp_path / "circle.csv"
    # the circle's Canny plane is dense enough for ndimage.label, and the
    # tolerance 3.5 is above the offsets' bound
    for argv in (detect_argv(scene_path, edges, "readme-mh-hysteresis"),
                 ["compare", "--suite", "circle", "--format", "csv", "--out", str(report)],
                 ["evaluate", "--scene", "step", "--detector", "canny", "--tolerance", "3.5"]):
        out = run_fresh(argv)
        assert out["codes"] == [0] and "scipy.ndimage" in out["scipy"], argv
    assert sha256(edges) == DETECT["readme-mh-hysteresis"][1]
    assert sha256(report) == COMPARE["circle"]
