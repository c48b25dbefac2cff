"""scipy is imported on first use, not with the package.

detect with Canny below the sparse-link switch, detect with Marr-Hildreth
in slope mode, and synth must never load it. detect with Marr-Hildreth
hysteresis, which labels a dense plane, and compare, which transforms the
truth's distances, still load it. Each case runs the CLI in a fresh
interpreter with src on PYTHONPATH, which reports its exit codes and the
scipy modules it loaded, and the files it writes keep their golden bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from edgebench.image_core import read_image
from oracles import erosion_ring
from test_golden import COMPARE, DETECT, scene_path, sha256  # noqa: F401 (scene_path is a fixture)

SRC = Path(__file__).resolve().parents[1] / "src"

# run each argv of the JSON list argv[1] through cli.run, then print the exit
# codes and the scipy modules loaded
SCRIPT = """
import json, sys
import edgebench, edgebench.cli
codes = [edgebench.cli.run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


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
        {"codes": [0, 0, 0], "scipy": []}
    for name in ("canny", "mh"):
        assert sha256(tmp_path / f"{name}.pgm") == DETECT[f"readme-{name}"][1]
    inside = read_image(image).pixels == 1.0
    assert np.array_equal(read_image(truth).pixels == 1.0, erosion_ring(inside))


def test_dense_links_and_scoring_load_scipy_on_first_use(scene_path, tmp_path):
    edges, report = tmp_path / "mh-hysteresis.pgm", tmp_path / "circle.csv"
    for argv in (detect_argv(scene_path, edges, "readme-mh-hysteresis"),
                 ["compare", "--suite", "circle", "--format", "csv", "--out", str(report)]):
        out = run_fresh(argv)
        assert out["codes"] == [0] and "scipy.ndimage" in out["scipy"], argv
    assert sha256(edges) == DETECT["readme-mh-hysteresis"][1]
    assert sha256(report) == COMPARE["circle"]
