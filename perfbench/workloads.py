"""The three benchmark workloads: inputs made from a seed, one op each, and
the bytes that identify an op's output.

Every call into edgebench goes through a module attribute looked up at call
time (``ev.tune_canny``, ``cli.run``), so the tracer's wrappers see it.
"""

import io
from pathlib import Path

import numpy as np

import edgebench.cli as cli
import edgebench.evaluation as ev

# Outputs on this seed are pinned in digests.json; other seeds are checked
# for determinism across repeated ops.
DEFAULT_SEED = 0

SWEEP_SCENES_PER_RUN = 3
SWEEP_SIGMA = 1.0
SWEEP_TOLERANCE = 1.5

DETECT_SIZE = 1024
DETECT_SHAPES = 40
DETECT_NOISE = 0.02
DETECT_FORMATS = ("p5-8", "p5-16", "p6", "p2")
# the three invocations the README documents for `edgebench detect`
DETECT_INVOCATIONS = {
    "canny": ["--detector", "canny", "--sigma", "1.4", "--low", "0.05", "--high", "0.15"],
    "mh": ["--detector", "marr-hildreth", "--slope-threshold", "0.02"],
    "mh-hyst": ["--detector", "marr-hildreth", "--mh-hysteresis", "--low", "0.01", "--high", "0.05"],
}

COMPARE_SUITES = ("noisy-step", "circle", "rectangle-corners")


class OpFailed(Exception):
    """An op exited non-zero or produced output of the wrong shape."""


class Sweep:
    """One op grid-searches the thresholds of both detectors on one 64x64
    noisy step: tune_canny, tune_mh and tune_mh with hysteresis linking."""

    name = "sweep"

    def __init__(self, seed: int, workdir: Path):
        first = seed * SWEEP_SCENES_PER_RUN
        self.keys = [f"scene-seed{first + k}" for k in range(SWEEP_SCENES_PER_RUN)]
        self._scene_seed = {key: first + k for k, key in enumerate(self.keys)}
        self._scenes = {}

    def prepare(self, keys) -> None:
        for key in keys:
            self._scenes[key] = sweep_scene(self._scene_seed[key])

    def kind(self, key) -> str:
        # the scenes are draws of one random scene model, so timing
        # statistics pool them; outputs are still checked per scene
        return "tune"

    def op(self, key):
        scene = self._scenes[key]
        return (
            ev.tune_canny(scene, SWEEP_SIGMA, SWEEP_TOLERANCE),
            ev.tune_mh(scene, SWEEP_SIGMA, SWEEP_TOLERANCE),
            ev.tune_mh(scene, SWEEP_SIGMA, SWEEP_TOLERANCE, use_hysteresis=True),
        )

    def output(self, key, result) -> bytes:
        # dataclass reprs print every float with round-trip precision
        for params, report in result:
            for rate in (report.false_positive_rate, report.false_negative_rate):
                if not 0.0 <= rate <= 1.0:
                    raise OpFailed(f"rate {rate} outside [0, 1] in {report!r}")
        return repr(result).encode("utf-8")


def sweep_scene(scene_seed: int):
    """The criterion-5 scene: 64x64 step, contrast 0.5, noise stddev 0.1."""
    return ev.noisy_step_suite([scene_seed], size=64, contrast=0.5, noise_stddev=0.1)[0]


def detect_composite(seed: int, size: int = DETECT_SIZE):
    """Noisy piecewise-constant colour composite of discs and rectangles.

    Returns (gray, rgb) float planes in [0, 1]. Each shape has one gray
    level and a colour near it, so edges show in both planes; each plane
    gets its own noise.
    """
    rng = np.random.default_rng(seed)
    clean = np.empty((size, size))
    tint = np.empty((size, size, 3))
    ys = np.arange(size)[:, None]
    xs = np.arange(size)[None, :]
    clean[:], tint[:] = rng.uniform(0.1, 0.9), rng.uniform(-0.1, 0.1, 3)
    for _ in range(DETECT_SHAPES):
        level, colour = rng.uniform(0.1, 0.9), rng.uniform(-0.1, 0.1, 3)
        if rng.random() < 0.5:
            cx, cy = rng.uniform(0, size, 2)
            radius = rng.uniform(0.02, 0.16) * size
            inside = (xs - cx) ** 2 + (ys - cy) ** 2 <= radius * radius
        else:
            x0, y0 = rng.integers(0, size, 2)
            w, h = rng.integers(size // 32, size // 3, 2)
            inside = np.zeros((size, size), dtype=bool)
            inside[y0:y0 + h, x0:x0 + w] = True
        clean[inside], tint[inside] = level, colour
    rgb = np.clip(clean[..., None] + tint + rng.normal(0.0, DETECT_NOISE, tint.shape), 0.0, 1.0)
    gray = np.clip(clean + rng.normal(0.0, DETECT_NOISE, clean.shape), 0.0, 1.0)
    return gray, rgb


def _quantise(plane, maxval: int, dtype):
    return np.floor(plane * maxval + 0.5).astype(dtype)


def encode_netpbm(fmt: str, gray, rgb) -> bytes:
    """Encode the composite in one of DETECT_FORMATS."""
    h, w = gray.shape
    if fmt == "p5-8":
        return f"P5\n{w} {h}\n255\n".encode() + _quantise(gray, 255, np.uint8).tobytes()
    if fmt == "p5-16":
        return f"P5\n{w} {h}\n65535\n".encode() + _quantise(gray, 65535, ">u2").tobytes()
    if fmt == "p6":
        return f"P6\n{w} {h}\n255\n".encode() + _quantise(rgb, 255, np.uint8).tobytes()
    if fmt == "p2":
        buf = io.BytesIO()
        buf.write(f"P2\n{w} {h}\n255\n".encode())
        # 16 samples per line keeps lines under the 70 characters netpbm asks for
        np.savetxt(buf, _quantise(gray, 255, np.uint8).reshape(-1, 16), fmt="%d")
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


class Detect:
    """One op is one `edgebench detect` CLI call on a 1024x1024 file."""

    name = "detect"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        # 4 formats and 3 invocations are coprime, so every window of
        # consecutive ops mixes cheap and costly calls
        self.keys = [f"{DETECT_FORMATS[i % 4]}/{list(DETECT_INVOCATIONS)[i % 3]}" for i in range(12)]
        self._out = self.workdir / f"edges-seed{seed}.pgm"

    def input_path(self, fmt: str) -> Path:
        return self.workdir / f"input-seed{self.seed}.{fmt}.pnm"

    def prepare(self, keys) -> None:
        """Write the input files the keys need and the work directory lacks."""
        missing = sorted({key.split("/")[0] for key in keys if not self.input_path(key.split("/")[0]).exists()})
        if missing:
            gray, rgb = detect_composite(self.seed)
            for fmt in missing:
                self.input_path(fmt).write_bytes(encode_netpbm(fmt, gray, rgb))

    def kind(self, key) -> str:
        return key

    def op(self, key):
        fmt, invocation = key.split("/")
        argv = ["detect", "--in", str(self.input_path(fmt)), "--out", str(self._out)]
        return cli.run(argv + DETECT_INVOCATIONS[invocation])

    def output(self, key, result) -> bytes:
        if result != 0:
            raise OpFailed(f"detect {key} exited {result}")
        data = self._out.read_bytes()
        header = f"P5\n{DETECT_SIZE} {DETECT_SIZE}\n255\n".encode()
        body = np.frombuffer(data[len(header):], dtype=np.uint8)
        if not data.startswith(header) or body.size != DETECT_SIZE ** 2 or not np.isin(body, (0, 255)).all():
            raise OpFailed(f"detect {key} wrote a malformed edge map")
        return data


class Compare:
    """One op is one `edgebench compare` CLI call with default flags."""

    name = "compare"

    def __init__(self, seed: int, workdir: Path):
        self.keys = list(COMPARE_SUITES)
        first = 10 * seed
        self._seeds = f"{first}..{first + 9}"
        self._out = Path(workdir) / f"report-seed{seed}.csv"

    def prepare(self, keys) -> None:
        pass

    def kind(self, key) -> str:
        return key

    def op(self, key):
        argv = ["compare", "--suite", key, "--out", str(self._out)]
        if key == "noisy-step":
            argv += ["--seeds", self._seeds]
        return cli.run(argv)

    def output(self, key, result) -> bytes:
        if result != 0:
            raise OpFailed(f"compare {key} exited {result}")
        data = self._out.read_bytes()
        lines = data.decode("utf-8").splitlines()
        rows = 20 if key == "noisy-step" else 2
        if lines[0] != ",".join(ev.CSV_COLUMNS) or len(lines) != rows + 1:
            raise OpFailed(f"compare {key} wrote a malformed report")
        return data


WORKLOADS = {cls.name: cls for cls in (Sweep, Detect, Compare)}
