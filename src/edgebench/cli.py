"""Command-line interface: detect, synth, evaluate, compare.

Exit codes: 0 success, 1 bad flags or parameter values or out of memory, 2 I/O failure.
"""

import argparse
import functools
import sys

from .canny import CannyParams, _canny_from_smoothed, canny_detect
from .evaluation import (
    EvalReport,
    Scene,
    add_gaussian_noise,
    circle_scene,
    comparison_record,
    noisy_step_suite,
    records_to_csv,
    records_to_json,
    rectangle_scene,
    run_comparison,
    score,
    synth_circle,
    synth_rectangle,
    synth_step,
)
from .filtering import _smooth
from .image_core import FormatError, TruncationError, _read_gray, _write_mask, atomic_write_bytes, write_image
from .marr_hildreth import MHParams, _mh_from_smoothed, mh_detect

__all__ = ["main", "run"]

_DETECTORS = {"canny": canny_detect, "marr-hildreth": mh_detect}
# the detectors after their blur, on float64 planes with no wraps
_FROM_SMOOTHED = {"canny": _canny_from_smoothed, "marr-hildreth": _mh_from_smoothed}
_SUITES = ("noisy-step", "circle", "rectangle-corners")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_detector_flags(parser) -> None:
    parser.add_argument("--sigma", type=float, default=1.0, help="Gaussian smoothing width")
    parser.add_argument("--radius", type=int, default=None,
                        help="Gaussian kernel radius (default ceil(3*sigma))")
    parser.add_argument("--low", type=float, default=0.05, help="low hysteresis threshold")
    parser.add_argument("--high", type=float, default=0.15, help="high hysteresis threshold")
    parser.add_argument("--slope-threshold", type=float, default=0.0,
                        help="zero-crossing slope threshold (marr-hildreth)")
    parser.add_argument("--mh-hysteresis", action="store_true",
                        help="link marr-hildreth crossings with the low/high pair instead of slope-threshold")


def _add_scene_flags(parser) -> None:
    parser.add_argument("--scene", required=True, choices=("step", "circle", "rectangle"))
    parser.add_argument("--width", type=int, default=64, help="step scene width")
    parser.add_argument("--height", type=int, default=64, help="step scene height")
    parser.add_argument("--column", type=int, default=32, help="step scene edge column")
    parser.add_argument("--contrast", type=float, default=0.5, help="step scene contrast")
    parser.add_argument("--size", type=int, default=64, help="circle/rectangle scene side")
    parser.add_argument("--cx", type=float, default=31.5, help="circle centre x")
    parser.add_argument("--cy", type=float, default=31.5, help="circle centre y")
    parser.add_argument("--circle-radius", type=float, default=19.2, help="circle radius")
    parser.add_argument("--x0", type=int, default=16)
    parser.add_argument("--y0", type=int, default=16)
    parser.add_argument("--x1", type=int, default=47)
    parser.add_argument("--y1", type=int, default=47)
    parser.add_argument("--noise-stddev", type=float, default=0.0, help="Gaussian noise level")
    parser.add_argument("--seed", type=int, default=0, help="noise seed")


@functools.cache
def _parser() -> _Parser:
    # built on the first run() and reused by every later one in the process
    parser = _Parser(prog="edgebench", description=__doc__,
                     formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="run one detector on a PGM/PPM file",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--detector", required=True, choices=_DETECTORS)
    p.add_argument("--in", dest="in_path", required=True, metavar="PATH", help="input PGM/PPM image")
    p.add_argument("--out", dest="out_path", required=True, metavar="PATH", help="output edge-map PGM")
    _add_detector_flags(p)
    p.set_defaults(handler=_cmd_detect)

    p = sub.add_parser("synth", help="write a synthetic scene and its ground truth",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_scene_flags(p)
    p.add_argument("--out-image", required=True, metavar="PATH", help="scene image PGM")
    p.add_argument("--out-truth", required=True, metavar="PATH", help="ground-truth PGM")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("evaluate", help="score one detector on one synthetic scene",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--detector", required=True, choices=_DETECTORS)
    _add_scene_flags(p)
    _add_detector_flags(p)
    p.add_argument("--tolerance", type=float, default=1.5, help="match tolerance in pixels")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("compare", help="run both detectors over a built-in scene suite",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--suite", required=True, choices=_SUITES)
    p.add_argument("--seeds", default="0..9", help="noise seeds for the noisy-step suite, e.g. 3, 0..9 or 1,4,7")
    p.add_argument("--noise-stddev", type=float, default=0.1, help="noisy-step noise level")
    _add_detector_flags(p)
    p.add_argument("--tolerance", type=float, default=1.5, help="match tolerance in pixels")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", dest="out_path", default=None, metavar="PATH",
                   help="report file (stdout when omitted)")
    p.set_defaults(handler=_cmd_compare)

    return parser


def _parse_seeds(text: str) -> list:
    try:
        if ".." in text:
            first, last = text.split("..")
            seeds = list(range(int(first), int(last) + 1))
        else:
            seeds = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"seeds must look like '3', '1,4,7' or '0..9', got {text!r}") from None
    if not seeds:
        raise ValueError("at least one seed is required")
    return seeds


def _params(args, detector: str) -> "CannyParams | MHParams":
    # built from the flags, and so checked, for the named detector only
    if detector == "canny":
        return CannyParams(sigma=args.sigma, low=args.low, high=args.high, radius=args.radius)
    return MHParams(sigma=args.sigma, slope_threshold=args.slope_threshold,
                    use_hysteresis=args.mh_hysteresis, low=args.low, high=args.high, radius=args.radius)


def _build_scene(args) -> Scene:
    if args.scene == "step":
        scene = synth_step(args.width, args.height, args.column, args.contrast)
    elif args.scene == "circle":
        scene = synth_circle(args.size, (args.cx, args.cy), args.circle_radius)
    else:
        scene = synth_rectangle(args.size, args.x0, args.y0, args.x1, args.y1)
    if args.noise_stddev:
        scene = Scene(add_gaussian_noise(scene.image, args.noise_stddev, args.seed),
                      scene.truth, scene.name)
    return scene


def _record(scene: str, detector: str, report: EvalReport, params: "CannyParams | MHParams", seed) -> dict:
    # only the thresholds the detector actually consulted go into the row
    if isinstance(params, MHParams) and not params.use_hysteresis:
        thresholds = {"slope_threshold": params.slope_threshold}
    else:
        thresholds = {"low": params.low, "high": params.high}
    return comparison_record(scene, detector, report, sigma=params.sigma, seed=seed, **thresholds)


def _emit(records, fmt: str, out_path) -> None:
    text = records_to_csv(records) if fmt == "csv" else records_to_json(records)
    if out_path is None:
        sys.stdout.write(text)
    else:
        atomic_write_bytes(out_path, text.encode("utf-8"))


def _cmd_detect(args) -> int:
    params = _params(args, args.detector)  # checked before any file is opened
    # the public route's bytes, from read to write on raw planes
    smoothed = _smooth(_read_gray(args.in_path), params.sigma, params.radius)
    _write_mask(_FROM_SMOOTHED[args.detector](smoothed, params), args.out_path)
    return 0


def _cmd_synth(args) -> int:
    scene = _build_scene(args)
    write_image(scene.image, args.out_image)
    write_image(scene.truth, args.out_truth)
    return 0


def _cmd_evaluate(args) -> int:
    scene = _build_scene(args)
    params = _params(args, args.detector)
    report = score(_DETECTORS[args.detector](scene.image, params), scene.truth, args.tolerance)
    seed = args.seed if args.noise_stddev else None
    _emit([_record(scene.name, args.detector, report, params, seed)], args.format, None)
    return 0


def _cmd_compare(args) -> int:
    params = {detector: _params(args, detector) for detector in _DETECTORS}
    if args.suite == "noisy-step":
        seeds = _parse_seeds(args.seeds)
        scenes = noisy_step_suite(seeds, noise_stddev=args.noise_stddev)
        seed_of = {scene.name: seed for scene, seed in zip(scenes, seeds)}
    elif args.suite == "circle":
        scenes = [circle_scene()]
        seed_of = {}
    else:
        scenes = [rectangle_scene()]
        seed_of = {}

    rows = run_comparison(scenes, params["marr-hildreth"], params["canny"], args.tolerance)
    records = [_record(name, detector, report, params[detector], seed_of.get(name)) for name, detector, report in rows]
    _emit(records, args.format, args.out_path)
    return 0


def run(argv=None) -> int:
    """Parse argv and execute one subcommand, mapping failures to exit codes."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        return args.handler(args)
    except (FormatError, TruncationError, OSError) as exc:
        print(f"edgebench: i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"edgebench: invalid parameters: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"edgebench: out of memory: {str(exc) or 'an allocation was refused'}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
