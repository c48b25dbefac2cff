"""Benchmark for edgebench: the sweep, detect and compare workloads.

    python3 perfbench/run.py --workload detect --seed 1 --seconds 30 --trace 0

One client runs ops in a closed loop: the next op starts when the previous
one has ended. The loop runs whole rotations over the workload's op keys
and stops at the rotation boundary nearest to --seconds, so every run
weighs each kind of op alike. Every op's output is checked. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. A results file with the machine context and every op, and with
--trace 1 the spans as JSON lines, is written to perfbench/out/.

    python3 perfbench/run.py --smoke           # each workload, a few ops, outputs checked
    python3 perfbench/run.py --record-digests  # pin the default seed's outputs

WORKLOADS.md says why each workload is there and which layers it stresses.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120


def timed(wl, key):
    """Run one op; return (milliseconds, output digest or None, error or None)."""
    start = time.perf_counter()
    try:
        result = wl.op(key)
        ms = (time.perf_counter() - start) * 1e3
        return ms, hashlib.sha256(wl.output(key, result)).hexdigest(), None
    except Exception as exc:  # a failed op is counted, and the loop goes on
        return (time.perf_counter() - start) * 1e3, None, f"{type(exc).__name__}: {exc}"


def run_op(wl, key, op_id, expected, tracer=None) -> dict:
    """One op, checked against the expected digest of its key.

    A key seen for the first time with no pinned digest sets the expectation,
    so later ops of that key must repeat its output. With a tracer the op
    runs a second time traced, and must give the same output again.
    """
    start = time.perf_counter()
    ms, digest, error = timed(wl, key)
    if error is None and expected.setdefault(key, digest) != digest:
        error = f"output {digest[:16]} differs from expected {expected[key][:16]}"
    record = {"op": op_id, "key": key, "kind": wl.kind(key), "start": start, "ms": ms, "digest": digest, "error": error}
    if tracer is not None:
        tracer.install()
        tracer.begin_op(op_id)
        try:
            record["traced_ms"], traced_digest, traced_error = timed(wl, key)
        finally:
            tracer.end_op()
            tracer.uninstall()
        if traced_error is None and traced_digest != digest:
            traced_error = "traced output differs from the untraced output"
        if traced_error and not error:
            record["error"] = f"traced op: {traced_error}"
    return record


def measure(wl, keys, expected, seconds=None, tracer=None, meter=None):
    """Run rotations over keys; one rotation when seconds is None.

    With a meter, reference samples are interleaved with the ops and each
    record gets its host-speed scale and scaled time. Returns (op records,
    elapsed seconds, rotations).
    """
    records = []
    rotations = 0
    start = time.perf_counter()
    while True:
        for key in keys:
            records.append(run_op(wl, key, len(records), expected, tracer))
            if meter is not None:
                meter.keep_up(records[-1]["ms"] / 1e3)
        rotations += 1
        elapsed = time.perf_counter() - start
        if seconds is None or elapsed + elapsed / rotations / 2 >= seconds:
            break
    if meter is not None:
        for r in records:
            r["scale"] = meter.scale(r["start"], r["start"] + r["ms"] / 1e3)
            r["scaled_ms"] = r["ms"] * r["scale"]
    return records, elapsed, rotations


def probe_setup(name: str, workdir: Path) -> int:
    """Child process: time the package import plus one warm-up op, as the
    parent does for itself."""
    start = time.perf_counter()
    import edgebench  # noqa: F401
    import edgebench.cli  # noqa: F401
    import_s = time.perf_counter() - start

    from workloads import DEFAULT_SEED, WORKLOADS

    wl = WORKLOADS[name](DEFAULT_SEED, workdir)
    key = wl.keys[0]
    wl.prepare([key])
    ms, digest, error = timed(wl, key)
    print(json.dumps({"setup_s": import_s + ms / 1e3, "import_s": import_s, "key": key,
                      "digest": digest, "error": error}))
    return 0


def run_probe(name: str, workdir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--probe-setup", "--workload", name, "--workdir", str(workdir)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    """HEAD of the enclosing git checkout, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def context() -> dict:
    import numpy
    import scipy

    src_lines = sum(1 for path in SRC.rglob("*.py")
                    for line in path.read_text().splitlines() if line.strip())
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "git_commit": git_commit(),
            "src_lines": src_lines}


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def bench(args, workdir: Path, import_start: float, import_s: float) -> int:
    from speed import NOMINAL_MS, SpeedMeter
    from stats import by_kind, failed_ratio, latency
    from tracer import Tracer
    from workloads import DEFAULT_SEED, WORKLOADS

    cls = WORKLOADS[args.workload]
    pinned = load_digests()[args.workload]
    wl = cls(args.seed, workdir)
    wl.prepare(wl.keys)
    expected = dict(pinned) if args.seed == DEFAULT_SEED else {}
    checks = {"outputs": "pinned digests" if expected else "repeatable across ops of one key"}

    # The warm-up op of every run, and of every setup probe, is the default
    # seed's first op, checked against its pinned digest whatever the seed.
    canary = cls(DEFAULT_SEED, workdir)
    canary_key = canary.keys[0]
    canary.prepare([canary_key])
    ms, digest, error = timed(canary, canary_key)
    setup = [{"setup_s": import_s + ms / 1e3, "import_s": import_s, "key": canary_key,
              "digest": digest, "error": error, "window": (import_start, time.perf_counter())}]
    meter = None
    if not args.trace:
        meter = SpeedMeter()
        meter.sample(4)
        for _ in range(SETUP_SAMPLES - 1):
            start = time.perf_counter()
            setup.append(run_probe(args.workload, workdir))
            setup[-1]["window"] = (start, time.perf_counter())
            meter.sample(4)
        for sample in setup:
            sample["scaled_setup_s"] = sample["setup_s"] * meter.scale(*sample.pop("window"))
    problems = [f"warm-up: {p['error'] or 'output differs from the pinned digest'}"
                for p in setup if p["error"] or p["digest"] != pinned[canary_key]]

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        coverage = tracer.coverage_problems()
        tracer.uninstall()
        checks["trace_coverage"] = coverage or "every public function is wrapped where it is bound"
        problems += [f"trace coverage: {p}" for p in coverage]

    records, elapsed, rotations = measure(wl, wl.keys, expected, args.seconds, tracer, meter)
    failed = sum(1 for r in records if r["error"])
    summary = {"ops": len(records), "rotations": rotations, "elapsed_s": elapsed,
               "failed_ops_ratio": failed_ratio(failed, len(records)),
               "raw": latency(by_kind(records, "ms"))}
    if args.trace:
        traced = latency(by_kind(records, "traced_ms"))
        summary["traced"] = traced
        metrics = tracer.metrics(traced["p50"] / summary["raw"]["p50"])
        checks["absent_metrics"] = tracer.absent
    else:
        scaled = latency(by_kind(records, "scaled_ms"))
        summary["scaled"] = scaled
        refs = [ms for _, ms in meter.samples]
        summary["reference"] = {"nominal_ms": NOMINAL_MS, "samples": len(refs), "median_ms": statistics.median(refs),
                                "min_ms": min(refs), "max_ms": max(refs)}
        summary["setup_samples"] = setup
        scaled_total_s = sum(r["scaled_ms"] for r in records) / 1e3
        metrics = {
            "ops_per_s": {"value": len(records) / scaled_total_s, "unit": "1/s"},
            "op_p50_ms": {"value": scaled["p50"], "unit": "ms"},
            "op_tail_ms": {"value": scaled["tail"]["value"], "unit": "ms"},
            "setup_s": {"value": statistics.median(p["scaled_setup_s"] for p in setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    checks["problems"] = problems
    result = {"correct": not problems and failed == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    if tracer is not None:
        tracer.write_spans(stem.with_name(stem.name + "-spans.jsonl"))
    stem.with_suffix(".json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": int(args.trace),
         "context": context(), "result": result, "summary": summary, "checks": checks, "ops": records},
        indent=1) + "\n")
    for problem in problems + [f"op {r['op']} {r['key']}: {r['error']}" for r in records if r["error"]]:
        print(problem, file=sys.stderr)
    print(f"results: {stem.with_suffix('.json').relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def smoke(workdir: Path) -> int:
    """Every workload on the default seed: each key once against its pinned
    digest, then the first key traced, with the coverage check."""
    from tracer import Tracer
    from workloads import DEFAULT_SEED, WORKLOADS

    pinned = load_digests()
    attempted = failed = 0
    ok = True
    for name, cls in WORKLOADS.items():
        wl = cls(DEFAULT_SEED, workdir)
        wl.prepare(wl.keys)
        expected = dict(pinned[name])
        records, _, _ = measure(wl, wl.keys, expected)
        tracer = Tracer()
        tracer.install()
        coverage = tracer.coverage_problems()
        tracer.uninstall()
        traced, _, _ = measure(wl, wl.keys[:1], expected, tracer=tracer)
        bad = [f"{r['key']}: {r['error']}" for r in records + traced if r["error"]] + coverage
        attempted += len(records) + len(traced)
        failed += sum(1 for r in records + traced if r["error"])
        ok = ok and not bad and tracer.ops == 1 and tracer.spans != []
        print(f"{name}: {len(records) + len(traced)} ops, {len(tracer.spans)} spans, "
              + ("ok" if not bad else "; ".join(bad)))
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": {}}))
    return 0 if ok else 1


def record_digests(workdir: Path) -> int:
    """Pin every op output of the default seed. Run only on a commit whose
    outputs are known to be right."""
    from workloads import DEFAULT_SEED, WORKLOADS

    digests = {}
    for name, cls in WORKLOADS.items():
        wl = cls(DEFAULT_SEED, workdir)
        wl.prepare(wl.keys)
        digests[name] = {}
        for key in wl.keys:
            _, digest, error = timed(wl, key)
            if error:
                print(f"{name} {key}: {error}", file=sys.stderr)
                return 1
            digests[name][key] = digest
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("sweep", "detect", "compare"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="check every workload on a few ops")
    parser.add_argument("--record-digests", action="store_true", help="pin the default seed's outputs")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.smoke or args.record_digests or args.workload):
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    package = SRC / "edgebench"
    if not (package / "__init__.py").is_file():
        print(f"run.py: no edgebench package at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        return probe_setup(args.workload, Path(args.workdir))
    import_start = time.perf_counter()
    import edgebench
    import edgebench.cli  # noqa: F401
    import_s = time.perf_counter() - import_start

    if Path(edgebench.__file__).resolve().parent != package.resolve():
        print(f"run.py: imported edgebench from {edgebench.__file__}, not {package}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.record_digests:
            return record_digests(workdir)
        if args.smoke:
            return smoke(workdir)
        return bench(args, workdir, import_start, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
