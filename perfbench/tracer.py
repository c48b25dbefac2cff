"""Spans and counts around edgebench's public functions, from outside.

install() wraps every public function of the six layer modules and rebinds
each module attribute that refers to one, in every ``edgebench.*``
namespace, so calls from one module into another (evaluation ->
canny.hysteresis) are seen too. uninstall() puts the originals back.
Spans stay in memory until write_spans().
"""

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("image_core", "filtering", "canny", "marr_hildreth", "evaluation", "cli")

# functions whose self time is reported, and those whose call count is
SELF_MS = (
    "image_core.read_image", "image_core.write_image", "image_core.rgb_to_gray",
    "filtering.convolve_separable", "filtering.convolve_2d",
    "canny.gradient", "canny.nonmax_suppress", "canny.hysteresis",
    "marr_hildreth.laplacian_of_smoothed", "marr_hildreth.crossing_slope_map",
    "evaluation.score", "evaluation.tune_canny", "evaluation.tune_mh",
    "cli.run",
)
CALLS = ("filtering.convolve_separable", "canny.hysteresis", "evaluation.score")


def _read_image(args, result):
    return {"image_core.read_image.bytes": os.path.getsize(args["path"])}


def _nonmax_suppress(args, result):
    return {"canny.nonmax_suppress.kept_px": np.count_nonzero(result.pixels)}


def _hysteresis(args, result):
    return {"canny.hysteresis.seed_px": np.count_nonzero(args["thinned"].pixels > args["high"]),
            "canny.hysteresis.linked_px": result.count}


def _crossing_slope_map(args, result):
    return {"marr_hildreth.crossing_px": np.count_nonzero(result.pixels)}


def _score(args, result):
    return {"evaluation.score.points": result.detected_count + result.truth_count}


# name -> (counter, per-op distinct key for a ratio, or None). A key
# function returns (key, object); holding the object keeps its id unique
# within the op.
COUNTERS = {
    "image_core.read_image": (_read_image, None),
    "filtering.convolve_separable": (None, lambda a: (id(a["img"]), a["img"])),
    "canny.nonmax_suppress": (_nonmax_suppress, None),
    "canny.hysteresis": (_hysteresis, lambda a: ((id(a["thinned"]), a["low"]), a["thinned"])),
    "marr_hildreth.crossing_slope_map": (_crossing_slope_map, None),
    "evaluation.score": (_score, None),
}

# ratio metric -> function whose calls are divided by its distinct keys, op by op
RATIOS = {
    "filtering.blurs_per_image": "filtering.convolve_separable",
    "canny.hysteresis.calls_per_low": "canny.hysteresis",
}

COUNT_METRICS = (
    ("image_core.read_image.bytes", "bytes"),
    ("canny.nonmax_suppress.kept_px", "px"),
    ("canny.hysteresis.seed_px", "px"),
    ("canny.hysteresis.linked_px", "px"),
    ("marr_hildreth.crossing_px", "px"),
    ("evaluation.score.points", "count"),
)


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{name}.self_ms": "ms" for name in SELF_MS}
    units.update({f"{layer}.self_ms": "ms" for layer in LAYERS})
    units.update({f"{name}.calls": "count" for name in CALLS})
    units.update(dict(COUNT_METRICS))
    units.update({name: "ratio" for name in RATIOS})
    units["trace.spans_per_op"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _edgebench_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name == "edgebench" or name.startswith("edgebench.")]


class Tracer:
    """Records one span per wrapped call: id, parent id, op id, name,
    start, end and self time (duration minus what child spans and the
    tracer's own counting cover)."""

    def __init__(self):
        self.spans = []
        self.absent = {}
        self._next_id = 0
        self._stack = []
        self._op = None
        self._epoch = time.perf_counter_ns()
        self._functions = {}  # id(original) -> (name, original, wrapper)
        self._bindings = []   # (module, attribute, original)
        self._self_ns = defaultdict(int)
        self._calls = defaultdict(int)
        self._counts = defaultdict(int)
        self._distinct_totals = defaultdict(int)
        self._distinct = defaultdict(dict)
        self.ops = 0
        for layer in LAYERS:
            mod = importlib.import_module(f"edgebench.{layer}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    self._functions[id(obj)] = (name, obj, self._wrap(name, obj))
        wrapped = {name for name, _, _ in self._functions.values()}
        for name in set(SELF_MS) | set(COUNTERS):
            if name not in wrapped:
                self.absent[name] = f"edgebench.{name} is not a public function"

    def _wrap(self, name, fn):
        counter, distinct_key = COUNTERS.get(name, (None, None))
        signature = inspect.signature(fn)
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, 0]
            tracer._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self_ns = end - start - frame[1]
                tracer.spans.append((frame[0], parent[0] if parent else None, tracer._op, name,
                                     start - tracer._epoch, end - tracer._epoch, self_ns))
                tracer._self_ns[name] += self_ns
                tracer._calls[name] += 1
                if parent is not None:
                    parent[1] += end - start
            if counter or distinct_key:
                tracer._count(name, signature, counter, distinct_key, args, kwargs, result)
                if parent is not None:
                    parent[1] += clock() - end
            return result

        return functools.update_wrapper(traced, fn)

    def _count(self, name, signature, counter, distinct_key, args, kwargs, result):
        try:
            bound = signature.bind(*args, **kwargs).arguments
            if counter:
                for metric, value in counter(bound, result).items():
                    self._counts[metric] += int(value)
            if distinct_key:
                key, held = distinct_key(bound)
                self._distinct[name][key] = held
        except (TypeError, KeyError, AttributeError) as exc:
            self.absent.setdefault(name, f"counting failed: {exc!r}")

    def install(self) -> None:
        """Rebind every edgebench.* attribute that holds a wrapped function."""
        for mod in _edgebench_modules():
            for attr, obj in list(vars(mod).items()):
                entry = self._functions.get(id(obj))
                if entry is not None and entry[1] is obj:
                    setattr(mod, attr, entry[2])
                    self._bindings.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, original in self._bindings:
            setattr(mod, attr, original)
        self._bindings.clear()

    def coverage_problems(self) -> list:
        """Names in edgebench.* namespaces that do not point to their wrapper."""
        problems = []
        for mod in _edgebench_modules():
            for attr, obj in vars(mod).items():
                if id(obj) in self._functions and self._functions[id(obj)][1] is obj:
                    problems.append(f"{mod.__name__}.{attr} still points to the unwrapped function")
        for mod, attr, original in self._bindings:
            if getattr(mod, attr) is not self._functions[id(original)][2]:
                problems.append(f"{mod.__name__}.{attr} does not point to its wrapper")
        return problems

    def begin_op(self, op_id: int) -> None:
        self._op = op_id

    def end_op(self) -> None:
        for name, keys in self._distinct.items():
            self._distinct_totals[name] += len(keys)
        self._distinct.clear()
        self._op = None
        self.ops += 1

    def metrics(self, overhead_ratio: float) -> dict:
        """Per-op means of every per-layer metric over the traced ops."""
        ops = max(self.ops, 1)
        values = {f"{name}.self_ms": self._self_ns[name] / ops / 1e6 for name in SELF_MS}
        for layer in LAYERS:
            values[f"{layer}.self_ms"] = sum(
                ns for name, ns in self._self_ns.items() if name.split(".")[0] == layer) / ops / 1e6
        values.update({f"{name}.calls": self._calls[name] / ops for name in CALLS})
        values.update({metric: self._counts[metric] / ops for metric, _ in COUNT_METRICS})
        for metric, name in RATIOS.items():
            distinct = self._distinct_totals[name]
            values[metric] = self._calls[name] / distinct if distinct else 0.0
        values["trace.spans_per_op"] = len(self.spans) / ops
        values["trace.overhead_ratio"] = overhead_ratio
        units = per_layer_units()
        return {name: {"value": values[name], "unit": units[name]} for name in units}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end, self_ns in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start_ns": start, "end_ns": end, "self_ns": self_ns}) + "\n")
