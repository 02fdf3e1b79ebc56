"""Spans around rooflm's public functions, installed from outside the package.

Every public function of a traced layer is replaced, at each module attribute
that names it (the defining module, every module that imported it by name,
and the package namespace), by a wrapper that records a span: layer,
function, start, end and the enclosing span. Leaving ``traced`` puts the
original objects back, so untraced passes run without spans.

Per-step functions are not spanned: one sweep point calls them thousands of
times. Their work is counted instead from the lengths of the schedules handed
to ``total_cost`` and ``count_schedule``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYERS = ("config", "cli", "schedule", "analytic", "roofline", "throughput", "memory", "sweep", "oracle")
UNSPANNED = frozenset({"step_cost", "count_forward"})

# span fields
LAYER, NAME, START, END, PARENT = range(5)


class Tracer:
    """In-memory span and count store for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [layer, name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.points: set = set()      # (root span, build_schedule arguments)
        self._stack: list[int] = []
        self._root = -1

    def open(self, layer: str, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        if parent < 0:
            self._root = idx
        self.spans.append([layer, name, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        span = self.spans[idx]
        span[END] = perf_counter()
        self._stack.pop()
        parent = span[PARENT]
        if failed and span[LAYER] == "config" and (parent < 0 or self.spans[parent][LAYER] != "config"):
            self.counts["config.rejects"] += 1

    # -- work counts, taken at the layer boundaries after the span closes

    def built(self, key: tuple, schedule) -> None:
        self.counts["schedule.builds"] += 1
        self.counts["schedule.steps"] += _step_count(schedule)
        self.points.add((self._root, key))

    def costed(self, schedule) -> None:
        self.counts["analytic.steps"] += _step_count(schedule)

    def enumerated(self, schedule) -> None:
        self.counts["oracle.steps"] += _step_count(schedule)

    def emitted(self, paths) -> None:
        self.counts["sweep.bytes_emitted"] += sum(Path(p).stat().st_size for p in paths)


def _step_count(schedule) -> int:
    try:
        return len(schedule.steps)
    except (AttributeError, TypeError):
        return 0


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs.get(name)


def _count_hook(name: str, fn):
    """The count a wrapper records after ``name`` returns, or None."""
    if name == "build_schedule":
        sig = inspect.signature(fn)

        def hook(tracer, args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            tracer.built(tuple(bound.arguments.values()), result)
        return hook
    if name == "total_cost":
        return lambda tracer, args, kwargs, result: tracer.costed(_first_arg(args, kwargs, "schedule"))
    if name == "count_schedule":
        return lambda tracer, args, kwargs, result: tracer.enumerated(_first_arg(args, kwargs, "schedule"))
    if name == "emit_report_set":
        return lambda tracer, args, kwargs, result: tracer.emitted(result)
    return None


def _wrap(tracer: Tracer, layer: str, name: str, fn):
    hook = _count_hook(name, fn)

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        idx = tracer.open(layer, name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(idx, failed=True)
            raise
        tracer.close(idx)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return spanned


def _public_functions(module):
    for name, obj in vars(module).items():
        if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not name.startswith("_") and name not in UNSPANNED):
            yield name, obj


@contextmanager
def traced(tracer: Tracer, package):
    """Patch every binding of each traced layer's public functions; restore on exit."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package.__name__}.{layer}")
        for name, fn in _public_functions(module):
            wrappers[fn] = _wrap(tracer, layer, name, fn)
    patched = []
    prefix = package.__name__ + "."
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package.__name__ or modname.startswith(prefix)):
            continue
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, name, wrappers[obj])
                patched.append((module, name, obj))
    try:
        yield tracer
    finally:
        for module, name, obj in patched:
            setattr(module, name, obj)


def self_times(spans) -> list[float]:
    """Each span's duration minus its children's durations.

    Spans come from one thread's call stack, so a span's children do not
    overlap and end before it does.
    """
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[END] - span[START]
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times of one traced pass, named ``<layer>.<metric>``."""
    calls, self_s = Counter(), defaultdict(float)
    fn_self, fn_total = defaultdict(float), defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        layer, fn = span[LAYER], (span[LAYER], span[NAME])
        calls[layer] += 1
        self_s[layer] += own
        fn_self[fn] += own
        fn_total[fn] += span[END] - span[START]
    counts = tracer.counts

    def per(total: float, n: int, scale: float = 1.0) -> float:
        return scale * total / n if n else 0.0

    return {
        "config.calls": calls["config"],
        "config.self_s": self_s["config"],
        "config.rejects": counts["config.rejects"],
        "cli.calls": calls["cli"],
        "cli.self_s": self_s["cli"],
        "schedule.calls": calls["schedule"],
        "schedule.self_s": self_s["schedule"],
        "schedule.steps": counts["schedule.steps"],
        "schedule.us_per_step": per(fn_self["schedule", "build_schedule"], counts["schedule.steps"], 1e6),
        "schedule.builds_per_point": per(counts["schedule.builds"], len(tracer.points)),
        "analytic.calls": calls["analytic"],
        "analytic.self_s": self_s["analytic"],
        "analytic.us_per_step": per(fn_self["analytic", "total_cost"], counts["analytic.steps"], 1e6),
        "throughput.self_s": self_s["throughput"],
        "memory.self_s": self_s["memory"],
        "roofline.calls": calls["roofline"],
        "roofline.self_s": self_s["roofline"],
        "sweep.run_self_s": fn_self["sweep", "run_sweep"],
        "sweep.emit_s": fn_total["sweep", "emit_report_set"],
        "sweep.bytes_emitted": counts["sweep.bytes_emitted"],
        "oracle.calls": calls["oracle"],
        "oracle.self_s": self_s["oracle"],
        "oracle.count_s": fn_total["oracle", "count_schedule"],
        "oracle.steps_enumerated": counts["oracle.steps"],
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
