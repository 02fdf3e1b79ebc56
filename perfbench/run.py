#!/usr/bin/env python3
"""rooflm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It imports rooflm from ``src/`` in one
single-threaded process, repeats passes of the workload for about S seconds
(at least one), checks every output, and prints a context line followed, as
the last line of standard output, by one JSON result. With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they
are the per-layer metrics, from passes run with spans installed (see
spans.py), alternated with untraced passes to give the tracing overhead.

Times are given in seconds of a machine of reference speed. The work is
deterministic, single-threaded and CPU-bound, yet on a small shared machine
the speed of a CPU changes by up to 1.7x, within a second and for minutes at
a time, with what other tenants run; the process's CPU time moves with it, as
it is not descheduled but slowed. So the harness pins itself to one CPU and
samples that CPU's speed between every two units of work (laps) with a fixed
piece of pure-Python work, ``reference_work``, and scales each lap's measured
time by REFERENCE_S over the mean time of the samples taken around it. Each
lap then takes its median scaled time over the passes of the run. The context
line gives the unscaled pass times as well. Set-up times are not scaled.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 9


def import_rooflm():
    """Import rooflm from this checkout's ``src/`` and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import rooflm

    if not Path(rooflm.__file__).resolve().is_relative_to(src):
        raise ImportError(f"rooflm was imported from {rooflm.__file__}, not from {src}")
    return rooflm


def git_commit(root: Path) -> str:
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (root / ".git" / head[len("ref: "):]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class _Step:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a, self.b = a, b


def reference_work() -> float:
    """Fixed pure-Python work of the kind rooflm does: small objects, attributes, floats, dicts."""
    total, seen = 0.0, {}
    for i in range(600):
        step = _Step(i, 0.5 * i)
        total += step.a * step.b / (1.0 + step.b)
        seen[i & 63] = seen.get(i & 63, 0.0) + total
    return total


# time of reference_work on the reference machine: a 2-vCPU cloud VM, CPython
# 3.11, when no other tenant slowed it; fixed, so that scaled times compare
# across runs and commits
REFERENCE_S = 2.8e-4


# a lap is scaled by the samples of the WINDOW laps before and after it
WINDOW = 16


class SpeedProbe:
    """Times ``reference_work`` each time it is called: once before a pass and after each lap."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def __call__(self) -> None:
        start = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - start)

    def scales(self, laps: int) -> list[float]:
        """Per lap, the factor from this machine's measured time to reference-machine time."""
        total = [0.0]
        for sample in self.samples:
            total.append(total[-1] + sample)
        out = []
        for i in range(laps):
            # samples[i] was taken just before lap i and samples[i + 1] just after it
            lo, hi = max(0, i + 1 - WINDOW), min(len(self.samples), i + 2 + WINDOW)
            out.append(REFERENCE_S * (hi - lo) / (total[hi] - total[lo]))
        return out


def time_setups(workload: str, seed: int, work: Path) -> list[float]:
    """Times of fresh processes that import rooflm and build the workload's inputs.

    They are not scaled: on analyze-mixed most of a set-up is creating about a
    thousand files, whose time follows the load on the disk, not the speed of
    the CPU.
    """
    times = []
    for k in range(SETUP_RUNS):
        target = work / f"setup{k}"
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--setup-only", str(target)]
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline().strip() == "ready"
            elapsed = time.perf_counter() - start
            code = proc.wait(timeout=120)
        if not ready or code != 0:
            raise RuntimeError(f"set-up process exited with {code}")
        times.append(elapsed)
        shutil.rmtree(target, ignore_errors=True)
    return times


def pin_to_one_cpu() -> int:
    """Run this process and its children on one CPU, so the speed samples and the work share it."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def repeat(step, seconds: float, minimum: int) -> list:
    """Call ``step`` at least ``minimum`` times, then while another call still fits in ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step())
        n, elapsed = len(results), time.perf_counter() - start
        if n >= minimum and elapsed * (n + 1) / n > seconds:
            return results


def timed_pass(workload, inputs, recorded):
    from workloads import Laps

    probe = SpeedProbe()
    probe()
    result = workload.run(inputs, recorded, Laps(probe))
    result.wall = sum(t for _, t in result.laps)
    result.scaled = [(ops, t * k) for (ops, t), k in zip(result.laps, probe.scales(len(result.laps)))]
    return result


def typical_laps(passes) -> list[tuple[int, float]]:
    """(ops, seconds) of each lap at its median scaled time over ``passes``.

    If the passes do not share one lap layout (a failed unit of work can end
    a pass's laps early), each whole pass is one lap.
    """
    layout = [ops for ops, _ in passes[0].scaled]
    if any([ops for ops, _ in p.scaled] != layout for p in passes):
        return [(passes[0].ops, statistics.median(sum(t for _, t in p.scaled) for p in passes))]
    return [(ops, statistics.median(p.scaled[i][1] for p in passes)) for i, ops in enumerate(layout)]


def end_to_end(passes, setups: list[float]) -> dict[str, float]:
    laps = typical_laps(passes)
    wall = sum(t for _, t in laps)
    # ops timed one by one; a sweep row is computed inside a run_sweep call of
    # several rows, so there each op takes the pass's time per op
    latencies = [t for ops, t in laps if ops == 1] or [wall / passes[0].ops]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "ops_per_s": passes[0].ops / wall,
        "op_p50_ms": 1e3 * percentile(latencies, 0.50),
        "op_p99_ms": 1e3 * percentile(latencies, 0.99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(workload, inputs, recorded, seconds: float, rooflm):
    import spans

    def pair():
        untraced = timed_pass(workload, inputs, recorded)
        tracer = spans.Tracer()
        with spans.traced(tracer, rooflm):
            traced = timed_pass(workload, inputs, recorded)
        return untraced, traced, spans.layer_metrics(tracer)

    pairs = repeat(pair, seconds, minimum=1)
    metrics = spans.median_metrics([layers for _, _, layers in pairs])
    untraced, traced = (sum(t for _, t in typical_laps([p[k] for p in pairs])) for k in (0, 1))
    metrics["trace.overhead_ratio"] = traced / untraced
    return metrics, [p for u, t, _ in pairs for p in (u, t)]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        rooflm = import_rooflm()
    except ImportError as exc:
        print(f"perfbench: cannot import rooflm from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import numpy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only is not None:
        workload.setup(args.seed, args.setup_only)
        print("ready", flush=True)
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = bench["per_layer" if args.trace else "end_to_end"]
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8")).get(args.workload, {})

    nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    work = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        setups = None if args.trace else time_setups(args.workload, args.seed, work)
        inputs = workload.setup(args.seed, work)
        if args.trace:
            metrics, passes = measure_traced(workload, inputs, recorded, args.seconds, rooflm)
        else:
            passes = repeat(lambda: timed_pass(workload, inputs, recorded), args.seconds, minimum=1)
            metrics = end_to_end(passes, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    agree = len({json.dumps(p.digests, sort_keys=True) for p in passes}) == 1
    correct = agree and all(p.unexpected == 0 for p in passes)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(ROOT),
        "ops_per_pass": passes[0].ops,
        "passes": len(passes),
        "laps_per_pass": len(passes[0].laps),
        "pass_wall_s": [p.wall for p in passes],
        "pass_scaled_s": [sum(t for _, t in p.scaled) for p in passes],
        "setup_wall_s": setups,
        "failed_ratio": failed / attempted,
        "known_defect_failures": sum(p.failed - p.unexpected for p in passes),
        "digests": "matched" if all(p.digest_ok for p in passes) else "mismatch",
    }
    print(json.dumps({"context": context}))
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
