"""The benchmark's three workloads: inputs, one pass, and output checks.

An operation fails when it raises, returns an unexpected exit code, prints a
non-finite number, or produces output whose SHA-256 differs from the digest
recorded in ``digests.json`` by ``record.py``.

* ``sweep-grids``: ``run_sweep`` + ``emit_report_set`` on the default grid,
  the extended grid and one accelerated extended grid (fractional tpf, DLM
  dual cache). An operation is a sweep row. The seed is unused.
* ``analyze-mixed``: a seeded stream of ``rooflm.cli.main(["analyze", ...])``
  requests from one caller in a closed loop. An operation is a request.
* ``oracle-battery``: ``oracle.default_battery()``. An operation is a report.

A pass also records its laps: the time of each of its units of work, the same
units in the same order on every pass (a sub-grid or an emit on
``sweep-grids``, a request on ``analyze-mixed``, a report on
``oracle-battery``). Between two laps, untimed, it runs the caller's
``between`` hook, with which run.py samples the speed of the machine.
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import random
import re
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

import rooflm.cli
import rooflm.oracle
import rooflm.sweep
from rooflm.config import AccelerationConfig, Architecture
from rooflm.presets import DEFAULT_BATCHES, EXTENDED_GEN_LENS

NONFINITE = re.compile(r"\b(?:nan|inf|infinity)\b", re.IGNORECASE)
ERROR_LINE = re.compile(r"^error \[\w+\]: ", re.MULTILINE)
EXIT_OK, EXIT_VALIDATION = 0, 2


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


@dataclass
class PassResult:
    ops: int
    failed: int = 0
    unexpected: int = 0                        # failures that are not known defects
    laps: list[tuple[int, float]] = field(default_factory=list)   # (ops, seconds) per unit of work
    digests: dict[str, str] = field(default_factory=dict)
    digest_ok: Optional[bool] = None           # None: run without recorded digests (record.py)
    wall: float = 0.0                          # sum of the laps, in measured seconds
    scaled: list[tuple[int, float]] = field(default_factory=list)  # laps in reference-machine seconds (run.py)

    def fail(self, n: int = 1, known: bool = False) -> None:
        self.failed += n
        if not known:
            self.unexpected += n


class Laps:
    """The (ops, seconds) of each unit of work of a pass; ``between`` runs untimed after each."""

    def __init__(self, between: Callable[[], None] = lambda: None) -> None:
        self.times: list[tuple[int, float]] = []
        self.between = between
        self.start = perf_counter()

    def restart(self) -> None:
        self.start = perf_counter()

    def mark(self, ops: int) -> None:
        """End the lap started at the last restart or mark; the next one starts after ``between``."""
        self.times.append((ops, perf_counter() - self.start))
        self.between()
        self.start = perf_counter()

    @contextmanager
    def lap(self, ops: int):
        self.restart()
        try:
            yield
        finally:
            self.mark(ops)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, Path], Any]
    run: Callable[[Any, Optional[dict], Laps], PassResult]


# ---------------------------------------------------------------------------
# sweep-grids

@dataclass(frozen=True)
class SweepInputs:
    grids: dict        # name -> (grid spec, its sub-grids)
    out_dir: Path


def sweep_setup(seed: int, workdir: Path) -> SweepInputs:
    accel = {
        Architecture.AR: AccelerationConfig(tpf=3.1),
        Architecture.DLM: AccelerationConfig(tpf=3.1, dual_cache=True),
        Architecture.BLOCK_DIFFUSION: AccelerationConfig(tpf=3.1),
    }
    spec = rooflm.sweep.SweepSpec
    grids = {
        "default": spec(),
        "extended": spec(gen_lens=EXTENDED_GEN_LENS),
        "accelerated": spec(gen_lens=EXTENDED_GEN_LENS, accel=accel),
    }
    return SweepInputs({name: (grid, sub_grids(grid)) for name, grid in grids.items()}, workdir / "sweep")


def sub_grids(spec) -> list:
    """The grid cut into one sub-grid per (arch, batch, prompt_len), each with every gen_len.

    A whole grid runs for seconds, long enough for the speed of a shared
    machine to change several times within it; a sub-grid runs for 10-300 ms.
    run_sweep sorts its rows by key, so the sub-grids' rows sorted by key are
    the grid's rows (the recorded sweep.csv digests check that).
    """
    return [replace(spec, architectures=(arch,), batches=(batch,), prompt_lens=(prompt_len,))
            for arch in spec.architectures for batch in spec.batches for prompt_len in spec.prompt_lens]


def _grid_size(spec) -> int:
    return len(spec.architectures) * len(spec.batches) * len(spec.prompt_lens) * len(spec.gen_lens)


def sweep_pass(inputs: SweepInputs, recorded: Optional[dict], laps: Optional[Laps] = None) -> PassResult:
    laps = laps or Laps()
    result = PassResult(ops=sum(_grid_size(grid) for grid, _ in inputs.grids.values()), laps=laps.times)
    if recorded is not None:
        result.digest_ok = True
    for name, (spec, parts) in inputs.grids.items():
        size = _grid_size(spec)
        rows, raised = [], False
        for part in parts:
            with laps.lap(_grid_size(part)):
                try:
                    rows += rooflm.sweep.run_sweep(part)
                except Exception:  # a raising sub-grid fails its whole grid; the other grids still run
                    raised = True
        paths = None
        with laps.lap(0):
            if not raised:
                rows.sort(key=lambda row: row.key)
                try:
                    paths = rooflm.sweep.emit_report_set(rows, inputs.out_dir / name, spec)
                except Exception:
                    pass
        if paths is None:
            result.fail(size)
            continue
        files = {f"{name}/{Path(p).name}": sha256(Path(p).read_bytes()) for p in paths}
        result.digests.update(files)
        if recorded is not None:
            want = {k: v for k, v in recorded.items() if k.startswith(name + "/")}
            if files != want:
                result.digest_ok = False
                result.fail(size)
                continue
        if len(rows) != size:
            result.fail(size)
            continue
        csv_rows = Path(paths[0]).read_text(encoding="utf-8").splitlines()[1:]
        result.fail(sum(1 for line in csv_rows if NONFINITE.search(line)))
    return result


# ---------------------------------------------------------------------------
# oracle-battery

def oracle_setup(seed: int, workdir: Path) -> None:
    return None


@contextmanager
def on_return(module, name: str, hook: Callable[[], None]):
    """Call ``hook`` each time ``module.name`` returns; put the original back on exit."""
    fn = getattr(module, name)

    def hooked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            hook()

    setattr(module, name, hooked)
    try:
        yield
    finally:
        setattr(module, name, fn)


def oracle_pass(inputs: None, recorded: Optional[dict], laps: Optional[Laps] = None) -> PassResult:
    laps = laps or Laps()
    want = {k[len("report/"):]: v for k, v in (recorded or {}).items() if k.startswith("report/")}
    # default_battery makes one oracle_check call per report, so each return
    # of oracle_check ends the lap of one report
    laps.restart()
    try:
        with on_return(rooflm.oracle, "oracle_check", lambda: laps.mark(1)):
            reports = rooflm.oracle.default_battery()
        # the same assembly as `rooflm oracle-check`, so the digest is that of oracle_report.txt
        blocks = {label: f"=== {label} ===\n{report.to_text()}" for label, report in reports}
        text = "\n".join(blocks.values())
    except Exception:
        result = PassResult(ops=max(len(want), 1))
        result.fail(result.ops)
        return result
    laps.mark(0)
    result = PassResult(ops=max(len(want), len(reports)), laps=laps.times)
    if [ops for ops, _ in laps.times] != [1] * len(reports) + [0]:
        result.laps = [(result.ops, sum(t for _, t in laps.times))]
    result.digests["oracle_report.txt"] = sha256(text)
    result.digests.update({f"report/{label}": sha256(block) for label, block in blocks.items()})
    bad = {label for label, block in blocks.items() if NONFINITE.search(block)}
    if recorded is not None:
        bad |= {label for label in blocks.keys() | want.keys()
                if want.get(label) != result.digests.get(f"report/{label}")}
        result.digest_ok = result.digests["oracle_report.txt"] == recorded.get("oracle_report.txt")
        if not result.digest_ok and not bad:
            bad = set(blocks)   # same reports, different order or framing
    result.fail(len(bad))
    return result


# ---------------------------------------------------------------------------
# analyze-mixed

BACKBONE = {"n_l": 32, "n_h": 32, "n_d": 128, "d": 4096, "alpha": 3.5, "N": 8.0e9}
HARDWARE = {"p_max": 3.12e14, "b_mem": 2.0e12, "capacity": 8.0e10, "bytes_per_element": 2}
PROMPT_LENS = (0, 40, 920)
BLOCK_SIZES = (4, 32, 128)
PARALLEL = ({}, {"tpf": 2}, {"tpf": 3.1}, {"tpf": 4})

# (arch, G, accel) cells; each gets REQUESTS_PER_CELL requests whose gen_len
# is stratified log-uniformly over GEN_LEN_RANGE, so the total work of a pass
# barely depends on the seed while every request is still drawn from it.
CELLS = (
    [("AR", None, a) for a in PARALLEL]
    + [("DLM", None, a) for a in PARALLEL + ({"dual_cache": True},)]
    + [("BlockDiffusion", g, a) for g in BLOCK_SIZES for a in PARALLEL]
)
REQUESTS_PER_CELL = 48
GEN_LEN_RANGE = (16, 4096)


def _set(doc: str, key: str, value) -> Callable[[dict, random.Random], None]:
    def mutate(docs, rng):
        docs[doc][key] = value
    return mutate


def _set_accel(key: str, value) -> Callable[[dict, random.Random], None]:
    def mutate(docs, rng):
        docs["workload"].setdefault("accel", {})[key] = value
    return mutate


def _unknown_field(docs, rng):
    docs[rng.choice(("model", "hardware", "workload"))]["extra_field"] = 1


def _missing_field(docs, rng):
    doc, key = rng.choice((("model", "n_l"), ("hardware", "b_mem"), ("workload", "gen_len")))
    del docs[doc][key]


# Malformed documents, each expected to end in exit 2 with an `error [code]:`
# line. The known defects are inputs the CLI mishandles at the commit that
# defined this benchmark; they count as failed operations until it is fixed.
MALFORMED = {
    "p_max_nan": (True, _set("hardware", "p_max", float("nan"))),
    "p_max_string": (True, _set("hardware", "p_max", "abc")),
    "batch_bool": (True, _set("workload", "batch", True)),
    "dual_cache_string": (True, _set_accel("dual_cache", "false")),
    "tpf_nan": (True, _set_accel("tpf", float("nan"))),
    "unknown_field": (False, _unknown_field),
    "dimension_mismatch": (False, _set("model", "d", 4160)),
    "missing_field": (False, _missing_field),
}
MALFORMED_PER_CLASS = 6
# Seed s draws request stream s mod ANALYZE_SEEDS: record.py records the
# output digest of each of these streams, so every run is checked against one.
ANALYZE_SEEDS = 128


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    defect: Optional[str] = None   # MALFORMED class, None for a valid request
    known: bool = False            # the defect is a known one


@dataclass(frozen=True)
class AnalyzeInputs:
    stream: int        # seed mod ANALYZE_SEEDS
    requests: tuple[Request, ...]


def _valid_docs(rng: random.Random, arch: str, g, accel: dict, stratum: float) -> dict:
    lo, hi = GEN_LEN_RANGE
    model = {"arch": arch, **BACKBONE}
    if g is not None:
        model["G"] = g
    workload = {
        "batch": rng.choice(DEFAULT_BATCHES),
        "prompt_len": rng.choice(PROMPT_LENS),
        "gen_len": min(hi, max(lo, round(lo * (hi / lo) ** stratum))),
    }
    if accel:
        workload["accel"] = dict(accel)
    return {"model": model, "hardware": dict(HARDWARE), "workload": workload}


def draw_documents(stream: int) -> list[tuple[Optional[str], dict]]:
    """Request stream ``stream`` as (malformed class or None, documents) pairs."""
    rng = random.Random(stream)
    valid = [
        _valid_docs(rng, arch, g, accel, (k + rng.random()) / REQUESTS_PER_CELL)
        for arch, g, accel in CELLS
        for k in range(REQUESTS_PER_CELL)
    ]
    stream: list[tuple[Optional[str], dict]] = [(None, docs) for docs in valid]
    for name, (_, mutate) in MALFORMED.items():
        for _ in range(MALFORMED_PER_CLASS):
            docs = copy.deepcopy(rng.choice(valid))
            mutate(docs, rng)
            stream.append((name, docs))
    rng.shuffle(stream)
    return stream


def analyze_setup(seed: int, workdir: Path) -> AnalyzeInputs:
    """Write the seed's documents as JSON files (one file per distinct document)."""
    workdir = workdir / "analyze"
    workdir.mkdir(parents=True, exist_ok=True)
    stream = seed % ANALYZE_SEEDS
    requests = []
    for defect, docs in draw_documents(stream):
        argv = ["analyze"]
        for kind in ("model", "hardware", "workload"):
            text = json.dumps(docs[kind], sort_keys=True)
            path = workdir / f"{kind}_{sha256(text)[:16]}.json"
            if not path.exists():
                path.write_text(text, encoding="utf-8")
            argv += [f"--{kind}", str(path)]
        known = defect is not None and MALFORMED[defect][0]
        requests.append(Request(tuple(argv), defect, known))
    return AnalyzeInputs(stream, tuple(requests))


def request_ok(req: Request, outcome, stdout: str, stderr: str) -> bool:
    """A valid request exits 0 printing only finite numbers; a malformed one exits 2 with a diagnostic."""
    if NONFINITE.search(stdout):
        return False
    if req.defect is None:
        return outcome == EXIT_OK and bool(stdout)
    return outcome == EXIT_VALIDATION and ERROR_LINE.search(stderr) is not None


def call_cli(argv) -> tuple[Any, str, str]:
    """Run one in-process CLI call; returns (exit code or escaped exception, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            outcome = rooflm.cli.main(list(argv))
    except SystemExit as exc:
        outcome = f"exit {exc.code}"
    except Exception as exc:  # an escaped exception is a failed request, not a benchmark crash
        outcome = f"raised {type(exc).__name__}"
    return outcome, out.getvalue(), err.getvalue()


def analyze_pass(inputs: AnalyzeInputs, recorded: Optional[dict], laps: Optional[Laps] = None) -> PassResult:
    laps = laps or Laps()
    result = PassResult(ops=len(inputs.requests), laps=laps.times)
    stream = hashlib.sha256()
    ok = []
    for i, req in enumerate(inputs.requests):
        with laps.lap(1):
            outcome, stdout, stderr = call_cli(req.argv)
        ok.append(request_ok(req, outcome, stdout, stderr))
        if req.defect is None:
            stream.update(f"{i}\t{outcome}\n{stdout}\0".encode())
    result.digests["stream"] = stream.hexdigest()
    if recorded is not None:
        result.digest_ok = recorded.get(f"seed/{inputs.stream}") == result.digests["stream"]
        if not result.digest_ok:
            ok = [good and req.defect is not None for good, req in zip(ok, inputs.requests)]
    for good, req in zip(ok, inputs.requests):
        if not good:
            result.fail(known=req.known)
    return result


WORKLOADS = {
    "sweep-grids": Workload(sweep_setup, sweep_pass),
    "analyze-mixed": Workload(analyze_setup, analyze_pass),
    "oracle-battery": Workload(oracle_setup, oracle_pass),
}
