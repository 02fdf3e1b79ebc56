"""Operator-by-operator cost enumeration, independent of the closed forms.

Every forward pass is expanded into its individual operators (projections,
attention score/value matmuls, FFN halves, cache traffic, weight and
activation movement) and summed. ``count_schedule`` reads the schedule as
runs of equal consecutive passes (``DecodeSchedule.expand``), evaluates the
operators once per run and adds a run of n passes to its component's one
``fsum`` as one term v * 2**k per set bit k of n, each exact, so its time
and memory are O(runs) (flat in the generation length except for AR, whose
runs are single passes). ``fsum`` is exact whatever the order of its terms,
so the totals are the correctly rounded per-pass sums. The operator formulas
live in one place, ``_forward_values``, which computes the part of each
product that does not depend on the pass once per schedule, in the same
left-to-right order, so every value is the same float as the formula written
out in full. The enumeration (``count_forward``, ``count_schedule``) never
calls into the closed-form cost paths; the checks call both sides to
arbitrate them, and place both on the roofline through
``throughput.schedule_throughput``. ``oracle_check`` sweeps one variable,
fits log-log scaling exponents from both sources (``fit_exponent``, the
package's one exponent fit), and verifies that the exponents agree and that
the closed-form/oracle ratio stays constant -- a constant ratio is a
convention difference, a drifting one is a structural bug.

Excluded operators: softmax, layernorm, embedding lookup (sub-1% of FLOPs at
the modeled scales, and absent from the scaling claims being checked).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from functools import reduce
from itertools import chain, compress, repeat
from math import fsum, ldexp
from operator import and_, or_
from typing import Callable, NamedTuple, Sequence

from .analytic import ACTIVATION_TRAFFIC_ELEMS, CostBreakdown, ScheduleCost, total_cost
from .config import (
    AccelerationConfig,
    Architecture,
    HardwareSpec,
    ModelConfig,
    NO_ACCELERATION,
    Workload,
)
from .schedule import DecodeSchedule, Run, StepDescriptor, build_schedule
from .throughput import IntensitySource, schedule_throughput

EXCLUDED_OPERATORS = ("softmax", "layernorm", "embedding_lookup")

# each operator and the cost component it counts toward; the first
# _FLOP_OPERATORS count FLOPs, the rest bytes
_OPERATORS = (
    ("qkv_proj", "projection_flops"),
    ("attn_scores", "attention_flops"),
    ("attn_value", "attention_flops"),
    ("out_proj", "projection_flops"),
    ("ffn_up", "ffn_flops"),
    ("ffn_down", "ffn_flops"),
    ("kv_cache_read", "kv_read_write"),
    ("kv_cache_write", "kv_read_write"),
    ("weight_read", "weights_read"),
    ("activation_io", "activation_io"),
)
_FLOP_OPERATORS = 6
OP_NAMES = tuple(op for op, _ in _OPERATORS)


class OperatorCost(NamedTuple):
    op_name: str
    flops: float
    bytes: float


def _forward_values(cfg: ModelConfig, hw: HardwareSpec, batch: int) -> Callable[[StepDescriptor], tuple]:
    """The function from a pass to its ten operator values, in OP_NAMES order.

    Each value is totaled across layers and the batch. Weights are read once
    per pass regardless of batch; everything else is per sequence per layer.
    The products are the formulas below evaluated left to right; only their
    pass-independent leading factors are computed here, once:

        qkv_proj        bl * 6.0 * s * d**2
        attn_scores     bl * 2.0 * s * ctx * d
        attn_value      bl * 2.0 * s * ctx * d
        out_proj        bl * 2.0 * s * d**2
        ffn_up          bl * 2.0 * s * d * (a * d)
        ffn_down        bl * 2.0 * s * (a * d) * d
        kv_cache_read   bpe * bl * 2.0 * d * (ctx - s)
        kv_cache_write  bpe * bl * 2.0 * d * s
        weight_read     bpe * N
        activation_io   bpe * ACTIVATION_TRAFFIC_ELEMS * bl * s * d
    """
    d, d_sq, ad = cfg.d, cfg.d**2, cfg.alpha * cfg.d
    bpe = hw.bytes_per_element
    bl = batch * cfg.n_l
    qkv, matmul = bl * 6.0, bl * 2.0
    kv = bpe * bl * 2.0 * d
    weights = bpe * cfg.n_params
    activations = bpe * ACTIVATION_TRAFFIC_ELEMS * bl

    def values(step: StepDescriptor) -> tuple:
        s, ctx = step.active_tokens, step.context_len
        ms = matmul * s
        attention = ms * ctx * d
        return (
            qkv * s * d_sq,
            attention,
            attention,
            ms * d_sq,
            ms * d * ad,
            ms * ad * d,
            kv * (ctx - s),
            kv * s,
            weights,
            activations * s * d,
        )

    return values


def count_forward(cfg: ModelConfig, step: StepDescriptor, hw: HardwareSpec, batch: int = 1) -> list[OperatorCost]:
    """Enumerate one forward pass of a built schedule, one entry per operator kind (see ``_forward_values``)."""
    return [
        OperatorCost(name, value, 0.0) if i < _FLOP_OPERATORS else OperatorCost(name, 0.0, value)
        for i, (name, value) in enumerate(zip(OP_NAMES, _forward_values(cfg, hw, batch)(step)))
    ]


def _accumulate(runs: list[Run], values: Callable[[StepDescriptor], tuple]) -> CostBreakdown:
    steps, counts = zip(*runs) if runs else ((), ())
    bits = reduce(or_, counts, 0)
    # per set bit k of some run length, which runs' lengths have it
    levels = [(k, tuple(map(and_, counts, repeat(1 << k)))) for k in range(bits.bit_length()) if bits >> k & 1]
    streams: dict[str, list] = {name: [] for name in CostBreakdown().components}
    for (_, component), column in zip(_OPERATORS, zip(*map(values, steps))):
        # v * 2**k is exact; ldexp raises OverflowError, as fsum does, where a finite total leaves the float range
        streams[component] += (map(ldexp, compress(column, runs_with_bit), repeat(k)) for k, runs_with_bit in levels)
    return CostBreakdown(**{name: fsum(chain.from_iterable(parts)) for name, parts in streams.items()})


def count_schedule(schedule: DecodeSchedule, cfg: ModelConfig, hw: HardwareSpec) -> ScheduleCost:
    """Sum of count_forward over all steps, decode and prefill separated.

    The operators are evaluated once per run of equal passes. A run of n
    passes adds each value v to the one ``fsum`` of its component as the
    exact terms v * 2**k, one per set bit k of n, so time and memory are
    O(runs) (AR's runs are single passes). The sums stay exact, equal to
    the ``fsum`` over every pass.
    """
    phases: dict[bool, list[Run]] = {False: [], True: []}
    for run in schedule.expand():
        phases[run[0].is_prefill].append(run)
    values = _forward_values(cfg, hw, schedule.workload.batch)
    return ScheduleCost(decode=_accumulate(phases[False], values), prefill=_accumulate(phases[True], values))


# ---------------------------------------------------------------------------
# Discrepancy checks

METRICS = ("flops_total", "mops_total", "flops_per_token", "arint", "throughput")

EXPONENT_TOLERANCE = 0.05
RATIO_TOLERANCE = 0.10

# toy-scale bounds keep enumeration instant
_MAX_NL, _MAX_D, _MAX_L = 8, 128, 4096

# the hardware every check places its points on (ridge 100 FLOPs/byte)
TOY_HARDWARE = HardwareSpec(p_max=1e12, b_mem=1e10, capacity=1e18)


# the columns of a report's CSV; ``check`` is ``metric/variable``
_CSV_HEADER = ("check", "point", "analytic", "oracle", "ratio", "exponent_analytic", "exponent_oracle", "verdict")


class PointSample(NamedTuple):
    value: int
    analytic: float
    oracle: float

    @property
    def ratio(self) -> float:
        return self.analytic / self.oracle


@dataclass(frozen=True)
class TrendCheck:
    metric: str
    variable: str
    points: tuple[PointSample, ...]
    exponent_analytic: float
    exponent_oracle: float
    ratio_drift: float
    verdict: str  # PASS | ExponentMismatch | ConstantDrift

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


@dataclass(frozen=True)
class OracleReport:
    arch: Architecture
    checks: tuple[TrendCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def verdict(self) -> str:
        if self.passed:
            return "PASS"
        bad = {c.verdict for c in self.checks if not c.passed}
        return "ExponentMismatch" if "ExponentMismatch" in bad else "ConstantDrift"

    def to_text(self) -> str:
        lines = [
            f"operator-count oracle report: arch={self.arch.value}",
            f"excluded operators (sub-1% at modeled scales): {', '.join(EXCLUDED_OPERATORS)}",
            f"tolerances: exponent agreement +/-{EXPONENT_TOLERANCE}, ratio constancy +/-{RATIO_TOLERANCE:.0%}",
            "",
        ]
        for c in self.checks:
            lines.append(f"check {c.metric} vs {c.variable}  [{c.verdict}]")
            for p in c.points:
                lines.append(
                    f"  {c.variable}={p.value:<8d} analytic={p.analytic:<14.6g} "
                    f"oracle={p.oracle:<14.6g} ratio={p.ratio:.6g}"
                )
            lines.append(
                f"  exponent analytic={c.exponent_analytic:.4f} oracle={c.exponent_oracle:.4f} "
                f"drift={c.ratio_drift:.2%}"
            )
        lines.append("")
        lines.append(f"overall: {self.verdict}")
        return "\n".join(lines) + "\n"

    def csv_rows(self) -> list[tuple[str, ...]]:
        """One row per sampled point, in the columns of ``_CSV_HEADER``."""
        return [
            (f"{c.metric}/{c.variable}", str(p.value), f"{p.analytic:.6g}", f"{p.oracle:.6g}", f"{p.ratio:.6g}",
             f"{c.exponent_analytic:.6g}", f"{c.exponent_oracle:.6g}", c.verdict)
            for c in self.checks
            for p in c.points
        ]


def _metric_pairs(
    arch: Architecture,
    cfg: ModelConfig,
    wl: Workload,
    accel: AccelerationConfig,
    hw: HardwareSpec,
) -> dict[str, tuple[float, float]]:
    """(closed-form value, enumerated value) per metric for one grid point.

    Both sides are ``schedule_throughput``'s decode-phase division: the
    analytic side of the closed-form totals under the published estimates, the
    oracle side of its own enumeration under the schedule intensity.
    """
    schedule = build_schedule(arch, cfg, wl, accel)
    ana = schedule_throughput(
        schedule, total_cost(schedule, cfg, hw), cfg, hw, source=IntensitySource.PUBLISHED, include_prefill=False
    )
    orc = schedule_throughput(
        schedule, count_schedule(schedule, cfg, hw), cfg, hw, source=IntensitySource.SCHEDULE, include_prefill=False
    )
    return {
        "flops_total": (ana.flops_total, orc.flops_total),
        "mops_total": (ana.mops_total, orc.mops_total),
        "flops_per_token": (ana.flops_per_token, orc.flops_per_token),
        "arint": (ana.arint, orc.arint),
        "throughput": (ana.tokens_per_second, orc.tokens_per_second),
    }


def fit_exponent(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    import numpy as np  # here, not at the top: only the oracle's fit needs it, and it dominates start-up

    slope, _ = np.polyfit(np.log(np.asarray(xs, dtype=float)), np.log(ys), 1)
    return float(slope)


def _grid(variable: str, arch: Architecture, cfg: ModelConfig, wl: Workload) -> list[tuple[int, ModelConfig, Workload]]:
    """The points ``oracle_check`` samples ``variable`` at, as (value, model, workload), or a ValueError if it cannot.

    ``L`` is the generation length, ``B`` the batch size, ``G`` the block size.
    """
    if variable == "L":
        if wl.prompt_len + 4 * wl.gen_len > _MAX_L:
            raise ValueError(f"oracle_check is toy-scale only (L <= {_MAX_L})")
        return [(n * wl.gen_len, cfg, replace(wl, gen_len=n * wl.gen_len)) for n in (1, 2, 4)]
    if variable == "B":
        return [(n * wl.batch, cfg, replace(wl, batch=n * wl.batch)) for n in (1, 2, 4, 8)]
    if variable != "G":
        raise ValueError(f"variable must be 'L', 'B', or 'G', got {variable!r}")
    if arch is not Architecture.BLOCK_DIFFUSION or cfg.block_size is None:
        raise ValueError(f"variable 'G' needs block diffusion with a block size G, got {arch.value} with G={cfg.block_size}")
    return [(n * cfg.block_size, replace(cfg, block_size=n * cfg.block_size), wl) for n in (1, 2, 4, 8)]


def oracle_check(
    arch: Architecture,
    cfg: ModelConfig,
    wl: Workload,
    accel: AccelerationConfig = NO_ACCELERATION,
    hw: HardwareSpec = TOY_HARDWARE,
    *,
    variables: Sequence[str],
) -> OracleReport:
    """Sweep each of ``variables`` (see ``_grid``) from the given base point and compare both sources.

    Every variable's grid is made before any point is evaluated: an empty or
    repeated list, an unknown variable, ``G`` other than on block diffusion
    with a block size, an ``L`` grid past the toy-scale cap, or a point its
    own type rejects (a batch past 2**53) is a ``ValueError``.
    """
    if cfg.n_l > _MAX_NL or cfg.d > _MAX_D:
        raise ValueError(f"oracle_check is toy-scale only (n_l <= {_MAX_NL}, d <= {_MAX_D})")
    if not variables or len(set(variables)) < len(variables):
        raise ValueError(f"variables must name at least one variable, each once, got {tuple(variables)!r}")

    grids = [(variable, _grid(variable, arch, cfg, wl)) for variable in variables]
    checks = []
    for variable, grid in grids:
        samples: dict[str, list[PointSample]] = {metric: [] for metric in METRICS}
        for value, case_cfg, case_wl in grid:
            for metric, (ana, orc) in _metric_pairs(arch, case_cfg, case_wl, accel, hw).items():
                samples[metric].append(PointSample(value, ana, orc))

        for metric in METRICS:
            pts = samples[metric]
            exp_a = fit_exponent([p.value for p in pts], [p.analytic for p in pts])
            exp_o = fit_exponent([p.value for p in pts], [p.oracle for p in pts])
            ratios = [p.ratio for p in pts]
            mean = fsum(ratios) / len(ratios)
            drift = max(abs(r - mean) for r in ratios) / mean
            if abs(exp_a - exp_o) > EXPONENT_TOLERANCE:
                verdict = "ExponentMismatch"
            elif drift > RATIO_TOLERANCE:
                verdict = "ConstantDrift"
            else:
                verdict = "PASS"
            checks.append(TrendCheck(metric, variable, tuple(pts), exp_a, exp_o, drift, verdict))
    return OracleReport(arch=arch, checks=tuple(checks))


# ---------------------------------------------------------------------------
# Built-in battery over the toy grid

def default_battery() -> list[tuple[str, OracleReport]]:
    """Cross-check battery over n_l in {1,2,4} x d in {8,32,128}, L up to 4096.

    Each claim is probed in the regime where it holds: AR batch scaling with a
    weight-dominated denominator at short L (the length sweep needs L << d and
    so runs at d = 128 only), DLM length scaling at L >> d (reachable within
    the L cap only for d <= 32), block-size scaling at a long fixed sequence.
    alpha = 1 keeps both conventions' crossover points aligned so
    constant-factor differences stay constant factors.
    """
    reports = []
    for n_l in (1, 2, 4):
        for d in (8, 32, 128):
            base = dict(n_l=n_l, n_h=1, n_d=d, d=d, alpha=1.0)
            toy_n = float(n_l * d * d)

            ar_cfg = ModelConfig(**base, n_params=600.0 * toy_n)
            ar_wl = Workload(batch=1, prompt_len=0, gen_len=8)
            ar_vars = ("B", "L") if d == 128 else ("B",)
            reports.append(
                (f"AR n_l={n_l} d={d}", oracle_check(Architecture.AR, ar_cfg, ar_wl, variables=ar_vars))
            )

            if d <= 32:
                dlm_cfg = ModelConfig(**base, n_params=toy_n)
                dlm_wl = Workload(batch=1, prompt_len=0, gen_len=1024)
                reports.append(
                    (f"DLM n_l={n_l} d={d}", oracle_check(Architecture.DLM, dlm_cfg, dlm_wl, variables=("L", "B")))
                )

            bd_cfg = ModelConfig(**base, n_params=toy_n, block_size=4)
            reports.append(
                (f"BlockDiffusion n_l={n_l} d={d} (G)",
                 oracle_check(Architecture.BLOCK_DIFFUSION, bd_cfg,
                              Workload(batch=1, prompt_len=0, gen_len=2048), variables=("G",)))
            )
            bd_vars = ("L", "B") if d <= 32 else ("B",)
            reports.append(
                (f"BlockDiffusion n_l={n_l} d={d} ({','.join(bd_vars)})",
                 oracle_check(Architecture.BLOCK_DIFFUSION, bd_cfg,
                              Workload(batch=1, prompt_len=0, gen_len=1024), variables=bd_vars))
            )
    return reports


def battery_report(reports: Sequence[tuple[str, OracleReport]]) -> tuple[str, str]:
    """Text and CSV of a labeled battery, each report under its label.

    The text joins the reports' ``to_text`` under ``=== label ===`` headers;
    the CSV prefixes every report's rows with a ``config`` column.
    """
    import csv  # here, not at the top: only this CSV needs it, and every command pays for module imports

    blocks, out = [], io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("config", *_CSV_HEADER))
    for label, report in reports:
        blocks.append(f"=== {label} ===\n{report.to_text()}")
        writer.writerows((label, *row) for row in report.csv_rows())
    return "\n".join(blocks), out.getvalue()
