"""Throughput prediction: hardware-side FLOPs/s over model-side FLOPs/token.

    throughput = generated tokens / generation time
               = attainable FLOPs/s / FLOPs per token

Two intensity sources are supported. ``schedule`` (the default) derives both
the intensity and FLOPs/token from the same schedule costs, so the identity
above is internally consistent. ``published`` forces the per-architecture
closed-form intensity estimates and their step-FLOPs convention instead, for
reproducing reference figure shapes; the two conventions differ by constant
factors.

Throughput covers the decode phase only unless ``include_prefill`` is set:
prefill is reported separately and folded into memory and total-FLOPs views.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from . import analytic
from .analytic import ScheduleCost, published_arint, published_step_flops, total_cost
from .config import (
    AccelerationConfig,
    Architecture,
    HardwareSpec,
    ModelConfig,
    NO_ACCELERATION,
    Workload,
)
from .errors import InsufficientPoints, RegimeViolation
from .roofline import Regime, attainable_performance
from .schedule import DecodeSchedule, build_schedule


class IntensitySource(str, Enum):
    SCHEDULE = "schedule"
    PUBLISHED = "published"


@dataclass(frozen=True)
class ThroughputEstimate:
    flops_per_token: float
    attainable: float
    tokens_per_second: float
    generated_tokens: int     # B * L_g
    regime: Regime
    source: IntensitySource
    arint: float
    ridge: float
    decode_steps: int
    flops_total: float        # decode-phase schedule FLOPs
    mops_total: float         # decode-phase schedule bytes


def flops_per_token(total_flops: float, wl: Workload) -> float:
    """Average decode FLOPs per generated token: total / (B * L_g)."""
    return total_flops / (wl.batch * wl.gen_len)


def estimate_throughput(
    arch: Architecture,
    cfg: ModelConfig,
    hw: HardwareSpec,
    wl: Workload,
    accel: AccelerationConfig = NO_ACCELERATION,
    *,
    source: IntensitySource = IntensitySource.SCHEDULE,
    include_prefill: bool = False,
) -> ThroughputEstimate:
    """Schedule the workload, cost it, and hand both to ``schedule_throughput``."""
    schedule = build_schedule(arch, cfg, wl, accel)
    return schedule_throughput(
        schedule, total_cost(schedule, cfg, hw), cfg, hw, wl, source=source, include_prefill=include_prefill
    )


def schedule_throughput(
    schedule: DecodeSchedule,
    cost: ScheduleCost,
    cfg: ModelConfig,
    hw: HardwareSpec,
    wl: Workload,
    *,
    source: IntensitySource,
    include_prefill: bool,
) -> ThroughputEstimate:
    """Place ``schedule``, costed as ``cost``, on the roofline and divide.

    ``include_prefill`` folds the prompt pass into the reported totals and,
    for the schedule source, into the intensity and FLOPs/token as well; the
    published estimates carry no prefill convention and are decode-only.
    """
    agg = cost.combined if include_prefill else cost.decode
    flops, mops = agg.flops, agg.mops
    steps = schedule.decode.passes

    if source is IntensitySource.PUBLISHED:
        arch = schedule.arch
        arint = published_arint(arch, cfg, wl)
        fpt = flops_per_token(steps * published_step_flops(arch, cfg, wl), wl)
    else:
        arint = flops / mops
        fpt = flops_per_token(flops, wl)

    point = attainable_performance(hw, arint)
    return ThroughputEstimate(
        flops_per_token=fpt,
        attainable=point.attainable,
        tokens_per_second=point.attainable / fpt,
        generated_tokens=wl.batch * wl.gen_len,
        regime=point.regime,
        source=source,
        arint=arint,
        ridge=point.ridge,
        decode_steps=steps,
        flops_total=flops,
        mops_total=mops,
    )


def vary(variable: str, cfg: ModelConfig, wl: Workload, value: int) -> tuple[ModelConfig, Workload]:
    """The point with sweep variable ``variable`` set to ``value``.

    ``L`` is the generation length, ``B`` the batch size, ``G`` the block size.
    """
    if variable == "L":
        return cfg, replace(wl, gen_len=value)
    if variable == "B":
        return cfg, replace(wl, batch=value)
    if variable == "G":
        return replace(cfg, block_size=value), wl
    raise ValueError(f"variable must be 'L', 'B', or 'G', got {variable!r}")


def fit_exponent(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    slope, _ = np.polyfit(np.log(np.asarray(xs, dtype=float)), np.log(ys), 1)
    return float(slope)


def asymptotic_trend(
    arch: Architecture,
    cfg: ModelConfig,
    hw: HardwareSpec,
    wl: Workload,
    variable: str,
    points: Sequence[int],
    *,
    accel: AccelerationConfig = NO_ACCELERATION,
    expected_regime: Optional[Regime] = None,
    length_regime: Optional[str] = None,
    margin: float = 10.0,
    source: IntensitySource = IntensitySource.SCHEDULE,
) -> float:
    """Least-squares slope of log(throughput) against log(``variable``).

    ``variable`` is one of ``L`` (generation length), ``B`` (batch size), or
    ``G`` (block size), as in ``vary``; every evaluated point must sit in the
    requested roofline regime and, when ``length_regime`` is given ('L<<d' or
    'L>>d'), carry that ``analytic.length_regime`` tag at ``margin``.
    """
    if len(points) < 3 or any(b <= a for a, b in zip(points, points[1:])):
        raise InsufficientPoints(f"need >= 3 strictly increasing points, got {list(points)!r}")

    throughputs = []
    for value in points:
        case_cfg, case_wl = vary(variable, cfg, wl, int(value))
        if length_regime is not None and analytic.length_regime(case_cfg, case_wl, margin) != length_regime:
            raise RegimeViolation(
                f"L={case_wl.total_len} is not {length_regime} at margin {margin:g} (d={cfg.d})"
            )
        est = estimate_throughput(arch, case_cfg, hw, case_wl, accel, source=source)
        if expected_regime is not None and est.regime is not expected_regime:
            raise RegimeViolation(
                f"point {variable}={value} is {est.regime.value}, expected {expected_regime.value}"
            )
        throughputs.append(est.tokens_per_second)
    return fit_exponent(points, throughputs)


def crossing_batch(
    arch: Architecture,
    cfg: ModelConfig,
    hw: HardwareSpec,
    wl: Workload,
    accel: AccelerationConfig = NO_ACCELERATION,
    *,
    source: IntensitySource = IntensitySource.SCHEDULE,
    b_max: int = 1 << 20,
) -> Optional[int]:
    """Smallest batch size whose roofline placement is compute-bound.

    Intensity is non-decreasing in B for all three architectures, so a binary
    search is valid. Returns None when even ``b_max`` stays memory-bound
    (the intensity saturates below the ridge).
    """

    def regime_at(b: int) -> Regime:
        return estimate_throughput(arch, cfg, hw, replace(wl, batch=b), accel, source=source).regime

    if regime_at(b_max) is Regime.MEMORY_BOUND:
        return None
    lo, hi = 1, b_max
    if regime_at(lo) is Regime.COMPUTE_BOUND:
        return lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if regime_at(mid) is Regime.COMPUTE_BOUND:
            hi = mid
        else:
            lo = mid
    return hi
