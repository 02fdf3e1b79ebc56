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

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

from .analytic import ScheduleCost, published_step, total_cost
from .config import (
    AccelerationConfig,
    Architecture,
    HardwareSpec,
    ModelConfig,
    NO_ACCELERATION,
    Workload,
    out_of_range,
)
from .errors import NonPositiveIntensity
from .roofline import Regime, attainable_performance
from .schedule import DecodeSchedule, build_schedule


# the largest batch ``crossing_batch`` searches
MAX_BATCH = 1 << 20


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
        schedule, total_cost(schedule, cfg, hw), cfg, hw, source=source, include_prefill=include_prefill
    )


def schedule_throughput(
    schedule: DecodeSchedule,
    cost: ScheduleCost,
    cfg: ModelConfig,
    hw: HardwareSpec,
    *,
    source: IntensitySource,
    include_prefill: bool,
) -> ThroughputEstimate:
    """Place ``schedule``, costed as ``cost``, on the roofline and divide by its workload's FLOPs per token.

    ``include_prefill`` folds the prompt pass into the reported totals and,
    for the schedule source, into the intensity and FLOPs/token as well; the
    published estimates carry no prefill convention and are decode-only.
    Valid inputs far beyond any real model can take a total past the float
    range; such a point is an ``out_of_range`` error, never an estimate
    holding an infinite or NaN number.
    """
    steps, wl = schedule.decode.passes, schedule.workload
    try:
        agg = cost.combined if include_prefill else cost.decode
        flops, mops = agg.flops, agg.mops
        if source is IntensitySource.PUBLISHED:
            step_flops, elements = published_step(schedule.arch, cfg, wl)
            arint = step_flops / elements  # published_arint, from the one evaluation
            fpt = flops_per_token(steps * step_flops, wl)
        else:
            arint = flops / mops
            fpt = flops_per_token(flops, wl)
        point = attainable_performance(hw, arint)
        tps = point.attainable / fpt
    except (OverflowError, NonPositiveIntensity):  # alpha**2 in published_step or an fsum overflowed; arint underflowed to 0
        raise out_of_range(schedule.arch, wl) from None
    if not all(map(math.isfinite, (flops, mops, arint, point.attainable, fpt, tps))):
        raise out_of_range(schedule.arch, wl)
    return ThroughputEstimate(
        flops_per_token=fpt,
        attainable=point.attainable,
        tokens_per_second=tps,
        generated_tokens=wl.batch * wl.gen_len,
        regime=point.regime,
        source=source,
        arint=arint,
        ridge=point.ridge,
        decode_steps=steps,
        flops_total=flops,
        mops_total=mops,
    )


def crossing_batch(
    arch: Architecture,
    cfg: ModelConfig,
    hw: HardwareSpec,
    wl: Workload,
    accel: AccelerationConfig = NO_ACCELERATION,
    *,
    source: IntensitySource = IntensitySource.SCHEDULE,
) -> Optional[int]:
    """Smallest batch size whose roofline placement is compute-bound.

    Intensity is non-decreasing in B for all three architectures, so a binary
    search is valid. Returns None when even ``MAX_BATCH`` stays memory-bound
    (the intensity saturates below the ridge).
    """

    def regime_at(b: int) -> Regime:
        return estimate_throughput(arch, cfg, hw, replace(wl, batch=b), accel, source=source).regime

    if regime_at(MAX_BATCH) is Regime.MEMORY_BOUND:
        return None
    lo, hi = 1, MAX_BATCH
    if regime_at(lo) is Regime.COMPUTE_BOUND:
        return lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if regime_at(mid) is Regime.COMPUTE_BOUND:
            hi = mid
        else:
            lo = mid
    return hi
