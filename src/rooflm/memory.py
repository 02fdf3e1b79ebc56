"""Device-memory footprint estimates and out-of-memory detection.

weights     bytes_per_element * N
kv cache    bytes_per_element * 2 * n_l * d * kv_len * B, with kv_len the
            schedule's resident K/V length (see ``DecodeSchedule``)
activations bytes_per_element * c_mem * n_l * s_max * d * B, with s_max the
            widest decode forward pass (the whole sequence for a vanilla DLM,
            one block for block diffusion, the tokens-per-step for AR), read
            from the schedule's closed-form decode sums in O(1)

Prefill passes are excluded from s_max: prompt encoding is transient and
chunkable, while the decode loop sets the steady-state high-water mark.
``c_mem`` (``ACTIVATION_SCALE``) absorbs attention-score materialization and
framework buffers; the fixed ``OVERHEAD_BYTES`` absorbs allocator slack and
runtime state. No term of a valid point (integers at most 2**53) overflows
as it converts to a float; ``schedule_memory`` rejects an infinite total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import (
    AccelerationConfig,
    Architecture,
    HardwareSpec,
    ModelConfig,
    NO_ACCELERATION,
    Workload,
    out_of_range,
)
from .schedule import DecodeSchedule, build_schedule

ACTIVATION_SCALE = 16
OVERHEAD_BYTES = 2e9


@dataclass(frozen=True)
class MemoryReport:
    weights_bytes: float
    kv_cache_bytes: float
    activation_bytes: float
    overhead_bytes: float
    total_bytes: float
    capacity_bytes: float
    oom: bool

    @property
    def headroom_bytes(self) -> float:
        return self.capacity_bytes - self.total_bytes


def estimate_memory(
    arch: Architecture,
    cfg: ModelConfig,
    hw: HardwareSpec,
    wl: Workload,
    accel: AccelerationConfig = NO_ACCELERATION,
) -> MemoryReport:
    return schedule_memory(build_schedule(arch, cfg, wl, accel), cfg, hw)


def schedule_memory(schedule: DecodeSchedule, cfg: ModelConfig, hw: HardwareSpec) -> MemoryReport:
    """Footprint of ``schedule``'s workload on ``hw``, with ``cfg``'s weights.

    A footprint beyond the float range is an ``out_of_range`` error, never a
    report with an infinite total or headroom.
    """
    bpe = hw.bytes_per_element
    weights = bpe * cfg.n_params

    batch = schedule.workload.batch
    activations = bpe * ACTIVATION_SCALE * cfg.n_l * schedule.decode.max_active * cfg.d * batch
    kv = bpe * 2.0 * cfg.n_l * cfg.d * schedule.kv_len * batch
    total = weights + kv + activations + OVERHEAD_BYTES
    if not math.isfinite(total):
        raise out_of_range(schedule.arch, schedule.workload)
    return MemoryReport(
        weights_bytes=weights,
        kv_cache_bytes=kv,
        activation_bytes=activations,
        overhead_bytes=OVERHEAD_BYTES,
        total_bytes=total,
        capacity_bytes=hw.capacity,
        oom=total > hw.capacity,
    )
