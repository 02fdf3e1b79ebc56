"""Analytical decode-throughput model for AR, diffusion, and block-diffusion LMs."""

from .analytic import (
    CostBreakdown,
    ScheduleCost,
    length_regime,
    published_arint,
    step_cost,
    total_cost,
)
from .config import (
    AccelerationConfig,
    Architecture,
    HardwareSpec,
    ModelConfig,
    NO_ACCELERATION,
    Workload,
    derive_param_count,
    validate_model_config,
)
from .memory import MemoryReport, estimate_memory
from .oracle import OperatorCost, count_forward, count_schedule, oracle_check
from .roofline import Regime, RooflinePoint, attainable_performance, ridge_point
from .schedule import DecodeSchedule, PhaseSums, StepDescriptor, build_schedule
from .sweep import SweepRow, SweepSpec, run_sweep
from .throughput import (
    IntensitySource,
    ThroughputEstimate,
    crossing_batch,
    estimate_throughput,
    flops_per_token,
)

__all__ = [
    "AccelerationConfig",
    "Architecture",
    "CostBreakdown",
    "DecodeSchedule",
    "HardwareSpec",
    "IntensitySource",
    "MemoryReport",
    "ModelConfig",
    "NO_ACCELERATION",
    "OperatorCost",
    "PhaseSums",
    "Regime",
    "RooflinePoint",
    "ScheduleCost",
    "StepDescriptor",
    "SweepRow",
    "SweepSpec",
    "ThroughputEstimate",
    "Workload",
    "attainable_performance",
    "build_schedule",
    "count_forward",
    "count_schedule",
    "crossing_batch",
    "derive_param_count",
    "estimate_memory",
    "estimate_throughput",
    "flops_per_token",
    "length_regime",
    "oracle_check",
    "published_arint",
    "ridge_point",
    "run_sweep",
    "step_cost",
    "total_cost",
    "validate_model_config",
]
