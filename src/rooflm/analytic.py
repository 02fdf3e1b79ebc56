"""Closed-form FLOPs/MOPs accounting and arithmetic-intensity expressions.

Counting conventions (a matmul of shapes (s x k) @ (k x m) costs 2*s*k*m):

* per decode step, per layer, per sequence --
  QKV projections 6*s*d^2, output projection 2*s*d^2,
  attention scores + value gather 2*s*L_ctx*d each,
  two-matrix FFN d -> alpha*d -> d totalling 4*alpha*s*d^2;
* memory traffic in bytes --
  weights read once per pass (N elements), K/V traffic 2*d*L_ctx per layer
  per sequence, activations c_act*s*d per layer per sequence (c_act = 4).

A schedule's totals are linear in four sums over each phase's passes (count,
sum of s, sum of s*L_ctx, sum of L_ctx; see ``schedule.PhaseSums``), so
``total_cost`` evaluates them in O(1) whatever the number of decode steps,
and equals the sum of ``step_cost`` over the expanded steps.

``published_step`` and ``published_arint`` are a separate family: one
branch per architecture evaluates the numerator and denominator of its
published intensity estimate verbatim, and the intensity is their quotient.
Their AR numerator B*N and alpha^2 FFN term differ from the step-cost
conventions above by constant factors; the two families are reconciled at
the level of scaling exponents only (see the counting oracle), never
constants.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import fsum, inf

from .config import Architecture, HardwareSpec, ModelConfig, Workload
from .schedule import DecodeSchedule, PhaseSums, StepDescriptor

# activation read/write traffic per active token, in units of d elements
ACTIVATION_TRAFFIC_ELEMS = 4

# the factor by which sequence length and hidden size must differ for
# ``length_regime`` to tag a point 'L<<d' or 'L>>d'
LENGTH_MARGIN = 10.0


@dataclass(frozen=True)
class CostBreakdown:
    """Labeled FLOP and byte sub-costs of one or more forward passes."""

    projection_flops: float = 0.0
    attention_flops: float = 0.0
    ffn_flops: float = 0.0
    weights_read: float = 0.0     # bytes
    kv_read_write: float = 0.0    # bytes
    activation_io: float = 0.0    # bytes

    @property
    def flops(self) -> float:
        return fsum((self.projection_flops, self.attention_flops, self.ffn_flops))

    @property
    def mops(self) -> float:
        return fsum((self.weights_read, self.kv_read_write, self.activation_io))

    @property
    def components(self) -> dict[str, float]:
        """Every field by name, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ScheduleCost:
    """Decode and prefill costs of a schedule, kept separate so prefill stays auditable."""

    decode: CostBreakdown
    prefill: CostBreakdown

    @property
    def combined(self) -> CostBreakdown:
        prefill = self.prefill.components
        return CostBreakdown(**{name: fsum((value, prefill[name])) for name, value in self.decode.components.items()})


# ---------------------------------------------------------------------------
# Published arithmetic-intensity estimates (evaluated verbatim)

def published_arint(arch: Architecture, cfg: ModelConfig, wl: Workload) -> float:
    """Published intensity estimate: the quotient of the pair ``published_step`` returns.

    The AR estimate is bounded above by B and equals 1 exactly at L = 0.
    """
    flops, elements = published_step(arch, cfg, wl)
    return flops / elements


def published_step(arch: Architecture, cfg: ModelConfig, wl: Workload) -> tuple[float, float]:
    """Per-decode-step (FLOPs, elements) under the published estimates, for reproducing their figures.

    AR: B*N over N + B*n_l*n_h*n_d*L; DLM: 2*B*n_l*(2*L*d^2 + alpha^2*L*d^2 + L^2*d)
    over N + B*n_l*d*L; block diffusion: 2*B*n_l*(2*G*d^2 + alpha^2*G*d^2 + L*G*d)
    over N + 2*B*n_l*d*L + B*n_l*d*G.
    """
    b, d, seq, n = wl.batch, cfg.d, wl.total_len, cfg.n_params
    if arch is Architecture.AR:
        return float(b * n), n + b * cfg.n_l * cfg.n_h * cfg.n_d * seq
    if arch is Architecture.DLM:
        return (2.0 * b * cfg.n_l * (2.0 * seq * d**2 + cfg.alpha**2 * seq * d**2 + seq**2 * d),
                n + b * cfg.n_l * d * seq)
    g = cfg.block_size
    return (2.0 * b * cfg.n_l * (2.0 * g * d**2 + cfg.alpha**2 * g * d**2 + seq * g * d),
            n + 2.0 * b * cfg.n_l * d * seq + b * cfg.n_l * d * g)


def length_regime(cfg: ModelConfig, wl: Workload) -> str:
    """Dominant-term tag for regime narration: 'L<<d', 'L~d', or 'L>>d'."""
    seq = wl.total_len
    if seq * LENGTH_MARGIN <= cfg.d:
        return "L<<d"
    if seq >= LENGTH_MARGIN * cfg.d:
        return "L>>d"
    return "L~d"


# ---------------------------------------------------------------------------
# Step and schedule costs

def step_cost(cfg: ModelConfig, step: StepDescriptor, hw: HardwareSpec, batch: int = 1) -> CostBreakdown:
    """Closed-form cost of one forward pass described by ``step``.

    FLOPs = B*n_l*(8*s*d^2 + 4*s*L_ctx*d + 4*alpha*s*d^2)
    MOPs  = bytes_per_element*(N + B*n_l*2*d*L_ctx + c_act*B*n_l*s*d)
    """
    return _phase_cost(cfg, PhaseSums.uniform(1, step.active_tokens, step.context_len), hw, batch)


def _phase_cost(cfg: ModelConfig, sums: PhaseSums, hw: HardwareSpec, batch: int = 1) -> CostBreakdown:
    """Sum of ``step_cost`` over the passes summarized by ``sums``.

    Each integer sum is converted to float once and scaled in ``step_cost``'s
    coefficient order. Where every product is exact in binary (dyadic alpha,
    power-of-two d, sums below 2**53), each component is the correctly
    rounded total, as the ``fsum`` of the per-step costs is; elsewhere the
    two differ by rounding only.
    """
    d, n_l = cfg.d, cfg.n_l
    bpe = hw.bytes_per_element
    try:
        s, s_ctx, ctx = float(sums.active), float(sums.active_context), float(sums.context)
        return CostBreakdown(
            projection_flops=batch * n_l * 8.0 * s * d**2,
            attention_flops=batch * n_l * 4.0 * s_ctx * d,
            ffn_flops=batch * n_l * 4.0 * cfg.alpha * s * d**2,
            weights_read=bpe * cfg.n_params * sums.passes,
            kv_read_write=bpe * batch * n_l * 2.0 * d * ctx,
            activation_io=bpe * ACTIVATION_TRAFFIC_ELEMS * batch * n_l * s * d,
        )
    except OverflowError:  # an integer beyond the float range: infinite totals, which schedule_throughput rejects
        return CostBreakdown(*[inf] * 6)


def total_cost(schedule: DecodeSchedule, cfg: ModelConfig, hw: HardwareSpec) -> ScheduleCost:
    """Decode and prefill costs of ``schedule`` from its phase sums, in O(1)."""
    batch = schedule.batch
    return ScheduleCost(
        decode=_phase_cost(cfg, schedule.decode, hw, batch),
        prefill=_phase_cost(cfg, schedule.prefill, hw, batch),
    )
