"""Decode-schedule construction for the three architecture families.

A schedule is the sequence of forward passes of one generation request:

* AR decodes one token per step (``tpf`` of them under parallel decoding),
  attending over a growing KV-cached context.
* DLM re-encodes the whole sequence of length L = prompt + generation on
  every denoising step; the step count equals the generation length by
  default, divided by ``tpf`` under parallel decoding. Dual cache shrinks the
  active window to a fixed block, with periodic full-sequence refresh passes.
* Block diffusion walks blocks of size G left to right, denoising each block
  with G full-block steps while reading the finalized prefix from cache.

A pass is its active tokens s, its context ctx and its phase; the other
ctx - s tokens' K/V come from cache. Every cost is linear in a few sums over
a phase's passes (see ``PhaseSums``), so ``build_schedule`` computes those
sums in closed form, with integer arithmetic, in O(1) whatever the
generation length; one branch per architecture picks both those sums and
its run expansion. The passes themselves are expanded only on demand, by
``DecodeSchedule.expand``, as runs: a ``StepDescriptor`` and the number of
consecutive passes equal to it. Runs split only where (s, ctx) or the phase
changes: a DLM phase is one run at any tpf, a dual-cache refresh cycle a
refresh run and a window run, a block-diffusion block one run; AR contexts
grow on every pass, so its runs are single passes. The per-operator oracle
reads the runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import chain, repeat
from typing import Callable, Iterator, NamedTuple

from .config import (
    AccelerationConfig,
    Architecture,
    ModelConfig,
    NO_ACCELERATION,
    Workload,
    check_acceleration,
    validate_model_config,
)


class StepDescriptor(NamedTuple):
    active_tokens: int  # tokens written/updated this pass, per sequence
    context_len: int    # tokens attended over, per sequence; the other context_len - active_tokens are cached
    is_prefill: bool


class PhaseSums(NamedTuple):
    """Sums over the passes of one phase, with s the active tokens and ctx the context.

    Every pass reads ctx - s tokens' K/V from cache, so these sums determine
    every FLOP and byte total of the phase.
    """

    passes: int = 0
    active: int = 0          # sum of s
    active_context: int = 0  # sum of s * ctx
    context: int = 0         # sum of ctx
    max_active: int = 0      # largest s, 0 for an empty phase

    @classmethod
    def uniform(cls, count: int, s: int, ctx: int) -> PhaseSums:
        """``count`` passes of ``s`` active tokens over ``ctx`` context tokens."""
        return cls(count, count * s, count * s * ctx, count * ctx, s if count else 0)


Run = tuple[StepDescriptor, int]  # a pass and how many times in a row it occurs, >= 1


@dataclass(frozen=True)
class DecodeSchedule:
    """The passes of the point (arch, workload, accel): closed-form sums per phase, runs of passes on demand."""

    arch: Architecture
    workload: Workload
    accel: AccelerationConfig
    kv_len: int         # tokens per sequence whose K/V stay resident: the sequence, or 0 for a DLM without dual cache
    decode: PhaseSums
    prefill: PhaseSums
    expand: Callable[[], Iterator[Run]] = field(repr=False, compare=False)

    @property
    def steps(self) -> tuple[StepDescriptor, ...]:
        """Every forward pass in order, expanded on demand in O(passes).

        No code in the package or its tests reads it; it stays until the
        perfbench tracer counts passes from the phase sums (ROADMAP item 1).
        """
        return tuple(chain.from_iterable(repeat(step, n) for step, n in self.expand()))


# Finalization quotas use a small tolerance so rational tpf values such as 3.1
# land on their intended integers (310/3.1 evaluates to 100.00000000000001).
_QUOTA_EPS = 1e-6


def _quota_line(tpf: float) -> tuple[int, int, int]:
    """Integers (a, b, m) with floor(i*tpf + eps) = (a*i + b) // m exactly.

    The quota is evaluated on the exact binary values of ``tpf`` and the
    tolerance, so the closed forms and the step expansion agree for every tpf.
    """
    tpf_num, tpf_den = tpf.as_integer_ratio()
    eps_num, eps_den = _QUOTA_EPS.as_integer_ratio()
    return tpf_num * eps_den, eps_num * tpf_den, tpf_den * eps_den


def _step_count(tokens: int, tpf: float) -> int:
    """Smallest k >= 1 with floor(k*tpf + eps) >= tokens; about ceil(tokens / tpf)."""
    a, b, m = _quota_line(tpf)
    return max(1, -((b - tokens * m) // a))


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of (a*i + b) // m over i in [0, n), for n >= 0, m >= 1, a, b >= 0, in O(log m) steps."""
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m


# ---------------------------------------------------------------------------
# Closed-form phase sums

def _ar_sums(wl: Workload, tpf: float) -> PhaseSums:
    """Sums of the AR decode passes: the i-th of k finalizes s_i tokens at context P + Q_i.

    Q_i = floor(i*tpf + eps) for i < k and Q_k = G, so the sizes before the
    last are all floor(tpf) or floor(tpf) + 1, and
    sum s_i*Q_i = (G^2 + sum s_i^2) / 2 because Q_i^2 - Q_{i-1}^2 = 2*s_i*Q_i - s_i^2.
    """
    gen, prompt = wl.gen_len, wl.prompt_len
    a, b, m = _quota_line(tpf)
    k = _step_count(gen, tpf)
    head = k - 1                         # passes before the last
    head_tokens = (a * head + b) // m    # Q_{k-1}
    low = a // m                         # floor(tpf)
    high_count = head_tokens - head * low
    last = gen - head_tokens
    squares = head * low * low + high_count * (2 * low + 1) + last * last
    return PhaseSums(
        passes=k,
        active=gen,
        active_context=prompt * gen + (gen * gen + squares) // 2,
        context=k * prompt + _floor_sum(k, m, a, b) + gen,
        max_active=max(last, low + 1 if high_count else low if head else 0),
    )


def _dlm_sums(wl: Workload, accel: AccelerationConfig) -> PhaseSums:
    """k full-sequence passes; dual cache runs k window passes plus ceil(k/interval) refreshes."""
    seq = wl.total_len
    k = _step_count(wl.gen_len, accel.tpf)
    if not accel.dual_cache:
        return PhaseSums.uniform(k, seq, seq)
    window = min(accel.dual_cache_block, seq)
    refreshes = -(-k // accel.cache_refresh_interval)
    return PhaseSums(
        passes=refreshes + k,
        active=refreshes * seq + k * window,
        active_context=refreshes * seq * seq + k * window * seq,
        context=(refreshes + k) * seq,
        max_active=seq,
    )


def _block_sums(wl: Workload, block_size: int, tpf: float) -> PhaseSums:
    """Each block runs n passes of (block tokens, prefix + block tokens).

    The q full blocks have contexts P + j*G for j = 1..q; a partial final
    block of r tokens runs the same n passes at context P + gen.
    """
    n = _step_count(block_size, tpf)
    full, rem = divmod(wl.gen_len, block_size)
    end = wl.total_len
    full_context = full * wl.prompt_len + block_size * full * (full + 1) // 2
    return PhaseSums(
        passes=n * (full + (rem > 0)),
        active=n * wl.gen_len,
        active_context=n * (block_size * full_context + rem * end),
        context=n * (full_context + (end if rem else 0)),
        max_active=block_size if full else rem,
    )


# ---------------------------------------------------------------------------
# Run expansion

def _ar_runs(wl: Workload, tpf: float) -> Iterator[Run]:
    # the i-th pass finalizes the tokens its quota adds; a partial last quota is truncated
    gen = wl.gen_len
    a, b, m = _quota_line(tpf)
    prev = 0
    for i in range(1, _step_count(gen, tpf) + 1):
        cur = min(gen, (a * i + b) // m)
        yield StepDescriptor(cur - prev, wl.prompt_len + cur, False), 1
        prev = cur


def _dlm_runs(wl: Workload, accel: AccelerationConfig) -> Iterator[Run]:
    seq = wl.total_len
    k = _step_count(wl.gen_len, accel.tpf)
    full = StepDescriptor(seq, seq, False)
    if not accel.dual_cache:
        yield full, k
        return
    interval = accel.cache_refresh_interval
    window = StepDescriptor(min(accel.dual_cache_block, seq), seq, False)
    if window == full:  # a window over the whole sequence is a refresh pass
        yield full, k + -(-k // interval)
        return
    # a full re-encode opens every cycle of cache_refresh_interval window passes
    # and builds the prefix+suffix cache for it
    for done in range(0, k, interval):
        yield full, 1
        yield window, min(interval, k - done)


def _block_runs(wl: Workload, block_size: int, tpf: float) -> Iterator[Run]:
    # the full blocks end at P + j*G; a partial final block runs the same passes at P + gen
    n = _step_count(block_size, tpf)
    full, rem = divmod(wl.gen_len, block_size)
    for ctx in range(wl.prompt_len + block_size, wl.prompt_len + full * block_size + 1, block_size):
        yield StepDescriptor(block_size, ctx, False), n
    if rem:
        yield StepDescriptor(rem, wl.total_len, False), n


def build_schedule(
    arch: Architecture,
    cfg: ModelConfig,
    wl: Workload,
    accel: AccelerationConfig = NO_ACCELERATION,
) -> DecodeSchedule:
    """Deterministic forward-pass schedule for one generation request, in O(1).

    Its inputs checked themselves when built; ``validate_model_config`` and
    ``check_acceleration`` pair the model and the acceleration with ``arch``.
    The schedule carries ``arch``, ``wl`` and ``accel``, the whole point.
    """
    validate_model_config(cfg, arch)
    check_acceleration(accel, arch)

    if arch is Architecture.AR:
        decode, runs = _ar_sums(wl, accel.tpf), partial(_ar_runs, wl, accel.tpf)
    elif arch is Architecture.DLM:
        decode, runs = _dlm_sums(wl, accel), partial(_dlm_runs, wl, accel)
    else:
        decode, runs = _block_sums(wl, cfg.block_size, accel.tpf), partial(_block_runs, wl, cfg.block_size, accel.tpf)
    # a DLM re-encodes the prompt on every denoising pass; it has no separate prefill
    prompt = 0 if arch is Architecture.DLM else wl.prompt_len
    return DecodeSchedule(
        arch=arch,
        workload=wl,
        accel=accel,
        kv_len=0 if arch is Architecture.DLM and not accel.dual_cache else wl.total_len,
        decode=decode,
        prefill=PhaseSums.uniform(1, prompt, prompt) if prompt else PhaseSums(),
        expand=lambda: chain(((StepDescriptor(prompt, prompt, True), 1),) if prompt else (), runs()),
    )
