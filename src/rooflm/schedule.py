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

Every cost is linear in a few sums over a phase's passes (see ``PhaseSums``),
so ``build_schedule`` computes those sums in closed form, with integer
arithmetic, in O(1) whatever the generation length. The passes themselves
are expanded only on demand, by ``DecodeSchedule.expand``, as runs: a
``StepDescriptor`` and the number of consecutive passes equal to it. At an
integer tpf a DLM phase is at most three runs (full quota, remainder, zero
tail), a block-diffusion block at most three, and a dual-cache refresh cycle
one refresh run plus its window runs; AR contexts grow on every pass, so its
runs are single passes. The per-operator oracle reads the runs;
``DecodeSchedule.steps`` lists every pass, for inspection and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import chain, groupby, repeat
from typing import Callable, Iterable, Iterator, NamedTuple

from .config import (
    AccelerationConfig,
    Architecture,
    ModelConfig,
    NO_ACCELERATION,
    Workload,
    validate_acceleration,
    validate_model_config,
    validate_workload,
)


class StepDescriptor(NamedTuple):
    active_tokens: int      # tokens written/updated this pass, per sequence
    context_len: int        # tokens attended over, per sequence
    cached_kv_len: int      # tokens whose K/V come from cache
    is_prefill: bool
    finalized_tokens: int   # tokens newly finalized this pass, per sequence


class PhaseSums(NamedTuple):
    """Sums over the passes of one phase, with s the active tokens and ctx the context.

    Every pass has cached_kv_len = ctx - s, so these sums determine every
    FLOP and byte total of the phase.
    """

    passes: int = 0
    active: int = 0          # sum of s
    active_context: int = 0  # sum of s * ctx
    context: int = 0         # sum of ctx
    max_active: int = 0      # largest s, 0 for an empty phase

    @classmethod
    def of(cls, steps: Iterable[StepDescriptor]) -> PhaseSums:
        """The sums of explicitly listed passes."""
        passes = active = active_context = context = max_active = 0
        for step in steps:
            s, ctx = step.active_tokens, step.context_len
            passes += 1
            active += s
            active_context += s * ctx
            context += ctx
            max_active = max(max_active, s)
        return cls(passes, active, active_context, context, max_active)

    @classmethod
    def uniform(cls, count: int, s: int, ctx: int) -> PhaseSums:
        """``count`` passes of ``s`` active tokens over ``ctx`` context tokens."""
        return cls(count, count * s, count * s * ctx, count * ctx, s if count else 0)


Run = tuple[StepDescriptor, int]  # a pass and how many times in a row it occurs, >= 1


@dataclass(frozen=True)
class DecodeSchedule:
    """One request's forward passes: closed-form sums per phase, runs of passes on demand."""

    arch: Architecture
    batch: int
    decode: PhaseSums
    prefill: PhaseSums
    expand: Callable[[], Iterator[Run]] = field(repr=False, compare=False)

    @classmethod
    def from_steps(cls, arch: Architecture, batch: int, steps: Iterable[StepDescriptor]) -> DecodeSchedule:
        """A schedule of explicitly listed passes, each its own run."""
        steps = tuple(steps)
        return cls(
            arch=arch,
            batch=batch,
            decode=PhaseSums.of(s for s in steps if not s.is_prefill),
            prefill=PhaseSums.of(s for s in steps if s.is_prefill),
            expand=lambda: ((step, 1) for step in steps),
        )

    @property
    def steps(self) -> tuple[StepDescriptor, ...]:
        """Every forward pass in order, expanded on demand in O(passes)."""
        return tuple(chain.from_iterable(repeat(step, n) for step, n in self.expand()))

    @property
    def decode_steps(self) -> tuple[StepDescriptor, ...]:
        return tuple(s for s in self.steps if not s.is_prefill)

    @property
    def prefill_steps(self) -> tuple[StepDescriptor, ...]:
        return tuple(s for s in self.steps if s.is_prefill)

    @property
    def finalized_total(self) -> int:
        return sum(step.finalized_tokens * n for step, n in self.expand() if not step.is_prefill)


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


def _finalized_sizes(tokens: int, steps: int, tpf: float) -> Iterator[int]:
    """Per-step finalized-token counts over ``steps`` passes, summing to ``tokens``.

    With tpf = 1 this is [1] * tokens; a partial trailing quota is truncated.
    When ``steps`` exceeds what the quota needs (a partial final block ran its
    nominal step count), trailing steps finalize zero tokens.
    """
    a, b, m = _quota_line(tpf)
    prev = 0
    for i in range(1, steps + 1):
        cur = min(tokens, (a * i + b) // m)
        yield cur - prev
        prev = cur


def _size_runs(tokens: int, steps: int, tpf: float) -> Iterator[tuple[int, int]]:
    """``_finalized_sizes`` as (size, count) runs of equal consecutive sizes.

    ``steps`` is at least what the quota needs to finalize ``tokens``. At an
    integer tpf every quota is exactly i*tpf, so the sizes are tpf (full
    quotas), then the remainder, then zeros: at most three runs, in O(1).
    """
    if not float(tpf).is_integer():  # tpf may be a Python int
        for size, group in groupby(_finalized_sizes(tokens, steps, tpf)):
            yield size, sum(1 for _ in group)
        return
    full, rem = divmod(tokens, int(tpf))
    for size, count in ((int(tpf), full), (rem, 1 if rem else 0), (0, steps - full - (rem > 0))):
        if count:
            yield size, count


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
    ctx = wl.prompt_len
    for size in _finalized_sizes(wl.gen_len, _step_count(wl.gen_len, tpf), tpf):
        ctx += size
        yield StepDescriptor(size, ctx, ctx - size, False, size), 1


def _dlm_runs(wl: Workload, accel: AccelerationConfig) -> Iterator[Run]:
    seq = wl.total_len
    sizes = _size_runs(wl.gen_len, _step_count(wl.gen_len, accel.tpf), accel.tpf)
    if not accel.dual_cache:
        for size, count in sizes:
            yield StepDescriptor(seq, seq, 0, False, size), count
        return
    window = min(accel.dual_cache_block, seq)
    # a full re-encode opens every cycle of cache_refresh_interval window passes
    # and builds the prefix+suffix cache for it
    refresh = StepDescriptor(seq, seq, 0, False, 0)
    room = 0  # window passes left in the current cycle
    for size, count in sizes:
        step = StepDescriptor(window, seq, seq - window, False, size)
        while count:
            if not room:
                yield refresh, 1
                room = accel.cache_refresh_interval
            n = min(count, room)
            yield step, n
            count -= n
            room -= n


def _block_runs(wl: Workload, block_size: int, tpf: float) -> Iterator[Run]:
    n = _step_count(block_size, tpf)
    full, rem = divmod(wl.gen_len, block_size)
    # every full block finalizes the same sizes; only a partial final block differs
    blocks = [(block_size, tuple(_size_runs(block_size, n, tpf)))] * full
    if rem:
        blocks.append((rem, _size_runs(rem, n, tpf)))
    prefix = wl.prompt_len
    for tokens, sizes in blocks:
        for size, count in sizes:
            yield StepDescriptor(tokens, prefix + tokens, prefix, False, size), count
        prefix += tokens


def _runs(arch: Architecture, block_size, wl: Workload, accel: AccelerationConfig) -> Iterator[Run]:
    if arch is Architecture.DLM:
        # the prompt is re-encoded on every denoising pass; no separate prefill
        yield from _dlm_runs(wl, accel)
        return
    if wl.prompt_len > 0:
        yield StepDescriptor(wl.prompt_len, wl.prompt_len, 0, True, 0), 1
    if arch is Architecture.AR:
        yield from _ar_runs(wl, accel.tpf)
    else:
        yield from _block_runs(wl, block_size, accel.tpf)


def build_schedule(
    arch: Architecture,
    cfg: ModelConfig,
    wl: Workload,
    accel: AccelerationConfig = NO_ACCELERATION,
) -> DecodeSchedule:
    """Deterministic forward-pass schedule for one generation request, in O(1)."""
    validate_model_config(cfg, arch)
    validate_workload(wl)
    validate_acceleration(accel)

    if arch is Architecture.AR:
        decode = _ar_sums(wl, accel.tpf)
    elif arch is Architecture.DLM:
        decode = _dlm_sums(wl, accel)
    else:
        decode = _block_sums(wl, cfg.block_size, accel.tpf)
    has_prefill = arch is not Architecture.DLM and wl.prompt_len > 0
    prefill = PhaseSums.uniform(1, wl.prompt_len, wl.prompt_len) if has_prefill else PhaseSums()
    return DecodeSchedule(
        arch=arch,
        batch=wl.batch,
        decode=decode,
        prefill=prefill,
        expand=partial(_runs, arch, cfg.block_size, wl, accel),
    )
