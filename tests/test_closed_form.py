"""The closed-form schedule sums against the per-step expansion and the operator oracle."""

import math
import time
import tracemalloc
from dataclasses import replace
from math import fsum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rooflm.analytic import CostBreakdown, step_cost, total_cost
from rooflm.config import AccelerationConfig, Architecture, HardwareSpec, ModelConfig, Workload
from rooflm.oracle import count_schedule
from rooflm.presets import A800_CLASS, DEFAULT_MODELS
from rooflm.schedule import build_schedule
from rooflm.sweep import evaluate_point
from rooflm.throughput import IntensitySource

from conftest import dlm_only_dual_cache, passes

HW = HardwareSpec(p_max=1e12, b_mem=1e10, capacity=1e18)
# dyadic alpha and an integer N keep every product exact, so all three sums agree bit for bit;
# alpha = 3.3 and a fractional N round, so they agree to rounding
EXACT_CFG = ModelConfig(n_l=3, n_h=2, n_d=8, d=16, alpha=3.5, n_params=8000.0)
ROUNDED_CFG = ModelConfig(n_l=3, n_h=2, n_d=8, d=16, alpha=3.3, n_params=8123.7)

FRACTIONAL_TPF = (1.5, 2.7, 3.1, 7.3)


def _per_step(steps, cfg, batch) -> CostBreakdown:
    costs = [step_cost(cfg, s, HW, batch) for s in steps]
    return CostBreakdown(**{name: fsum(c.components[name] for c in costs) for name in CostBreakdown().components})


def _assert_agree(closed, reference, exact):
    for name, value in closed.components.items():
        if exact:
            assert value == reference.components[name], name
        else:
            assert value == pytest.approx(reference.components[name], rel=1e-12, abs=0.0), name


@settings(max_examples=300, deadline=None)
@given(
    arch=st.sampled_from(list(Architecture)),
    exact=st.booleans(),
    block_size=st.integers(1, 40),
    wl=st.builds(
        Workload,
        batch=st.integers(1, 8),
        prompt_len=st.integers(0, 64) | st.just(0),
        gen_len=st.integers(1, 200),
    ),
    accel=st.builds(
        AccelerationConfig,
        tpf=st.sampled_from((1.0, 2.0) + FRACTIONAL_TPF) | st.floats(1.0, 12.0),
        dual_cache=st.booleans(),
        dual_cache_block=st.integers(1, 300),
        cache_refresh_interval=st.integers(1, 9),
    ),
)
@example(Architecture.AR, True, 4, Workload(2, 0, 97), AccelerationConfig(tpf=2.7))
@example(Architecture.AR, True, 4, Workload(1, 5, 100), AccelerationConfig(tpf=7.3))
@example(Architecture.DLM, True, 4, Workload(3, 0, 50), AccelerationConfig(tpf=3.1, dual_cache=True,
                                                                         dual_cache_block=80,
                                                                         cache_refresh_interval=4))
@example(Architecture.DLM, False, 4, Workload(1, 7, 31), AccelerationConfig(tpf=1.5, dual_cache=True,
                                                                          dual_cache_block=8,
                                                                          cache_refresh_interval=7))
@example(Architecture.BLOCK_DIFFUSION, True, 32, Workload(2, 0, 20), AccelerationConfig(tpf=3.1))
@example(Architecture.BLOCK_DIFFUSION, True, 6, Workload(1, 9, 53), AccelerationConfig(tpf=2.7))
def test_closed_form_matches_expansion_and_oracle(arch, exact, block_size, wl, accel):
    cfg = EXACT_CFG if exact else ROUNDED_CFG
    if arch is Architecture.BLOCK_DIFFUSION:
        cfg = replace(cfg, block_size=block_size)
    sched = build_schedule(arch, cfg, wl, dlm_only_dual_cache(arch, accel))
    decode, prefill = passes(sched), passes(sched, prefill=True)

    assert sched.decode.passes == len(decode)
    assert sched.decode.max_active == max(s.active_tokens for s in decode)
    if arch is Architecture.AR:  # each AR pass writes the tokens it finalizes
        assert sum(s.active_tokens for s in decode) == wl.gen_len

    closed = total_cost(sched, cfg, HW)
    oracle = count_schedule(sched, cfg, HW)
    for phase, steps in (("decode", decode), ("prefill", prefill)):
        _assert_agree(getattr(closed, phase), _per_step(steps, cfg, wl.batch), exact)
        _assert_agree(getattr(closed, phase), getattr(oracle, phase), exact)


SCALE_POINTS = [
    (arch, accel) for arch in Architecture for accel in (AccelerationConfig(), AccelerationConfig(tpf=3.1))
] + [(Architecture.DLM, AccelerationConfig(dual_cache=True))]  # dual cache is a DLM acceleration


def test_cost_does_not_grow_with_gen_len():
    wl = Workload(batch=64, prompt_len=920, gen_len=10**8)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        rows = [
            evaluate_point(arch, DEFAULT_MODELS[arch], A800_CLASS, wl, accel,
                           source=IntensitySource.SCHEDULE, include_prefill=False)
            for arch, accel in SCALE_POINTS
        ]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - start

    for row in rows:
        est = row.estimate
        values = (est.tokens_per_second, est.arint, est.flops_total, est.mops_total, row.memory.total_bytes)
        assert all(math.isfinite(v) and v > 0 for v in values), row.key
        assert est.decode_steps >= wl.gen_len // 4
    assert peak < 1 << 20
    assert elapsed < 1.0
