import random
import tracemalloc
from dataclasses import replace
from math import fsum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rooflm import analytic, oracle, throughput
from rooflm.analytic import ACTIVATION_TRAFFIC_ELEMS, CostBreakdown
from rooflm.config import AccelerationConfig, Architecture, HardwareSpec, ModelConfig, Workload
from rooflm.errors import ConfigValidationError
from rooflm.oracle import (
    OP_NAMES,
    battery_report,
    count_forward,
    count_schedule,
    default_battery,
    oracle_check,
)
from rooflm.schedule import StepDescriptor, build_schedule

from conftest import dlm_only_dual_cache, every_pass, passes, schedule_of

TINY = ModelConfig(n_l=1, n_h=1, n_d=2, d=2, alpha=2.0, n_params=100.0)
HW = HardwareSpec(p_max=1e12, b_mem=1e10, capacity=1e18)


class TestCountForward:
    def test_itemized_hand_count(self):
        ops = {o.op_name: o for o in count_forward(TINY, StepDescriptor(1, 4, False), HW)}
        assert ops["qkv_proj"].flops == 24
        assert ops["attn_scores"].flops == 16
        assert ops["attn_value"].flops == 16
        assert ops["out_proj"].flops == 8
        assert ops["ffn_up"].flops + ops["ffn_down"].flops == 32
        assert fsum(o.flops for o in ops.values()) == 96

    def test_full_sequence_pass_is_four_times(self):
        total = fsum(o.flops for o in count_forward(TINY, StepDescriptor(4, 4, False), HW))
        assert total == 384

    def test_no_cache_no_read(self):
        ops = {o.op_name: o for o in count_forward(TINY, StepDescriptor(1, 1, False), HW)}
        assert ops["kv_cache_read"].bytes == 0

    def test_operator_names_complete(self):
        ops = count_forward(TINY, StepDescriptor(1, 4, False), HW)
        assert tuple(o.op_name for o in ops) == OP_NAMES

    def test_pure_compute_or_pure_io(self):
        for op in count_forward(TINY, StepDescriptor(2, 8, False), HW, batch=3):
            assert op.flops >= 0 and op.bytes >= 0
            assert op.flops == 0 or op.bytes == 0

    def test_weight_read_once_per_pass(self):
        ops = {o.op_name: o for o in count_forward(TINY, StepDescriptor(1, 4, False), HW, batch=7)}
        assert ops["weight_read"].bytes == HW.bytes_per_element * TINY.n_params

    @settings(max_examples=60, deadline=None)
    @given(b=st.integers(1, 8), k=st.integers(2, 4), s=st.integers(1, 8), extra=st.integers(0, 8))
    def test_exact_linearity_in_batch_layers_tokens(self, b, k, s, extra):
        step = StepDescriptor(s, s + extra, False)
        base = fsum(o.flops for o in count_forward(TINY, step, HW, batch=b))
        batched = fsum(o.flops for o in count_forward(TINY, step, HW, batch=k * b))
        layered = fsum(o.flops for o in count_forward(replace(TINY, n_l=k), step, HW, batch=b))
        scaled_step = StepDescriptor(k * s, s + extra, False)
        scaled = fsum(o.flops for o in count_forward(TINY, scaled_step, HW, batch=b))
        assert batched == k * base
        assert layered == k * base
        assert scaled == k * base


def _literal_operators(cfg, step, hw, batch):
    """The ten operator values as formulas written out in full, each evaluated left to right."""
    s, ctx = step.active_tokens, step.context_len
    d, n_l, a = cfg.d, cfg.n_l, cfg.alpha
    bpe = hw.bytes_per_element
    bl = batch * n_l
    return [
        ("qkv_proj", bl * 6.0 * s * d**2, 0.0),
        ("attn_scores", bl * 2.0 * s * ctx * d, 0.0),
        ("attn_value", bl * 2.0 * s * ctx * d, 0.0),
        ("out_proj", bl * 2.0 * s * d**2, 0.0),
        ("ffn_up", bl * 2.0 * s * d * (a * d), 0.0),
        ("ffn_down", bl * 2.0 * s * (a * d) * d, 0.0),
        ("kv_cache_read", 0.0, bpe * bl * 2.0 * d * (ctx - s)),
        ("kv_cache_write", 0.0, bpe * bl * 2.0 * d * s),
        ("weight_read", 0.0, bpe * cfg.n_params),
        ("activation_io", 0.0, bpe * ACTIVATION_TRAFFIC_ELEMS * bl * s * d),
    ]


# products and partial products past 2**53 round, so a factor taken out of its
# left-to-right place changes the value
@settings(max_examples=300, deadline=None)
@given(
    n_l=st.integers(1, 64),
    d=st.integers(1, 2**26),
    alpha=st.floats(1.0, 16.0),
    n_params=st.floats(1.0, 1e15),
    bpe=st.sampled_from((1, 2, 4)),
    batch=st.integers(1, 8),
    s=st.integers(1, 2**50),
    extra=st.just(0) | st.integers(0, 2**50),
)
@example(n_l=3, d=16, alpha=3.3, n_params=8123.7, bpe=2, batch=5, s=3, extra=7)
# (bl * 6.0 * s) * d**2 != (bl * 6.0 * d**2) * s here
@example(n_l=61, d=33_788_082, alpha=3.3, n_params=8123.7, bpe=4, batch=7, s=140_858_649_188_653, extra=12_345)
def test_count_forward_equals_literal_formulas(n_l, d, alpha, n_params, bpe, batch, s, extra):
    cfg = ModelConfig(n_l=n_l, n_h=1, n_d=d, d=d, alpha=alpha, n_params=n_params)
    hw = HardwareSpec(p_max=1e12, b_mem=1e10, capacity=1e18, bytes_per_element=bpe)
    step = StepDescriptor(s, s + extra, False)
    ops = [tuple(op) for op in count_forward(cfg, step, hw, batch)]
    assert ops == _literal_operators(cfg, step, hw, batch)


class TestCountSchedule:
    def test_ar_toy(self):
        sched = build_schedule(Architecture.AR, TINY, Workload(1, 0, 4))
        assert count_schedule(sched, TINY, HW).decode.flops == 336

    def test_dlm_toy(self):
        sched = build_schedule(Architecture.DLM, TINY, Workload(1, 0, 4))
        assert count_schedule(sched, TINY, HW).decode.flops == 1536

    def test_single_step_equals_count_forward(self):
        step = StepDescriptor(2, 6, False)
        sched = schedule_of(Architecture.AR, Workload(batch=3, prompt_len=4, gen_len=2), (step,))
        total = count_schedule(sched, TINY, HW).decode
        by_hand = count_forward(TINY, step, HW, batch=3)
        assert total.flops == fsum(o.flops for o in by_hand)
        assert total.mops == fsum(o.bytes for o in by_hand)

    def test_ar_per_step_increment_constant(self):
        cfg = ModelConfig(n_l=3, n_h=2, n_d=8, d=16, alpha=2.0, n_params=5000.0)
        sched = build_schedule(Architecture.AR, cfg, Workload(2, 5, 12))
        flops = [
            fsum(o.flops for o in count_forward(cfg, s, HW, batch=2)) for s in passes(sched)
        ]
        diffs = {b - a for a, b in zip(flops, flops[1:])}
        assert diffs == {2 * cfg.n_l * 4 * cfg.d}

    def test_dlm_total_is_steps_times_single_pass(self):
        cfg = ModelConfig(n_l=2, n_h=2, n_d=4, d=8, alpha=4.0, n_params=1000.0)
        wl = Workload(3, 7, 9)
        sched = build_schedule(Architecture.DLM, cfg, wl)
        one = fsum(o.flops for o in count_forward(cfg, every_pass(sched)[0], HW, batch=3))
        assert count_schedule(sched, cfg, HW).decode.flops == pytest.approx(9 * one, rel=1e-15)

    def test_order_independence(self):
        cfg = ModelConfig(n_l=2, n_h=2, n_d=4, d=8, alpha=3.5, n_params=1000.0)
        sched = build_schedule(Architecture.AR, cfg, Workload(2, 3, 40))
        shuffled_steps = list(every_pass(sched))
        random.Random(7).shuffle(shuffled_steps)
        shuffled = schedule_of(sched.arch, sched.workload, shuffled_steps)
        a = count_schedule(sched, cfg, HW)
        b = count_schedule(shuffled, cfg, HW)
        assert a.decode.flops == b.decode.flops
        assert a.decode.mops == b.decode.mops

    def test_matches_closed_form_exactly(self):
        # twin implementations by different routes; constants agree by design
        for arch in Architecture:
            cfg = ModelConfig(n_l=2, n_h=2, n_d=4, d=8, alpha=3.5, n_params=1000.0, block_size=4)
            sched = build_schedule(arch, cfg, Workload(2, 6, 16))
            orc = count_schedule(sched, cfg, HW)
            ana = analytic.total_cost(sched, cfg, HW)
            for phase in ("decode", "prefill"):
                want = getattr(ana, phase).components
                for name, value in getattr(orc, phase).components.items():
                    assert value == pytest.approx(want[name], rel=1e-15), (arch, phase, name)


# the cost component each operator's FLOPs or bytes belong to
COMPONENT = {
    "qkv_proj": "projection_flops",
    "out_proj": "projection_flops",
    "attn_scores": "attention_flops",
    "attn_value": "attention_flops",
    "ffn_up": "ffn_flops",
    "ffn_down": "ffn_flops",
    "kv_cache_read": "kv_read_write",
    "kv_cache_write": "kv_read_write",
    "weight_read": "weights_read",
    "activation_io": "activation_io",
}
# alpha = 3.3 and a fractional N make the per-operator values round
ROUNDING_CFG = ModelConfig(n_l=3, n_h=2, n_d=8, d=16, alpha=3.3, n_params=8123.7)


def _fsum_every_pass(sched, cfg, prefill):
    """Per component, the fsum of count_forward over every pass of one phase, one pass at a time."""
    parts = {name: [] for name in CostBreakdown().components}
    for step in passes(sched, prefill):
        for op in count_forward(cfg, step, HW, sched.workload.batch):
            parts[COMPONENT[op.op_name]].append(op.flops + op.bytes)  # one of the two is 0
    return {name: fsum(values) for name, values in parts.items()}


@settings(max_examples=150, deadline=None)
@given(
    arch=st.sampled_from(list(Architecture)),
    block_size=st.integers(1, 24),
    wl=st.builds(Workload, batch=st.integers(1, 8), prompt_len=st.just(0) | st.integers(1, 64),
                 gen_len=st.integers(1, 160)),
    accel=st.builds(
        AccelerationConfig,
        tpf=st.sampled_from((1.0, 3.1, 7.3)),
        dual_cache=st.booleans(),
        dual_cache_block=st.integers(1, 100),
        cache_refresh_interval=st.integers(1, 9),
    ),
)
@example(Architecture.AR, 4, Workload(2, 0, 97), AccelerationConfig())
@example(Architecture.AR, 4, Workload(1, 5, 100), AccelerationConfig(tpf=7.3))
# 17 window passes at tpf 3.1 over refresh cycles of 4: the last cycle is partial
@example(Architecture.DLM, 4, Workload(3, 0, 50), AccelerationConfig(tpf=3.1, dual_cache=True, dual_cache_block=8,
                                                                     cache_refresh_interval=4))
@example(Architecture.DLM, 4, Workload(1, 7, 31), AccelerationConfig())
# 53 = 8 * 6 + 5: a partial final block of 5 tokens
@example(Architecture.BLOCK_DIFFUSION, 6, Workload(1, 9, 53), AccelerationConfig(tpf=7.3))
@example(Architecture.BLOCK_DIFFUSION, 6, Workload(2, 0, 53), AccelerationConfig(tpf=3.1))
# one decode pass and an empty prefill phase, whose fsum is over no terms
@example(Architecture.AR, 4, Workload(1, 0, 1), AccelerationConfig())
# one run of 4096 equal passes, each value repeated 4096 times into its fsum
@example(Architecture.DLM, 4, Workload(3, 7, 4096), AccelerationConfig())
def test_grouped_passes_equal_every_pass_fsum(arch, block_size, wl, accel):
    cfg = replace(ROUNDING_CFG, block_size=block_size)
    sched = build_schedule(arch, cfg, wl, dlm_only_dual_cache(arch, accel))
    grouped = count_schedule(sched, cfg, HW)
    for phase, prefill in (("decode", False), ("prefill", True)):
        assert getattr(grouped, phase).components == _fsum_every_pass(sched, cfg, prefill), phase


def test_count_schedule_memory_flat_in_gen_len():
    # one DLM run of 2**16 passes: a per-pass list of its operator values would take megabytes
    cfg = ModelConfig(n_l=1, n_h=1, n_d=8, d=8, alpha=1.0, n_params=64.0)
    sched = build_schedule(Architecture.DLM, cfg, Workload(1, 0, 2**16))
    tracemalloc.start()
    try:
        count_schedule(sched, cfg, HW)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16_000


def test_count_schedule_memory_on_ar_at_the_length_cap():
    # AR runs are single passes, so the oracle holds O(passes): about 520-600 B a pass,
    # 2.1-2.5 MB at the L cap of 4096 on CPython 3.11; the bound leaves about 1.4x of that
    cfg = ModelConfig(n_l=1, n_h=1, n_d=8, d=8, alpha=1.0, n_params=64.0)
    sched = build_schedule(Architecture.AR, cfg, Workload(1, 0, 4096))
    tracemalloc.start()
    try:
        count_schedule(sched, cfg, HW)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_450_000


class TestOracleCheck:
    def test_passes_on_toy_dlm(self):
        cfg = ModelConfig(n_l=2, n_h=1, n_d=8, d=8, alpha=1.0, n_params=128.0)
        report = oracle_check(Architecture.DLM, cfg, Workload(1, 0, 1024), variables=("L",))
        assert report.passed
        assert report.verdict == "PASS"

    def test_report_formats(self):
        cfg = ModelConfig(n_l=1, n_h=1, n_d=8, d=8, alpha=1.0, n_params=64.0)
        report = oracle_check(Architecture.DLM, cfg, Workload(1, 0, 256), variables=("B",))
        text = report.to_text()
        assert "softmax" in text and "overall" in text
        csv = battery_report([("toy", report)])[1]
        header = csv.splitlines()[0]
        assert header == "config,check,point,analytic,oracle,ratio,exponent_analytic,exponent_oracle,verdict"
        assert len(csv.splitlines()) == 1 + 5 * 4  # five metrics, four batch points

    def test_rejects_non_toy_scale(self):
        big = ModelConfig(n_l=32, n_h=32, n_d=128, d=4096, alpha=3.5, n_params=8e9)
        with pytest.raises(ValueError):
            oracle_check(Architecture.AR, big, Workload(1, 0, 16), variables=("B",))

    @pytest.mark.parametrize("variables, message", [
        (("X",), "variable must be 'L', 'B', or 'G', got 'X'"),
        (("G",), "block size"),
        (("B", "X"), "got 'X'"),  # the B sweep is not run first
    ])
    def test_rejects_a_variable_it_cannot_sample_before_any_point(self, monkeypatch, variables, message):
        built = []
        monkeypatch.setattr(oracle, "build_schedule", lambda *args: built.append(args))
        cfg = ModelConfig(1, 1, 8, 8, 1.0, 64.0)  # no block size
        with pytest.raises(ValueError, match=message):
            oracle_check(Architecture.AR, cfg, Workload(1, 0, 16), variables=variables)
        assert built == []

    @pytest.mark.parametrize("variables", [(), ("B", "B")], ids=["none", "repeated"])
    def test_rejects_no_variable_or_a_repeated_one_before_any_point(self, monkeypatch, variables):
        # an empty list would pass with no check, and a repeated one run the same sweep twice
        built = []
        monkeypatch.setattr(oracle, "build_schedule", lambda *args: built.append(args))
        with pytest.raises(ValueError, match="each once"):
            oracle_check(Architecture.AR, ModelConfig(1, 1, 8, 8, 1.0, 64.0), Workload(1, 0, 8), variables=variables)
        assert built == []

    def test_rejects_a_grid_point_past_the_integer_bound_before_any_point(self, monkeypatch):
        # the batch grid from 2**51 ends at 2**54, past the 2**53 bound every Workload checks
        built, real = [], oracle.build_schedule
        monkeypatch.setattr(oracle, "build_schedule", lambda *args: built.append(args) or real(*args))
        with pytest.raises(ConfigValidationError) as exc:
            oracle_check(Architecture.AR, ModelConfig(1, 1, 8, 8, 1.0, 64.0), Workload(2**51, 0, 8), variables=("B",))
        assert exc.value.codes() == ("out_of_range",)
        assert built == []

    @pytest.mark.parametrize("arch", [Architecture.AR, Architecture.DLM], ids=["AR", "DLM"])
    def test_rejects_a_block_size_sweep_off_block_diffusion(self, monkeypatch, arch):
        # the block size is ignored off block diffusion: a G sweep there would vary nothing
        built = []
        monkeypatch.setattr(oracle, "build_schedule", lambda *args: built.append(args))
        cfg = ModelConfig(1, 1, 8, 8, 1.0, 64.0, block_size=4)
        with pytest.raises(ValueError, match="needs block diffusion"):
            oracle_check(arch, cfg, Workload(1, 0, 16), variables=("G",))
        assert built == []

    def test_injected_bug_trips_exponent_mismatch(self, monkeypatch):
        # drop the quadratic attention term from the published step estimate
        def broken_step(arch, cfg, wl):
            seq, d = wl.total_len, cfg.d
            num = 2 * wl.batch * cfg.n_l * (2 * seq * d**2 + cfg.alpha**2 * seq * d**2)
            return num, cfg.n_params + wl.batch * cfg.n_l * d * seq

        cfg = ModelConfig(n_l=2, n_h=1, n_d=8, d=8, alpha=1.0, n_params=128.0)
        monkeypatch.setattr(throughput, "published_step", broken_step)  # where schedule_throughput reads it
        report = oracle_check(Architecture.DLM, cfg, Workload(1, 0, 1024), variables=("L",))
        assert not report.passed
        assert report.verdict == "ExponentMismatch"


class TestBattery:
    def test_battery_passes(self):
        reports = default_battery()
        assert len(reports) > 0
        for label, report in reports:
            assert report.passed, f"{label}: {report.verdict}"
