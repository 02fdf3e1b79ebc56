from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rooflm.analytic import (
    ACTIVATION_TRAFFIC_ELEMS,
    CostBreakdown,
    published_arint,
    published_step,
    length_regime,
    step_cost,
    total_cost,
)
from rooflm.config import Architecture, HardwareSpec, ModelConfig, Workload
from rooflm.errors import ConfigValidationError
from rooflm.schedule import StepDescriptor, build_schedule

from conftest import every_pass, schedule_of


def wl(batch=1, prompt=0, gen=16):
    return Workload(batch=batch, prompt_len=prompt, gen_len=gen)


TOY_CFG = ModelConfig(n_l=2, n_h=2, n_d=4, d=8, alpha=4.0, n_params=1000.0)
TOY_HW = HardwareSpec(p_max=1e12, b_mem=1e10, capacity=1e12)
AR, DLM, BLOCK = Architecture.AR, Architecture.DLM, Architecture.BLOCK_DIFFUSION


class TestPublishedIntensities:
    """Frozen hand evaluations of the closed-form intensity estimates."""

    def test_ar_toy(self, toy_cfg):
        assert published_arint(AR, toy_cfg, wl()) == pytest.approx(1000 / 1256, rel=1e-12)

    def test_ar_batch_4(self, toy_cfg):
        assert published_arint(AR, toy_cfg, wl(batch=4)) == pytest.approx(4000 / 2024, rel=1e-12)

    def test_ar_step_pair(self, toy_cfg):
        assert published_step(AR, toy_cfg, wl()) == (1000.0, 1256)

    @pytest.mark.parametrize("arch", [AR, DLM, BLOCK])
    def test_arint_is_the_quotient_of_the_step_pair(self, toy_cfg, arch):
        cfg = replace(toy_cfg, block_size=4)
        flops, elements = published_step(arch, cfg, wl(batch=3, prompt=5))
        assert published_arint(arch, cfg, wl(batch=3, prompt=5)) == flops / elements

    @pytest.mark.parametrize("published", [published_step, published_arint])
    def test_block_diffusion_needs_a_block_size(self, toy_cfg, published):
        with pytest.raises(ConfigValidationError) as exc:
            published(BLOCK, toy_cfg, wl())
        assert exc.value.codes() == ("missing_block_size",)

    @pytest.mark.parametrize("published", [published_step, published_arint])
    def test_architecture_given_by_name(self, published):
        # "AR" is no Architecture: once it fell through to the block-diffusion estimate
        cfg = ModelConfig(32, 32, 128, 4096, 3.5, 8e9, block_size=32)
        with pytest.raises(ConfigValidationError) as exc:
            published("AR", cfg, Workload(1, 0, 16))
        assert exc.value.issues == (("wrong_type", "arch must be of type Architecture, got 'AR'"),)

    def test_ar_zero_length_is_one(self, toy_cfg):
        # L = 0 collapses numerator and denominator to N; no Workload has L = 0
        # (gen_len >= 1), so the formula is evaluated at a stand-in with its two fields
        with pytest.raises(ConfigValidationError):
            Workload(1, 0, 0)
        degenerate = SimpleNamespace(batch=1, total_len=0)
        assert published_arint(AR, toy_cfg, degenerate) == 1.0
        assert published_arint(AR, replace(toy_cfg, n_params=42.0), degenerate) == 1.0

    def test_dlm_toy(self, toy_cfg):
        assert published_arint(DLM, toy_cfg, wl()) == pytest.approx(81920 / 1256, rel=1e-12)

    def test_dlm_batch_doubling(self, toy_cfg):
        one = published_arint(DLM, toy_cfg, wl(batch=1))
        two = published_arint(DLM, toy_cfg, wl(batch=2))
        assert two == pytest.approx(163840 / 1512, rel=1e-12)
        assert two / one == pytest.approx(1.66, abs=0.01)

    def test_dlm_long_length_doubling(self, toy_cfg):
        # deep in the L >> d regime the estimate scales linearly with L
        lo = published_arint(DLM, toy_cfg, wl(gen=1024 * toy_cfg.d))
        hi = published_arint(DLM, toy_cfg, wl(gen=2048 * toy_cfg.d))
        assert 1.9 <= hi / lo <= 2.1

    def test_block_toy(self, toy_cfg):
        cfg = replace(toy_cfg, block_size=4)
        assert published_arint(BLOCK, cfg, wl()) == pytest.approx(20480 / 1576, rel=1e-12)

    def test_block_size_scaling(self, toy_cfg):
        cfg = replace(toy_cfg, block_size=8)
        assert published_arint(BLOCK, cfg, wl()) == pytest.approx(40960 / 1640, rel=1e-12)

    def test_architecture_ordering_on_toy(self, toy_cfg):
        cfg = replace(toy_cfg, block_size=4)
        ar, block, dlm = (published_arint(arch, cfg, wl()) for arch in (AR, BLOCK, DLM))
        assert ar < block < dlm

    def test_ar_bounded_by_batch(self, toy_cfg):
        for batch in (1, 3, 17, 256):
            for gen in (1, 64, 4096):
                assert published_arint(AR, toy_cfg, wl(batch=batch, gen=gen)) <= batch

    def test_dlm_loglog_slope_in_length(self, toy_cfg):
        # O(L) scaling at L >> d
        ls = [100 * toy_cfg.d, 300 * toy_cfg.d, 1000 * toy_cfg.d]
        vals = [published_arint(DLM, toy_cfg, wl(gen=l)) for l in ls]
        slope = np.polyfit(np.log(ls), np.log(vals), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_dlm_loglog_slope_in_batch(self, toy_cfg):
        # O(B) scaling while N dominates the denominator
        cfg = replace(toy_cfg, n_params=1e9)
        bs = [1, 2, 4, 8]
        vals = [published_arint(DLM, cfg, wl(batch=b, gen=8)) for b in bs]
        slope = np.polyfit(np.log(bs), np.log(vals), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_length_regime_tags(self, toy_cfg):
        big = replace(toy_cfg, n_h=1, n_d=4096, d=4096)
        assert length_regime(big, Workload(1, 0, 64)) == "L<<d"
        assert length_regime(toy_cfg, Workload(1, 0, 8 * toy_cfg.d)) == "L~d"
        assert length_regime(toy_cfg, Workload(1, 0, 100 * toy_cfg.d)) == "L>>d"


class TestFormulaFidelity:
    """The shipped functions reproduce independently re-typed expressions."""

    @settings(max_examples=150, deadline=None)
    @given(
        n_l=st.integers(1, 64),
        n_h=st.integers(1, 32),
        n_d=st.integers(1, 128),
        alpha=st.floats(0.5, 8.0),
        n=st.floats(1e2, 1e12),
        b=st.integers(1, 128),
        lp=st.integers(0, 2048),
        lg=st.integers(1, 4096),
        g=st.integers(1, 64),
    )
    def test_random_tuples(self, n_l, n_h, n_d, alpha, n, b, lp, lg, g):
        cfg = ModelConfig(n_l, n_h, n_d, n_h * n_d, alpha, n, block_size=g)
        w = Workload(b, lp, lg)
        L, d = lp + lg, n_h * n_d
        ar = b * n / (n + b * n_l * n_h * n_d * L)
        dlm = 2 * b * n_l * (2 * L * d**2 + alpha**2 * L * d**2 + L**2 * d) / (n + b * n_l * d * L)
        blk = (
            2 * b * n_l * (2 * g * d**2 + alpha**2 * g * d**2 + L * g * d)
            / (n + 2 * b * n_l * d * L + b * n_l * d * g)
        )
        assert published_arint(AR, cfg, w) == pytest.approx(ar, rel=1e-12)
        assert published_arint(DLM, cfg, w) == pytest.approx(dlm, rel=1e-12)
        assert published_arint(BLOCK, cfg, w) == pytest.approx(blk, rel=1e-12)


class TestStepCost:
    def test_itemized_toy(self, tiny_cfg, toy_hw):
        step = StepDescriptor(1, 4, False)
        cost = step_cost(tiny_cfg, step, toy_hw)
        # qkv 24 + out 8, scores 16 + attn.V 16, ffn 32
        assert cost.projection_flops == 32
        assert cost.attention_flops == 32
        assert cost.ffn_flops == 32
        assert cost.flops == 96

    def test_full_sequence_pass_scales_with_active_tokens(self, tiny_cfg, toy_hw):
        assert step_cost(tiny_cfg, StepDescriptor(4, 4, False), toy_hw).flops == 384

    def test_mops_formula(self, tiny_cfg, toy_hw):
        step = StepDescriptor(1, 4, False)
        cost = step_cost(tiny_cfg, step, toy_hw, batch=3)
        bpe = toy_hw.bytes_per_element
        assert cost.weights_read == bpe * tiny_cfg.n_params
        assert cost.kv_read_write == bpe * 3 * tiny_cfg.n_l * 2 * tiny_cfg.d * 4
        assert cost.activation_io == bpe * ACTIVATION_TRAFFIC_ELEMS * 3 * tiny_cfg.n_l * 1 * tiny_cfg.d

    def test_components_are_the_six_fields_in_order(self):
        # ScheduleCost.combined and the oracle's count_schedule rely on this order
        cost = CostBreakdown(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert list(cost.components.items()) == [
            ("projection_flops", 1.0), ("attention_flops", 2.0), ("ffn_flops", 3.0),
            ("weights_read", 4.0), ("kv_read_write", 5.0), ("activation_io", 6.0),
        ]

    def test_component_sums_match_totals(self, toy_cfg, toy_hw):
        cost = step_cost(toy_cfg, StepDescriptor(3, 9, False), toy_hw, batch=2)
        comp = cost.components
        assert cost.flops == comp["projection_flops"] + comp["attention_flops"] + comp["ffn_flops"]
        assert cost.mops == comp["weights_read"] + comp["kv_read_write"] + comp["activation_io"]

    @settings(max_examples=60, deadline=None)
    @given(s=st.integers(1, 32), ctx_extra=st.integers(0, 32), k=st.integers(2, 5))
    def test_linearity_in_active_tokens(self, s, ctx_extra, k):
        # at fixed context, every FLOP component is exactly linear in s
        ctx = k * s + ctx_extra
        a = step_cost(TOY_CFG, StepDescriptor(s, ctx, False), TOY_HW)
        b = step_cost(TOY_CFG, StepDescriptor(k * s, ctx, False), TOY_HW)
        assert b.projection_flops == k * a.projection_flops
        assert b.ffn_flops == k * a.ffn_flops
        assert b.attention_flops == k * a.attention_flops

    def test_linearity_in_layers(self, toy_cfg, toy_hw):
        step = StepDescriptor(2, 8, False)
        single = step_cost(toy_cfg, step, toy_hw)
        stacked = step_cost(replace(toy_cfg, n_l=3 * toy_cfg.n_l), step, toy_hw)
        assert stacked.flops == 3 * single.flops

    def test_attention_linear_in_context(self, toy_cfg, toy_hw):
        a = step_cost(toy_cfg, StepDescriptor(1, 8, False), toy_hw)
        b = step_cost(toy_cfg, StepDescriptor(1, 16, False), toy_hw)
        assert b.attention_flops == 2 * a.attention_flops
        assert b.projection_flops == a.projection_flops


class TestTotalCost:
    def test_dlm_toy_total(self, tiny_cfg, toy_hw):
        sched = build_schedule(Architecture.DLM, tiny_cfg, wl(gen=4))
        assert total_cost(sched, tiny_cfg, toy_hw).decode.flops == 1536

    def test_ar_toy_total(self, tiny_cfg, toy_hw):
        sched = build_schedule(Architecture.AR, tiny_cfg, wl(gen=4))
        # steps cost 72 + 80 + 88 + 96
        assert total_cost(sched, tiny_cfg, toy_hw).decode.flops == 336

    def test_prefill_separated(self, tiny_cfg, toy_hw):
        sched = build_schedule(Architecture.AR, tiny_cfg, Workload(1, 8, 4))
        cost = total_cost(sched, tiny_cfg, toy_hw)
        assert cost.prefill.flops > 0
        assert cost.combined.flops == pytest.approx(cost.prefill.flops + cost.decode.flops)

    def test_additive_over_concatenation(self, toy_cfg, toy_hw):
        s1 = build_schedule(Architecture.AR, toy_cfg, wl(gen=5))
        s2 = build_schedule(Architecture.AR, toy_cfg, wl(gen=9))
        joined = schedule_of(Architecture.AR, wl(gen=5 + 9), every_pass(s1) + every_pass(s2))
        lhs = total_cost(joined, toy_cfg, toy_hw).decode
        a, b = (total_cost(s, toy_cfg, toy_hw).decode for s in (s1, s2))
        assert lhs.flops == pytest.approx(a.flops + b.flops, rel=1e-15)
        assert lhs.mops == pytest.approx(a.mops + b.mops, rel=1e-15)
