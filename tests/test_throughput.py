import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rooflm.analytic
import rooflm.throughput
from rooflm.analytic import length_regime, published_arint, published_step
from rooflm.config import AccelerationConfig, Architecture, HardwareSpec, ModelConfig, Workload
from rooflm.errors import ConfigValidationError
from rooflm.oracle import fit_exponent
from rooflm.presets import A800_CLASS, AR_8B, BLOCK_DIFFUSION_8B, DLM_8B
from rooflm.roofline import Regime
from rooflm.schedule import build_schedule
from rooflm.throughput import (
    IntensitySource,
    crossing_batch,
    estimate_throughput,
    flops_per_token,
)


class TestFlopsPerToken:
    def test_dlm_toy(self):
        assert flops_per_token(1536.0, Workload(1, 0, 4)) == 384

    def test_ar_toy(self):
        assert flops_per_token(336.0, Workload(1, 0, 4)) == 84

    def test_batch_cancels(self):
        assert flops_per_token(2 * 336.0, Workload(2, 0, 4)) == flops_per_token(336.0, Workload(1, 0, 4))


class TestEstimate:
    def test_dlm_toy_published_composition(self, toy_cfg, toy_hw):
        wl = Workload(1, 0, 16)
        est = estimate_throughput(Architecture.DLM, toy_cfg, toy_hw, wl, source=IntensitySource.PUBLISHED)
        assert est.arint == pytest.approx(81920 / 1256, rel=1e-12)
        assert est.regime is Regime.MEMORY_BOUND
        assert est.attainable == pytest.approx(6.522292993630573e11, rel=1e-12)
        assert est.flops_per_token == pytest.approx(81920, rel=1e-12)
        assert est.tokens_per_second == pytest.approx(7.96e6, rel=1e-3)
        schedule = build_schedule(Architecture.DLM, toy_cfg, wl)
        assert schedule.decode.passes == 16
        assert schedule.workload.batch * schedule.workload.gen_len == 16

    def test_identity_holds_everywhere(self, toy_cfg, toy_hw):
        for source in IntensitySource:
            for arch in Architecture:
                cfg = replace(toy_cfg, block_size=4)
                est = estimate_throughput(arch, cfg, toy_hw, Workload(2, 8, 32), source=source)
                assert est.tokens_per_second * est.flops_per_token == pytest.approx(
                    est.attainable, rel=1e-12
                )

    def test_schedule_source_is_self_consistent(self, toy_cfg, toy_hw):
        est = estimate_throughput(Architecture.DLM, toy_cfg, toy_hw, Workload(1, 0, 16))
        assert est.arint == pytest.approx(est.flops_total / est.mops_total, rel=1e-15)
        assert est.flops_per_token == pytest.approx(est.flops_total / 16, rel=1e-15)

    def test_include_prefill_raises_cost(self, toy_cfg, toy_hw):
        wl = Workload(1, 64, 16)
        bare = estimate_throughput(Architecture.AR, toy_cfg, toy_hw, wl)
        full = estimate_throughput(Architecture.AR, toy_cfg, toy_hw, wl, include_prefill=True)
        assert full.flops_total > bare.flops_total
        assert full.flops_per_token > bare.flops_per_token

    def test_ordering_on_default_configs(self):
        wl = Workload(4, 40, 256)
        ar = estimate_throughput(Architecture.AR, AR_8B, A800_CLASS, wl)
        bd = estimate_throughput(Architecture.BLOCK_DIFFUSION, BLOCK_DIFFUSION_8B, A800_CLASS, wl)
        dlm = estimate_throughput(Architecture.DLM, DLM_8B, A800_CLASS, wl)
        assert ar.tokens_per_second >= bd.tokens_per_second >= dlm.tokens_per_second


class TestPublishedSource:
    @pytest.mark.parametrize("arch, cfg", [(Architecture.AR, AR_8B), (Architecture.DLM, DLM_8B),
                                           (Architecture.BLOCK_DIFFUSION, BLOCK_DIFFUSION_8B)], ids=["AR", "DLM", "BD"])
    def test_one_published_evaluation_per_estimate(self, monkeypatch, arch, cfg):
        calls = []

        def counting(*args):
            calls.append(args)
            return published_step(*args)

        for module in (rooflm.analytic, rooflm.throughput):  # published_arint reads it in analytic
            monkeypatch.setattr(module, "published_step", counting)
        wl = Workload(4, 40, 256)
        est = estimate_throughput(arch, cfg, A800_CLASS, wl, source=IntensitySource.PUBLISHED)
        assert len(calls) == 1
        assert est.arint == published_arint(arch, cfg, wl)


class TestParallelDecodingIdentity:
    @pytest.mark.parametrize("tpf,gen_len", [(2.0, 620), (3.1, 310), (4.0, 256)])
    def test_dlm_speedup_equals_tpf(self, tpf, gen_len):
        wl = Workload(1, 920, gen_len)
        base = estimate_throughput(Architecture.DLM, DLM_8B, A800_CLASS, wl)
        fast = estimate_throughput(Architecture.DLM, DLM_8B, A800_CLASS, wl, AccelerationConfig(tpf=tpf))
        assert base.regime is Regime.COMPUTE_BOUND
        assert fast.tokens_per_second / base.tokens_per_second == pytest.approx(tpf, rel=1e-12)

    def test_block_diffusion_speedup_equals_tpf(self):
        cfg = replace(BLOCK_DIFFUSION_8B, block_size=31)
        wl = Workload(32, 40, 310)
        base = estimate_throughput(Architecture.BLOCK_DIFFUSION, cfg, A800_CLASS, wl)
        fast = estimate_throughput(
            Architecture.BLOCK_DIFFUSION, cfg, A800_CLASS, wl, AccelerationConfig(tpf=3.1)
        )
        assert base.regime is Regime.COMPUTE_BOUND
        assert fast.tokens_per_second / base.tokens_per_second == pytest.approx(3.1, rel=1e-12)


class TestTrends:
    def toy(self, d=64, alpha=3.5, n_l=4):
        cfg = ModelConfig(n_l=n_l, n_h=1, n_d=d, d=d, alpha=alpha, n_params=1.0)
        from rooflm.config import derive_param_count

        return replace(cfg, n_params=derive_param_count(cfg))

    def slope(self, arch, cfg, hw, wl, variable, points, regime, length):
        """Throughput's log-log slope in workload field ``variable``; every point must be in ``regime`` and ``length``."""
        throughputs = []
        for value in points:
            case_wl = replace(wl, **{variable: value})
            assert length_regime(cfg, case_wl) == length, value
            est = estimate_throughput(arch, cfg, hw, case_wl)
            assert est.regime is regime, value
            throughputs.append(est.tokens_per_second)
        return fit_exponent(points, throughputs)

    def test_dlm_compute_bound_length_slope(self):
        cfg = self.toy()
        hw = HardwareSpec(p_max=1e12, b_mem=1e11, capacity=1e18)  # ridge 10
        slope = self.slope(
            Architecture.DLM, cfg, hw, Workload(1, 0, 1),
            "gen_len", [100 * cfg.d, 200 * cfg.d, 400 * cfg.d], Regime.COMPUTE_BOUND, "L>>d",
        )
        assert slope == pytest.approx(-2.0, abs=0.1)

    def test_ar_memory_bound_batch_slope(self):
        slope = self.slope(
            Architecture.AR, AR_8B, A800_CLASS, Workload(1, 0, 64), "batch", [1, 2, 4, 8], Regime.MEMORY_BOUND, "L<<d"
        )
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_ar_memory_bound_length_slope_flat(self):
        slope = self.slope(
            Architecture.AR, AR_8B, A800_CLASS, Workload(1, 0, 1), "gen_len", [64, 128, 256], Regime.MEMORY_BOUND, "L<<d"
        )
        assert slope == pytest.approx(0.0, abs=0.05)


class TestInvariantProperties:
    @settings(max_examples=40, deadline=None)
    @given(batch=st.integers(1, 16), gen=st.sampled_from([64, 256, 1024]), prompt=st.sampled_from([0, 40, 920]))
    def test_identity_property(self, batch, gen, prompt):
        wl = Workload(batch, prompt, gen)
        est = estimate_throughput(Architecture.DLM, DLM_8B, A800_CLASS, wl)
        assert est.tokens_per_second * est.flops_per_token == pytest.approx(est.attainable, rel=1e-12)

    def test_dlm_monotone_decreasing_in_length_once_compute_bound(self):
        lengths = [512, 768, 1024, 1536, 2048]
        thr = []
        for gen in lengths:
            est = estimate_throughput(Architecture.DLM, DLM_8B, A800_CLASS, Workload(1, 0, gen))
            assert est.regime is Regime.COMPUTE_BOUND
            thr.append(est.tokens_per_second)
        assert all(b < a for a, b in zip(thr, thr[1:]))

    def test_ar_throughput_flat_in_short_length_window(self):
        # L << d window: generation lengths from 64 up to d/10
        thr = [
            estimate_throughput(Architecture.AR, AR_8B, A800_CLASS, Workload(1, 0, gen)).tokens_per_second
            for gen in (64, 128, 256, 384, 409)
        ]
        assert (max(thr) - min(thr)) / min(thr) <= 0.01

    def test_block_crossing_below_ar_crossing(self):
        wl = Workload(1, 40, 64)
        ar_cross = crossing_batch(Architecture.AR, AR_8B, A800_CLASS, wl)
        for g in (2, 4, 8, 32):
            cfg = replace(BLOCK_DIFFUSION_8B, block_size=g)
            bd_cross = crossing_batch(Architecture.BLOCK_DIFFUSION, cfg, A800_CLASS, wl)
            assert bd_cross is not None and ar_cross is not None
            assert bd_cross < ar_cross

    def test_crossing_none_when_saturated_below_ridge(self):
        # KV-cache traffic caps AR intensity below the ridge at this length
        assert crossing_batch(Architecture.AR, AR_8B, A800_CLASS, Workload(1, 40, 256)) is None


OUT_OF_RANGE_MESSAGE = (
    "{arch} at batch={batch} prompt_len=40 gen_len=256: a FLOP, byte or rate total is beyond the float range"
)


class TestOutOfRange:
    """A valid point whose totals leave the float range is an ``out_of_range`` error, never a number."""

    @pytest.mark.parametrize("source", list(IntensitySource), ids=[s.value for s in IntensitySource])
    @pytest.mark.parametrize("include_prefill", [False, True], ids=["decode", "prefill"])
    def test_overflowing_alpha(self, source, include_prefill):
        with pytest.raises(ConfigValidationError) as exc:
            estimate_throughput(Architecture.DLM, replace(DLM_8B, alpha=1e300), A800_CLASS, Workload(1, 40, 256),
                                source=source, include_prefill=include_prefill)
        assert exc.value.issues == (("out_of_range", OUT_OF_RANGE_MESSAGE.format(arch="DLM", batch=1)),)

    @pytest.mark.parametrize("source", list(IntensitySource), ids=[s.value for s in IntensitySource])
    def test_integer_beyond_the_float_range(self, source):
        # batch 10**400 is above the 2**53 integer bound: validation rejects it before any costing
        with pytest.raises(ConfigValidationError) as exc:
            estimate_throughput(Architecture.AR, AR_8B, A800_CLASS, Workload(10**400, 40, 256), source=source)
        assert exc.value.codes() == ("out_of_range",)

    def test_crossing_batch_rejects_the_point(self):
        with pytest.raises(ConfigValidationError) as exc:
            crossing_batch(Architecture.DLM, replace(DLM_8B, alpha=1e300), A800_CLASS, Workload(1, 40, 256))
        assert exc.value.codes() == ("out_of_range",)


def test_crossing_batch_of_an_architecture_given_by_name():
    with pytest.raises(ConfigValidationError) as exc:
        crossing_batch("AR", AR_8B, A800_CLASS, Workload(1, 40, 256))
    assert exc.value.issues == (("wrong_type", "arch must be of type Architecture, got 'AR'"),)


def test_bool_batch_rejected():
    with pytest.raises(ConfigValidationError) as exc:
        estimate_throughput(Architecture.AR, AR_8B, A800_CLASS, Workload(True, 40, 256))
    assert exc.value.issues == (("wrong_type", "batch must be an integer, got True"),)


@pytest.mark.parametrize("name", ["alpha", "n_params"])
def test_nan_model_number_is_non_finite_not_out_of_range(name):
    with pytest.raises(ConfigValidationError) as exc:
        estimate_throughput(Architecture.AR, replace(AR_8B, **{name: math.nan}), A800_CLASS, Workload(1, 40, 256))
    assert exc.value.codes() == ("non_finite_field",)
