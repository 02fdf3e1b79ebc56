import math
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate, groupby

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rooflm.analytic import total_cost
from rooflm.config import AccelerationConfig, Architecture, HardwareSpec, ModelConfig, Workload
from rooflm.errors import ConfigValidationError
from rooflm.memory import estimate_memory
from rooflm.oracle import count_schedule, oracle_check
from rooflm.presets import A800_CLASS, AR_8B, DLM_8B
from rooflm.schedule import PhaseSums, StepDescriptor, _step_count, build_schedule
from rooflm.sweep import evaluate_point
from rooflm.throughput import IntensitySource, crossing_batch, estimate_throughput

from conftest import dlm_only_dual_cache, every_pass, passes, phase_sums


def cfg_for(arch, block_size=2):
    g = block_size if arch is Architecture.BLOCK_DIFFUSION else None
    return ModelConfig(n_l=1, n_h=1, n_d=2, d=2, alpha=2.0, n_params=100.0, block_size=g)


small_arch = st.sampled_from(list(Architecture))
small_wl = st.builds(
    Workload,
    batch=st.integers(1, 8),
    prompt_len=st.integers(0, 24),
    gen_len=st.integers(1, 48),
)
small_accel = st.builds(
    AccelerationConfig,
    tpf=st.sampled_from([1.0, 1.5, 2.0, 3.0, 3.1, 4.0]),
    dual_cache=st.booleans(),
    dual_cache_block=st.integers(1, 8),
    cache_refresh_interval=st.integers(1, 6),
)


class TestSpecExamples:
    def test_ar_with_prompt(self):
        sched = build_schedule(Architecture.AR, cfg_for(Architecture.AR), Workload(1, 2, 3))
        assert [s.is_prefill for s in every_pass(sched)] == [True, False, False, False]
        assert every_pass(sched)[0] == StepDescriptor(2, 2, True)
        assert [(s.active_tokens, s.context_len) for s in passes(sched)] == [(1, 3), (1, 4), (1, 5)]

    def test_dlm_full_sequence_steps(self):
        sched = build_schedule(Architecture.DLM, cfg_for(Architecture.DLM), Workload(1, 0, 3))
        assert len(every_pass(sched)) == 3
        assert all(s == StepDescriptor(3, 3, False) for s in every_pass(sched))

    def test_dlm_parallel_step_count(self):
        sched = build_schedule(
            Architecture.DLM, cfg_for(Architecture.DLM), Workload(1, 0, 256), AccelerationConfig(tpf=4.0)
        )
        assert sched.decode.passes == 64

    def test_block_diffusion_blocks(self):
        sched = build_schedule(
            Architecture.BLOCK_DIFFUSION, cfg_for(Architecture.BLOCK_DIFFUSION), Workload(1, 0, 4)
        )
        assert [(s.active_tokens, s.context_len) for s in every_pass(sched)] == [(2, 2), (2, 2), (2, 4), (2, 4)]


class TestDefaults:
    @pytest.mark.parametrize("gen_len", [1, 7, 64])
    def test_ar_default_step_count(self, gen_len):
        sched = build_schedule(Architecture.AR, cfg_for(Architecture.AR), Workload(1, 0, gen_len))
        assert sched.decode.passes == gen_len
        assert all(s.active_tokens == 1 for s in passes(sched))

    @pytest.mark.parametrize("gen_len", [1, 7, 64])
    def test_dlm_default_step_count(self, gen_len):
        sched = build_schedule(Architecture.DLM, cfg_for(Architecture.DLM), Workload(1, 5, gen_len))
        assert sched.decode.passes == gen_len
        seq = 5 + gen_len
        assert all(s.active_tokens == seq == s.context_len for s in passes(sched))

    @pytest.mark.parametrize("gen_len,block,expected", [(4, 2, 4), (5, 2, 6), (64, 32, 64), (10, 4, 12)])
    def test_block_default_step_count(self, gen_len, block, expected):
        # a partial trailing block still runs its nominal step count
        sched = build_schedule(
            Architecture.BLOCK_DIFFUSION, cfg_for(Architecture.BLOCK_DIFFUSION, block), Workload(1, 0, gen_len)
        )
        assert sched.decode.passes == math.ceil(gen_len / block) * block
        assert sched.decode.passes == expected

    def test_architecture_given_by_name(self):
        with pytest.raises(ConfigValidationError) as exc:
            build_schedule("AR", AR_8B, Workload(1, 0, 16))
        assert exc.value.issues == (("wrong_type", "arch must be of type Architecture, got 'AR'"),)

    def test_no_prefill_without_prompt(self):
        for arch in Architecture:
            sched = build_schedule(arch, cfg_for(arch), Workload(1, 0, 4))
            assert not passes(sched, prefill=True)

    def test_dlm_never_has_prefill(self):
        sched = build_schedule(Architecture.DLM, cfg_for(Architecture.DLM), Workload(1, 10, 4))
        assert not passes(sched, prefill=True)


class TestDualCache:
    def test_window_and_refresh(self):
        accel = AccelerationConfig(dual_cache=True, dual_cache_block=4, cache_refresh_interval=3)
        sched = build_schedule(Architecture.DLM, cfg_for(Architecture.DLM), Workload(1, 0, 6), accel)
        kinds = [(s.active_tokens, s.context_len) for s in every_pass(sched)]
        # refresh pass opens each 3-step cycle, then window steps
        assert kinds == [(6, 6), (4, 6), (4, 6), (4, 6), (6, 6), (4, 6), (4, 6), (4, 6)]

    def test_window_clamped_to_sequence(self):
        accel = AccelerationConfig(dual_cache=True, dual_cache_block=32, cache_refresh_interval=100)
        sched = build_schedule(Architecture.DLM, cfg_for(Architecture.DLM), Workload(1, 0, 4), accel)
        assert all(s.active_tokens <= 4 for s in every_pass(sched))


class TestTpfRounding:
    @pytest.mark.parametrize("gen_len,tpf,steps", [(310, 3.1, 100), (31, 3.1, 10), (64, 3.1, 21), (10, 1.5, 7)])
    def test_step_counts(self, gen_len, tpf, steps):
        sched = build_schedule(
            Architecture.DLM, cfg_for(Architecture.DLM), Workload(1, 0, gen_len), AccelerationConfig(tpf=tpf)
        )
        assert sched.decode.passes == steps

    def test_block_parallel_steps(self):
        cfg = cfg_for(Architecture.BLOCK_DIFFUSION, 31)
        sched = build_schedule(
            Architecture.BLOCK_DIFFUSION, cfg, Workload(1, 0, 310), AccelerationConfig(tpf=3.1)
        )
        assert sched.decode.passes == 100  # 10 blocks x 10 steps


class TestProperties:
    @settings(max_examples=120, deadline=None)
    @given(arch=st.sampled_from([Architecture.AR, Architecture.BLOCK_DIFFUSION]), block=st.integers(1, 24),
           wl=small_wl, accel=small_accel)
    def test_token_conservation(self, arch, block, wl, accel):
        # an AR pass writes the tokens it finalizes; a block's run writes the block
        sched = build_schedule(arch, cfg_for(arch, block), wl, dlm_only_dual_cache(arch, accel))
        if arch is Architecture.AR:
            assert sum(s.active_tokens for s in passes(sched)) == wl.gen_len
        else:
            assert sum(step.active_tokens for step, _ in sched.expand() if not step.is_prefill) == wl.gen_len

    @settings(max_examples=120, deadline=None)
    @given(arch=small_arch, wl=small_wl, accel=small_accel)
    def test_step_bounds(self, arch, wl, accel):
        sched = build_schedule(arch, cfg_for(arch), wl, dlm_only_dual_cache(arch, accel))
        for s in every_pass(sched):
            assert 1 <= s.active_tokens <= s.context_len <= wl.total_len

    @settings(max_examples=80, deadline=None)
    @given(arch=st.sampled_from([Architecture.AR, Architecture.BLOCK_DIFFUSION]), wl=small_wl,
           tpf=st.sampled_from([1.0, 2.0, 3.0]))
    def test_context_monotone(self, arch, wl, tpf):
        sched = build_schedule(arch, cfg_for(arch), wl, AccelerationConfig(tpf=tpf))
        ctxs = [s.context_len for s in every_pass(sched)]
        assert all(b >= a for a, b in zip(ctxs, ctxs[1:]))

    @settings(max_examples=60, deadline=None)
    @given(arch=small_arch, wl=small_wl, accel=small_accel)
    def test_determinism(self, arch, wl, accel):
        accel = dlm_only_dual_cache(arch, accel)
        a = build_schedule(arch, cfg_for(arch), wl, accel)
        b = build_schedule(arch, cfg_for(arch), wl, accel)
        assert a == b
        assert repr(every_pass(a)) == repr(every_pass(b))

    @settings(max_examples=60, deadline=None)
    @given(wl=small_wl)
    def test_ar_cache_grows_by_step(self, wl):
        # each pass's context is the prompt plus every token written so far
        sched = build_schedule(Architecture.AR, cfg_for(Architecture.AR), wl)
        decode = passes(sched)
        written = accumulate(s.active_tokens for s in decode)
        assert [s.context_len for s in decode] == [wl.prompt_len + w for w in written]


run_wl = st.builds(
    Workload,
    batch=st.integers(1, 4),
    prompt_len=st.just(0) | st.integers(1, 40),
    gen_len=st.integers(1, 200),
)
INTEGER_TPF = (1.0, 2.0, 3.0, 7.0)
ANY_TPF = INTEGER_TPF + (1.5, 3.1, 7.3)


class TestRuns:
    @settings(max_examples=200, deadline=None)
    @given(
        arch=small_arch,
        block=st.integers(1, 24),
        wl=run_wl,
        accel=st.builds(
            AccelerationConfig,
            tpf=st.sampled_from((1.0, 2.0, 3.1, 7.3)),
            dual_cache=st.booleans(),
            dual_cache_block=st.integers(1, 64),
            cache_refresh_interval=st.integers(1, 9),
        ),
    )
    # 17 window passes at tpf 3 over cycles of 4: the last cycle is partial
    @example(Architecture.DLM, 4, Workload(1, 0, 50), AccelerationConfig(tpf=3.0, dual_cache=True,
                                                                         dual_cache_block=8, cache_refresh_interval=4))
    @example(Architecture.DLM, 4, Workload(2, 9, 50), AccelerationConfig(tpf=3.1, dual_cache=True,
                                                                         dual_cache_block=8, cache_refresh_interval=4))
    # 53 = 8 * 6 + 5: a partial final block of 5 tokens, with and without a prompt
    @example(Architecture.BLOCK_DIFFUSION, 6, Workload(1, 0, 53), AccelerationConfig(tpf=2.0))
    @example(Architecture.BLOCK_DIFFUSION, 6, Workload(1, 9, 53), AccelerationConfig(tpf=7.3))
    @example(Architecture.AR, 4, Workload(1, 5, 100), AccelerationConfig(tpf=3.1))
    def test_runs_are_the_maximal_groups_of_equal_passes(self, arch, block, wl, accel):
        sched = build_schedule(arch, cfg_for(arch, block), wl, dlm_only_dual_cache(arch, accel))
        runs = list(sched.expand())
        assert all(n >= 1 for _, n in runs)
        assert runs == [(step, len(list(group))) for step, group in groupby(every_pass(sched))]
        for sums, prefill in ((sched.decode, False), (sched.prefill, True)):
            assert sum(n for step, n in runs if step.is_prefill == prefill) == sums.passes
            assert phase_sums(passes(sched, prefill)) == sums

    @pytest.mark.parametrize(
        "dual_cache,arch",
        [(False, arch) for arch in Architecture] + [(True, Architecture.DLM)],  # dual cache is a DLM acceleration
    )
    def test_int_tpf_expands_and_counts_as_its_float(self, dual_cache, arch):
        # AccelerationConfig is public; a Python int tpf must behave exactly as the equal float
        cfg, wl, hw = cfg_for(arch, 6), Workload(2, 9, 53), HardwareSpec(p_max=1e12, b_mem=1e10, capacity=1e18)
        as_int, as_float = (
            build_schedule(arch, cfg, wl, AccelerationConfig(tpf=tpf, dual_cache=dual_cache, dual_cache_block=8,
                                                             cache_refresh_interval=4))
            for tpf in (2, 2.0)
        )
        assert list(as_int.expand()) == list(as_float.expand())
        assert every_pass(as_int) == every_pass(as_float)
        assert count_schedule(as_int, cfg, hw) == count_schedule(as_float, cfg, hw)

    @pytest.mark.parametrize("arch", [Architecture.AR, Architecture.BLOCK_DIFFUSION])
    def test_dual_cache_on_another_architecture_is_rejected(self, arch):
        # every entry point schedules through build_schedule, which owns the rule
        cfg, wl, hw = cfg_for(arch, 6), Workload(2, 9, 53), HardwareSpec(p_max=1e12, b_mem=1e10, capacity=1e18)
        accel = AccelerationConfig(tpf=2.0, dual_cache=True, dual_cache_block=8, cache_refresh_interval=4)
        calls = {
            "build_schedule": lambda: build_schedule(arch, cfg, wl, accel),
            "estimate_throughput": lambda: estimate_throughput(arch, cfg, hw, wl, accel),
            "estimate_memory": lambda: estimate_memory(arch, cfg, hw, wl, accel),
            "crossing_batch": lambda: crossing_batch(arch, cfg, hw, wl, accel),
            "oracle_check": lambda: oracle_check(arch, cfg, wl, accel, hw, variables=("B",)),
        }
        for name, call in calls.items():
            with pytest.raises(ConfigValidationError) as exc:
                call()
            assert exc.value.issues == (
                ("unsupported_acceleration", f"dual_cache applies to DLM only, not {arch.value}"),
            ), name

    @settings(max_examples=100, deadline=None)
    @given(wl=run_wl, tpf=st.sampled_from(INTEGER_TPF))
    def test_integer_tpf_finalizes_the_quota(self, wl, tpf):
        # the first i AR passes finalize min(gen_len, i*tpf) tokens
        t = int(tpf)
        sched = build_schedule(Architecture.AR, cfg_for(Architecture.AR), wl, AccelerationConfig(tpf=tpf))
        assert [s.active_tokens for s in passes(sched)] == [
            min(wl.gen_len, i * t) - min(wl.gen_len, (i - 1) * t) for i in range(1, -(-wl.gen_len // t) + 1)
        ]

    @settings(max_examples=200, deadline=None)
    @given(tokens=st.integers(1, 500), tpf=st.sampled_from(ANY_TPF) | st.floats(1.0, 64.0))
    @example(310, 3.1)  # 310 / 3.1 evaluates to 100.00000000000001
    def test_step_count_is_the_least_reaching_quota(self, tokens, tpf):
        # the quota after i passes is floor(i*tpf + eps), on the exact binary values
        def quota(i):
            return math.floor(i * Fraction(tpf) + Fraction(1e-6))

        k = _step_count(tokens, tpf)
        assert k >= 1 and quota(k) >= tokens
        assert k == 1 or quota(k - 1) < tokens

    @settings(max_examples=60, deadline=None)
    @given(wl=run_wl, tpf=st.sampled_from(ANY_TPF))
    @example(Workload(1, 0, 100), 3.1)
    @example(Workload(2, 9, 50), 7.3)
    def test_dlm_one_decode_run(self, wl, tpf):
        sched = build_schedule(Architecture.DLM, cfg_for(Architecture.DLM), wl, AccelerationConfig(tpf=tpf))
        seq = wl.total_len
        assert list(sched.expand()) == [(StepDescriptor(seq, seq, False), _step_count(wl.gen_len, tpf))]

    @settings(max_examples=60, deadline=None)
    @given(wl=run_wl, tpf=st.sampled_from(ANY_TPF), interval=st.integers(1, 9), window=st.integers(1, 64))
    @example(Workload(1, 0, 50), 3.1, 4, 8)
    @example(Workload(1, 0, 50), 3.1, 4, 80)
    def test_dual_cache_two_runs_per_cycle(self, wl, tpf, interval, window):
        accel = AccelerationConfig(tpf=tpf, dual_cache=True, dual_cache_block=window, cache_refresh_interval=interval)
        sched = build_schedule(Architecture.DLM, cfg_for(Architecture.DLM), wl, accel)
        runs = list(sched.expand())
        k = _step_count(wl.gen_len, tpf)
        cycles = -(-k // interval)
        if window >= wl.total_len:  # every pass re-encodes the whole sequence
            assert len(runs) == 1
        else:  # a refresh run and a window run per cycle
            assert len(runs) == 2 * cycles
            assert [n for _, n in runs[1::2]] == [min(interval, k - c * interval) for c in range(cycles)]
        assert sum(n for _, n in runs) == cycles + k

    def test_dual_cache_runs_spelled_out(self):
        accel = AccelerationConfig(tpf=3.0, dual_cache=True, dual_cache_block=8, cache_refresh_interval=4)
        sched = build_schedule(Architecture.DLM, cfg_for(Architecture.DLM), Workload(1, 0, 50), accel)
        refresh, window = StepDescriptor(50, 50, False), StepDescriptor(8, 50, False)
        # 17 window passes in cycles of 4
        assert list(sched.expand()) == [(refresh, 1), (window, 4)] * 4 + [(refresh, 1), (window, 1)]

    @settings(max_examples=60, deadline=None)
    @given(wl=run_wl, tpf=st.sampled_from(ANY_TPF), block=st.integers(1, 24))
    @example(Workload(1, 9, 53), 7.3, 6)
    def test_block_diffusion_one_run_per_block(self, wl, tpf, block):
        sched = build_schedule(
            Architecture.BLOCK_DIFFUSION, cfg_for(Architecture.BLOCK_DIFFUSION, block), wl, AccelerationConfig(tpf=tpf)
        )
        runs = list(sched.expand())
        decode = [run for run in runs if not run[0].is_prefill]
        n = _step_count(block, tpf)  # a partial final block runs as many passes as a full one
        assert len(runs) - len(decode) == (wl.prompt_len > 0)
        assert decode == [
            (StepDescriptor(min(block, wl.gen_len - start), wl.prompt_len + min(start + block, wl.gen_len), False), n)
            for start in range(0, wl.gen_len, block)
        ]


# the grid on which the identities below were first measured, widened by hypothesis
IDENTITY_PROMPTS = st.sampled_from((0, 1, 40, 920)) | st.integers(0, 2000)
IDENTITY_GEN_LENS = st.sampled_from((1, 2, 3, 7, 64, 100, 256, 310)) | st.integers(1, 400)


def schedule_outputs(sched):
    """Everything a schedule hands its consumers: both phases' sums and the decode and prefill runs."""
    return sched.decode, sched.prefill, list(sched.expand())


class TestCrossArchitectureIdentities:
    """Block diffusion interpolates between AR and DLM (BD3-LM, arXiv 2503.09573); here exactly at its two ends."""

    @settings(max_examples=200, deadline=None)
    @given(prompt=IDENTITY_PROMPTS, gen=IDENTITY_GEN_LENS, k=st.sampled_from((1, 2, 3, 4, 5, 8)) | st.integers(1, 16),
           include_prefill=st.booleans())
    @example(prompt=40, gen=310, k=8, include_prefill=True)
    def test_ar_at_integer_tpf_is_block_diffusion_with_that_block_size(self, prompt, gen, k, include_prefill):
        # AR finalizes k tokens a pass; block diffusion with G = k and tpf = k denoises each block in one pass
        cfg = replace(AR_8B, block_size=k)  # AR ignores the block size
        wl, accel = Workload(7, prompt, gen), AccelerationConfig(tpf=float(k))
        ar, bd = (build_schedule(arch, cfg, wl, accel) for arch in (Architecture.AR, Architecture.BLOCK_DIFFUSION))
        assert schedule_outputs(ar) == schedule_outputs(bd)
        ar_row, bd_row = (
            evaluate_point(arch, cfg, A800_CLASS, wl, accel, source=IntensitySource.SCHEDULE,
                           include_prefill=include_prefill)
            for arch in (Architecture.AR, Architecture.BLOCK_DIFFUSION)
        )
        assert ar_row.memory == bd_row.memory
        assert ar_row.estimate == bd_row.estimate

    @settings(max_examples=200, deadline=None)
    @given(prompt=IDENTITY_PROMPTS, gen=IDENTITY_GEN_LENS, batch=st.integers(1, 64),
           tpf=st.sampled_from(ANY_TPF) | st.floats(1.0, 16.0))
    @example(prompt=0, gen=256, batch=1, tpf=1.0)
    @example(prompt=40, gen=256, batch=1, tpf=1.0)  # decode active differs by 10,240 = 256 passes x 40 tokens
    def test_dlm_is_block_diffusion_with_one_block_only_at_prompt_zero(self, prompt, gen, batch, tpf):
        cfg = replace(DLM_8B, block_size=gen)
        wl, accel = Workload(batch, prompt, gen), AccelerationConfig(tpf=tpf)
        dlm, bd = (build_schedule(arch, cfg, wl, accel) for arch in (Architecture.DLM, Architecture.BLOCK_DIFFUSION))
        if prompt == 0:
            # DLM keeps no K/V, so only the schedules and their costs match, not the memory reports
            assert schedule_outputs(dlm) == schedule_outputs(bd)
            assert total_cost(dlm, cfg, A800_CLASS) == total_cost(bd, cfg, A800_CLASS)
            assert (estimate_throughput(Architecture.DLM, cfg, A800_CLASS, wl, accel)
                    == estimate_throughput(Architecture.BLOCK_DIFFUSION, cfg, A800_CLASS, wl, accel))
        else:
            # DLM re-encodes the prompt on every pass; block diffusion prefills it once
            assert dlm.prefill == PhaseSums() and bd.prefill == PhaseSums.uniform(1, prompt, prompt)
            assert dlm.decode.passes == bd.decode.passes
            assert dlm.decode.active - bd.decode.active == dlm.decode.passes * prompt
