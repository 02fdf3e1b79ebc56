from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rooflm.config import AccelerationConfig, Architecture, ModelConfig, Workload
from rooflm.errors import ConfigValidationError
from rooflm.memory import estimate_memory
from rooflm.presets import A800_CLASS, AR_8B, BLOCK_DIFFUSION_8B, DEFAULT_MODELS, DLM_8B
from rooflm.schedule import build_schedule

EIGHT_B = ModelConfig(n_l=32, n_h=32, n_d=128, d=4096, alpha=3.5, n_params=8.0e9)
BATCH_GRID = (1, 2, 4, 8, 16, 20, 24, 32, 64)


class TestComponents:
    def test_weights_bytes(self):
        rep = estimate_memory(Architecture.AR, EIGHT_B, A800_CLASS, Workload(1, 0, 64))
        assert rep.weights_bytes == 16e9

    @pytest.mark.parametrize("arch", [Architecture.AR, Architecture.BLOCK_DIFFUSION])
    def test_kv_hand_value(self, arch):
        cfg, wl = DEFAULT_MODELS[arch], Workload(32, 40, 256)
        rep = estimate_memory(arch, cfg, A800_CLASS, wl)
        assert build_schedule(arch, cfg, wl).kv_len == 296
        assert rep.kv_cache_bytes == pytest.approx(4.97e9, rel=0.01)
        assert rep.kv_cache_bytes == 2 * 2 * 32 * 4096 * 296 * 32

    def test_vanilla_dlm_holds_no_kv(self):
        wl = Workload(4, 40, 256)
        rep = estimate_memory(Architecture.DLM, EIGHT_B, A800_CLASS, wl)
        assert build_schedule(Architecture.DLM, EIGHT_B, wl).kv_len == 0
        assert rep.kv_cache_bytes == 0

    def test_dual_cache_dlm_holds_kv_sized_to_sequence(self):
        accel, wl = AccelerationConfig(dual_cache=True), Workload(4, 40, 256)
        rep = estimate_memory(Architecture.DLM, EIGHT_B, A800_CLASS, wl, accel)
        assert build_schedule(Architecture.DLM, EIGHT_B, wl, accel).kv_len == 296
        assert rep.kv_cache_bytes == 2 * 2 * 32 * 4096 * 296 * 4

    def test_total_is_sum_of_parts(self):
        rep = estimate_memory(Architecture.BLOCK_DIFFUSION, BLOCK_DIFFUSION_8B, A800_CLASS, Workload(8, 40, 256))
        assert rep.total_bytes == (
            rep.weights_bytes + rep.kv_cache_bytes + rep.activation_bytes + rep.overhead_bytes
        )
        assert rep.headroom_bytes == rep.capacity_bytes - rep.total_bytes
        assert rep.oom == (rep.total_bytes > rep.capacity_bytes)

    def test_batch_doubling_doubles_kv_and_activations(self):
        one = estimate_memory(Architecture.AR, EIGHT_B, A800_CLASS, Workload(1, 40, 256))
        two = estimate_memory(Architecture.AR, EIGHT_B, A800_CLASS, Workload(2, 40, 256))
        assert two.kv_cache_bytes == 2 * one.kv_cache_bytes
        assert two.activation_bytes == 2 * one.activation_bytes
        assert two.weights_bytes == one.weights_bytes


class TestActivationWidths:
    def test_dlm_to_ar_ratio_equals_sequence_length(self):
        wl = Workload(1, 0, 256)
        dlm = estimate_memory(Architecture.DLM, DLM_8B, A800_CLASS, wl)
        ar = estimate_memory(Architecture.AR, AR_8B, A800_CLASS, wl)
        ratio = dlm.activation_bytes / ar.activation_bytes
        assert ratio == pytest.approx(wl.total_len, rel=0.01)

    def test_block_width_is_block_size(self):
        wl = Workload(1, 0, 256)
        bd = estimate_memory(Architecture.BLOCK_DIFFUSION, BLOCK_DIFFUSION_8B, A800_CLASS, wl)
        ar = estimate_memory(Architecture.AR, AR_8B, A800_CLASS, wl)
        assert bd.activation_bytes / ar.activation_bytes == pytest.approx(32, rel=1e-9)


class TestMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(
        arch=st.sampled_from(list(Architecture)),
        batch=st.integers(1, 32),
        extra_batch=st.integers(1, 32),
        gen=st.integers(1, 512),
        extra_gen=st.integers(1, 512),
        extra_prompt=st.integers(1, 512),
    )
    def test_total_monotone_in_batch_and_lengths(self, arch, batch, extra_batch, gen, extra_gen, extra_prompt):
        cfg = ModelConfig(n_l=2, n_h=2, n_d=4, d=8, alpha=2.0, n_params=1000.0, block_size=4)
        small = estimate_memory(arch, cfg, A800_CLASS, Workload(batch, 8, gen))
        big_batch = estimate_memory(arch, cfg, A800_CLASS, Workload(batch + extra_batch, 8, gen))
        big_gen = estimate_memory(arch, cfg, A800_CLASS, Workload(batch, 8, gen + extra_gen))
        big_prompt = estimate_memory(arch, cfg, A800_CLASS, Workload(batch, 8 + extra_prompt, gen))
        assert big_batch.total_bytes >= small.total_bytes
        assert big_gen.total_bytes >= small.total_bytes
        assert big_prompt.total_bytes >= small.total_bytes

    def test_total_monotone_in_depth_and_width(self):
        cfg = ModelConfig(n_l=2, n_h=2, n_d=4, d=8, alpha=2.0, n_params=1000.0)
        wl = Workload(2, 8, 32)
        base = estimate_memory(Architecture.DLM, cfg, A800_CLASS, wl)
        deeper = estimate_memory(Architecture.DLM, replace(cfg, n_l=4), A800_CLASS, wl)
        wider = estimate_memory(Architecture.DLM, replace(cfg, n_d=8, d=16), A800_CLASS, wl)
        assert deeper.total_bytes >= base.total_bytes
        assert wider.total_bytes >= base.total_bytes


class TestOomReproduction:
    """Smallest failing batch moves from 64 (short prompt) to 16 (long prompt)."""

    @staticmethod
    def smallest_oom_batch(prompt_len):
        for batch in BATCH_GRID:
            wl = Workload(batch, prompt_len, 256)
            if estimate_memory(Architecture.DLM, DLM_8B, A800_CLASS, wl).oom:
                return batch
        return None

    def test_short_prompt_oom_at_64(self):
        assert self.smallest_oom_batch(40) == 64

    def test_long_prompt_oom_at_16(self):
        assert self.smallest_oom_batch(920) == 16

    def test_oom_batch_decreases_with_prompt_length(self):
        short, long = self.smallest_oom_batch(40), self.smallest_oom_batch(920)
        assert short is not None and long is not None
        assert long < short

    def test_ar_never_ooms_on_batch_grid(self):
        for prompt in (40, 920):
            for batch in BATCH_GRID:
                rep = estimate_memory(Architecture.AR, AR_8B, A800_CLASS, Workload(batch, prompt, 256))
                assert not rep.oom


def test_architecture_given_by_name():
    with pytest.raises(ConfigValidationError) as exc:
        estimate_memory("DLM", DLM_8B, A800_CLASS, Workload(1, 40, 256))
    assert exc.value.issues == (("wrong_type", "arch must be of type Architecture, got 'DLM'"),)


class TestOutOfRange:
    # the model and workload are built in the test body: one that breaks a rule raises when built
    @pytest.mark.parametrize(
        "arch, cfg, wl, code",
        [
            (Architecture.AR, lambda: replace(AR_8B, n_params=1e308), lambda: Workload(1, 40, 256), "out_of_range"),
            # an infinite N is rejected when the model is built, as in JSON
            (Architecture.AR, lambda: replace(AR_8B, n_params=float("inf")), lambda: Workload(1, 40, 256),
             "non_finite_field"),
            # the two integers below are above the 2**53 bound: the workload rejects them when built
            (Architecture.DLM, lambda: DLM_8B, lambda: Workload(1, 40, 10**400), "out_of_range"),
            (Architecture.BLOCK_DIFFUSION, lambda: BLOCK_DIFFUSION_8B, lambda: Workload(10**300, 40, 256), "out_of_range"),
        ],
        ids=["weights_overflow", "infinite_weights", "integer_beyond_float_range", "footprint_overflow"],
    )
    def test_footprint_beyond_the_float_range(self, arch, cfg, wl, code):
        with pytest.raises(ConfigValidationError) as exc:
            estimate_memory(arch, cfg(), A800_CLASS, wl())
        assert exc.value.codes() == (code,)
