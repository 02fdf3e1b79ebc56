from dataclasses import replace
from itertools import chain, repeat
from pathlib import Path

import pytest

from rooflm.config import NO_ACCELERATION, Architecture, HardwareSpec, ModelConfig, Workload
from rooflm.schedule import DecodeSchedule, PhaseSums


def every_pass(schedule):
    """Every pass of ``schedule``, prefill first, flattened from its runs."""
    return tuple(chain.from_iterable(repeat(step, n) for step, n in schedule.expand()))


def passes(schedule, prefill=False):
    """Every pass of one phase of ``schedule``, in order."""
    return tuple(s for s in every_pass(schedule) if s.is_prefill == prefill)


def dlm_only_dual_cache(arch, accel):
    """``accel`` with dual cache turned off unless ``arch`` is DLM, the one architecture it applies to."""
    return accel if arch is Architecture.DLM else replace(accel, dual_cache=False)


def phase_sums(steps):
    """The ``PhaseSums`` of explicitly listed passes, summed one pass at a time."""
    count = active = active_context = context = max_active = 0
    for step in steps:
        s, ctx = step.active_tokens, step.context_len
        count += 1
        active += s
        active_context += s * ctx
        context += ctx
        max_active = max(max_active, s)
    return PhaseSums(count, active, active_context, context, max_active)


def schedule_of(arch, wl, steps):
    """A schedule of explicitly listed passes for workload ``wl``, each its own run, keeping K/V for all of ``wl``."""
    steps = tuple(steps)
    return DecodeSchedule(
        arch=arch,
        workload=wl,
        accel=NO_ACCELERATION,
        kv_len=wl.total_len,
        decode=phase_sums(s for s in steps if not s.is_prefill),
        prefill=phase_sums(s for s in steps if s.is_prefill),
        expand=lambda: ((step, 1) for step in steps),
    )


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


@pytest.fixture
def toy_hw() -> HardwareSpec:
    # ridge point 100 FLOPs/byte
    return HardwareSpec(p_max=1e12, b_mem=1e10, capacity=1e12)


@pytest.fixture
def tiny_cfg() -> ModelConfig:
    return ModelConfig(n_l=1, n_h=1, n_d=2, d=2, alpha=2.0, n_params=100.0)


@pytest.fixture
def toy_cfg() -> ModelConfig:
    return ModelConfig(n_l=2, n_h=2, n_d=4, d=8, alpha=4.0, n_params=1000.0)


@pytest.fixture
def toy_wl() -> Workload:
    return Workload(batch=1, prompt_len=0, gen_len=16)
