"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import hashlib
import random
import time
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

from rooflm.analytic import published_arint, total_cost
from rooflm.config import AccelerationConfig, Architecture, ModelConfig, Workload
from rooflm.oracle import default_battery
from rooflm.presets import A800_CLASS, AR_8B, BLOCK_DIFFUSION_8B, DLM_8B
from rooflm.roofline import Regime, attainable_performance, ridge_point
from rooflm.schedule import build_schedule
from rooflm.sweep import EXTENDED_GEN_LENS, SweepSpec, emit_report_set, run_sweep
from rooflm.throughput import crossing_batch, estimate_throughput


@pytest.fixture(scope="module")
def default_rows():
    return run_sweep(SweepSpec())


def _by_point(rows):
    groups = defaultdict(dict)
    for r in rows:
        wl = r.schedule.workload
        groups[(wl.batch, wl.prompt_len, wl.gen_len)][r.schedule.arch] = r
    return groups


def _report(n, name):
    print(f"\nACCEPTANCE {n} ({name}): PASS")


def test_01_closed_form_fidelity():
    """published_arint matches an independent re-evaluation on 1000 random tuples in < 1 s."""
    rng = random.Random(20240917)
    start = time.monotonic()
    for _ in range(1000):
        n_l = rng.randint(1, 80)
        n_h = rng.randint(1, 64)
        n_d = rng.randint(1, 256)
        d = n_h * n_d
        alpha = rng.uniform(0.5, 8.0)
        n = rng.uniform(1e3, 1e12)
        b = rng.randint(1, 256)
        lp = rng.randint(0, 4096)
        lg = rng.randint(1, 8192)
        g = rng.randint(1, 128)
        cfg = ModelConfig(n_l, n_h, n_d, d, alpha, n, block_size=g)
        wl = Workload(b, lp, lg)
        seq = lp + lg

        expected_ar = b * n / (n + b * n_l * n_h * n_d * seq)
        expected_dlm = (
            2 * b * n_l * (2 * seq * d**2 + alpha**2 * seq * d**2 + seq**2 * d)
            / (n + b * n_l * d * seq)
        )
        expected_blk = (
            2 * b * n_l * (2 * g * d**2 + alpha**2 * g * d**2 + seq * g * d)
            / (n + 2 * b * n_l * d * seq + b * n_l * d * g)
        )
        assert abs(published_arint(Architecture.AR, cfg, wl) - expected_ar) <= 1e-12 * expected_ar
        assert abs(published_arint(Architecture.DLM, cfg, wl) - expected_dlm) <= 1e-12 * expected_dlm
        assert abs(published_arint(Architecture.BLOCK_DIFFUSION, cfg, wl) - expected_blk) <= 1e-12 * expected_blk
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"fidelity sweep took {elapsed:.2f}s"
    _report(1, "closed-form fidelity")


def test_02_oracle_exponent_agreement():
    """Battery passes on the toy grid in < 10 s; claimed slopes hit their targets."""
    start = time.monotonic()
    reports = default_battery()
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"battery took {elapsed:.2f}s"

    for label, report in reports:
        assert report.passed, f"{label}: {report.verdict}"
        for check in report.checks:
            assert abs(check.exponent_analytic - check.exponent_oracle) <= 0.05

    targets = {("DLM", "arint", "L"): 1.0, ("DLM", "flops_per_token", "L"): 2.0,
               ("AR", "throughput", "B"): 1.0}
    seen = set()
    for label, report in reports:
        arch = label.split()[0]
        for check in report.checks:
            target = targets.get((arch, check.metric, check.variable))
            if target is None:
                continue
            seen.add((arch, check.metric, check.variable))
            assert check.exponent_analytic == pytest.approx(target, abs=0.05), label
            assert check.exponent_oracle == pytest.approx(target, abs=0.05), label
    assert seen == set(targets)
    _report(2, "oracle exponent agreement")


def test_03_throughput_identity(default_rows):
    """throughput * flops_per_token = attainable to 1e-12 on every sweep row."""
    checked = 0
    for row in default_rows:
        if row.memory.oom:
            continue
        est = row.estimate
        assert abs(est.tokens_per_second * est.flops_per_token - est.attainable) <= 1e-12 * est.attainable
        checked += 1
    assert checked > 200
    _report(3, "throughput identity")


def test_04_roofline_continuity_and_classification():
    """Continuity at the ridge and exact regime flip over a million-point scan."""
    hw = A800_CLASS
    ridge = ridge_point(hw)
    assert abs(hw.b_mem * ridge - hw.p_max) <= 1e-12 * hw.p_max

    arints = np.geomspace(ridge / 1e3, ridge * 1e3, 1_000_000)
    arints[500_000] = ridge  # pin one point exactly on the boundary
    arints[500_001] = np.nextafter(ridge, 0.0)
    arints[500_002] = np.nextafter(ridge, np.inf)
    flips = 0
    for a in arints:
        point = attainable_performance(hw, float(a))
        if a < ridge:
            assert point.regime is Regime.MEMORY_BOUND
            assert point.attainable == hw.b_mem * float(a)
        else:
            assert point.regime is Regime.COMPUTE_BOUND
            assert point.attainable == hw.p_max
            flips += 1
    assert 0 < flips < len(arints)
    _report(4, "roofline continuity and classification")


def test_05_architecture_ordering(default_rows):
    """AR >= BlockDiffusion >= DLM at every grid point where both sides fit."""
    groups = _by_point(default_rows)
    assert len(groups) == 108
    compared = 0
    for key, g in groups.items():
        ar, bd, dlm = g[Architecture.AR], g[Architecture.BLOCK_DIFFUSION], g[Architecture.DLM]
        for hi, lo in ((ar, bd), (bd, dlm), (ar, dlm)):
            if hi.throughput is not None and lo.throughput is not None:
                assert hi.throughput >= lo.throughput, (key, hi.arch, lo.arch)
                compared += 1
    assert compared >= 3 * 62  # every fully resident point contributes three pairs
    resident = [g for g in groups.values() if all(r.throughput is not None for r in g.values())]
    assert len(resident) == 62
    ordered = [
        g for g in resident
        if g[Architecture.AR].throughput >= g[Architecture.BLOCK_DIFFUSION].throughput >= g[Architecture.DLM].throughput
    ]
    assert len(ordered) == 62
    _report(5, "architecture throughput ordering")


def test_06_prompt_sensitivity(default_rows):
    """Relative throughput drop from prompt 40 to 920 at gen 64: DLM >= 3x AR."""
    groups = _by_point(default_rows)

    def drop(arch):
        short = groups[(1, 40, 64)][arch].throughput
        long = groups[(1, 920, 64)][arch].throughput
        return 1.0 - long / short

    dlm_drop, ar_drop = drop(Architecture.DLM), drop(Architecture.AR)
    assert dlm_drop >= 3 * ar_drop, (dlm_drop, ar_drop)
    assert dlm_drop > 0.5  # the long prompt devastates full-sequence denoising
    _report(6, "prompt-length sensitivity")


def test_07_batch_behavior(default_rows):
    """DLM flat within 5%; AR rises then plateaus within 1%; G >= 4 crosses earlier."""
    groups = _by_point(default_rows)
    batch_grid = (1, 2, 4, 8, 16, 20, 24, 32, 64)

    for prompt in (40, 920):
        dlm = [groups[(b, prompt, 256)][Architecture.DLM].throughput for b in batch_grid]
        alive = [t for t in dlm if t is not None]
        assert len(alive) >= 3
        assert (max(alive) - min(alive)) / min(alive) <= 0.05

        ar = [groups[(b, prompt, 256)][Architecture.AR].throughput for b in batch_grid]
        assert all(t is not None for t in ar)
        assert all(b > a for a, b in zip(ar, ar[1:]))

    # crossing analysis at a shorter sequence where the compute roof is reachable
    wl = Workload(1, 40, 64)
    ar_cross = crossing_batch(Architecture.AR, AR_8B, A800_CLASS, wl)
    assert ar_cross is not None

    def ar_thr(b):
        return estimate_throughput(
            Architecture.AR, AR_8B, A800_CLASS, replace(wl, batch=b)
        ).tokens_per_second

    rising = [1, 2, 4, 8, 16, 64, 128, 256, ar_cross - 1]
    values = [ar_thr(b) for b in rising]
    assert all(b > a for a, b in zip(values, values[1:]))
    plateau = [ar_thr(b) for b in (ar_cross, 2 * ar_cross, 4 * ar_cross)]
    assert (max(plateau) - min(plateau)) / min(plateau) <= 0.01

    for g in (4, 8, 16, 32):
        cfg = replace(BLOCK_DIFFUSION_8B, block_size=g)
        bd_cross = crossing_batch(Architecture.BLOCK_DIFFUSION, cfg, A800_CLASS, wl)
        assert bd_cross is not None and bd_cross < ar_cross, (g, bd_cross, ar_cross)
    _report(7, "batch-size behavior")


def test_08_parallel_decoding_identity():
    """Compute-bound speedup equals the tokens-per-forward factor exactly."""
    wl = Workload(1, 920, 310)
    base = estimate_throughput(Architecture.DLM, DLM_8B, A800_CLASS, wl)
    assert base.regime is Regime.COMPUTE_BOUND
    for tpf in (2.0, 3.1, 5.0):
        gen = {2.0: 620, 3.1: 310, 5.0: 310}[tpf]
        wl_t = replace(wl, gen_len=gen)
        slow = estimate_throughput(Architecture.DLM, DLM_8B, A800_CLASS, wl_t)
        fast = estimate_throughput(Architecture.DLM, DLM_8B, A800_CLASS, wl_t, AccelerationConfig(tpf=tpf))
        assert slow.regime is Regime.COMPUTE_BOUND
        speedup = fast.tokens_per_second / slow.tokens_per_second
        assert abs(speedup - tpf) <= 1e-12 * tpf

    # the 3.1x table at batch 1, block size dividing evenly by the factor
    arch = Architecture.BLOCK_DIFFUSION
    cfg = replace(BLOCK_DIFFUSION_8B, block_size=31)
    spec = SweepSpec(
        architectures=(arch,), gen_lens=(310, 620, 1240), batches=(1,), prompt_lens=(40,),
        models={arch: cfg},
    )
    baseline = run_sweep(spec)
    accelerated = run_sweep(
        SweepSpec(
            architectures=(arch,), gen_lens=(310, 620, 1240), batches=(1,), prompt_lens=(40,),
            models={arch: cfg}, accel={arch: AccelerationConfig(tpf=3.1)},
        )
    )
    base = {r.schedule.workload: r for r in baseline}
    assert len(accelerated) == len(base) == 3
    for row in accelerated:
        assert row.schedule.workload.batch == 1 and row.schedule.accel.tpf == 3.1
        speedup = row.throughput / base[row.schedule.workload].throughput
        assert abs(speedup - 3.1) <= 1e-12 * 3.1
    _report(8, "parallel-decoding identity")


def test_09_dual_cache_step_reduction():
    """Vanilla/dual-cache mean per-step FLOPs ratio in [28, 32] at window 32, L 1024."""
    wl = Workload(1, 0, 1024)
    accel = AccelerationConfig(dual_cache=True, dual_cache_block=32)
    vanilla = build_schedule(Architecture.DLM, DLM_8B, wl)
    cached = build_schedule(Architecture.DLM, DLM_8B, wl, accel)
    v = total_cost(vanilla, DLM_8B, A800_CLASS).decode.flops / vanilla.decode.passes
    c = total_cost(cached, DLM_8B, A800_CLASS).decode.flops / cached.decode.passes
    ratio = v / c
    assert 28 <= ratio <= 32, ratio
    _report(9, "dual-cache per-step reduction")


# SHA-256 of every file of the built-in report sets, as the sweep writes them
REPORT_SET_SHA256 = {
    "default": {
        "sweep.csv": "cdfb6b60b39b0e0191f7d43c640f171797c8de8cd3e709906701f672e2348128",
        "throughput_vs_batch_p40.svg": "6955f762ccb7acfd651a8a0eb67ab9f5d2fe2f70cf6b1a76b01183ffbc6499e7",
        "throughput_vs_batch_p920.svg": "c722483ea36a228cb298b216c291d4151bd3af92d831d7ff12dfa839fdcfea75",
        "throughput_vs_gen_len_p40.svg": "3bd8b00dfbb8345c6ffb277165d6ac890023cba6570525658a0f68d923d454ad",
        "throughput_vs_gen_len_p920.svg": "a91b56071525c430ae1cb538de1be51be3c00c0a1f95302fcfd88d1fe32a4c0e",
    },
    "extended": {
        "sweep.csv": "13bde1e3fee064a65015faae9ddb02c82f4265771e37c73da9fc8247e001edcc",
        "throughput_vs_batch_p40.svg": "c89d8a9f9ce1e6b9287b619f8d3bc1ff612b8f3778131c9173a946a28cb98521",
        "throughput_vs_batch_p920.svg": "446812e86c79c1f3440bffa5653de0642d67a8bfeab5e26a2686402da9409b03",
        "throughput_vs_gen_len_p40.svg": "06a5c3739f4192ca2d27376ef1996da18cd297c6e24d019e4b94abe19677973c",
        "throughput_vs_gen_len_p920.svg": "9ff4c3adbfc18dabf83bbdf487108d501fc1dd74eada3ce49fda120808e3ed9e",
    },
    # extended lengths, tpf 3.1 for every architecture and dual cache on DLM
    "accelerated": {
        "sweep.csv": "d4f016cffe4ecf5adfc916bb8b88dc7de6b9a32141ffb189f545d0c8ea007cc7",
        "throughput_vs_batch_p40.svg": "36157273bc82856c370c9ee94e65410d1a54f429df8a7391a4f7e4fc18f66e3e",
        "throughput_vs_batch_p920.svg": "86e76dcf8617eb31a862e8007634d097882f68f6d702741ca68e776702593bba",
        "throughput_vs_gen_len_p40.svg": "3305795bdf731fe0517e6a6093ed86529e03e791f5c17dcbc62a0a734baa0d1c",
        "throughput_vs_gen_len_p920.svg": "863ca4be7d59a908aa08def448b9d2630e7941278db758738b1ea7b75fa61f97",
    },
}
ACCELERATED = {
    Architecture.AR: AccelerationConfig(tpf=3.1),
    Architecture.DLM: AccelerationConfig(tpf=3.1, dual_cache=True),
    Architecture.BLOCK_DIFFUSION: AccelerationConfig(tpf=3.1),
}


def test_10_determinism(tmp_path):
    """Two default sweeps emit byte-identical CSV and SVG files, and they are the recorded ones."""
    spec = SweepSpec()
    first = emit_report_set(run_sweep(spec), tmp_path / "run1", spec)
    second = emit_report_set(run_sweep(spec), tmp_path / "run2", spec)
    assert [p.name for p in first] == [p.name for p in second]
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes(), a.name
    assert any(p.suffix == ".csv" for p in first) and any(p.suffix == ".svg" for p in first)
    assert _digests(first) == REPORT_SET_SHA256["default"]
    _report(10, "deterministic reports")


@pytest.mark.parametrize("report_set,accel", [("extended", {}), ("accelerated", ACCELERATED)], ids=["none", "accelerated"])
def test_extended_report_set_is_the_recorded_bytes(tmp_path, report_set, accel):
    spec = SweepSpec(gen_lens=EXTENDED_GEN_LENS, accel=accel)
    assert _digests(emit_report_set(run_sweep(spec), tmp_path, spec)) == REPORT_SET_SHA256[report_set]


def _digests(paths):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
