"""Tests of the benchmark harness itself (not of rooflm).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import rooflm  # noqa: E402
import rooflm.sweep  # noqa: E402
import rooflm.throughput  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import run  # noqa: E402
from run import REFERENCE_S, end_to_end, typical_laps  # noqa: E402
from rooflm.config import Architecture, Workload  # noqa: E402
from rooflm.presets import A800_CLASS, DEFAULT_MODELS  # noqa: E402


def span(layer, start, end, parent=-1):
    return [layer, "f", start, end, parent]


def test_self_time_subtracts_child_spans():
    spans_ = [
        span("sweep", 0.0, 10.0),          # 0: root
        span("memory", 1.0, 3.0, 0),       # 1
        span("schedule", 1.5, 2.5, 1),     # 2: grandchild, charged to 1 only
        span("throughput", 4.0, 7.0, 0),   # 3
        span("analytic", 5.0, 5.5, 3),     # 4
        span("analytic", 6.0, 6.5, 3),     # 5
    ]
    assert spans.self_times(spans_) == pytest.approx([10.0 - 2.0 - 3.0, 1.0, 1.0, 2.0, 0.5, 0.5])


def test_self_times_of_a_traced_call_sum_to_its_duration():
    tracer = spans.Tracer()
    wl = Workload(batch=2, prompt_len=40, gen_len=64)
    with spans.traced(tracer, rooflm):
        rooflm.throughput.estimate_throughput(
            Architecture.AR, DEFAULT_MODELS[Architecture.AR], A800_CLASS, wl)
    root = tracer.spans[0]
    assert root[:2] == ["throughput", "estimate_throughput"]
    assert {s[spans.LAYER] for s in tracer.spans} >= {"schedule", "config", "analytic", "roofline"}
    assert sum(spans.self_times(tracer.spans)) == pytest.approx(root[spans.END] - root[spans.START])
    metrics = spans.layer_metrics(tracer)
    assert metrics["schedule.steps"] == 65            # one prefill pass + 64 decode steps
    assert metrics["schedule.builds_per_point"] == 1.0


def test_wrappers_are_removed_after_the_traced_run():
    original = rooflm.throughput.build_schedule
    with spans.traced(spans.Tracer(), rooflm):
        assert rooflm.throughput.build_schedule is not original
        assert rooflm.memory.build_schedule is rooflm.throughput.build_schedule
    assert rooflm.throughput.build_schedule is original
    assert rooflm.memory.build_schedule is original


def test_config_reject_is_counted_once_at_the_layer_boundary(tmp_path):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"arch": "AR", "n_l": 1, "n_h": 2, "n_d": 4, "d": 9, "alpha": 1.0}))
    tracer = spans.Tracer()
    with spans.traced(tracer, rooflm):
        with pytest.raises(rooflm.config.ConfigValidationError):
            rooflm.config.load_model_file(model)
    assert spans.layer_metrics(tracer)["config.rejects"] == 1


def files_of(requests, root):
    return [tuple(Path(a).relative_to(root).as_posix() if a.startswith(str(root)) else a for a in r.argv)
            for r in requests]


def test_generator_is_deterministic_per_seed(tmp_path):
    a = workloads.analyze_setup(7, tmp_path / "a")
    b = workloads.analyze_setup(7, tmp_path / "b")
    c = workloads.analyze_setup(8, tmp_path / "c")
    assert files_of(a.requests, tmp_path / "a") == files_of(b.requests, tmp_path / "b")
    assert [r.defect for r in a.requests] == [r.defect for r in b.requests]
    for x, y in zip(sorted((tmp_path / "a").rglob("*.json")), sorted((tmp_path / "b").rglob("*.json"))):
        assert x.name == y.name and x.read_bytes() == y.read_bytes()
    assert files_of(a.requests, tmp_path / "a") != files_of(c.requests, tmp_path / "c")


def test_seeds_share_the_recorded_streams(tmp_path):
    a = workloads.analyze_setup(5, tmp_path / "a")
    b = workloads.analyze_setup(5 + workloads.ANALYZE_SEEDS, tmp_path / "b")
    assert a.stream == b.stream == 5
    assert files_of(a.requests, tmp_path / "a") == files_of(b.requests, tmp_path / "b")


def test_generator_mix(tmp_path):
    reqs = workloads.analyze_setup(3, tmp_path).requests
    cells = len(workloads.CELLS) * workloads.REQUESTS_PER_CELL
    per_class = workloads.MALFORMED_PER_CLASS
    assert len(reqs) == cells + per_class * len(workloads.MALFORMED)
    assert sum(r.defect is None for r in reqs) == cells
    assert sum(r.known for r in reqs) == per_class * sum(known for known, _ in workloads.MALFORMED.values())


@pytest.mark.parametrize("defect, outcome, stdout, stderr, ok", [
    (None, 0, "throughput: 12.5 tokens/s\n", "", True),
    (None, 0, "throughput: nan tokens/s\n", "", False),
    (None, 0, "attainable: inf FLOPs/s\n", "", False),
    (None, 2, "", "error [unknown_field]: x\n", False),
    (None, "raised ValueError", "", "", False),
    ("unknown_field", 2, "", "error [unknown_field]: x\n", True),
    ("batch_bool", 0, "throughput: 12.5 tokens/s\n", "", False),
    ("p_max_string", "raised ValueError", "", "", False),
    ("missing_field", 2, "", "", False),
])
def test_outcome_rules(defect, outcome, stdout, stderr, ok):
    known = defect in workloads.MALFORMED and workloads.MALFORMED[defect][0]
    req = workloads.Request(("analyze",), defect, known)
    assert workloads.request_ok(req, outcome, stdout, stderr) is ok


def small_stream(tmp_path, seed=5, n=40):
    inputs = workloads.analyze_setup(seed, tmp_path)
    return workloads.AnalyzeInputs(seed, inputs.requests[:n])


def test_known_defects_fail_and_nothing_else(tmp_path):
    inputs = small_stream(tmp_path)
    result = workloads.analyze_pass(inputs, None)
    assert result.unexpected == 0
    assert result.failed == sum(r.known for r in inputs.requests)
    assert result.digest_ok is None


def test_digest_mismatch_fails_every_valid_request(tmp_path):
    inputs = small_stream(tmp_path)
    good = workloads.analyze_pass(inputs, None).digests["stream"]
    assert workloads.analyze_pass(inputs, {"seed/5": good}).digest_ok is True
    result = workloads.analyze_pass(inputs, {"seed/5": "0" * 64})
    valid = sum(r.defect is None for r in inputs.requests)
    assert result.digest_ok is False
    assert result.unexpected == valid
    assert result.failed == valid + sum(r.known for r in inputs.requests)


def test_benchmark_json_names_every_metric_the_harness_measures():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layer_names = set(spans.layer_metrics(spans.Tracer())) | {"trace.overhead_ratio"}
    assert {m["name"] for m in declared["per_layer"]} == layer_names


def test_stream_without_a_recorded_digest_fails(tmp_path):
    inputs = small_stream(tmp_path)
    result = workloads.analyze_pass(inputs, {})
    assert result.digest_ok is False
    assert result.unexpected == sum(r.defect is None for r in inputs.requests)


def test_sub_grids_give_the_grid_rows():
    spec = rooflm.sweep.SweepSpec(gen_lens=(16, 32), batches=(1, 4))
    rows = [row for part in workloads.sub_grids(spec) for row in rooflm.sweep.run_sweep(part)]
    assert len(workloads.sub_grids(spec)) == 3 * 2 * 2
    assert sorted(rows, key=lambda row: row.key) == list(rooflm.sweep.run_sweep(spec))


def test_oracle_pass_has_one_lap_per_report():
    original = rooflm.oracle.oracle_check
    result = workloads.oracle_pass(None, None)
    assert [ops for ops, _ in result.laps] == [1] * result.ops + [0]
    assert rooflm.oracle.oracle_check is original


def test_laps_run_the_hook_between_laps():
    calls = []
    laps = workloads.Laps(lambda: calls.append(len(laps.times)))
    with laps.lap(2):
        pass
    laps.restart()
    laps.mark(0)
    assert [ops for ops, _ in laps.times] == [2, 0]
    assert calls == [1, 2]


def test_each_lap_is_scaled_by_the_samples_around_it(monkeypatch):
    monkeypatch.setattr(run, "WINDOW", 1)
    probe = run.SpeedProbe()
    probe.samples = [REFERENCE_S * k for k in (1, 1, 2, 4, 4)]    # before lap 0, after laps 0-3
    assert probe.scales(4) == pytest.approx([3 / 4, 3 / 7, 3 / 10, 1 / 4])


def scaled_pass(laps, scale):
    scaled = [(ops, t * scale) for ops, t in laps]
    return workloads.PassResult(ops=sum(ops for ops, _ in laps), laps=laps, scaled=scaled)


def test_each_lap_takes_its_median_scaled_time():
    passes = [
        scaled_pass([(1, 1.0), (1, 3.0), (0, 2.0)], 1.0),     # at reference speed
        scaled_pass([(1, 2.0), (1, 6.0), (0, 4.0)], 0.5),     # on a machine half as fast
        scaled_pass([(1, 4.0), (1, 12.0), (0, 2.0)], 0.5),    # laps slower than the probe saw
    ]
    assert typical_laps(passes) == pytest.approx([(1, 1.0), (1, 3.0), (0, 2.0)])
    metrics = end_to_end(passes, [0.5, 0.25, 1.0])
    assert metrics["wall_s"] == pytest.approx(6.0)
    assert metrics["ops_per_s"] == pytest.approx(2 / 6.0)
    assert metrics["op_p50_ms"] == pytest.approx(1e3)
    assert metrics["op_p99_ms"] == pytest.approx(3e3)
    assert metrics["setup_s"] == pytest.approx(0.5)


def test_ops_without_laps_of_their_own_take_the_pass_mean():
    metrics = end_to_end([scaled_pass([(4, 2.0), (2, 4.0)], 1.0)], [0.5])
    assert metrics["op_p50_ms"] == metrics["op_p99_ms"] == pytest.approx(1e3)


def test_passes_with_different_laps_are_taken_whole():
    passes = [scaled_pass([(2, 1.0), (3, 2.0)], 1.0), scaled_pass([(5, 4.0)], 0.5)]
    assert typical_laps(passes) == [(5, 2.5)]
