import math
from dataclasses import fields, replace

import pytest

import rooflm.memory
import rooflm.sweep
import rooflm.throughput
from rooflm.config import AccelerationConfig, Architecture, HardwareSpec, ModelConfig, Workload
from rooflm.errors import ConfigValidationError, EmptyRowSet
from rooflm.memory import MemoryReport, estimate_memory
from rooflm.presets import A800_CLASS, BLOCK_DIFFUSION_8B, DEFAULT_MODELS, DLM_8B
from rooflm.sweep import (
    CSV_COLUMNS,
    SweepSpec,
    csv_text,
    emit_report_set,
    evaluate_point,
    run_sweep,
    svg_text,
    sweep_spec_from_dict,
)
from rooflm.throughput import IntensitySource, ThroughputEstimate, estimate_throughput

TOY_MODELS = {
    Architecture.AR: ModelConfig(2, 2, 4, 8, 4.0, 1000.0),
    Architecture.DLM: ModelConfig(2, 2, 4, 8, 4.0, 1000.0),
    Architecture.BLOCK_DIFFUSION: ModelConfig(2, 2, 4, 8, 4.0, 1000.0, block_size=4),
}
TOY_HW = HardwareSpec(p_max=1e12, b_mem=1e10, capacity=1e12)


def toy_spec(**overrides):
    base = dict(
        gen_lens=(8, 16),
        batches=(1, 2),
        prompt_lens=(0, 4),
        models=TOY_MODELS,
        hardware=TOY_HW,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestGrid:
    def test_default_grid_cardinality(self):
        rows = run_sweep(SweepSpec())
        assert len(rows) == 3 * 2 * 6 * 9  # arch x prompt x gen x batch

    def test_single_point_matches_estimate(self):
        spec = toy_spec(gen_lens=(16,), batches=(2,), prompt_lens=(4,))
        rows = run_sweep(spec)
        assert len(rows) == 3
        dlm_row = next(r for r in rows if r.arch is Architecture.DLM)
        direct = estimate_throughput(
            Architecture.DLM, TOY_MODELS[Architecture.DLM], TOY_HW, Workload(2, 4, 16)
        )
        assert dlm_row.throughput == pytest.approx(direct.tokens_per_second, rel=1e-15)

    def test_rows_sorted_lexicographically(self):
        rows = run_sweep(toy_spec())
        keys = [r.key for r in rows]
        assert keys == sorted(keys)

    def test_oom_rows_retained_without_throughput(self):
        tight = toy_spec(hardware=replace(TOY_HW, capacity=2100.0), batches=(1, 64))
        rows = run_sweep(tight)
        oom_rows = [r for r in rows if r.memory.oom]
        assert oom_rows, "expected the tiny-capacity sweep to hit OOM"
        assert all(r.throughput is None for r in oom_rows)
        assert len(rows) == 3 * 2 * 2 * 2

    def test_spec_validation(self):
        with pytest.raises(ConfigValidationError):
            toy_spec(gen_lens=())
        with pytest.raises(ConfigValidationError):
            toy_spec(batches=(4, 2))

    @pytest.mark.parametrize("fields, code", [
        ({"gen_lens": ()}, "empty_list"),
        ({"batches": (4, 2)}, "not_increasing"),
        ({"prompt_lens": (-1, 0)}, "non_positive_field"),
        ({"architectures": (Architecture.AR, Architecture.AR)}, "duplicate_entry"),
        ({"models": {Architecture.BLOCK_DIFFUSION: ModelConfig(2, 2, 4, 8, 4.0, 1000.0)}}, "missing_block_size"),
    ])
    def test_spec_checks_itself_when_built(self, fields, code):
        for build in (lambda: toy_spec(**fields), lambda: replace(toy_spec(), **fields)):
            with pytest.raises(ConfigValidationError) as exc:
                build()
            assert exc.value.codes() == (code,)

    @pytest.mark.parametrize("fields, issue", [
        ({"gen_lens": ("a",)}, ("wrong_type", "gen_lens[0] must be an integer, got 'a'")),
        ({"batches": (1.5, 2)}, ("wrong_type", "batches[0] must be an integer, got 1.5")),
        ({"prompt_lens": (0, True)}, ("wrong_type", "prompt_lens[1] must be an integer, got True")),
        ({"gen_lens": (8, 2**53 + 1)}, ("out_of_range", "gen_lens[1] must be at most 2**53, got an integer of 54 bits")),
    ])
    def test_spec_checks_grid_items_before_their_range(self, fields, issue):
        for build in (lambda: toy_spec(**fields), lambda: replace(toy_spec(), **fields)):
            with pytest.raises(ConfigValidationError) as exc:
                build()
            assert exc.value.issues == (issue,)

    def test_an_invalid_model_raises_before_its_spec_is_built(self):
        with pytest.raises(ConfigValidationError) as exc:
            toy_spec(models={Architecture.AR: ModelConfig(2, 2, 4, 9, 4.0, 1000.0)})
        assert exc.value.codes() == ("dimension_mismatch",)

    @pytest.mark.parametrize("fields, issue", [
        ({"architectures": ("AR",)}, "architectures[0] must be of type Architecture, got 'AR'"),
        ({"hardware": None}, "hardware must be of type HardwareSpec, got None"),
        ({"accel": {Architecture.DLM: None}}, "accel['DLM'] must be of type AccelerationConfig, got None"),
        ({"models": {Architecture.AR: "x"}}, "models['AR'] must be of type ModelConfig, got 'x'"),
        ({"models": {"AR": TOY_MODELS[Architecture.AR]}}, "models key must be of type Architecture, got 'AR'"),
        ({"gen_lens": 5}, "gen_lens must be an array, got 5"),
    ], ids=["architecture_name", "no_hardware", "no_accel", "string_model", "model_key_name", "number_gen_lens"])
    def test_spec_checks_the_types_of_its_parts(self, fields, issue):
        for build in (lambda: toy_spec(**fields), lambda: replace(toy_spec(), **fields)):
            with pytest.raises(ConfigValidationError) as exc:
                build()
            assert exc.value.issues == (("wrong_type", issue),)

    def test_spec_messages_match_the_json_reader(self):
        for doc, spec in (({"gen_lens": 5}, {"gen_lens": 5}), ({"batches": [True]}, {"batches": (True,)})):
            with pytest.raises(ConfigValidationError) as from_json:
                sweep_spec_from_dict(doc)
            with pytest.raises(ConfigValidationError) as from_library:
                SweepSpec(**spec)
            assert from_json.value.issues == from_library.value.issues

    def test_sweep_of_an_architecture_given_by_name(self):
        with pytest.raises(ConfigValidationError) as exc:
            run_sweep(SweepSpec(architectures=("AR",), gen_lens=(16,), batches=(1,), prompt_lens=(0,)))
        assert exc.value.codes() == ("wrong_type",)

    def test_sweep_does_not_recheck_its_spec(self, monkeypatch):
        spec = toy_spec()  # it validated itself when built
        validated = []
        post_init = SweepSpec.__post_init__

        def counted(self):
            validated.append(self)
            post_init(self)

        monkeypatch.setattr(SweepSpec, "__post_init__", counted)
        run_sweep(spec)
        assert validated == []
        sweep_spec_from_dict({"gen_lens": [8]})
        assert len(validated) == 1  # by the spec's own constructor

    def test_invalid_hardware_rejected_before_any_point(self, monkeypatch):
        evaluated = []
        monkeypatch.setattr(rooflm.sweep, "build_schedule", lambda *args: evaluated.append(args))
        with pytest.raises(ConfigValidationError) as exc:
            run_sweep(toy_spec(hardware=replace(TOY_HW, b_mem=0.0)))
        assert exc.value.codes() == ("non_positive_field",)
        assert evaluated == []

    @pytest.mark.parametrize("arch", [Architecture.AR, Architecture.BLOCK_DIFFUSION])
    def test_dual_cache_off_dlm_rejected_before_any_point(self, monkeypatch, arch):
        evaluated = []
        monkeypatch.setattr(rooflm.sweep, "build_schedule", lambda *args: evaluated.append(args))
        fields = {"architectures": (Architecture.DLM, arch), "accel": {arch: AccelerationConfig(dual_cache=True)}}
        for build in (lambda: toy_spec(**fields), lambda: replace(toy_spec(), **fields)):
            with pytest.raises(ConfigValidationError) as exc:
                run_sweep(build())
            assert exc.value.issues == (("unsupported_acceleration", f"dual_cache applies to DLM only, not {arch.value}"),)
        assert evaluated == []

    def test_sweep_validates_no_hardware(self, monkeypatch):
        spec = toy_spec()  # its HardwareSpec validated itself when built
        validated = []
        post_init = HardwareSpec.__post_init__

        def counted(self):
            validated.append(self)
            post_init(self)

        monkeypatch.setattr(HardwareSpec, "__post_init__", counted)
        run_sweep(spec)
        assert validated == []

    def test_spec_from_dict_defaults(self):
        spec = sweep_spec_from_dict({})
        assert spec == SweepSpec()

    def test_spec_from_dict_overrides(self):
        spec = sweep_spec_from_dict(
            {
                "architectures": ["AR", "DLM"],
                "gen_lens": [8, 16],
                "batches": [1],
                "prompt_lens": [0],
                "accel": {"DLM": {"tpf": 2.0}},
                "models": {
                    "AR": {"n_l": 2, "n_h": 2, "n_d": 4, "d": 8, "alpha": 4, "N": 1000},
                    "DLM": {"n_l": 2, "n_h": 2, "n_d": 4, "d": 8, "alpha": 4, "N": 1000},
                },
                "hardware": {"p_max": 1e12, "b_mem": 1e10, "capacity": 1e12},
            }
        )
        assert spec.architectures == (Architecture.AR, Architecture.DLM)
        assert spec.accel_for(Architecture.DLM).tpf == 2.0
        assert spec.hardware == TOY_HW

    def test_spec_from_dict_rejects_unknown(self):
        with pytest.raises(ConfigValidationError):
            sweep_spec_from_dict({"gen_lengths": [8]})

    def test_extended_lengths_flag(self):
        spec = sweep_spec_from_dict({}, extended_lengths=True)
        assert spec.gen_lens == (2048, 4096, 8192, 16384)


POINT_ACCELS = {
    "AR": (Architecture.AR, AccelerationConfig()),
    "AR+tpf3.1": (Architecture.AR, AccelerationConfig(tpf=3.1)),
    "DLM": (Architecture.DLM, AccelerationConfig()),
    "DLM+tpf3.1": (Architecture.DLM, AccelerationConfig(tpf=3.1)),
    "DLM+dual": (Architecture.DLM, AccelerationConfig(dual_cache=True)),
    "DLM+dual+tpf3.1": (Architecture.DLM, AccelerationConfig(tpf=3.1, dual_cache=True)),
    "BD": (Architecture.BLOCK_DIFFUSION, AccelerationConfig()),
    "BD+tpf3.1": (Architecture.BLOCK_DIFFUSION, AccelerationConfig(tpf=3.1)),
}
# gen_len 310 leaves a partial dual-cache refresh cycle and a partial final block
POINT_WL = Workload(batch=4, prompt_len=40, gen_len=310)
POINT_HW = {"fits": A800_CLASS, "oom": replace(A800_CLASS, capacity=1e9)}  # 1e9 < the 2e9-byte overhead


class TestSinglePointEvaluation:
    @pytest.mark.parametrize("include_prefill", [False, True], ids=["decode", "prefill"])
    @pytest.mark.parametrize("case", list(POINT_ACCELS))
    def test_builds_and_costs_once(self, monkeypatch, case, include_prefill):
        counts = {"build_schedule": 0, "total_cost": 0, "attainable_performance": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # every module evaluate_point can reach the function through
        bindings = {
            "build_schedule": (rooflm.sweep, rooflm.memory, rooflm.throughput),
            "total_cost": (rooflm.sweep, rooflm.throughput),
            "attainable_performance": (rooflm.throughput,),
        }
        for name, modules in bindings.items():
            for module in modules:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        arch, accel = POINT_ACCELS[case]
        evaluate_point(
            arch, DEFAULT_MODELS[arch], A800_CLASS, POINT_WL, accel,
            source=IntensitySource.SCHEDULE, include_prefill=include_prefill,
        )
        assert counts == {"build_schedule": 1, "total_cost": 1, "attainable_performance": 1}

    @pytest.mark.parametrize(
        "changes", [{"p_max": -1e12}, {"b_mem": 0.0}, {"bytes_per_element": 3}],
        ids=["negative_p_max", "zero_b_mem", "three_byte_elements"],
    )
    def test_rejects_invalid_hardware(self, changes):
        with pytest.raises(ConfigValidationError) as exc:
            evaluate_point(Architecture.AR, DEFAULT_MODELS[Architecture.AR], replace(A800_CLASS, **changes), POINT_WL,
                           AccelerationConfig(), source=IntensitySource.SCHEDULE, include_prefill=False)
        assert exc.value.codes() == ("non_positive_field",)

    def test_rejects_bool_batch(self):
        with pytest.raises(ConfigValidationError) as exc:
            evaluate_point(Architecture.AR, DEFAULT_MODELS[Architecture.AR], A800_CLASS, replace(POINT_WL, batch=True),
                           AccelerationConfig(), source=IntensitySource.SCHEDULE, include_prefill=False)
        assert exc.value.codes() == ("wrong_type",)

    @pytest.mark.parametrize("include_prefill", [False, True], ids=["decode", "prefill"])
    @pytest.mark.parametrize("source", list(IntensitySource), ids=[s.value for s in IntensitySource])
    @pytest.mark.parametrize("arch", list(Architecture), ids=[a.value for a in Architecture])
    @pytest.mark.parametrize("tpf", [1.0, 2**53], ids=["tpf1", "tpf_bound"])
    def test_every_integer_at_the_bound_gives_a_finite_row(self, tpf, arch, source, include_prefill):
        # the costing layers have no overflow fallback: at the bound every total converts to a finite float
        top = 2**53
        cfg = ModelConfig(top, 2**26, 2**27, top, top, top, block_size=top)
        accel = AccelerationConfig(tpf=tpf, dual_cache=arch is Architecture.DLM, dual_cache_block=top,
                                   cache_refresh_interval=top)
        row = evaluate_point(arch, cfg, HardwareSpec(top, top, top), Workload(top, top, top), accel,
                             source=source, include_prefill=include_prefill)
        est = row.estimate
        numbers = (est.flops_total, est.mops_total, est.arint, est.attainable, est.flops_per_token,
                   est.tokens_per_second, row.memory.total_bytes)
        assert all(map(math.isfinite, numbers)) and est.tokens_per_second > 0

    @pytest.mark.parametrize("source", list(IntensitySource), ids=[s.value for s in IntensitySource])
    @pytest.mark.parametrize("arch", list(Architecture), ids=[a.value for a in Architecture])
    def test_phase_sum_beyond_the_float_range(self, arch, source):
        # gen_len 10**160 is above the 2**53 integer bound, so validation rejects it before any costing
        with pytest.raises(ConfigValidationError) as exc:
            evaluate_point(arch, DEFAULT_MODELS[arch], A800_CLASS, Workload(1, 0, 10**160), AccelerationConfig(),
                           source=source, include_prefill=False)
        assert exc.value.codes() == ("out_of_range",)

    @pytest.mark.parametrize("hw", list(POINT_HW))
    @pytest.mark.parametrize("include_prefill", [False, True], ids=["decode", "prefill"])
    @pytest.mark.parametrize("source", list(IntensitySource), ids=[s.value for s in IntensitySource])
    @pytest.mark.parametrize("case", list(POINT_ACCELS))
    def test_row_equals_the_single_point_functions(self, case, source, include_prefill, hw):
        arch, accel = POINT_ACCELS[case]
        cfg, hardware = DEFAULT_MODELS[arch], POINT_HW[hw]
        row = evaluate_point(arch, cfg, hardware, POINT_WL, accel, source=source, include_prefill=include_prefill)
        est = estimate_throughput(arch, cfg, hardware, POINT_WL, accel, source=source, include_prefill=include_prefill)
        mem = estimate_memory(arch, cfg, hardware, POINT_WL, accel)
        assert row.memory.oom is (hw == "oom")
        for f in fields(ThroughputEstimate):
            assert getattr(row.estimate, f.name) == getattr(est, f.name), f.name
        for f in fields(MemoryReport):
            assert getattr(row.memory, f.name) == getattr(mem, f.name), f.name


class TestAcceleratedSweep:
    def test_speedup_table(self):
        arch = Architecture.BLOCK_DIFFUSION
        cfg = replace(BLOCK_DIFFUSION_8B, block_size=31)
        spec = SweepSpec(architectures=(arch,), gen_lens=(310,), batches=(1, 2), prompt_lens=(40,), models={arch: cfg})
        baseline = {(r.batch, r.prompt_len, r.gen_len): r for r in run_sweep(spec)}
        fast = run_sweep(replace_spec_accel(spec, {arch: AccelerationConfig(tpf=3.1)}))
        assert len(fast) == len(baseline) == 2
        for row in fast:
            assert row.tpf == 3.1
            speedup = row.throughput / baseline[(row.batch, row.prompt_len, row.gen_len)].throughput
            assert speedup == pytest.approx(3.1, rel=1e-12)

    def test_dual_cache_step_flops_reduction(self):
        # vanilla/dual-cache mean per-step FLOPs ratio near L/window
        from rooflm.analytic import total_cost
        from rooflm.schedule import build_schedule

        wl = Workload(1, 0, 1024)
        accel = AccelerationConfig(dual_cache=True, dual_cache_block=32)
        vanilla = build_schedule(Architecture.DLM, DLM_8B, wl)
        cached = build_schedule(Architecture.DLM, DLM_8B, wl, accel)
        hw = TOY_HW
        v = total_cost(vanilla, DLM_8B, hw).decode.flops / vanilla.decode.passes
        c = total_cost(cached, DLM_8B, hw).decode.flops / cached.decode.passes
        assert 28 <= v / c <= 32


def replace_spec_accel(spec: SweepSpec, accel):
    return SweepSpec(
        architectures=spec.architectures,
        gen_lens=spec.gen_lens,
        batches=spec.batches,
        prompt_lens=spec.prompt_lens,
        accel=accel,
        models=spec.models,
        hardware=spec.hardware,
    )


class TestEmission:
    def test_csv_schema_and_row_count(self):
        rows = run_sweep(toy_spec())
        text = csv_text(rows)
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == len(rows) + 1
        assert text.endswith("\n")
        assert "\r" not in text

    def test_oom_cells_blank(self):
        tight = toy_spec(hardware=replace(TOY_HW, capacity=2100.0), batches=(64,))
        rows = run_sweep(tight)
        lines = csv_text(rows).splitlines()[1:]
        oom_lines = [l for l in lines if l.endswith(",true")]
        assert oom_lines
        for line in oom_lines:
            cells = line.split(",")
            cols = dict(zip(CSV_COLUMNS, cells))
            for name in ("arint", "regime", "attainable_flops_s", "flops_per_token", "throughput_tok_s"):
                assert cols[name] == ""
            assert cols["flops_total"] != "" and cols["mem_bytes"] != ""

    def test_csv_empty_rejected(self):
        with pytest.raises(EmptyRowSet):
            csv_text([])

    def test_svg_series_and_legend(self):
        spec = toy_spec(accel={Architecture.DLM: AccelerationConfig(tpf=2.0)})
        rows = [r for r in run_sweep(spec) if r.prompt_len == 0 and r.batch == 1]
        svg = svg_text(rows, "gen_len", "test plot")
        assert svg.startswith("<svg")
        assert "DLM+parallel" in svg
        assert "BlockDiffusion" in svg
        assert svg.count("<polyline") == 3

    def test_svg_axis_validation(self):
        rows = run_sweep(toy_spec())
        with pytest.raises(ValueError):
            svg_text(rows, "prompt_len", "bad axis")

    def test_report_set_files(self, tmp_path):
        spec = toy_spec()
        rows = run_sweep(spec)
        written = emit_report_set(rows, tmp_path, spec)
        names = sorted(p.name for p in written)
        assert names == [
            "sweep.csv",
            "throughput_vs_batch_p0.svg",
            "throughput_vs_batch_p4.svg",
            "throughput_vs_gen_len_p0.svg",
            "throughput_vs_gen_len_p4.svg",
        ]
        for p in written:
            assert p.exists() and p.stat().st_size > 0

    def test_byte_identical_reruns(self, tmp_path):
        spec = toy_spec()
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        emit_report_set(run_sweep(spec), a_dir, spec)
        emit_report_set(run_sweep(spec), b_dir, spec)
        for a in sorted(a_dir.iterdir()):
            assert a.read_bytes() == (b_dir / a.name).read_bytes()
