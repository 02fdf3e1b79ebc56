import csv
import hashlib
import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rooflm.cli import main
from rooflm.config import Architecture, ModelConfig, load_hardware_file, load_model_file, load_workload_file
from rooflm.sweep import SweepSpec, csv_text, run_sweep


@pytest.fixture
def config_files(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(
        json.dumps({"arch": "DLM", "n_l": 2, "n_h": 2, "n_d": 4, "d": 8, "alpha": 4, "N": 1000})
    )
    hardware = tmp_path / "hw.json"
    hardware.write_text(json.dumps({"p_max": 1e12, "b_mem": 1e10, "capacity": 1e12}))
    workload = tmp_path / "wl.json"
    workload.write_text(json.dumps({"batch": 1, "prompt_len": 0, "gen_len": 16}))
    return {"model": model, "hardware": hardware, "workload": workload}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# SHA-256 of analyze's stdout and --csv file for each shipped model and workload, on the shipped hardware
ANALYZE_SHA256 = {
    ("ar_8b", "long_prompt"): (
        "cb660c929cd81432076b5a1ee83fe7f07e4daa0d2b95f0daaddb06ce615501fb",
        "1d501d3e359256ea5b92db7c3c70ba43fd88456d5a9519d7a83389f5fa63bb47",
    ),
    ("ar_8b", "parallel_decoding"): (
        "4960d20c5eccf57cf5a2e381bdf631abb11b688d15d9ea449853eed4c403aa50",
        "c76eea9a9c48704e7ccb7fee92dbcd7eaa5b5d44825f290cfa757ff6708ef187",
    ),
    ("ar_8b", "short_prompt"): (
        "2d80f4387d8526d39c196cedb78d77eb3656ea40f22ab4486090b3d37c76a68d",
        "4d3b13cab686f4e208c65ca905e9a04c6f67257e3b8bcc464c74e0e0336aa518",
    ),
    ("block_diffusion_8b", "long_prompt"): (
        "3718238ca75897228d8b3ec60f8093cea8a50f3a3e2a6d0dbf3573cf0297808c",
        "712dacbf9a3261a3f81879996567ae8467082272c9219ba2d584c486123d3660",
    ),
    ("block_diffusion_8b", "parallel_decoding"): (
        "887a4f45168a864bd6abd80afa964b9fee7c109d8910a7750039e044fe8a83a1",
        "fa99ad992a4bbff5624ab413b87f424e06862fae5c51e3f0b653442ff1472b04",
    ),
    ("block_diffusion_8b", "short_prompt"): (
        "3d34183830999214a7a24cc68c3ce52fee2ae1b2aa6db98f74b24d54e39d4aa6",
        "cee403d81147f54a6d12650380e91ec44645084665195e859635dbf9c9d72ae9",
    ),
    ("dlm_8b", "long_prompt"): (
        "f27c1e7ce5093f43a7fd6a24cc5238cb4e9e2bf01d03209d5db11939664634ef",
        "c465fc64a322256b1659bf05e063bc61545fc63fdbfc188af1c4112d14278264",
    ),
    ("dlm_8b", "parallel_decoding"): (
        "a7ac53d807eee0039db052f2d125d675b687526bf5c14be98da164bcca0016e2",
        "587476494744663b4a3cd7d407e75abc1e3f75c959199d34009515979a0ed53c",
    ),
    ("dlm_8b", "short_prompt"): (
        "f3bfeba12b01bc139ad83feae44f3eea2d4b7cd4acb6dd3a5cff8e1aeabeabe1",
        "b4e74865a4b932801120ba233075af8274f18efc7d21cb0fdbb19a7426ce9b46",
    ),
}


class TestAnalyze:
    @pytest.mark.parametrize("model,workload", list(ANALYZE_SHA256))
    def test_shipped_configs_are_the_recorded_bytes(self, capsys, tmp_path, repo_root, model, workload):
        configs = repo_root / "configs"
        code, out, err = run(
            capsys,
            "analyze",
            "--model", str(configs / "models" / f"{model}.json"),
            "--hardware", str(configs / "hardware_a800_class.json"),
            "--workload", str(configs / "workloads" / f"{workload}.json"),
            "--csv", str(tmp_path / "row.csv"),
        )
        assert (code, err) == (0, "")
        digests = hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256((tmp_path / "row.csv").read_bytes()).hexdigest()
        assert digests == ANALYZE_SHA256[model, workload]

    def test_toy_report(self, capsys, config_files):
        code, out, err = run(
            capsys,
            "analyze",
            "--model", str(config_files["model"]),
            "--hardware", str(config_files["hardware"]),
            "--workload", str(config_files["workload"]),
            "--intensity-source", "published",
        )
        assert code == 0
        assert err == ""
        assert "throughput: 7.96178e+06 tokens/s" in out
        assert "regime: MemoryBound" in out
        assert "ridge point: 100" in out

    def test_schedule_source_labeled(self, capsys, config_files):
        code, out, _ = run(
            capsys,
            "analyze",
            "--model", str(config_files["model"]),
            "--hardware", str(config_files["hardware"]),
            "--workload", str(config_files["workload"]),
        )
        assert code == 0
        assert "intensity source: schedule" in out

    def test_csv_output(self, capsys, config_files, tmp_path):
        arch, cfg = load_model_file(config_files["model"])
        wl, accel = load_workload_file(config_files["workload"])
        # 1e9 bytes is below the fixed 2e9-byte runtime overhead, so that point is out of memory
        for capacity, oom in ((1e12, "false"), (1e9, "true")):
            config_files["hardware"].write_text(json.dumps({"p_max": 1e12, "b_mem": 1e10, "capacity": capacity}))
            csv_path = tmp_path / f"row_{oom}.csv"
            code, out, _ = run(
                capsys,
                "analyze",
                "--model", str(config_files["model"]),
                "--hardware", str(config_files["hardware"]),
                "--workload", str(config_files["workload"]),
                "--csv", str(csv_path),
            )
            assert code == 0
            assert f"oom={oom}" in out
            assert "throughput: " in out
            lines = csv_path.read_text().splitlines()
            assert len(lines) == 2
            assert lines[0].startswith("arch,accel,batch")
            assert lines[1].endswith(f",{oom}")

            spec = SweepSpec(
                architectures=(arch,),
                gen_lens=(wl.gen_len,),
                batches=(wl.batch,),
                prompt_lens=(wl.prompt_len,),
                accel={arch: accel},
                models={arch: cfg},
                hardware=load_hardware_file(config_files["hardware"]),
            )
            assert csv_path.read_text() == csv_text(run_sweep(spec))

    def test_missing_file_exits_1(self, capsys, config_files, tmp_path):
        code, out, err = run(
            capsys,
            "analyze",
            "--model", str(tmp_path / "absent.json"),
            "--hardware", str(config_files["hardware"]),
            "--workload", str(config_files["workload"]),
        )
        assert code == 1
        assert out == ""
        assert "absent.json" in err

    def test_csv_into_missing_directory_exits_1(self, capsys, config_files, tmp_path):
        # the report writer creates no directories
        code, _, err = run(capsys, "analyze", *[f"--{kind}={path}" for kind, path in config_files.items()],
                           "--csv", str(tmp_path / "absent" / "row.csv"))
        assert code == 1
        assert err.startswith("error: ") and "absent" in err
        assert not (tmp_path / "absent").exists()

    def test_malformed_json_exits_2_with_location(self, capsys, config_files, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"arch": "DLM",\n  broken')
        code, out, err = run(
            capsys,
            "analyze",
            "--model", str(bad),
            "--hardware", str(config_files["hardware"]),
            "--workload", str(config_files["workload"]),
        )
        assert code == 2
        assert "line 2" in err

    def test_invalid_config_exits_2(self, capsys, config_files, tmp_path):
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps({"arch": "DLM", "n_l": 2, "n_h": 2, "n_d": 4, "d": 9, "alpha": 4, "N": 1000}))
        code, _, err = run(
            capsys,
            "analyze",
            "--model", str(bad),
            "--hardware", str(config_files["hardware"]),
            "--workload", str(config_files["workload"]),
        )
        assert code == 2
        assert "dimension_mismatch" in err

    @pytest.mark.parametrize(
        "kind,key,value,error_code",
        [
            ("hardware", "p_max", float("nan"), "non_finite_field"),
            ("hardware", "p_max", float("inf"), "non_finite_field"),
            ("hardware", "p_max", "abc", "wrong_type"),
            ("accel", "tpf", float("nan"), "non_finite_field"),
            ("workload", "batch", True, "wrong_type"),
            ("accel", "dual_cache", "false", "wrong_type"),
            ("workload", "gen_len", 10**111, "out_of_range"),
            ("workload", "batch", 10**111, "out_of_range"),
            ("workload", "prompt_len", 10**111, "out_of_range"),
        ],
        ids=["p_max_nan", "p_max_infinity", "p_max_string", "tpf_nan", "batch_bool", "dual_cache_string",
             "gen_len_huge", "batch_huge", "prompt_len_huge"],
    )
    def test_mistyped_or_non_finite_field_exits_2(self, capsys, config_files, tmp_path, kind, key, value, error_code):
        files = dict(config_files)
        doc_kind = "workload" if kind == "accel" else kind
        doc = json.loads(files[doc_kind].read_text())
        (doc.setdefault("accel", {}) if kind == "accel" else doc)[key] = value
        files[doc_kind] = tmp_path / f"bad_{doc_kind}.json"
        files[doc_kind].write_text(json.dumps(doc))
        code, out, err = run(
            capsys,
            "analyze",
            "--model", str(files["model"]),
            "--hardware", str(files["hardware"]),
            "--workload", str(files["workload"]),
        )
        assert code == 2
        assert out == ""
        assert f"error [{error_code}]: {key} must be" in err

    def test_integer_beyond_digit_limit_exits_2(self, capsys, config_files):
        config_files["workload"].write_text('{"batch": 1, "prompt_len": 0, "gen_len": 1%s}' % ("0" * 5000))
        code, out, err = run(
            capsys,
            "analyze",
            "--model", str(config_files["model"]),
            "--hardware", str(config_files["hardware"]),
            "--workload", str(config_files["workload"]),
        )
        assert code == 2
        assert out == ""
        assert "error [out_of_range]: " in err

    @pytest.mark.parametrize(
        "text,key",
        [
            ('{"batch": 1, "prompt_len": 0, "gen_len": 16, "batch": 64}', "batch"),
            ('{"batch": 1, "prompt_len": 0, "gen_len": 16, "accel": {"tpf": 2, "tpf": 4}}', "tpf"),
        ],
        ids=["top_level", "nested_accel"],
    )
    def test_duplicate_field_exits_2(self, capsys, config_files, text, key):
        config_files["workload"].write_text(text)
        code, out, err = run(
            capsys,
            "analyze",
            "--model", str(config_files["model"]),
            "--hardware", str(config_files["hardware"]),
            "--workload", str(config_files["workload"]),
        )
        assert code == 2
        assert out == ""
        assert err == f"error [duplicate_field]: {config_files['workload']}: field {key!r} is given more than once\n"

    def test_non_utf8_file_exits_2(self, capsys, config_files):
        config_files["workload"].write_bytes(b'{"batch": 1, "prompt_len": 0, "gen_len": 16\xff}')
        code, out, err = run(
            capsys,
            "analyze",
            "--model", str(config_files["model"]),
            "--hardware", str(config_files["hardware"]),
            "--workload", str(config_files["workload"]),
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error [invalid_encoding]: {config_files['workload']}: 'utf-8' codec can't decode")

    @pytest.mark.parametrize(
        "model,code",
        [
            ({"arch": "AR"}, 2),
            ({"arch": "BlockDiffusion", "G": 4}, 2),
            ({"arch": "DLM"}, 0),
        ],
        ids=["AR", "BlockDiffusion", "DLM"],
    )
    def test_dual_cache_only_on_dlm(self, capsys, config_files, model, code):
        doc = json.loads(config_files["model"].read_text())
        config_files["model"].write_text(json.dumps({**doc, **model}))
        config_files["workload"].write_text(
            json.dumps({"batch": 1, "prompt_len": 0, "gen_len": 16, "accel": {"dual_cache": True}})
        )
        result = run(
            capsys,
            "analyze",
            "--model", str(config_files["model"]),
            "--hardware", str(config_files["hardware"]),
            "--workload", str(config_files["workload"]),
        )
        if code:
            assert result == (2, "", f"error [unsupported_acceleration]: dual_cache applies to DLM only, "
                                     f"not {model['arch']}\n")
        else:
            assert result[0] == 0
            assert "accel: dual-cache (tpf=1)" in result[1]

    def test_unknown_field_lenient_warns_on_stderr(self, capsys, config_files, tmp_path):
        odd = tmp_path / "odd.json"
        odd.write_text(
            json.dumps({"arch": "DLM", "n_l": 2, "n_h": 2, "n_d": 4, "d": 8, "alpha": 4, "N": 1000, "note": "x"})
        )
        code, out, err = run(
            capsys,
            "analyze",
            "--model", str(odd),
            "--hardware", str(config_files["hardware"]),
            "--workload", str(config_files["workload"]),
            "--lenient-config",
        )
        assert code == 0
        assert "note" in err
        assert "note" not in out


# a valid document spans each field's whole accepted range: integers up to the
# 2**53 bound (n_h and n_d to 2**26, so that d = n_h * n_d stays within it) and
# every positive finite number, from the smallest subnormal to the largest double
COUNT = st.integers(1, 2**53)
HEAD = st.integers(1, 2**26)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# what replaces a field: integers past the bound or below zero, or any JSON value
ODD = st.sampled_from([0, -1, 2**53 + 1, 10**111, 10**400]) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda items: st.lists(items, max_size=3) | st.dictionaries(st.text(max_size=4), items, max_size=3),
    max_leaves=4,
)
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|\bnan\b|\binf\b)", re.IGNORECASE)


@st.composite
def analyze_documents(draw):
    """Model, hardware and workload documents: valid, then up to two fields replaced or dropped."""
    n_h, n_d = draw(HEAD), draw(HEAD)
    docs = {
        "model": {
            "arch": draw(st.sampled_from(["AR", "DLM", "BlockDiffusion"])),
            "n_l": draw(COUNT), "n_h": n_h, "n_d": n_d, "d": n_h * n_d,
            "alpha": draw(POSITIVE), "N": draw(POSITIVE), "G": draw(COUNT),
        },
        "hardware": {
            "p_max": draw(POSITIVE), "b_mem": draw(POSITIVE), "capacity": draw(POSITIVE),
            "bytes_per_element": draw(st.sampled_from([1, 2, 4, 8])),
        },
        "workload": {
            "batch": draw(COUNT), "prompt_len": draw(st.integers(0, 2**53)), "gen_len": draw(COUNT),
            "accel": {
                "tpf": draw(st.floats(1.0, 16.0) | st.floats(min_value=1.0, allow_infinity=False)),
                "dual_cache": draw(st.booleans()),
                "dual_cache_block": draw(COUNT), "cache_refresh_interval": draw(COUNT),
            },
        },
    }
    for _ in range(draw(st.integers(0, 2))):
        doc = docs[draw(st.sampled_from(sorted(docs)))]
        key = draw(st.sampled_from(sorted(doc) + ["extra"]))
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(ODD)
    return docs


@settings(max_examples=300, deadline=None)
@given(docs=analyze_documents(), source=st.sampled_from(["schedule", "published"]))
@example(
    docs={
        "model": {"arch": "DLM", "n_l": 2, "n_h": 2, "n_d": 4, "d": 8, "alpha": 4, "N": 1000},
        "hardware": {"p_max": 1e12, "b_mem": 1e10, "capacity": 1e12},
        "workload": {"batch": 1, "prompt_len": 0, "gen_len": 10**111},
    },
    source="schedule",
)
def test_analyze_fuzz_exits_0_or_2_with_finite_output(tmp_path_factory, docs, source):
    """Any JSON documents end in exit 0 printing only finite numbers, or in exit 2 with a diagnostic."""
    work = tmp_path_factory.mktemp("fuzz")
    argv = ["analyze", "--intensity-source", source]
    for kind, doc in docs.items():
        path = work / f"{kind}.json"
        path.write_text(json.dumps(doc))
        argv += [f"--{kind}", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), err
    if code == 0:
        assert out and err == ""
        assert all(math.isfinite(float(tok)) for tok in NUMBER.findall(out)), out
    else:
        assert out == ""
        assert err.startswith("error [")


class TestRidge:
    def test_default_profile(self, capsys):
        code, out, err = run(capsys, "ridge")
        assert code == 0
        assert out.strip() == "156"

    def test_custom_hardware(self, capsys, config_files):
        code, out, _ = run(capsys, "ridge", "--hardware", str(config_files["hardware"]))
        assert code == 0
        assert out.strip() == "100"

    @pytest.mark.parametrize("command", ["ridge", "analyze", "sweep"])
    @pytest.mark.parametrize(
        "hardware",
        [{"p_max": 1e308, "b_mem": 1e-10, "capacity": 1e12}, {"p_max": 1e-300, "b_mem": 1e300, "capacity": 1e12}],
        ids=["overflow", "underflow"],
    )
    def test_ridge_beyond_float_range_exits_2(self, capsys, tmp_path, config_files, hardware, command):
        config_files["hardware"].write_text(json.dumps(hardware))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"architectures": ["DLM"], "gen_lens": [16], "batches": [1], "prompt_lens": [0],
                                    "hardware": hardware}))
        argv = {
            "ridge": ["--hardware", str(config_files["hardware"])],
            "analyze": [f"--{kind}={path}" for kind, path in config_files.items()],
            "sweep": ["--spec", str(spec), "--out-dir", str(tmp_path / "o")],
        }[command]
        code, out, err = run(capsys, command, *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error [out_of_range]: ridge point p_max / b_mem = {hardware['p_max']!r} / {hardware['b_mem']!r} "
            "is beyond the float range\n"
        )


class TestSweep:
    def test_writes_report_set(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "gen_lens": [8, 16],
                    "batches": [1, 2],
                    "prompt_lens": [0, 4],
                    "models": {
                        "AR": {"n_l": 2, "n_h": 2, "n_d": 4, "d": 8, "alpha": 4, "N": 1000},
                        "DLM": {"n_l": 2, "n_h": 2, "n_d": 4, "d": 8, "alpha": 4, "N": 1000},
                        "BlockDiffusion": {"n_l": 2, "n_h": 2, "n_d": 4, "d": 8, "alpha": 4, "N": 1000, "G": 4},
                    },
                    "hardware": {"p_max": 1e12, "b_mem": 1e10, "capacity": 1e12},
                }
            )
        )
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "sweep", "--spec", str(spec), "--out-dir", str(out_dir))
        assert code == 0
        assert (out_dir / "sweep.csv").exists()
        assert len(list(out_dir.glob("*.svg"))) == 4
        csv = (out_dir / "sweep.csv").read_text()
        assert len(csv.splitlines()) == 1 + 3 * 2 * 2 * 2

    def test_all_oom_writes_csv_and_skips_every_plot(self, capsys, tmp_path):
        # the 2e9-byte overhead alone exceeds the capacity, so every row is OOM
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"hardware": {"p_max": 3e14, "b_mem": 2e12, "capacity": 1e9}}))
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "sweep", "--spec", str(spec), "--out-dir", str(out_dir))
        assert code == 0
        assert out.splitlines() == [str(out_dir / "sweep.csv")]
        assert sorted(p.name for p in out_dir.iterdir()) == ["sweep.csv"]
        rows = (out_dir / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 324 and all(r.endswith(",true") for r in rows)
        skipped = [f"throughput_vs_{axis}_p{p}.svg" for p in (40, 920) for axis in ("gen_len", "batch")]
        assert err.splitlines() == [
            f"warning: skipped {out_dir / name}: every row of its slice is out of memory" for name in skipped
        ]

    def test_all_oom_slices_skipped_and_others_written(self, capsys, tmp_path):
        # a 10**6-token prompt puts every row of its slices out of memory; prompt 40 fits
        grid = {"gen_lens": [64, 256], "batches": [1, 2]}
        spec, alone = tmp_path / "spec.json", tmp_path / "alone.json"
        spec.write_text(json.dumps({**grid, "prompt_lens": [40, 10**6]}))
        alone.write_text(json.dumps({**grid, "prompt_lens": [40]}))
        out_dir, alone_dir = tmp_path / "out", tmp_path / "alone"
        code, out, err = run(capsys, "sweep", "--spec", str(spec), "--out-dir", str(out_dir))
        assert code == 0
        written = ["sweep.csv", "throughput_vs_gen_len_p40.svg", "throughput_vs_batch_p40.svg"]
        assert out.splitlines() == [str(out_dir / name) for name in written]
        skipped = [out_dir / f"throughput_vs_{axis}_p1000000.svg" for axis in ("gen_len", "batch")]
        assert err.splitlines() == [
            f"warning: skipped {path}: every row of its slice is out of memory" for path in skipped
        ]
        assert run(capsys, "sweep", "--spec", str(alone), "--out-dir", str(alone_dir))[0] == 0
        for name in written[1:]:
            assert (out_dir / name).read_bytes() == (alone_dir / name).read_bytes()
        rows = (out_dir / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 3 * 2 * 2 * 2
        assert all(r.endswith(",true") for r in rows if ",1000000," in r)

    @pytest.mark.parametrize(
        "doc", [{"architectures": ["Foo"]}, {"accel": {"Foo": {"tpf": 2}}}], ids=["architectures", "accel"]
    )
    def test_unknown_architecture_exits_2(self, capsys, tmp_path, doc):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        code, out, err = run(capsys, "sweep", "--spec", str(spec), "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert out == ""
        assert "error [unknown_architecture]" in err

    @pytest.mark.parametrize(
        "doc",
        [5, {"gen_lens": ["a"]}, {"gen_lens": 5}, {"models": {"AR": 3}}, {"batches": [True]}],
        ids=["number", "string_item", "number_list", "number_model", "bool_item"],
    )
    def test_mistyped_spec_exits_2(self, capsys, tmp_path, doc):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        code, out, err = run(capsys, "sweep", "--spec", str(spec), "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert out == ""
        assert "error [wrong_type]: " in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text,key",
        [
            ('{"architectures": ["DLM"], "gen_lens": [16], "batches": [1], "prompt_lens": [0], "gen_lens": [32]}',
             "gen_lens"),
            ('{"architectures": ["DLM"], "gen_lens": [16], "batches": [1], "prompt_lens": [0], "models": {'
             '"DLM": {"n_l": 2, "n_h": 2, "n_d": 4, "d": 8, "alpha": 4, "N": 1000}, '
             '"DLM": {"n_l": 4, "n_h": 2, "n_d": 4, "d": 8, "alpha": 4, "N": 1000}}}',
             "DLM"),
        ],
        ids=["top_level", "models"],
    )
    def test_duplicate_field_exits_2(self, capsys, tmp_path, text, key):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        code, out, err = run(capsys, "sweep", "--spec", str(spec), "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert out == ""
        assert err == f"error [duplicate_field]: {spec}: field {key!r} is given more than once\n"
        assert not (tmp_path / "o").exists()

    def test_model_arch_must_equal_its_key(self, capsys, tmp_path):
        grid = {"architectures": ["AR"], "gen_lens": [16], "batches": [1], "prompt_lens": [0]}
        model = {"n_l": 2, "n_h": 2, "n_d": 4, "d": 8, "alpha": 4, "N": 1000}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**grid, "models": {"AR": {"arch": "DLM", **model}}}))
        code, out, err = run(capsys, "sweep", "--spec", str(spec), "--out-dir", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err == "error [arch_mismatch]: models['AR'] has arch 'DLM'; it must equal its key\n"
        assert not (tmp_path / "o").exists()

        # the same entry under its own name is the model the sweep runs
        spec.write_text(json.dumps({**grid, "models": {"AR": {"arch": "AR", **model}}}))
        assert run(capsys, "sweep", "--spec", str(spec), "--out-dir", str(tmp_path / "o"))[0] == 0
        cfg = ModelConfig(n_l=2, n_h=2, n_d=4, d=8, alpha=4.0, n_params=1000.0)
        expected = csv_text(run_sweep(SweepSpec(architectures=(Architecture.AR,), gen_lens=(16,), batches=(1,),
                                                prompt_lens=(0,), models={Architecture.AR: cfg})))
        assert (tmp_path / "o" / "sweep.csv").read_text() == expected

    @pytest.mark.parametrize("arch", ["AR", "BlockDiffusion"])
    def test_dual_cache_only_on_dlm(self, capsys, tmp_path, arch):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"architectures": [arch], "gen_lens": [16], "batches": [1], "prompt_lens": [0],
                                    "accel": {arch: {"dual_cache": True}}}))
        code, out, err = run(capsys, "sweep", "--spec", str(spec), "--out-dir", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err == f"error [unsupported_acceleration]: dual_cache applies to DLM only, not {arch}\n"
        assert not (tmp_path / "o").exists()

    def test_entry_for_an_architecture_not_run_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        model = {"n_l": 2, "n_h": 2, "n_d": 4, "d": 8, "alpha": 4, "N": 1000, "G": 4}
        grid = {"architectures": ["DLM"], "gen_lens": [16], "batches": [1], "prompt_lens": [0]}
        spec.write_text(json.dumps({**grid, "accel": {"AR": {"dual_cache": True}},
                                    "models": {"BlockDiffusion": model}}))
        code, out, err = run(capsys, "sweep", "--spec", str(spec), "--out-dir", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err == (
            "error [unused_entry]: models['BlockDiffusion'] is for an architecture missing from architectures\n"
            "error [unused_entry]: accel['AR'] is for an architecture missing from architectures\n"
        )
        assert not (tmp_path / "o").exists()

        # the same entries, for architectures the sweep runs
        spec.write_text(json.dumps({**grid, "architectures": ["AR", "BlockDiffusion", "DLM"],
                                    "accel": {"AR": {"tpf": 2}}, "models": {"BlockDiffusion": model}}))
        assert run(capsys, "sweep", "--spec", str(spec), "--out-dir", str(tmp_path / "o"))[0] == 0

    def test_repeated_architecture_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"architectures": ["DLM", "DLM"], "gen_lens": [16], "batches": [1],
                                    "prompt_lens": [0]}))
        code, out, err = run(capsys, "sweep", "--spec", str(spec), "--out-dir", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err == "error [duplicate_entry]: architectures must name each architecture once, got ['DLM', 'DLM']\n"
        assert not (tmp_path / "o").exists()

    def test_unknown_field_rejected_or_warned(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"architectures": ["DLM"], "gen_len": [16], "batches": [1], "prompt_lens": [0]}))
        code, out, err = run(capsys, "sweep", "--spec", str(spec), "--out-dir", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err == (
            "error [unknown_field]: unknown field 'gen_len' in sweep spec "
            "(allowed: architectures, gen_lens, batches, prompt_lens, accel, models, hardware)\n"
        )

        # lenient: the sweep runs without the field, the default lengths, and says so
        code, out, err = run(capsys, "sweep", "--spec", str(spec), "--out-dir", str(tmp_path / "o"), "--lenient-config")
        assert code == 0
        assert err == "warning: ignoring unknown field 'gen_len' in sweep spec\n"
        rows = (tmp_path / "o" / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == len(SweepSpec().gen_lens) == 6

    def test_bad_spec_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"batches": [4, 2]}))
        code, _, err = run(capsys, "sweep", "--spec", str(spec), "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert "not_increasing" in err


class TestOracleCheckCommand:
    def test_passes_and_writes_reports(self, capsys, tmp_path):
        out_dir = tmp_path / "oracle"
        code, out, err = run(capsys, "oracle-check", "--out-dir", str(out_dir))
        assert code == 0
        assert err == ""
        assert "overall: PASS" in out
        text = (out_dir / "oracle_report.txt").read_bytes()
        # the recorded report in perfbench/digests.json
        assert hashlib.sha256(text).hexdigest() == (
            "909f771bf0d2b5c5303a11771755e24c1ac6bed3d9b8e9131ea195f90284b39d"
        )
        with open(out_dir / "oracle_report.csv", newline="") as f:
            header, *rows = csv.reader(f)
        assert header == [
            "config", "check", "point", "analytic", "oracle", "ratio", "exponent_analytic", "exponent_oracle", "verdict"
        ]
        assert len(rows) == 885
        assert all(len(row) == len(header) for row in rows)
        assert {"BlockDiffusion n_l=1 d=8 (L,B)", "AR n_l=4 d=128"} <= {row[0] for row in rows}
        assert hashlib.sha256((out_dir / "oracle_report.csv").read_bytes()).hexdigest() == (
            "0fda464084ba8913cd63ba21f8cae7452215f28131e6c02fd8779425d78cbb3d"
        )
