import json
import math
from dataclasses import replace

import pytest

from rooflm.config import (
    AccelerationConfig,
    Architecture,
    HardwareSpec,
    ModelConfig,
    Workload,
    acceleration_from_dict,
    architecture_from_name,
    derive_param_count,
    hardware_from_dict,
    load_model_file,
    model_config_from_dict,
    validate_acceleration,
    validate_hardware,
    validate_model_config,
    validate_workload,
    workload_from_dict,
)
from rooflm.errors import ConfigValidationError
from rooflm.presets import A800_CLASS


def toy_config(**overrides):
    base = dict(n_l=2, n_h=2, n_d=4, d=8, alpha=4.0, n_params=1000.0)
    base.update(overrides)
    return ModelConfig(**base)


# an alpha or N that is not a number, or is NaN, and the code of the rule it breaks
INVALID_MODEL_NUMBERS = {
    "string_alpha": ({"alpha": "3.5"}, "wrong_type"),
    "bool_n": ({"n_params": True}, "wrong_type"),
    "nan_alpha": ({"alpha": math.nan}, "non_finite_field"),
    "nan_n": ({"n_params": math.nan}, "non_finite_field"),
}


class TestModelValidation:
    @pytest.mark.parametrize("case", list(INVALID_MODEL_NUMBERS))
    def test_model_number_rule(self, case):
        fields, code = INVALID_MODEL_NUMBERS[case]
        with pytest.raises(ConfigValidationError) as exc:
            validate_model_config(toy_config(**fields), Architecture.AR)
        assert exc.value.codes() == (code,)

    def test_valid_config_returned_unchanged(self):
        cfg = toy_config()
        assert validate_model_config(cfg, Architecture.AR) is cfg

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigValidationError) as exc:
            validate_model_config(toy_config(d=9), Architecture.AR)
        assert "dimension_mismatch" in exc.value.codes()

    def test_missing_block_size(self):
        with pytest.raises(ConfigValidationError) as exc:
            validate_model_config(toy_config(), Architecture.BLOCK_DIFFUSION)
        assert "missing_block_size" in exc.value.codes()

    def test_block_size_ignored_for_other_architectures(self):
        cfg = toy_config(block_size=4)
        validate_model_config(cfg, Architecture.AR)
        validate_model_config(cfg, Architecture.DLM)

    def test_errors_aggregate(self):
        with pytest.raises(ConfigValidationError) as exc:
            validate_model_config(toy_config(n_l=0, alpha=-1.0, d=9), Architecture.BLOCK_DIFFUSION)
        codes = exc.value.codes()
        assert "dimension_mismatch" in codes
        assert "missing_block_size" in codes
        assert codes.count("non_positive_field") >= 2

    def test_wrong_type_aggregates_with_other_rules(self):
        with pytest.raises(ConfigValidationError) as exc:
            validate_model_config(toy_config(n_l=0, alpha="x", n_params=-1.0), Architecture.AR)
        assert exc.value.codes() == ("non_positive_field", "wrong_type", "non_positive_field")

    def test_non_positive_n(self):
        with pytest.raises(ConfigValidationError) as exc:
            validate_model_config(toy_config(n_params=0.0), Architecture.AR)
        assert "non_positive_field" in exc.value.codes()


class TestDeriveParamCount:
    def test_spec_toy(self):
        assert derive_param_count(toy_config(n_l=2, d=8, alpha=4.0)) == 1536

    def test_smallest(self):
        assert derive_param_count(ModelConfig(1, 1, 1, 1, 1.0, 1.0)) == 6

    def test_8b_class(self):
        cfg = ModelConfig(32, 32, 128, 4096, 3.5, 1.0)
        assert derive_param_count(cfg) == pytest.approx(5.91e9, rel=0.01)


class TestHardwareWorkloadAccel:
    def test_hardware_rejects_bad_width(self):
        with pytest.raises(ConfigValidationError):
            validate_hardware(HardwareSpec(1e12, 1e10, 1e9, bytes_per_element=3))

    def test_hardware_rejects_non_positive(self):
        with pytest.raises(ConfigValidationError):
            validate_hardware(HardwareSpec(0, 1e10, 1e9))

    @pytest.mark.parametrize("capacity", [math.nan, math.inf], ids=["nan", "infinity"])
    def test_hardware_rejects_non_finite_capacity(self, capacity):
        with pytest.raises(ConfigValidationError) as exc:
            validate_hardware(HardwareSpec(1e12, 1e10, capacity))
        assert exc.value.codes() == ("non_finite_field",)

    def test_workload_rejects_zero_gen(self):
        with pytest.raises(ConfigValidationError):
            validate_workload(Workload(1, 0, 0))

    def test_workload_total_len(self):
        assert Workload(2, 40, 64).total_len == 104

    def test_accel_rejects_tpf_below_one(self):
        with pytest.raises(ConfigValidationError):
            validate_acceleration(AccelerationConfig(tpf=0.5))

    def test_accel_labels(self):
        assert AccelerationConfig().label == "none"
        assert AccelerationConfig(tpf=2.0).label == "parallel"
        assert AccelerationConfig(dual_cache=True).label == "dual-cache"
        assert AccelerationConfig(tpf=2.0, dual_cache=True).label == "parallel+dual-cache"


# fields of a hardware profile or acceleration config that break one rule each, and the code of that rule;
# a library caller gets the wrong_type issue a JSON caller gets, never a bare TypeError
INVALID_HARDWARE = {
    "zero_p_max": ({"p_max": 0.0}, "non_positive_field"),
    "negative_p_max": ({"p_max": -1e14}, "non_positive_field"),
    "zero_b_mem": ({"b_mem": 0.0}, "non_positive_field"),
    "negative_capacity": ({"capacity": -1.0}, "non_positive_field"),
    "nan_capacity": ({"capacity": math.nan}, "non_finite_field"),
    "infinite_capacity": ({"capacity": math.inf}, "non_finite_field"),
    "three_byte_elements": ({"bytes_per_element": 3}, "non_positive_field"),
    "bool_elements": ({"bytes_per_element": True}, "non_positive_field"),
    "float_elements": ({"bytes_per_element": 2.0}, "non_positive_field"),
    "ridge_overflow": ({"p_max": 1e308, "b_mem": 1e-10}, "out_of_range"),
    "ridge_underflow": ({"p_max": 1e-300, "b_mem": 1e300}, "out_of_range"),
    "nan_p_max": ({"p_max": math.nan}, "out_of_range"),
    "string_p_max": ({"p_max": "1e12"}, "wrong_type"),
    "bool_p_max": ({"p_max": True}, "wrong_type"),
    "none_b_mem": ({"b_mem": None}, "wrong_type"),
    "bool_capacity": ({"capacity": False}, "wrong_type"),
}
INVALID_ACCELERATION = {
    "tpf_below_one": ({"tpf": 0.5}, "non_positive_field"),
    "nan_tpf": ({"tpf": math.nan}, "non_finite_field"),
    "infinite_tpf": ({"tpf": math.inf}, "non_finite_field"),
    "zero_refresh_interval": ({"cache_refresh_interval": 0}, "non_positive_field"),
    "bool_refresh_interval": ({"cache_refresh_interval": True}, "non_positive_field"),
    "zero_dual_cache_block": ({"dual_cache": True, "dual_cache_block": 0}, "non_positive_field"),
    "bool_dual_cache_block": ({"dual_cache": True, "dual_cache_block": True}, "non_positive_field"),
    "string_tpf": ({"tpf": "2"}, "wrong_type"),
    "bool_tpf": ({"tpf": True}, "wrong_type"),
    "string_dual_cache": ({"dual_cache": "false"}, "wrong_type"),
    "int_dual_cache": ({"dual_cache": 1}, "wrong_type"),
}


class TestSelfValidation:
    """A HardwareSpec or AccelerationConfig that breaks a rule cannot be built."""

    @pytest.mark.parametrize("case", list(INVALID_HARDWARE))
    def test_hardware_rule_raises_when_built(self, case):
        fields, code = INVALID_HARDWARE[case]
        for build in (lambda: replace(A800_CLASS, **fields), lambda: HardwareSpec(**{**vars(A800_CLASS), **fields})):
            with pytest.raises(ConfigValidationError) as exc:
                build()
            assert exc.value.codes() == (code,)

    @pytest.mark.parametrize("case", list(INVALID_ACCELERATION))
    def test_acceleration_rule_raises_when_built(self, case):
        fields, code = INVALID_ACCELERATION[case]
        with pytest.raises(ConfigValidationError) as exc:
            AccelerationConfig(**fields)
        assert exc.value.codes() == (code,)

    def test_rules_aggregate(self):
        with pytest.raises(ConfigValidationError) as exc:
            HardwareSpec(p_max=-1.0, b_mem=0.0, capacity=math.nan, bytes_per_element=3)
        assert exc.value.codes() == ("non_positive_field",) * 2 + ("non_finite_field", "non_positive_field")

    def test_wrong_types_aggregate(self):
        with pytest.raises(ConfigValidationError) as exc:
            AccelerationConfig(tpf="2", dual_cache="false")
        assert exc.value.codes() == ("wrong_type",) * 2

    def test_dual_cache_block_unchecked_without_dual_cache(self):
        assert AccelerationConfig(dual_cache_block=0).dual_cache_block == 0


class TestIntegerFieldsRejectBool:
    """``True == 1``, but a bool is not a count: every integer field rejects it with today's code."""

    @pytest.mark.parametrize("name", ["n_l", "n_h", "n_d", "d"])
    def test_model_shape(self, name):
        cfg = toy_config(**{name: True})
        with pytest.raises(ConfigValidationError) as exc:
            validate_model_config(cfg, Architecture.AR)
        assert "non_positive_field" in exc.value.codes()

    def test_block_size(self):
        with pytest.raises(ConfigValidationError) as exc:
            validate_model_config(toy_config(block_size=True), Architecture.BLOCK_DIFFUSION)
        assert exc.value.codes() == ("non_positive_field",)

    @pytest.mark.parametrize("name", ["batch", "prompt_len", "gen_len"])
    def test_workload(self, name):
        with pytest.raises(ConfigValidationError) as exc:
            validate_workload(replace(Workload(1, 40, 256), **{name: True}))
        assert exc.value.codes() == ("non_positive_field",)


class TestIngestion:
    def test_model_roundtrip(self):
        arch, cfg = model_config_from_dict(
            {"arch": "BlockDiffusion", "n_l": 2, "n_h": 2, "n_d": 4, "d": 8, "alpha": 4, "N": 1000, "G": 4}
        )
        assert arch is Architecture.BLOCK_DIFFUSION
        assert cfg.block_size == 4
        assert cfg.n_params == 1000.0

    def test_missing_n_is_derived(self):
        _, cfg = model_config_from_dict({"arch": "AR", "n_l": 2, "n_h": 2, "n_d": 4, "d": 8, "alpha": 4})
        assert cfg.n_params == 1536

    def test_unknown_field_rejected_in_strict_mode(self):
        doc = {"arch": "AR", "n_l": 2, "n_h": 2, "n_d": 4, "d": 8, "alpha": 4, "layers": 2}
        with pytest.raises(ConfigValidationError) as exc:
            model_config_from_dict(doc)
        assert "unknown_field" in exc.value.codes()

    def test_unknown_field_warned_in_lenient_mode(self):
        doc = {"arch": "AR", "n_l": 2, "n_h": 2, "n_d": 4, "d": 8, "alpha": 4, "layers": 2}
        with pytest.warns(UserWarning, match="layers"):
            model_config_from_dict(doc, strict=False)

    def test_missing_required_field(self):
        with pytest.raises(ConfigValidationError) as exc:
            model_config_from_dict({"arch": "AR", "n_l": 2})
        assert "missing_field" in exc.value.codes()

    def test_unknown_architecture(self):
        with pytest.raises(ConfigValidationError):
            architecture_from_name("Mamba")

    def test_workload_with_embedded_accel(self):
        wl, accel = workload_from_dict(
            {"batch": 2, "prompt_len": 40, "gen_len": 64, "accel": {"tpf": 3.1, "dual_cache": True}}
        )
        assert wl.batch == 2
        assert accel.tpf == 3.1
        assert accel.dual_cache

    def test_hardware_defaults_width(self):
        hw = hardware_from_dict({"p_max": 1e12, "b_mem": 1e10, "capacity": 1e9})
        assert hw.bytes_per_element == 2

    def test_accel_unknown_field(self):
        with pytest.raises(ConfigValidationError):
            acceleration_from_dict({"tpf": 2, "window": 8})

    def test_load_model_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"arch": "DLM", "n_l": 1, "n_h": 1, "n_d": 2, "d": 2, "alpha": 2, "N": 10}))
        arch, cfg = load_model_file(path)
        assert arch is Architecture.DLM
        assert cfg.d == 2


class TestShippedConfigs:
    def test_shipped_files_parse(self, repo_root):
        for name in ("ar_8b", "dlm_8b", "block_diffusion_8b"):
            arch, cfg = load_model_file(repo_root / "configs" / "models" / f"{name}.json")
            validate_model_config(cfg, arch)
            assert cfg.d == cfg.n_h * cfg.n_d

    def test_shipped_hardware_matches_preset(self, repo_root):
        from rooflm.presets import A800_CLASS

        hw = hardware_from_dict(json.loads((repo_root / "configs" / "hardware_a800_class.json").read_text()))
        assert hw == A800_CLASS
