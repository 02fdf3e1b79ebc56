import json
import math
from dataclasses import MISSING, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rooflm.config
import rooflm.sweep
from rooflm.config import (
    JSON_NAMES,
    NO_ACCELERATION,
    AccelerationConfig,
    Architecture,
    HardwareSpec,
    ModelConfig,
    Workload,
    acceleration_from_dict,
    architecture_from_name,
    derive_param_count,
    hardware_from_dict,
    json_kinds,
    load_model_file,
    model_config_from_dict,
    read_fields,
    validate_model_config,
    workload_from_dict,
)
from rooflm.errors import ConfigValidationError
from rooflm.presets import A800_CLASS
from rooflm.schedule import build_schedule
from rooflm.sweep import sweep_spec_from_dict


def toy_config(**overrides):
    base = dict(n_l=2, n_h=2, n_d=4, d=8, alpha=4.0, n_params=1000.0)
    base.update(overrides)
    return ModelConfig(**base)


TOY_MODEL_DOC = {"arch": "AR", "n_l": 2, "n_h": 2, "n_d": 4, "d": 8, "alpha": 4.0, "N": 1000.0}


def library_model(arch, n_l, n_h, n_d, d, alpha, N, G=None):
    """What ``model_config_from_dict`` returns for a document with these fields, built through the library."""
    return validate_model_config(ModelConfig(n_l, n_h, n_d, d, alpha, N, G), architecture_from_name(arch))


# a bad integer of any integer field, and the code of the rule it breaks
BAD_INTEGERS = {"bool": (True, "wrong_type"), "float": (2.0, "wrong_type"), "huge": (2**53 + 1, "out_of_range")}

# one bad scalar of a model field in each row (the document is otherwise TOY_MODEL_DOC), and the codes it gets;
# G is checked for its kind and bound whatever the architecture, and for its range on block diffusion only
INVALID_MODEL = {
    **{f"{bad}_{name}": ({name: value}, (code,)) for name in ("n_l", "n_h", "n_d", "d", "G")
       for bad, (value, code) in BAD_INTEGERS.items()},
    "zero_n_l": ({"n_l": 0}, ("non_positive_field",)),
    "zero_n_h": ({"n_h": 0}, ("non_positive_field", "dimension_mismatch")),
    "zero_n_d": ({"n_d": 0}, ("non_positive_field", "dimension_mismatch")),
    "zero_d": ({"d": 0}, ("non_positive_field", "dimension_mismatch")),
    "fractional_g": ({"G": 2.5}, ("wrong_type",)),
    "zero_g_block_diffusion": ({"arch": "BlockDiffusion", "G": 0}, ("non_positive_field",)),
    "string_alpha": ({"alpha": "3.5"}, ("wrong_type",)),
    "bool_alpha": ({"alpha": True}, ("wrong_type",)),
    "nan_alpha": ({"alpha": math.nan}, ("non_finite_field",)),
    "infinite_alpha": ({"alpha": math.inf}, ("non_finite_field",)),
    "zero_alpha": ({"alpha": 0.0}, ("non_positive_field",)),
    "string_n": ({"N": "1000"}, ("wrong_type",)),
    "bool_n": ({"N": True}, ("wrong_type",)),
    "nan_n": ({"N": math.nan}, ("non_finite_field",)),
    "infinite_n": ({"N": math.inf}, ("non_finite_field",)),
    "negative_n": ({"N": -1.0}, ("non_positive_field",)),
}


class TestModelValidation:
    @pytest.mark.parametrize("case", list(INVALID_MODEL))
    def test_model_rule(self, case):
        # a JSON document and a library caller get the same issues
        fields, codes = INVALID_MODEL[case]
        doc = {**TOY_MODEL_DOC, **fields}
        for build in (lambda: model_config_from_dict(doc), lambda: library_model(**doc)):
            with pytest.raises(ConfigValidationError) as exc:
                build()
            assert exc.value.codes() == codes

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
        for arch in ("AR", "DLM"):  # its range is unchecked where it is unused
            assert model_config_from_dict({**TOY_MODEL_DOC, "arch": arch, "G": 0})[1] == library_model(
                **{**TOY_MODEL_DOC, "arch": arch, "G": 0})

    def test_errors_aggregate(self):
        # a document's model issues and its pairing's come in one list
        doc = {**TOY_MODEL_DOC, "arch": "BlockDiffusion", "n_l": 0, "alpha": -1.0, "d": 9}
        with pytest.raises(ConfigValidationError) as exc:
            model_config_from_dict(doc)
        codes = exc.value.codes()
        assert "dimension_mismatch" in codes
        assert "missing_block_size" in codes
        assert codes.count("non_positive_field") >= 2

    def test_kind_issues_come_before_range_issues(self):
        with pytest.raises(ConfigValidationError) as exc:
            toy_config(n_l=0, alpha="x", n_params=-1.0)
        assert exc.value.codes() == ("wrong_type",)
        with pytest.raises(ConfigValidationError) as exc:
            toy_config(n_l=0, alpha=-1.0, n_params=-1.0)
        assert exc.value.codes() == ("non_positive_field",) * 3

    def test_non_positive_n(self):
        with pytest.raises(ConfigValidationError) as exc:
            toy_config(n_params=0.0)
        assert "non_positive_field" in exc.value.codes()

    @pytest.mark.parametrize("build", [
        lambda: ModelConfig(0, 1, 1, 1, 1.0, 1.0),
        lambda: replace(toy_config(), n_l=0),
        lambda: Workload(1, 0, 0),
        lambda: Workload(1.5, 0, 16),
        lambda: replace(Workload(1, 0, 16), gen_len=0),
    ], ids=["model", "replaced_model", "zero_gen_len", "fractional_batch", "replaced_workload"])
    def test_invalid_config_raises_when_built(self, build):
        with pytest.raises(ConfigValidationError):
            build()

    @pytest.mark.parametrize("arch", ["AR", "BlockDiffusion", None])
    def test_architecture_given_by_name_is_wrong_type(self, arch):
        with pytest.raises(ConfigValidationError) as exc:
            validate_model_config(toy_config(block_size=4), arch)
        assert exc.value.issues == (("wrong_type", f"arch must be of type Architecture, got {arch!r}"),)

    def test_model_without_n_is_told_nothing_about_n(self):
        doc = {"arch": "BlockDiffusion", "n_l": 0, "n_h": 1, "n_d": 8, "d": 8, "alpha": 1.0}
        with pytest.raises(ConfigValidationError) as exc:
            model_config_from_dict(doc)
        assert exc.value.issues == (
            ("non_positive_field", "n_l must be an integer >= 1, got 0"),
            ("missing_block_size", "block diffusion requires a block size G >= 1"),
        )
        doc = {"arch": "AR", "n_l": 1, "n_h": 1, "n_d": 8, "d": 8, "alpha": 1e307}  # a derived N past the float range
        with pytest.raises(ConfigValidationError) as exc:
            model_config_from_dict(doc)
        assert exc.value.codes() == ("out_of_range",) and "N " not in str(exc.value)


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
            HardwareSpec(1e12, 1e10, 1e9, bytes_per_element=3)

    def test_hardware_rejects_non_positive(self):
        with pytest.raises(ConfigValidationError):
            HardwareSpec(0, 1e10, 1e9)

    @pytest.mark.parametrize("capacity", [math.nan, math.inf], ids=["nan", "infinity"])
    def test_hardware_rejects_non_finite_capacity(self, capacity):
        with pytest.raises(ConfigValidationError) as exc:
            HardwareSpec(1e12, 1e10, capacity)
        assert exc.value.codes() == ("non_finite_field",)

    def test_workload_rejects_zero_gen(self):
        with pytest.raises(ConfigValidationError):
            Workload(1, 0, 0)

    def test_workload_total_len(self):
        assert Workload(2, 40, 64).total_len == 104

    def test_accel_rejects_tpf_below_one(self):
        with pytest.raises(ConfigValidationError):
            AccelerationConfig(tpf=0.5)

    def test_accel_labels(self):
        assert AccelerationConfig().label == "none"
        assert AccelerationConfig(tpf=2.0).label == "parallel"
        assert AccelerationConfig(dual_cache=True).label == "dual-cache"
        assert AccelerationConfig(tpf=2.0, dual_cache=True).label == "parallel+dual-cache"


# fields of a hardware profile, acceleration config or workload that break one rule each, and the code of
# that rule; a JSON document and a library caller get the same issues, never a bare TypeError
INVALID_HARDWARE = {
    "zero_p_max": ({"p_max": 0.0}, "non_positive_field"),
    "negative_p_max": ({"p_max": -1e14}, "non_positive_field"),
    "zero_b_mem": ({"b_mem": 0.0}, "non_positive_field"),
    "negative_capacity": ({"capacity": -1.0}, "non_positive_field"),
    "nan_capacity": ({"capacity": math.nan}, "non_finite_field"),
    "infinite_capacity": ({"capacity": math.inf}, "non_finite_field"),
    "three_byte_elements": ({"bytes_per_element": 3}, "non_positive_field"),
    "bool_elements": ({"bytes_per_element": True}, "wrong_type"),
    "float_elements": ({"bytes_per_element": 2.0}, "wrong_type"),
    "huge_elements": ({"bytes_per_element": 2**53 + 1}, "out_of_range"),
    "ridge_overflow": ({"p_max": 1e308, "b_mem": 1e-10}, "out_of_range"),
    "ridge_underflow": ({"p_max": 1e-300, "b_mem": 1e300}, "out_of_range"),
    "nan_p_max": ({"p_max": math.nan}, "non_finite_field"),
    "infinite_p_max": ({"p_max": math.inf}, "non_finite_field"),
    "string_p_max": ({"p_max": "1e12"}, "wrong_type"),
    "bool_p_max": ({"p_max": True}, "wrong_type"),
    "none_b_mem": ({"b_mem": None}, "wrong_type"),
    "string_b_mem": ({"b_mem": "1e10"}, "wrong_type"),
    "nan_b_mem": ({"b_mem": math.nan}, "non_finite_field"),
    "infinite_b_mem": ({"b_mem": math.inf}, "non_finite_field"),
    "bool_capacity": ({"capacity": False}, "wrong_type"),
    "string_capacity": ({"capacity": "8e10"}, "wrong_type"),
}
# dual_cache_block is checked for its kind and bound with dual cache off, and for its range only with it on
INVALID_ACCELERATION = {
    "tpf_below_one": ({"tpf": 0.5}, "non_positive_field"),
    "nan_tpf": ({"tpf": math.nan}, "non_finite_field"),
    "infinite_tpf": ({"tpf": math.inf}, "non_finite_field"),
    "zero_refresh_interval": ({"cache_refresh_interval": 0}, "non_positive_field"),
    **{f"{bad}_refresh_interval": ({"cache_refresh_interval": value}, code) for bad, (value, code) in BAD_INTEGERS.items()},
    "zero_dual_cache_block": ({"dual_cache": True, "dual_cache_block": 0}, "non_positive_field"),
    **{f"{bad}_dual_cache_block": ({"dual_cache": True, "dual_cache_block": value}, code)
       for bad, (value, code) in BAD_INTEGERS.items()},
    **{f"{bad}_unused_dual_cache_block": ({"dual_cache_block": value}, code) for bad, (value, code) in BAD_INTEGERS.items()},
    "string_tpf": ({"tpf": "2"}, "wrong_type"),
    "bool_tpf": ({"tpf": True}, "wrong_type"),
    "string_dual_cache": ({"dual_cache": "false"}, "wrong_type"),
    "int_dual_cache": ({"dual_cache": 1}, "wrong_type"),
}
INVALID_WORKLOAD = {
    **{f"{bad}_{name}": ({name: value}, code) for name in ("batch", "prompt_len", "gen_len")
       for bad, (value, code) in BAD_INTEGERS.items()},
    "zero_batch": ({"batch": 0}, "non_positive_field"),
    "negative_prompt_len": ({"prompt_len": -1}, "non_positive_field"),
    "zero_gen_len": ({"gen_len": 0}, "non_positive_field"),
}
WORKLOAD_DOC = {"batch": 1, "prompt_len": 40, "gen_len": 256}


class TestSelfValidation:
    """A HardwareSpec, AccelerationConfig or Workload that breaks a rule cannot be built."""

    @pytest.mark.parametrize("case", list(INVALID_HARDWARE))
    def test_hardware_rule_raises_when_built(self, case):
        fields, code = INVALID_HARDWARE[case]
        doc = {**vars(A800_CLASS), **fields}
        for build in (lambda: replace(A800_CLASS, **fields), lambda: HardwareSpec(**doc), lambda: hardware_from_dict(doc)):
            with pytest.raises(ConfigValidationError) as exc:
                build()
            assert exc.value.codes() == (code,)

    @pytest.mark.parametrize("case", list(INVALID_ACCELERATION))
    def test_acceleration_rule_raises_when_built(self, case):
        fields, code = INVALID_ACCELERATION[case]
        for build in (lambda: AccelerationConfig(**fields), lambda: replace(NO_ACCELERATION, **fields),
                      lambda: acceleration_from_dict(fields)):
            with pytest.raises(ConfigValidationError) as exc:
                build()
            assert exc.value.codes() == (code,)

    @pytest.mark.parametrize("case", list(INVALID_WORKLOAD))
    def test_workload_rule_raises_when_built(self, case):
        fields, code = INVALID_WORKLOAD[case]
        doc = {**WORKLOAD_DOC, **fields}
        for build in (lambda: Workload(**doc), lambda: replace(Workload(**WORKLOAD_DOC), **fields),
                      lambda: workload_from_dict(doc)):
            with pytest.raises(ConfigValidationError) as exc:
                build()
            assert exc.value.codes() == (code,)

    def test_rules_aggregate(self):
        with pytest.raises(ConfigValidationError) as exc:
            HardwareSpec(p_max=-1.0, b_mem=0.0, capacity=-1.0, bytes_per_element=3)
        assert exc.value.codes() == ("non_positive_field",) * 4
        # a non-finite number is an issue of its kind, raised before any range is checked, as in JSON
        with pytest.raises(ConfigValidationError) as exc:
            HardwareSpec(p_max=-1.0, b_mem=0.0, capacity=math.nan, bytes_per_element=3)
        assert exc.value.codes() == ("non_finite_field",)

    def test_wrong_types_aggregate(self):
        with pytest.raises(ConfigValidationError) as exc:
            AccelerationConfig(tpf="2", dual_cache="false")
        assert exc.value.codes() == ("wrong_type",) * 2

    def test_dual_cache_block_unchecked_without_dual_cache(self):
        assert AccelerationConfig(dual_cache_block=0).dual_cache_block == 0
        assert acceleration_from_dict({"dual_cache_block": 0}) == AccelerationConfig(dual_cache_block=0)


# a valid document of each config type by JSON key (the model runs on AR), and how JSON and the library build one
VALID_DOCS = {
    ModelConfig: {"n_l": 2, "n_h": 2, "n_d": 4, "d": 8, "alpha": 4.0, "N": 1000.0, "G": 4},
    HardwareSpec: {"p_max": 1e12, "b_mem": 1e10, "capacity": 1e9, "bytes_per_element": 2},
    Workload: WORKLOAD_DOC,
    AccelerationConfig: {"tpf": 2.0, "dual_cache": True, "dual_cache_block": 8, "cache_refresh_interval": 64},
}
FROM_DICT = {
    ModelConfig: lambda doc: model_config_from_dict({"arch": "AR", **doc}),
    HardwareSpec: hardware_from_dict,
    Workload: workload_from_dict,
    AccelerationConfig: acceleration_from_dict,
}
LIBRARY_CHECK = {ModelConfig: lambda cfg: validate_model_config(cfg, Architecture.AR)}

# values that break a field of each JSON kind: of another kind, non-finite, past the bound or below any range;
# a JSON integer in a number field is read as a float, so no int past 2**53 is drawn for one
BAD_VALUES = {
    int: [True, False, 2.0, "1", math.nan, math.inf, -math.inf, 2**53 + 1, 0, -1],
    float: [True, "1", math.nan, math.inf, -math.inf, 0, -1, 0.0, -1.0, 0.5],
    bool: [0, 1, 1.0, "false", math.nan],
}
VALID_VALUES = {int: st.integers(0, 2**53), float: st.floats(1e-300, 1e300) | st.integers(1, 2**53), bool: st.booleans()}
ABSENT = object()


def library_fields(cls):
    """Fields of config type ``cls``, drawn from its field table: each valid, absent if it has a default, or broken.

    None is not drawn: a JSON null is an issue of the document's shape, reported before its constructor runs.
    """
    strategies = {}
    for f in fields(cls):
        key = JSON_NAMES.get(f.name, f.name)
        kind = json_kinds(cls)[key]
        bad = BAD_VALUES[kind] + ([] if f.default is MISSING else [ABSENT])
        strategies[f.name] = st.just(VALID_DOCS[cls][key]) | VALID_VALUES[kind] | st.sampled_from(bad)
    return st.fixed_dictionaries(strategies).map(lambda drawn: {k: v for k, v in drawn.items() if v is not ABSENT})


def issue_codes(build):
    try:
        build()
    except ConfigValidationError as exc:
        return exc.codes()
    return ()


class TestReaderLibraryParity:
    """A JSON document, the constructor and ``dataclasses.replace`` give the same issue codes for the same fields."""

    @pytest.mark.parametrize("cls", list(VALID_DOCS), ids=lambda cls: cls.__name__)
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_same_codes(self, cls, data):
        drawn = data.draw(library_fields(cls))
        doc = {JSON_NAMES.get(name, name): value for name, value in drawn.items()}
        check = LIBRARY_CHECK.get(cls, lambda config: config)
        base = cls(**{f.name: VALID_DOCS[cls][JSON_NAMES.get(f.name, f.name)] for f in fields(cls) if f.default is MISSING})
        from_json = issue_codes(lambda: FROM_DICT[cls](doc))
        assert issue_codes(lambda: check(cls(**drawn))) == from_json
        assert issue_codes(lambda: check(replace(base, **drawn))) == from_json

    def test_reader_kind_maps_are_pinned(self, monkeypatch):
        # what each JSON document accepts, so that a changed annotation cannot change it unseen
        kinds_read = {}

        def recording(data, kinds, required, what, strict):
            kinds_read[what] = list(kinds.items())
            return read_fields(data, kinds, required, what, strict)

        for module in (rooflm.config, rooflm.sweep):
            monkeypatch.setattr(module, "read_fields", recording)
        sweep_spec_from_dict({"architectures": ["AR"], "models": {"AR": TOY_MODEL_DOC}, "accel": {"AR": {}},
                              "hardware": VALID_DOCS[HardwareSpec]})
        workload_from_dict(WORKLOAD_DOC)
        assert kinds_read == {
            "sweep spec": [("architectures", list), ("gen_lens", list), ("batches", list), ("prompt_lens", list),
                           ("accel", dict), ("models", dict), ("hardware", dict)],
            "model config": [("arch", str), ("n_l", int), ("n_h", int), ("n_d", int), ("d", int), ("alpha", float),
                             ("N", float), ("G", int)],
            "acceleration config": [("tpf", float), ("dual_cache", bool), ("dual_cache_block", int),
                                    ("cache_refresh_interval", int)],
            "hardware config": [("p_max", float), ("b_mem", float), ("capacity", float), ("bytes_per_element", int)],
            "workload config": [("batch", int), ("prompt_len", int), ("gen_len", int), ("accel", dict)],
        }


class TestIntegerFieldsRejectBool:
    """``True == 1``, but a bool is not a count: every integer field rejects it with ``wrong_type``, as JSON does."""

    @pytest.mark.parametrize("name", ["n_l", "n_h", "n_d", "d"])
    def test_model_shape(self, name):
        with pytest.raises(ConfigValidationError) as exc:
            toy_config(**{name: True})
        assert "wrong_type" in exc.value.codes()

    def test_block_size(self):
        with pytest.raises(ConfigValidationError) as exc:
            validate_model_config(toy_config(block_size=True), Architecture.BLOCK_DIFFUSION)
        assert exc.value.codes() == ("wrong_type",)

    @pytest.mark.parametrize("name", ["batch", "prompt_len", "gen_len"])
    def test_workload(self, name):
        with pytest.raises(ConfigValidationError) as exc:
            replace(Workload(1, 40, 256), **{name: True})
        assert exc.value.codes() == ("wrong_type",)


def bounded_model(name, value):
    """A block-diffusion model with field ``name`` at ``value``; a shape field keeps d = n_h * n_d."""
    if name == "n_h":
        return toy_config(n_h=value, n_d=1, d=value, block_size=4)
    if name in ("n_d", "d"):
        return toy_config(n_h=1, n_d=value, d=value, block_size=4)
    return toy_config(**{"block_size": 4, name: value})


# every integer field, and every number field given as an int, with the library entry that checks it
BOUNDED_FIELDS = {
    **{name: lambda v, name=name: build_schedule(Architecture.BLOCK_DIFFUSION, bounded_model(name, v), Workload(1, 0, 1))
       for name in ("n_l", "n_h", "n_d", "d", "block_size", "alpha", "n_params")},
    **{name: lambda v, name=name: build_schedule(Architecture.AR, toy_config(), replace(Workload(1, 0, 1), **{name: v}))
       for name in ("batch", "prompt_len", "gen_len")},
    "dual_cache_block": lambda v: AccelerationConfig(dual_cache=True, dual_cache_block=v),
    "cache_refresh_interval": lambda v: AccelerationConfig(cache_refresh_interval=v),
    "tpf": lambda v: AccelerationConfig(tpf=v),
    **{name: lambda v, name=name: replace(A800_CLASS, **{name: v}) for name in ("p_max", "b_mem", "capacity")},
}

# library ints beyond the float range, which once escaped as a bare OverflowError
HUGE_INTS = {
    "tpf": lambda: AccelerationConfig(tpf=10**400),
    "capacity": lambda: HardwareSpec(1e12, 1e10, 10**400),
    "p_max": lambda: HardwareSpec(10**400, 1, 1e9),
    "negative_tpf": lambda: AccelerationConfig(tpf=-10**400),
    "negative_capacity": lambda: HardwareSpec(1e12, 1e10, -10**400),
    "negative_alpha": lambda: validate_model_config(toy_config(alpha=-10**400), Architecture.AR),
}


class TestIntegerBound:
    """Library callers meet the JSON reader's bound: an integer above 2**53 is ``out_of_range``, 2**53 is not."""

    @pytest.mark.parametrize("name", list(BOUNDED_FIELDS))
    def test_above_the_bound(self, name):
        with pytest.raises(ConfigValidationError) as exc:
            BOUNDED_FIELDS[name](2**53 + 1)
        assert {code for code, _ in exc.value.issues} == {"out_of_range"}
        assert all(msg.endswith(" must be at most 2**53, got an integer of 54 bits") for _, msg in exc.value.issues)

    @pytest.mark.parametrize("name", list(BOUNDED_FIELDS))
    def test_at_the_bound(self, name):
        BOUNDED_FIELDS[name](2**53)

    @pytest.mark.parametrize("case", list(HUGE_INTS))
    def test_int_beyond_the_float_range(self, case):
        with pytest.raises(ConfigValidationError) as exc:
            HUGE_INTS[case]()
        assert exc.value.codes() == ("out_of_range",)

    def test_json_outcomes_unchanged(self):
        # a JSON number-kind int is read as a float, and a JSON integer's range is its validator's
        with pytest.raises(ConfigValidationError) as exc:
            hardware_from_dict({"p_max": 10**400, "b_mem": 1e10, "capacity": 1e9})
        assert exc.value.codes() == ("non_finite_field",)
        with pytest.raises(ConfigValidationError) as exc:
            workload_from_dict({"batch": -10**400, "prompt_len": 0, "gen_len": 1})
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
