"""Model, hardware, and workload configuration types: validation and JSON ingestion.

JSON documents use exactly the short field names of the underlying notation
(``n_l``, ``n_h``, ``n_d``, ``d``, ``alpha``, ``N``, ``G`` for models;
``p_max``, ``b_mem``, ``capacity``, ``bytes_per_element`` for hardware;
``batch``, ``prompt_len``, ``gen_len`` for workloads). Unknown fields are
rejected in strict mode and warned about in lenient mode. Every known field
must have its JSON type: an integer field takes neither ``true`` nor ``2.0``,
a number field takes no string and no NaN or Infinity, and a flag takes only
``true`` or ``false``; a violation is a ``wrong_type`` or ``non_finite_field``
issue. An integer above ``MAX_INTEGER`` (2**53) is an ``out_of_range`` issue:
up to that bound every closed-form sum of a schedule still fits in a float.
A key given twice in one JSON object is a ``duplicate_field`` issue, and a
file that is not UTF-8 an ``invalid_encoding`` issue.

A ``HardwareSpec`` or ``AccelerationConfig`` validates itself when built, so
one that breaks a rule of ``validate_hardware`` or ``validate_acceleration``
cannot exist and no caller re-checks it. A model's rules depend on its
architecture and a workload's are checked by ``build_schedule``. Library
callers meet the JSON kinds too: ``p_max``, ``b_mem``, ``capacity``, ``tpf``,
``alpha`` and ``N`` must be numbers (a bool is none) and ``dual_cache`` a
bool, else a ``wrong_type`` issue; a NaN ``alpha`` or ``N`` is a
``non_finite_field`` issue.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from .errors import ConfigValidationError


class Architecture(str, Enum):
    AR = "AR"
    DLM = "DLM"
    BLOCK_DIFFUSION = "BlockDiffusion"


def architecture_from_name(name: str) -> Architecture:
    for arch in Architecture:
        if arch.value == name:
            return arch
    known = ", ".join(a.value for a in Architecture)
    raise ConfigValidationError([("unknown_architecture", f"unknown architecture {name!r} (expected one of: {known})")])


@dataclass(frozen=True)
class ModelConfig:
    """Transformer shape shared by all three architectures.

    ``block_size`` (JSON key ``G``) is only meaningful for block diffusion and
    is ignored elsewhere. ``n_params`` (JSON key ``N``) is the total parameter
    count used for weight-traffic accounting; when absent from a JSON document
    it is backfilled with :func:`derive_param_count`.
    """

    n_l: int          # transformer layers
    n_h: int          # attention heads per layer
    n_d: int          # dimension per head
    d: int            # hidden size, must equal n_h * n_d
    alpha: float      # FFN expansion ratio
    n_params: float   # total parameter count
    block_size: Optional[int] = None


@dataclass(frozen=True)
class HardwareSpec:
    """A device profile; building one that breaks a rule of ``validate_hardware`` raises its issues."""

    p_max: float                 # peak floating-point rate, FLOPs/s
    b_mem: float                 # peak sustainable memory bandwidth, bytes/s
    capacity: float              # device memory, bytes
    bytes_per_element: int = 2   # storage width of weights/activations

    def __post_init__(self) -> None:
        validate_hardware(self)


@dataclass(frozen=True)
class Workload:
    batch: int
    prompt_len: int
    gen_len: int

    @property
    def total_len(self) -> int:
        return self.prompt_len + self.gen_len


@dataclass(frozen=True)
class AccelerationConfig:
    """Decode-acceleration knobs.

    ``tpf`` is the average number of tokens finalized per forward step
    (1 = no parallel decoding). Dual cache restricts diffusion steps to a
    small active window of ``dual_cache_block`` tokens, re-encoding the full
    sequence once every ``cache_refresh_interval`` window steps. Building
    one that breaks a rule of ``validate_acceleration`` raises its issues.
    """

    tpf: float = 1.0
    dual_cache: bool = False
    dual_cache_block: int = 32
    cache_refresh_interval: int = 256

    def __post_init__(self) -> None:
        validate_acceleration(self)

    @property
    def label(self) -> str:
        parts = []
        if self.tpf > 1.0:
            parts.append("parallel")
        if self.dual_cache:
            parts.append("dual-cache")
        return "+".join(parts) if parts else "none"


def derive_param_count(cfg: ModelConfig) -> float:
    """Backbone parameter count: attention (Q,K,V,O) plus a two-matrix FFN.

    n_l * (4*d^2 + 2*alpha*d^2); embeddings and norms excluded.
    """
    return cfg.n_l * (4.0 * cfg.d**2 + 2.0 * cfg.alpha * cfg.d**2)


# value kind -> (accepted Python types, what the message asks for); a bool is
# accepted only where a bool is asked for, although bool is a subclass of int
_KINDS = {
    int: (int, "an integer"),
    float: ((int, float), "a finite number"),
    bool: (bool, "true or false"),
    str: (str, "a string"),
    list: ((list, tuple), "an array"),
    dict: (Mapping, "a JSON object"),
}


def _wrong_type(name: str, value: Any, kind: type, issues: list) -> bool:
    """Whether ``value`` is not of JSON ``kind``; if it is not, a ``wrong_type`` issue is appended."""
    types, expected = _KINDS[kind]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, types):
        issues.append(("wrong_type", f"{name} must be {expected}, got {value!r}"))
        return True
    return False


def validate_model_config(cfg: ModelConfig, arch: Architecture) -> ModelConfig:
    """Return ``cfg`` unchanged if every invariant holds, else raise the full issue list."""
    issues = []
    for name in ("n_l", "n_h", "n_d", "d"):
        value = getattr(cfg, name)
        if type(value) is not int or value < 1:
            issues.append(("non_positive_field", f"{name} must be an integer >= 1, got {value!r}"))
    for name, value in (("alpha", cfg.alpha), ("N", cfg.n_params)):
        if _wrong_type(name, value, float, issues) or value > 0:
            continue
        if math.isnan(value):
            issues.append(("non_finite_field", f"{name} must not be NaN"))
        else:
            issues.append(("non_positive_field", f"{name} must be > 0, got {value!r}"))
    if isinstance(cfg.n_h, int) and isinstance(cfg.n_d, int) and cfg.d != cfg.n_h * cfg.n_d:
        issues.append(("dimension_mismatch", f"d must equal n_h*n_d: {cfg.d} != {cfg.n_h}*{cfg.n_d}"))
    if arch is Architecture.BLOCK_DIFFUSION:
        if cfg.block_size is None:
            issues.append(("missing_block_size", "block diffusion requires a block size G >= 1"))
        elif type(cfg.block_size) is not int or cfg.block_size < 1:
            issues.append(("non_positive_field", f"G must be an integer >= 1, got {cfg.block_size!r}"))
    if issues:
        raise ConfigValidationError(issues)
    return cfg


_VALID_WIDTHS = (1, 2, 4, 8)


def validate_hardware(hw: HardwareSpec) -> HardwareSpec:
    issues = []
    for name in ("p_max", "b_mem", "capacity"):
        _wrong_type(name, getattr(hw, name), float, issues)
    if issues:  # the range checks below need numbers
        raise ConfigValidationError(issues)
    for name in ("p_max", "b_mem", "capacity"):
        if getattr(hw, name) <= 0:
            issues.append(("non_positive_field", f"{name} must be > 0, got {getattr(hw, name)!r}"))
    # an infinite or NaN capacity makes every headroom non-finite; p_max and b_mem are held finite by the ridge check
    if not math.isfinite(hw.capacity):
        issues.append(("non_finite_field", f"capacity must be finite, got {hw.capacity!r}"))
    if type(hw.bytes_per_element) is not int or hw.bytes_per_element not in _VALID_WIDTHS:
        issues.append(("non_positive_field", f"bytes_per_element must be one of {_VALID_WIDTHS}, got {hw.bytes_per_element!r}"))
    # the ridge point p_max / b_mem must be finite and positive; a NaN field fails this too
    if not (hw.p_max <= 0 or hw.b_mem <= 0 or 0 < hw.p_max / hw.b_mem < math.inf):
        issues.append(("out_of_range", f"ridge point p_max / b_mem = {hw.p_max!r} / {hw.b_mem!r} is beyond the float range"))
    if issues:
        raise ConfigValidationError(issues)
    return hw


def validate_workload(wl: Workload) -> Workload:
    issues = []
    if type(wl.batch) is not int or wl.batch < 1:
        issues.append(("non_positive_field", f"batch must be an integer >= 1, got {wl.batch!r}"))
    if type(wl.prompt_len) is not int or wl.prompt_len < 0:
        issues.append(("non_positive_field", f"prompt_len must be an integer >= 0, got {wl.prompt_len!r}"))
    if type(wl.gen_len) is not int or wl.gen_len < 1:
        issues.append(("non_positive_field", f"gen_len must be an integer >= 1, got {wl.gen_len!r}"))
    if issues:
        raise ConfigValidationError(issues)
    return wl


def validate_acceleration(accel: AccelerationConfig) -> AccelerationConfig:
    issues = []
    _wrong_type("tpf", accel.tpf, float, issues)
    _wrong_type("dual_cache", accel.dual_cache, bool, issues)
    if issues:  # the range checks below need a number and a flag
        raise ConfigValidationError(issues)
    if not math.isfinite(accel.tpf):
        issues.append(("non_finite_field", f"tpf must be finite, got {accel.tpf!r}"))
    elif accel.tpf < 1.0:
        issues.append(("non_positive_field", f"tpf must be >= 1, got {accel.tpf!r}"))
    if accel.dual_cache and (type(accel.dual_cache_block) is not int or accel.dual_cache_block < 1):
        issues.append(("non_positive_field", f"dual_cache_block must be an integer >= 1, got {accel.dual_cache_block!r}"))
    if type(accel.cache_refresh_interval) is not int or accel.cache_refresh_interval < 1:
        issues.append(("non_positive_field", f"cache_refresh_interval must be an integer >= 1, got {accel.cache_refresh_interval!r}"))
    if issues:
        raise ConfigValidationError(issues)
    return accel


NO_ACCELERATION = AccelerationConfig()


def out_of_range(arch: Architecture, wl: Workload) -> ConfigValidationError:
    """The error of a valid point whose FLOP, byte or rate total is beyond the float range."""
    return ConfigValidationError([(
        "out_of_range",
        f"{arch.value} at batch={wl.batch} prompt_len={wl.prompt_len} gen_len={wl.gen_len}: "
        "a FLOP, byte or rate total is beyond the float range",
    )])


# ---------------------------------------------------------------------------
# JSON ingestion

# largest accepted integer field; every integer up to it is exact as a float
MAX_INTEGER = 2**53

def _typed_value(name: str, value: Any, kind: type, issues: list) -> Any:
    """``value`` if it is of JSON ``kind`` (a number as a finite float), else None with an issue appended."""
    if _wrong_type(name, value, kind, issues):
        return None
    if kind is int and value > MAX_INTEGER:
        issues.append(("out_of_range", f"{name} must be at most 2**53, got an integer of {value.bit_length()} bits"))
        return None
    if kind is float:
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            issues.append(("non_finite_field", f"{name} must be {_KINDS[float][1]}, got {value!r}"))
            return None
    return value


def json_object(data: Any, what: str) -> Mapping[str, Any]:
    """``data`` if it is a JSON object, else a ``wrong_type`` error naming ``what``."""
    issues: list = []
    _typed_value(what, data, dict, issues)
    if issues:
        raise ConfigValidationError(issues)
    return data


def json_array(values: Sequence, name: str, kind: type) -> tuple:
    """The array ``values`` of field ``name`` as a tuple, if its items are all of JSON ``kind``."""
    issues: list = []
    items = tuple(_typed_value(f"{name}[{i}]", v, kind, issues) for i, v in enumerate(values))
    if issues:
        raise ConfigValidationError(issues)
    return items


def read_fields(data: Any, kinds: Mapping[str, type], required: tuple[str, ...], what: str, strict: bool) -> dict[str, Any]:
    """The fields of the JSON document ``what`` (e.g. ``"model config"``), each checked against its kind."""
    data = json_object(data, what)
    unknown = sorted(set(data) - set(kinds))
    if unknown and strict:
        raise ConfigValidationError(
            [("unknown_field", f"unknown field {k!r} in {what} (allowed: {', '.join(kinds)})") for k in unknown]
        )
    for k in unknown:
        warnings.warn(f"ignoring unknown field {k!r} in {what}", stacklevel=3)
    missing = [k for k in required if k not in data]
    if missing:
        raise ConfigValidationError(
            [("missing_field", f"missing required field {k!r} in {what}") for k in missing]
        )
    issues: list = []
    fields = {k: _typed_value(k, data[k], kind, issues) for k, kind in kinds.items() if k in data}
    if issues:
        raise ConfigValidationError(issues)
    return fields


_MODEL_FIELDS = {"arch": str, "n_l": int, "n_h": int, "n_d": int, "d": int, "alpha": float, "N": float, "G": int}


def model_config_from_dict(data: Mapping[str, Any], strict: bool = True) -> tuple[Architecture, ModelConfig]:
    f = read_fields(data, _MODEL_FIELDS, ("arch", "n_l", "n_h", "n_d", "d", "alpha"), "model config", strict)
    arch = architecture_from_name(f["arch"])
    cfg = ModelConfig(
        n_l=f["n_l"],
        n_h=f["n_h"],
        n_d=f["n_d"],
        d=f["d"],
        alpha=f["alpha"],
        n_params=f.get("N", 0.0),
        block_size=f.get("G"),
    )
    if "N" not in f:
        cfg = replace(cfg, n_params=derive_param_count(cfg))
    return arch, validate_model_config(cfg, arch)


_HARDWARE_FIELDS = {"p_max": float, "b_mem": float, "capacity": float, "bytes_per_element": int}


def hardware_from_dict(data: Mapping[str, Any], strict: bool = True) -> HardwareSpec:
    return HardwareSpec(**read_fields(data, _HARDWARE_FIELDS, ("p_max", "b_mem", "capacity"), "hardware config", strict))


_WORKLOAD_FIELDS = {"batch": int, "prompt_len": int, "gen_len": int, "accel": dict}
_ACCEL_FIELDS = {"tpf": float, "dual_cache": bool, "dual_cache_block": int, "cache_refresh_interval": int}


def acceleration_from_dict(data: Mapping[str, Any], strict: bool = True) -> AccelerationConfig:
    return AccelerationConfig(**read_fields(data, _ACCEL_FIELDS, (), "acceleration config", strict))


def workload_from_dict(data: Mapping[str, Any], strict: bool = True) -> tuple[Workload, AccelerationConfig]:
    f = read_fields(data, _WORKLOAD_FIELDS, ("batch", "prompt_len", "gen_len"), "workload config", strict)
    wl = Workload(batch=f["batch"], prompt_len=f["prompt_len"], gen_len=f["gen_len"])
    accel = acceleration_from_dict(f["accel"], strict) if "accel" in f else NO_ACCELERATION
    return validate_workload(wl), accel


def _unique_fields(pairs: list, path: str | Path) -> dict:
    """``object_pairs_hook`` that rejects a key given twice in one JSON object."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        repeated = sorted({k for k in keys if keys.count(k) > 1})
        raise ConfigValidationError(
            [("duplicate_field", f"{path}: field {k!r} is given more than once") for k in repeated]
        )
    return obj


def load_json(path: str | Path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=lambda pairs: _unique_fields(pairs, path))
        except (json.JSONDecodeError, ConfigValidationError):
            raise
        except UnicodeDecodeError as exc:
            raise ConfigValidationError([("invalid_encoding", f"{path}: {exc}")]) from None
        except ValueError as exc:  # an integer literal beyond Python's digit limit
            raise ConfigValidationError([("out_of_range", f"{path}: {exc}")]) from None


def load_model_file(path: str | Path, strict: bool = True) -> tuple[Architecture, ModelConfig]:
    return model_config_from_dict(load_json(path), strict)


def load_hardware_file(path: str | Path, strict: bool = True) -> HardwareSpec:
    return hardware_from_dict(load_json(path), strict)


def load_workload_file(path: str | Path, strict: bool = True) -> tuple[Workload, AccelerationConfig]:
    return workload_from_dict(load_json(path), strict)
