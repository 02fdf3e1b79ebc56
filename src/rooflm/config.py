"""Model, hardware, and workload configuration types: validation and JSON ingestion.

Each config type validates itself when built (``dataclasses.replace``
included), under one rule per field for every caller, so an invalid one
cannot exist and no caller re-checks it. A field's kind is its annotation
(``Optional[X]`` an X checked only when given, ``tuple[X, ...]`` an array of
X, ``Mapping[K, V]`` an object of K keys and V values, a config type an
object). Its kind, bound and finiteness are checked whenever it is given: an
integer field takes an ``int``, a number field an ``int`` or ``float``, a
flag a bool (a bool is no integer or number), else ``wrong_type``; an
integer above ``MAX_INTEGER`` (2**53), or an ``int`` of greater magnitude in
a number field, is ``out_of_range``, so no closed-form total overflows a
float; a NaN or infinite number is ``non_finite_field``. These come before
any range, which is checked only where its field is used:
``dual_cache_block >= 1`` with dual cache on, ``G >= 1`` for block diffusion
(``validate_model_config``, the rule that pairs a model with an architecture).

JSON documents use the short field names of the notation (``N`` and ``G``
for ``n_params`` and ``block_size``, ``JSON_NAMES``). The reader checks only a document's
shape and hands its fields to the constructors: an unknown field (rejected,
or warned about in lenient mode), a missing one, a key given twice
(``duplicate_field``), a file that is not UTF-8 (``invalid_encoding``), and a
null or a string, array or object field of another kind (``wrong_type``). It
reads a JSON integer in a number field as a float, ``inf`` past the float range.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import abc
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from functools import cache
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, get_args, get_origin, get_type_hints

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

    ``block_size`` (JSON key ``G``) is only used, and needed, by block
    diffusion (see ``validate_model_config``). ``n_params`` (JSON key ``N``)
    is the total parameter count used for weight-traffic accounting; when
    absent from a JSON document it is backfilled with
    :func:`derive_param_count`. Building one that breaks a rule raises its issues.
    """

    n_l: int          # transformer layers
    n_h: int          # attention heads per layer
    n_d: int          # dimension per head
    d: int            # hidden size, must equal n_h * n_d
    alpha: float      # FFN expansion ratio
    n_params: float   # total parameter count
    block_size: Optional[int] = None

    def __post_init__(self) -> None:
        check_kinds(self)
        issues = []
        for name in _SHAPE:
            _below(name, getattr(self, name), 1, issues)
        for name, value in (("alpha", self.alpha), ("N", self.n_params)):
            if value <= 0:
                issues.append(("non_positive_field", f"{name} must be > 0, got {value!r}"))
        if self.d != self.n_h * self.n_d:
            issues.append(("dimension_mismatch", f"d must equal n_h*n_d: {self.d} != {self.n_h}*{self.n_d}"))
        _raise(issues)


_SHAPE = ("n_l", "n_h", "n_d", "d")
_VALID_WIDTHS = (1, 2, 4, 8)


@dataclass(frozen=True)
class HardwareSpec:
    """A device profile; building one that breaks a rule raises its issues."""

    p_max: float                 # peak floating-point rate, FLOPs/s
    b_mem: float                 # peak sustainable memory bandwidth, bytes/s
    capacity: float              # device memory, bytes
    bytes_per_element: int = 2   # storage width of weights/activations

    def __post_init__(self) -> None:
        check_kinds(self)
        issues = []
        for name in ("p_max", "b_mem", "capacity"):
            if getattr(self, name) <= 0:
                issues.append(("non_positive_field", f"{name} must be > 0, got {getattr(self, name)!r}"))
        if self.bytes_per_element not in _VALID_WIDTHS:
            issues.append(("non_positive_field", f"bytes_per_element must be one of {_VALID_WIDTHS}, got {self.bytes_per_element!r}"))
        # the ridge point p_max / b_mem must be a finite positive float
        if self.p_max > 0 and self.b_mem > 0 and not 0 < self.p_max / self.b_mem < math.inf:
            issues.append(("out_of_range", f"ridge point p_max / b_mem = {self.p_max!r} / {self.b_mem!r} is beyond the float range"))
        _raise(issues)


@dataclass(frozen=True)
class Workload:
    """One generation request; building one that breaks a rule raises its issues."""

    batch: int
    prompt_len: int
    gen_len: int

    def __post_init__(self) -> None:
        check_kinds(self)
        issues: list = []
        for name, low in (("batch", 1), ("prompt_len", 0), ("gen_len", 1)):
            _below(name, getattr(self, name), low, issues)
        _raise(issues)

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
    one that breaks a rule raises its issues.
    """

    tpf: float = 1.0
    dual_cache: bool = False
    dual_cache_block: int = 32
    cache_refresh_interval: int = 256

    def __post_init__(self) -> None:
        check_kinds(self)
        issues: list = []
        if self.tpf < 1.0:
            issues.append(("non_positive_field", f"tpf must be >= 1, got {self.tpf!r}"))
        if self.dual_cache:
            _below("dual_cache_block", self.dual_cache_block, 1, issues)
        _below("cache_refresh_interval", self.cache_refresh_interval, 1, issues)
        _raise(issues)

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
# longest repr of an offending value that a wrong_type message echoes; longer ones are cut
_ECHO_CHARS = 60


def _kind_issue(name: str, value: Any, kind: type, issues: list) -> bool:
    """Whether ``value`` is no valid value of ``kind`` (a JSON kind above, or any class); if so, its issue is appended."""
    types, expected = _KINDS.get(kind, (kind, None))
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, types):
        got = repr(value)
        got = got if len(got) <= _ECHO_CHARS else got[:_ECHO_CHARS] + "..."
        issues.append(("wrong_type", f"{name} must be {expected or f'of type {kind.__name__}'}, got {got}"))
    elif kind is int and value > MAX_INTEGER or kind is float and isinstance(value, int) and abs(value) > MAX_INTEGER:
        issues.append(("out_of_range", f"{name} must be at most 2**53, got an integer of {value.bit_length()} bits"))
    elif kind is float and not math.isfinite(value):
        issues.append(("non_finite_field", f"{name} must be {expected}, got {value!r}"))
    else:
        return False
    return True


# largest accepted integer; every integer up to it is exact as a float
MAX_INTEGER = 2**53

# field name -> JSON key, where the notation's short name differs; issues name the JSON key
JSON_NAMES = {"n_params": "N", "block_size": "G"}


@cache
def _field_table(cls: type) -> tuple[tuple[str, str, type, tuple, bool], ...]:
    """``(name, JSON key, kind, item kinds, optional)`` of each field of config type ``cls``, from its annotation."""
    hints, table = get_type_hints(cls), []
    for f in fields(cls):
        optional = type(None) in get_args(hints[f.name])  # Optional[X]
        hint = get_args(hints[f.name])[0] if optional else hints[f.name]
        origin, args = get_origin(hint), get_args(hint)
        kind, items = (list, args[:1]) if origin is tuple else (dict, args) if origin is abc.Mapping else (hint, ())
        table.append((f.name, JSON_NAMES.get(f.name, f.name), kind, items, optional))
    return tuple(table)


def json_kinds(cls: type) -> dict[str, type]:
    """The JSON kind of each field of config type ``cls``, by JSON key; a nested config type is an object."""
    return {key: dict if is_dataclass(kind) else kind for _, key, kind, _, _ in _field_table(cls)}


def check_kinds(config: Any) -> None:
    """Raise the kind, bound and finiteness issues of ``config``'s fields, then of its arrays' and mappings' items."""
    issues, parts = [], []
    for name, key, kind, items, optional in _field_table(type(config)):
        value = getattr(config, name)
        if value is None and optional or _kind_issue(key, value, kind, issues):
            continue
        if kind is list:
            parts += [(f"{key}[{i}]", item, items[0]) for i, item in enumerate(value)]
        elif kind is dict:
            for k, item in value.items():
                parts += [(f"{key} key", k, items[0]), (f"{key}[{getattr(k, 'value', k)!r}]", item, items[1])]
    _raise(issues)
    for name, value, kind in parts:
        _kind_issue(name, value, kind, issues)
    _raise(issues)


def _below(name: str, value: int, low: int, issues: list) -> None:
    if value < low:
        issues.append(("non_positive_field", f"{name} must be an integer >= {low}, got {value!r}"))


def _raise(issues: list) -> None:
    if issues:
        raise ConfigValidationError(issues)


def _pairing_issues(arch: Any, block_size: Any) -> list:
    issues: list = []
    if not _kind_issue("arch", arch, Architecture, issues) and arch is Architecture.BLOCK_DIFFUSION:
        if block_size is None:
            issues.append(("missing_block_size", "block diffusion requires a block size G >= 1"))
        elif type(block_size) is int:  # a G of another kind is its model's issue
            _below("G", block_size, 1, issues)
    return issues


def validate_model_config(cfg: ModelConfig, arch: Architecture) -> ModelConfig:
    """Return ``cfg``, which checked itself when built, if it can run as ``arch``, else raise the issues of the pairing.

    ``arch`` must be an ``Architecture`` (a name such as ``"AR"`` is ``wrong_type``), and
    block diffusion needs a block size ``G >= 1`` (``missing_block_size``, ``non_positive_field``).
    """
    _raise(_pairing_issues(arch, cfg.block_size))
    return cfg


def check_acceleration(accel: AccelerationConfig, arch: Architecture) -> None:
    """Raise ``unsupported_acceleration`` if ``accel`` asks ``arch`` for dual cache, a DLM acceleration it would ignore."""
    if accel.dual_cache and arch is not Architecture.DLM:
        raise ConfigValidationError([("unsupported_acceleration", f"dual_cache applies to DLM only, not {arch.value}")])


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

def _typed_value(name: str, value: Any, kind: type, issues: list) -> Any:
    """``value`` as read for a field of JSON ``kind``, or None with a ``wrong_type`` issue appended.

    No field is null (a library ``None`` means absent), and a string, array or object field is one.
    """
    if (value is None or kind in (str, list, dict)) and _kind_issue(name, value, kind, issues):
        return None
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            return math.inf
    return value


def json_object(data: Any, what: str) -> Mapping[str, Any]:
    """``data`` if it is a JSON object, else a ``wrong_type`` error naming ``what``."""
    issues: list = []
    _typed_value(what, data, dict, issues)
    _raise(issues)
    return data


def json_array(values: Sequence, name: str, kind: type) -> tuple:
    """The array ``values`` of field ``name`` as a tuple, each item read as one of JSON ``kind``."""
    issues: list = []
    items = tuple(_typed_value(f"{name}[{i}]", v, kind, issues) for i, v in enumerate(values))
    _raise(issues)
    return items


def read_fields(data: Any, kinds: Mapping[str, type], required: tuple[str, ...], what: str, strict: bool) -> dict[str, Any]:
    """The fields of the JSON document ``what`` (e.g. ``"model config"``), each read as its kind."""
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
    _raise(issues)
    return fields


def model_config_from_dict(data: Mapping[str, Any], strict: bool = True) -> tuple[Architecture, ModelConfig]:
    """The architecture and model of a JSON model document; a missing ``N`` is derived from the shape."""
    f = read_fields(data, {"arch": str, **json_kinds(ModelConfig)}, ("arch", "n_l", "n_h", "n_d", "d", "alpha"), "model config", strict)
    arch = architecture_from_name(f["arch"])
    try:  # a valid N holds the place of a missing one until the shape it is derived from is valid
        cfg = ModelConfig(*(f[name] for name in _SHAPE), f["alpha"], f.get("N", 1.0), f.get("G"))
    except ConfigValidationError as exc:  # the model's issues and its pairing's come in one list
        raise ConfigValidationError(exc.issues + tuple(_pairing_issues(arch, f.get("G")))) from None
    validate_model_config(cfg, arch)
    if "N" not in f:
        n_params = derive_param_count(cfg)
        if not math.isfinite(n_params):
            raise ConfigValidationError([("out_of_range", "the parameter count derived from the shape is beyond the float range")])
        cfg = replace(cfg, n_params=n_params)
    return arch, cfg


def hardware_from_dict(data: Mapping[str, Any], strict: bool = True) -> HardwareSpec:
    return HardwareSpec(**read_fields(data, json_kinds(HardwareSpec), ("p_max", "b_mem", "capacity"), "hardware config", strict))


def acceleration_from_dict(data: Mapping[str, Any], strict: bool = True) -> AccelerationConfig:
    return AccelerationConfig(**read_fields(data, json_kinds(AccelerationConfig), (), "acceleration config", strict))


def workload_from_dict(data: Mapping[str, Any], strict: bool = True) -> tuple[Workload, AccelerationConfig]:
    f = read_fields(data, {**json_kinds(Workload), "accel": dict}, ("batch", "prompt_len", "gen_len"), "workload config", strict)
    wl = Workload(batch=f["batch"], prompt_len=f["prompt_len"], gen_len=f["gen_len"])
    return wl, acceleration_from_dict(f["accel"], strict) if "accel" in f else NO_ACCELERATION


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
        except RecursionError:  # arrays or objects nested past the parser's depth; the document is not echoed
            raise ConfigValidationError([("out_of_range", f"{path}: JSON nested deeper than the reader can parse")]) from None


def load_model_file(path: str | Path, strict: bool = True) -> tuple[Architecture, ModelConfig]:
    return model_config_from_dict(load_json(path), strict)


def load_hardware_file(path: str | Path, strict: bool = True) -> HardwareSpec:
    return hardware_from_dict(load_json(path), strict)


def load_workload_file(path: str | Path, strict: bool = True) -> tuple[Workload, AccelerationConfig]:
    return workload_from_dict(load_json(path), strict)
