"""Parameter-grid sweeps with CSV and SVG reporting.

A sweep evaluates every (architecture, acceleration, batch, prompt length,
generation length) point of its grid into a row: the point's schedule, which
carries the point, its memory report and its throughput estimate. Out-of-memory
rows are kept (flagged, with the throughput cells left empty) so plots can
show truncated series.
Grid points are independent pure evaluations; rows are always merged into
lexicographic order on the row key, so output is byte-identical across runs.

SVG plots are written by hand rather than through a plotting library: the
files contain nothing but geometry derived from the rows, which keeps
re-renders byte-identical.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .analytic import total_cost
from .config import (
    AccelerationConfig,
    Architecture,
    HardwareSpec,
    ModelConfig,
    NO_ACCELERATION,
    Workload,
    acceleration_from_dict,
    architecture_from_name,
    check_acceleration,
    check_kinds,
    hardware_from_dict,
    json_array,
    json_kinds,
    json_object,
    model_config_from_dict,
    read_fields,
    validate_model_config,
)
from .errors import ConfigValidationError, EmptyRowSet
from .memory import MemoryReport, schedule_memory
from .presets import (
    A800_CLASS,
    DEFAULT_BATCHES,
    DEFAULT_GEN_LENS,
    DEFAULT_MODELS,
    DEFAULT_PROMPT_LENS,
    EXTENDED_GEN_LENS,
)
from .schedule import DecodeSchedule, build_schedule
from .throughput import IntensitySource, ThroughputEstimate, schedule_throughput

CSV_COLUMNS = (
    "arch",
    "accel",
    "batch",
    "prompt_len",
    "gen_len",
    "steps",
    "tpf",
    "flops_total",
    "mops_total",
    "arint",
    "regime",
    "attainable_flops_s",
    "flops_per_token",
    "throughput_tok_s",
    "mem_bytes",
    "oom",
)


@dataclass(frozen=True)
class SweepSpec:
    """A sweep grid and its models; building one that breaks a rule raises its issues, the kinds of its parts first."""

    architectures: tuple[Architecture, ...] = (
        Architecture.AR,
        Architecture.BLOCK_DIFFUSION,
        Architecture.DLM,
    )
    gen_lens: tuple[int, ...] = DEFAULT_GEN_LENS
    batches: tuple[int, ...] = DEFAULT_BATCHES
    prompt_lens: tuple[int, ...] = DEFAULT_PROMPT_LENS
    accel: Mapping[Architecture, AccelerationConfig] = field(default_factory=dict)
    models: Mapping[Architecture, ModelConfig] = field(default_factory=dict)
    hardware: HardwareSpec = A800_CLASS

    def __post_init__(self) -> None:
        check_kinds(self)
        issues = []
        if not self.architectures:
            issues.append(("empty_list", "architectures must be non-empty"))
        if len(set(self.architectures)) < len(self.architectures):
            names = [a.value for a in self.architectures]
            issues.append(("duplicate_entry", f"architectures must name each architecture once, got {names!r}"))
        for name in ("gen_lens", "batches", "prompt_lens"):
            values = getattr(self, name)
            if not values:
                issues.append(("empty_list", f"{name} must be non-empty"))
                continue
            low, rule = (0, ">= 0") if name == "prompt_lens" else (1, "positive")
            if min(values) < low:
                issues.append(("non_positive_field", f"{name} must be {rule}, got {values!r}"))
            if any(b <= a for a, b in zip(values, values[1:])):
                issues.append(("not_increasing", f"{name} must be strictly increasing, got {values!r}"))
        if issues:
            raise ConfigValidationError(issues)
        for arch in self.architectures:
            validate_model_config(self.model_for(arch), arch)
        for arch in self.architectures:
            check_acceleration(self.accel_for(arch), arch)

    def model_for(self, arch: Architecture) -> ModelConfig:
        return self.models.get(arch, DEFAULT_MODELS[arch])

    def accel_for(self, arch: Architecture) -> AccelerationConfig:
        return self.accel.get(arch, NO_ACCELERATION)


def sweep_spec_from_dict(data: Mapping, strict: bool = True, extended_lengths: bool = False) -> SweepSpec:
    """Build a SweepSpec from a JSON document; every field is optional.

    ``models`` maps architecture name to a model document (its ``arch`` field
    may be omitted; given, it must equal the key); ``accel`` maps architecture name
    to an acceleration document; ``hardware`` is an inline hardware document.
    A ``models`` or ``accel`` entry must name an architecture the sweep runs
    (an ``unused_entry`` issue, a rule of the document, not of ``SweepSpec``);
    every other rule is checked by the ``SweepSpec`` as it is built.
    """
    data = read_fields(data, json_kinds(SweepSpec), (), "sweep spec", strict)
    kwargs = {name: tuple(data[name]) for name in ("gen_lens", "batches", "prompt_lens") if name in data}
    if "architectures" in data:
        names = json_array(data["architectures"], "architectures", str)
        kwargs["architectures"] = tuple(map(architecture_from_name, names))
    if "models" in data:
        models = {}
        for arch_name, doc in data["models"].items():
            arch = architecture_from_name(arch_name)
            doc = json_object(doc, f"models[{arch_name!r}]")
            if doc.get("arch", arch_name) != arch_name:
                raise ConfigValidationError([(
                    "arch_mismatch", f"models[{arch_name!r}] has arch {doc['arch']!r}; it must equal its key",
                )])
            models[arch] = model_config_from_dict({**doc, "arch": arch_name}, strict)[1]
        kwargs["models"] = models
    if "accel" in data:
        kwargs["accel"] = {
            architecture_from_name(a): acceleration_from_dict(doc, strict)
            for a, doc in data["accel"].items()
        }
    if "hardware" in data:
        kwargs["hardware"] = hardware_from_dict(data["hardware"], strict)
    architectures = kwargs.get("architectures", SweepSpec.architectures)
    unused = [
        ("unused_entry", f"{name}[{arch.value!r}] is for an architecture missing from architectures")
        for name in ("models", "accel") for arch in kwargs.get(name, ()) if arch not in architectures
    ]
    if unused:
        raise ConfigValidationError(unused)
    if extended_lengths and "gen_lens" not in data:
        kwargs["gen_lens"] = EXTENDED_GEN_LENS
    return SweepSpec(**kwargs)


@dataclass(frozen=True)
class SweepRow:
    """One grid point: its schedule (which carries the point), memory report and throughput estimate."""

    schedule: DecodeSchedule
    memory: MemoryReport
    estimate: ThroughputEstimate

    @property
    def key(self) -> tuple:
        s, wl = self.schedule, self.schedule.workload
        return (s.arch.value, s.accel.label, wl.batch, wl.prompt_len, wl.gen_len)

    @property
    def throughput(self) -> Optional[float]:
        """Tokens/s, or None for a point that does not fit in device memory."""
        return None if self.memory.oom else self.estimate.tokens_per_second


def evaluate_point(
    arch: Architecture,
    cfg: ModelConfig,
    hw: HardwareSpec,
    wl: Workload,
    accel: AccelerationConfig,
    *,
    source: IntensitySource,
    include_prefill: bool,
) -> SweepRow:
    """The schedule, memory verdict and throughput estimate of one grid point.

    The point is scheduled and costed once, and the memory report and the
    estimate both come from that one schedule, so they equal what
    ``estimate_memory`` and ``estimate_throughput`` return for it, and are
    rejected as they are: a point whose valid inputs take a total past the
    float range is an ``out_of_range`` error, never a row holding an infinite
    or NaN number.
    """
    schedule = build_schedule(arch, cfg, wl, accel)
    memory = schedule_memory(schedule, cfg, hw)
    est = schedule_throughput(
        schedule, total_cost(schedule, cfg, hw), cfg, hw, source=source, include_prefill=include_prefill
    )
    return SweepRow(schedule, memory, est)


def run_sweep(
    spec: SweepSpec,
    *,
    source: IntensitySource = IntensitySource.SCHEDULE,
    include_prefill: bool = False,
) -> tuple[SweepRow, ...]:
    """Every grid point of ``spec`` (valid, since it checked itself when built) as a row, sorted by key."""
    hw, rows = spec.hardware, []
    for arch in spec.architectures:
        cfg = spec.model_for(arch)
        accel = spec.accel_for(arch)
        for batch in spec.batches:
            for prompt_len in spec.prompt_lens:
                for gen_len in spec.gen_lens:
                    wl = Workload(batch=batch, prompt_len=prompt_len, gen_len=gen_len)
                    rows.append(evaluate_point(arch, cfg, hw, wl, accel, source=source, include_prefill=include_prefill))
    return tuple(sorted(rows, key=lambda r: r.key))


# ---------------------------------------------------------------------------
# Emission

def _fmt(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.6g}"


def csv_text(rows: Sequence[SweepRow]) -> str:
    if not rows:
        raise EmptyRowSet("no sweep rows to emit")
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        est = None if r.memory.oom else r.estimate  # OOM rows leave the throughput cells empty
        s, wl = r.schedule, r.schedule.workload
        lines.append(
            ",".join(
                (
                    s.arch.value,
                    s.accel.label,
                    str(wl.batch),
                    str(wl.prompt_len),
                    str(wl.gen_len),
                    str(s.decode.passes),
                    _fmt(s.accel.tpf),
                    _fmt(r.estimate.flops_total),
                    _fmt(r.estimate.mops_total),
                    _fmt(est.arint if est else None),
                    est.regime.value if est else "",
                    _fmt(est.attainable if est else None),
                    _fmt(est.flops_per_token if est else None),
                    _fmt(est.tokens_per_second if est else None),
                    _fmt(r.memory.total_bytes),
                    "true" if r.memory.oom else "false",
                )
            )
        )
    return "\n".join(lines) + "\n"


def write_report(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` as UTF-8 with LF line ends; the directory must exist."""
    path = Path(path)
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 720.0, 480.0
_ML, _MR, _MT, _MB = 64.0, 180.0, 40.0, 56.0


def svg_text(rows: Sequence[SweepRow], axis: str, title: str) -> str:
    """Log-x line plot of throughput against ``axis`` ('gen_len' or 'batch')."""
    if axis not in ("gen_len", "batch"):
        raise ValueError(f"axis must be 'gen_len' or 'batch', got {axis!r}")
    series: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for r in rows:
        if r.throughput is None:
            continue  # truncated series at OOM points
        key = (r.schedule.arch.value, r.schedule.accel.label)
        series.setdefault(key, []).append((getattr(r.schedule.workload, axis), r.throughput))
    if not series:
        raise EmptyRowSet("no plottable (non-OOM) rows")
    for pts in series.values():
        pts.sort()

    xs = sorted({x for pts in series.values() for x, _ in pts})
    ys = [y for pts in series.values() for _, y in pts]
    x_lo, x_hi = math.log10(xs[0]), math.log10(xs[-1])
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo = math.floor(math.log10(min(ys)))
    y_hi = math.ceil(math.log10(max(ys)))
    if y_hi == y_lo:
        y_hi = y_lo + 1

    plot_w = _WIDTH - _ML - _MR
    plot_h = _HEIGHT - _MT - _MB

    def sx(x: float) -> float:
        return _ML + plot_w * (math.log10(x) - x_lo) / (x_hi - x_lo)

    def sy(y: float) -> float:
        return _MT + plot_h * (1.0 - (math.log10(y) - y_lo) / (y_hi - y_lo))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" '
        f'viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">',
        f'<rect width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" fill="white"/>',
        f'<text x="{_ML:.2f}" y="24" font-family="sans-serif" font-size="15">{title}</text>',
        # axes
        f'<line x1="{_ML:.2f}" y1="{_MT + plot_h:.2f}" x2="{_ML + plot_w:.2f}" y2="{_MT + plot_h:.2f}" stroke="black"/>',
        f'<line x1="{_ML:.2f}" y1="{_MT:.2f}" x2="{_ML:.2f}" y2="{_MT + plot_h:.2f}" stroke="black"/>',
    ]
    for x in xs:
        px = sx(x)
        out.append(f'<line x1="{px:.2f}" y1="{_MT + plot_h:.2f}" x2="{px:.2f}" y2="{_MT + plot_h + 5:.2f}" stroke="black"/>')
        out.append(
            f'<text x="{px:.2f}" y="{_MT + plot_h + 20:.2f}" font-family="sans-serif" font-size="11" '
            f'text-anchor="middle">{x}</text>'
        )
    for exp in range(y_lo, y_hi + 1):
        py = sy(10.0**exp)
        out.append(f'<line x1="{_ML - 5:.2f}" y1="{py:.2f}" x2="{_ML:.2f}" y2="{py:.2f}" stroke="black"/>')
        out.append(
            f'<text x="{_ML - 9:.2f}" y="{py + 4:.2f}" font-family="sans-serif" font-size="11" '
            f'text-anchor="end">1e{exp}</text>'
        )
    out.append(
        f'<text x="{_ML + plot_w / 2:.2f}" y="{_HEIGHT - 14:.2f}" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle">{axis}</text>'
    )
    out.append(
        f'<text x="18" y="{_MT + plot_h / 2:.2f}" font-family="sans-serif" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 18 {_MT + plot_h / 2:.2f})">tokens/s</text>'
    )

    for i, key in enumerate(sorted(series)):
        color = _PALETTE[i % len(_PALETTE)]
        pts = series[key]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
        for x, y in pts:
            out.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}"/>')
        ly = _MT + 16 + 18 * i
        lx = _ML + plot_w + 12
        out.append(f'<line x1="{lx:.2f}" y1="{ly - 4:.2f}" x2="{lx + 22:.2f}" y2="{ly - 4:.2f}" stroke="{color}" stroke-width="2"/>')
        label = key[0] if key[1] == "none" else "+".join(key)
        out.append(f'<text x="{lx + 28:.2f}" y="{ly:.2f}" font-family="sans-serif" font-size="12">{label}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_report_set(rows: Sequence[SweepRow], out_dir: str | Path, spec: SweepSpec) -> list[Path]:
    """Write sweep.csv plus one SVG per (axis, prompt length) slice.

    Generation-length plots are sliced at the smallest batch; batch plots at
    generation length 256 when present (the reference batch-sweep setting),
    else the median grid value. A slice in which every row is out of memory
    has nothing to plot: its SVG is skipped with a warning naming the file,
    and sweep.csv still carries the slice's OOM verdicts.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = [write_report(out_dir / "sweep.csv", csv_text(rows))]

    def plot(slice_rows: list[SweepRow], axis: str, path: Path, title: str) -> None:
        if all(r.throughput is None for r in slice_rows):
            warnings.warn(f"skipped {path}: every row of its slice is out of memory")
        else:
            written.append(write_report(path, svg_text(slice_rows, axis, title)))

    gen_batch = min(spec.batches)
    batch_gen = 256 if 256 in spec.gen_lens else spec.gen_lens[len(spec.gen_lens) // 2]
    for prompt_len in spec.prompt_lens:
        at_prompt = [r for r in rows if r.schedule.workload.prompt_len == prompt_len]
        plot(
            [r for r in at_prompt if r.schedule.workload.batch == gen_batch],
            "gen_len",
            out_dir / f"throughput_vs_gen_len_p{prompt_len}.svg",
            f"throughput vs generation length (prompt {prompt_len}, batch {gen_batch})",
        )
        plot(
            [r for r in at_prompt if r.schedule.workload.gen_len == batch_gen],
            "batch",
            out_dir / f"throughput_vs_batch_p{prompt_len}.svg",
            f"throughput vs batch size (prompt {prompt_len}, gen {batch_gen})",
        )
    return written
