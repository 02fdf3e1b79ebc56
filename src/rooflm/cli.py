"""Command-line surface: analyze, sweep, oracle-check, ridge.

Standard output carries only data; diagnostics go to standard error.
Exit codes: 0 success, 1 I/O failure, 2 validation/parse error, 3 oracle
discrepancy (exponent mismatch or constant drift).
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from .analytic import length_regime
from .config import (
    load_hardware_file,
    load_json,
    load_model_file,
    load_workload_file,
)
from .errors import ConfigValidationError
from .oracle import battery_report, default_battery
from .presets import A800_CLASS
from .roofline import ridge_point
from .sweep import csv_text, emit_report_set, evaluate_point, run_sweep, sweep_spec_from_dict, write_report
from .throughput import IntensitySource

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_ORACLE = 3


def _check_files_exist(paths) -> None:
    missing = [str(p) for p in paths if p is not None and not Path(p).is_file()]
    if missing:
        raise FileNotFoundError(f"missing input file(s): {', '.join(missing)}")


def _source(args) -> IntensitySource:
    return IntensitySource(args.intensity_source)


def _cmd_analyze(args) -> int:
    _check_files_exist([args.model, args.hardware, args.workload])
    strict = not args.lenient_config
    arch, cfg = load_model_file(args.model, strict)
    hw = load_hardware_file(args.hardware, strict)
    wl, accel = load_workload_file(args.workload, strict)

    row = evaluate_point(
        arch, cfg, hw, wl, accel, source=_source(args), include_prefill=args.include_prefill
    )
    est, mem = row.estimate, row.memory

    print(f"arch: {arch.value}")
    print(f"accel: {accel.label} (tpf={accel.tpf:g})")
    print(f"workload: batch={wl.batch} prompt_len={wl.prompt_len} gen_len={wl.gen_len}")
    print(f"intensity source: {est.source.value}")
    print(f"arithmetic intensity: {est.arint:.6g} FLOPs/byte")
    print(f"ridge point: {est.ridge:.6g} FLOPs/byte")
    print(f"regime: {est.regime.value}")
    print(f"length regime: {length_regime(cfg, wl)}")
    print(f"attainable: {est.attainable:.6g} FLOPs/s")
    phase = "decode+prefill" if args.include_prefill else "decode"  # the totals fold in the prompt pass under the flag
    print(f"decode steps: {row.schedule.decode.passes}")
    print(f"{phase} flops: {est.flops_total:.6g}")
    print(f"{phase} mops: {est.mops_total:.6g} bytes")
    print(f"flops per token: {est.flops_per_token:.6g}")
    print(f"throughput: {est.tokens_per_second:.6g} tokens/s")
    print(f"generated tokens: {wl.batch * wl.gen_len}")
    print(f"memory: weights={mem.weights_bytes:.6g} kv={mem.kv_cache_bytes:.6g} "
          f"activations={mem.activation_bytes:.6g} overhead={mem.overhead_bytes:.6g} total={mem.total_bytes:.6g} "
          f"capacity={mem.capacity_bytes:.6g} headroom={mem.headroom_bytes:.6g} oom={'true' if mem.oom else 'false'}")

    if args.csv:
        write_report(args.csv, csv_text([row]))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    _check_files_exist([args.spec])
    data = load_json(args.spec) if args.spec else {}
    spec = sweep_spec_from_dict(data, not args.lenient_config, extended_lengths=args.extended_lengths)
    rows = run_sweep(spec, source=_source(args), include_prefill=args.include_prefill)
    written = emit_report_set(rows, args.out_dir, spec)
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    reports = default_battery()
    text, csv = battery_report(reports)

    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_report(out_dir / "oracle_report.txt", text)
        write_report(out_dir / "oracle_report.csv", csv)
    print(text)

    failed = [(label, r) for label, r in reports if not r.passed]
    for label, r in failed:
        print(f"oracle check failed: {label}: {r.verdict}", file=sys.stderr)
    return EXIT_ORACLE if failed else EXIT_OK


def _cmd_ridge(args) -> int:
    if args.hardware:
        _check_files_exist([args.hardware])
        hw = load_hardware_file(args.hardware, not args.lenient_config)
    else:
        hw = A800_CLASS
    print(f"{ridge_point(hw):.6g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rooflm",
        description="Analytical decode-throughput model for AR, diffusion, and block-diffusion LMs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--intensity-source", choices=[s.value for s in IntensitySource],
                       default=IntensitySource.SCHEDULE.value,
                       help="intensity derivation: consistent schedule totals, or the published closed forms")
        p.add_argument("--include-prefill", action="store_true",
                       help="fold the prompt pass into throughput (decode-only by default)")
        p.add_argument("--lenient-config", action="store_true",
                       help="warn about unknown config fields instead of rejecting them")

    p = sub.add_parser("analyze", help="single-point throughput/roofline/memory report")
    p.add_argument("--model", required=True)
    p.add_argument("--hardware", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--csv", help="also write the report as a one-row CSV")
    add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sweep", help="grid sweep writing CSV and SVG reports")
    p.add_argument("--spec", help="sweep spec JSON (defaults to the built-in grid)")
    p.add_argument("--out-dir", required=True)
    add_common(p)
    p.add_argument("--extended-lengths", action="store_true",
                   help="use the long-generation length grid (2048..16384)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("oracle-check", help="closed-form vs operator-count discrepancy report")
    p.add_argument("--out-dir", help="also write oracle_report.{txt,csv} here")
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("ridge", help="print the hardware ridge point (FLOPs/byte)")
    p.add_argument("--hardware", help="hardware JSON (defaults to the A800-class profile)")
    p.add_argument("--lenient-config", action="store_true")
    p.set_defaults(func=_cmd_ridge)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")

            def _warn_to_stderr(message, category, filename, lineno, file=None, line=None):
                print(f"warning: {message}", file=sys.stderr)

            warnings.showwarning = _warn_to_stderr
            return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConfigValidationError as exc:
        for code, message in exc.issues:
            print(f"error [{code}]: {message}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
