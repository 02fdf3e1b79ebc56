#!/usr/bin/env python3
"""Run the closed-form vs operator-count battery and write its reports.

Writes the same oracle_report.{txt,csv} bytes as `rooflm oracle-check`, and
prints one summary line per report.
"""

import argparse
import sys
from pathlib import Path

from rooflm.oracle import battery_report, default_battery


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-dir", default="results/oracle")
    args = parser.parse_args()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    reports = default_battery()
    for label, report in reports:
        gap = max(abs(c.exponent_analytic - c.exponent_oracle) for c in report.checks)
        drift = max(c.ratio_drift for c in report.checks)
        print(f"{label:<38s} {report.verdict:<6s} worst |dexp|={gap:.4f} drift={drift:.2%}")

    text, csv = battery_report(reports)
    (out_dir / "oracle_report.txt").write_text(text, encoding="utf-8", newline="\n")
    (out_dir / "oracle_report.csv").write_text(csv, encoding="utf-8", newline="\n")
    return 0 if all(r.passed for _, r in reports) else 3


if __name__ == "__main__":
    sys.exit(main())
