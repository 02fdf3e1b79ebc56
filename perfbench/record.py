#!/usr/bin/env python3
"""Record the output digests the benchmark checks every run against.

    python3 perfbench/record.py

Run from the repository root at a commit whose outputs are the reference.
It rewrites perfbench/digests.json with the SHA-256 of every sweep.csv and
SVG of sweep-grids, of the oracle report text and each report in it, and of
the valid-request output stream of each of the ANALYZE_SEEDS request streams
of analyze-mixed (workloads.py; seed s runs stream s mod ANALYZE_SEEDS). It refuses
to record outputs that break the benchmark's outcome rules; the known defects
of analyze-mixed are the only failures it accepts.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import HERE, ROOT, import_rooflm


def main() -> int:
    import_rooflm()
    import workloads

    work = ROOT / ".perfbench_work" / f"record{os.getpid()}"
    digests = {}
    try:
        for name in ("sweep-grids", "oracle-battery"):
            workload = workloads.WORKLOADS[name]
            result = workload.run(workload.setup(0, work), None)
            if result.failed:
                print(f"record: {name} has {result.failed} failed operations", file=sys.stderr)
                return 1
            digests[name] = result.digests
        analyze = workloads.WORKLOADS["analyze-mixed"]
        digests["analyze-mixed"] = {}
        for seed in range(workloads.ANALYZE_SEEDS):
            result = analyze.run(analyze.setup(seed, work / str(seed)), None)
            if result.unexpected:
                print(f"record: analyze-mixed seed {seed} has {result.unexpected} unexpected failures",
                      file=sys.stderr)
                return 1
            digests["analyze-mixed"][f"seed/{seed}"] = result.digests["stream"]
            shutil.rmtree(work / str(seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
