"""Compare two sets of untraced benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files that ``run.py`` wrote to ``.bench_results``
(copy them aside between commits).  Results whose environment fingerprints
differ (core count, machine type, Python, numpy, scipy, the BLAS libraries or
the BLAS thread count) are not compared: the command names the fields that
differ and exits with code 2.  Otherwise it prints, per workload and end-to-end metric, each
side's median and quartiles over its runs and the change of the median as a
share of the base median, marked REGRESSION beyond the metric's bound in
BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    runs = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*-trace0.json"))]
    if not runs:
        raise SystemExit(f"no untraced results in {directory}")
    return runs


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    base, new = load(argv[0]), load(argv[1])
    reference = base[0]["fingerprint"]
    differing = sorted({key for run in base + new for key, value in run["fingerprint"].items()
                        if reference.get(key) != value})
    if differing:
        print(f"refusing to compare: fingerprints differ in {', '.join(differing)}")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = [[r["metrics"][name]["value"] for r in runs
                      if r["workload"] == workload and name in r["metrics"]] for runs in (base, new)]
            if not all(sides):
                continue
            (b1, bm, b3), (n1, nm, n3) = summary(sides[0]), summary(sides[1])
            change = (nm - bm) / bm
            worse = change if metric["better"] == "lower" else -change
            flag = "REGRESSION" if worse > metric["bound"] else ""
            print(f"{workload:10s} {name:20s} base {bm:.4g} [{b1:.4g}, {b3:.4g}] n={len(sides[0])}  "
                  f"new {nm:.4g} [{n1:.4g}, {n3:.4g}] n={len(sides[1])}  {change:+.1%} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
