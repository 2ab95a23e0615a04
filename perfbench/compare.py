"""Compare two sets of benchmark reports written by ``run.py``.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Two checks, per workload:

* exact: every report of one (workload, seed), in either set, must carry
  identical counters, ``results.csv`` digests and detected-pair digests,
  and no report may have a failed cell.  Being within a bound is not
  enough for these.
* bounds: for each end-to-end metric in ``BENCHMARK.json``, the median
  of NEW over its untraced runs may be worse than BASE's median by at most
  the metric's bound.  Each side's spread (quartile distance over median)
  is printed next to it.

Exit status: 0 when both checks hold, 1 when one fails, 2 when a set has
no reports.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(directory: Path) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8")) for p in sorted(directory.glob("*.json"))]


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def exact_problems(reports: list[dict]) -> list[str]:
    problems = []
    first = {}
    for r in reports:
        key = (r["workload"], r["seed"])
        if r["failed"]:
            problems.append(f"{key}: {r['failed']} failed cells")
        if key not in first:
            first[key] = r["exact"]
        elif r["exact"] != first[key]:
            problems.append(f"{key}: exact counters or digests differ between runs")
    return problems


def bound_problems(base: list[dict], new: list[dict], metrics: list[dict]) -> list[str]:
    problems = []
    values = {"base": defaultdict(list), "new": defaultdict(list)}
    for side, reports in (("base", base), ("new", new)):
        for r in reports:
            if not r["trace"]:
                for name, value in r["end_to_end"].items():
                    values[side][(r["workload"], name)].append(value)
    for workload in sorted({w for w, _ in values["base"]} & {w for w, _ in values["new"]}):
        for m in metrics:
            a = values["base"][(workload, m["name"])]
            b = values["new"][(workload, m["name"])]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) if m["better"] == "lower" else (ma - mb)
            share = worse / abs(ma) if ma else 0.0
            flag = "WORSE" if share > m["bound"] else "ok"
            print(
                f"{workload:<12} {m['name']:<18} base {ma:.6g} (spread {spread(a):.3f}, n={len(a)}) "
                f"new {mb:.6g} (spread {spread(b):.3f}, n={len(b)}) "
                f"worse by {share:+.3f} of bound {m['bound']} {flag}"
            )
            if flag != "ok":
                problems.append(f"{workload} {m['name']}: worse by {share:.3f} > {m['bound']}")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    if not base or not new:
        print("compare: a report set is empty", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = exact_problems(base + new) + bound_problems(base, new, spec["end_to_end"])
    for p in problems:
        print(f"FAIL {p}")
    print("compare: ok" if not problems else f"compare: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
