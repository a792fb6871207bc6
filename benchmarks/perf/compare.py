"""Compare two sets of perf-harness records against the BENCHMARK.json bounds.

Usage (from the repository root):

    python benchmarks/perf/compare.py --base A1.json A2.json ... --head B1.json B2.json ...

Each file is one record written by run.py. For every (workload, metric)
present on both sides the report gives each side's median and quartiles
(``statistics.quantiles(values, n=4)``) and a verdict for end-to-end
metrics, whose bound is the share of the base median by which the head
median may get worse:

- ``better``: every head run reads better than every base run;
- ``REGRESSED``: the head median is worse by more than the bound;
- ``unresolved``: either side's spread (quartile distance over median)
  is wider than the bound, so "no change" cannot be told from noise;
- ``unchanged``: otherwise.

Per-layer metrics have no bound and get no verdict. The exit code is 1
if any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(paths: list[Path]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values over the given records."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for path in paths:
        record = json.loads(Path(path).read_text())
        for name, metric in record["metrics"].items():
            values[(record["workload"], name)].append(float(metric["value"]))
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(base: list[float], head: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    worse_by = sign * (statistics.median(head) - base_median) / abs(base_median)
    if max(sign * h for h in head) < min(sign * b for b in base):
        return "better"
    if worse_by > bound:
        return "REGRESSED"
    if max(spread(base), spread(head)) > bound:
        return "unresolved"
    return "unchanged"


def compare(base_paths: list[Path], head_paths: list[Path], spec: dict) -> tuple[list[str], bool]:
    """Report lines, and whether any end-to-end metric regressed."""
    base, head = load(base_paths), load(head_paths)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lines = [
        f"{'workload':12} {'metric':34} {'base q1/median/q3':>32} "
        f"{'head q1/median/q3':>32}  verdict"
    ]
    regressed = False
    for key in sorted(set(base) & set(head)):
        workload, name = key
        cells = []
        for values in (base[key], head[key]):
            q1, median, q3 = quartiles(values)
            cells.append(f"{q1:.4g}/{median:.4g}/{q3:.4g} (n={len(values)})")
        result = ""
        if name in bounds:
            result = verdict(base[key], head[key], bounds[name]["better"], bounds[name]["bound"])
            regressed |= result == "REGRESSED"
        lines.append(f"{workload:12} {name:34} {cells[0]:>32} {cells[1]:>32}  {result}")
    return lines, regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--head", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    lines, regressed = compare(args.base, args.head, spec)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
