"""Micro-benchmark: batched vs. looped trace evaluation (perf trajectory).

Scores a 32-interval trace of Teal allocations twice — once with a
Python loop of ``evaluate_allocation`` and once with one
``evaluate_allocations_batch`` call — and emits a JSON record so
successive changes can track the speedup. Teal runs without ADMM.

Run standalone::

    python benchmarks/bench_batched_engine.py

or through pytest (``python -m pytest benchmarks/bench_batched_engine.py``).
"""

from __future__ import annotations

import json
import os
import sys
import time

if __name__ == "__main__":  # standalone: make src/ importable without env setup
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    )

from repro.core import TealScheme
from repro.harness import build_scenario

#: Trace length of the benchmark (acceptance target: >= 3x at 32).
NUM_INTERVALS = 32

#: Timing repetitions (best-of to shed warm-up and scheduler noise).
REPEATS = 3


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(num_intervals: int = NUM_INTERVALS) -> dict:
    """Measure looped vs. batched trace scoring and return the JSON record.

    Scoring a stack of allocations against a stack of traffic matrices:
    :func:`evaluate_allocations_batch` vs. a Python loop of
    :func:`evaluate_allocation` (the 3x acceptance gate).
    """
    import numpy as np

    from repro.simulation import evaluate_allocation, evaluate_allocations_batch

    scenario = build_scenario(
        "B4", train=4, validation=2, test=num_intervals, seed=0
    )
    matrices = scenario.split.test
    assert len(matrices) == num_intervals
    pathset = scenario.pathset
    teal = TealScheme(pathset, seed=0, use_admm=False)

    demands = pathset.demand_volumes_batch(
        np.stack([m.values for m in matrices])
    )
    ratios = teal.model.split_ratios_batch(demands)

    def looped():
        return [
            evaluate_allocation(pathset, ratios[t], demands[t])
            for t in range(num_intervals)
        ]

    def batched():
        return evaluate_allocations_batch(pathset, ratios, demands)

    # Warm-up (numpy/scipy first-call overheads).
    looped(), batched()
    eval_looped = _best_of(looped)
    eval_batched = _best_of(batched)
    max_satisfied_diff = max(
        abs(single.satisfied_fraction - fraction)
        for single, fraction in zip(looped(), batched().satisfied_fraction)
    )

    return {
        "benchmark": "batched_engine",
        "topology": "B4",
        "intervals": num_intervals,
        "num_demands": pathset.num_demands,
        "num_paths": pathset.num_paths,
        "evaluation_looped_seconds": round(eval_looped, 6),
        "evaluation_batched_seconds": round(eval_batched, 6),
        "evaluation_speedup": round(eval_looped / eval_batched, 2),
        "max_satisfied_diff": max_satisfied_diff,
    }


def test_batched_engine_speedup():
    """Batched scoring is faster than and equivalent to the loop."""
    record = run_benchmark()
    print("\n" + json.dumps(record))
    assert record["max_satisfied_diff"] < 1e-8
    assert record["evaluation_speedup"] >= 3.0, (
        f"evaluation speedup {record['evaluation_speedup']} below 3x"
    )


def main() -> int:
    record = run_benchmark()
    json.dump(record, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    main()
