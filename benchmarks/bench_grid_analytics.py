"""Benchmark: Kdl/ASN-scale grid analytics + persistent scenario cache.

The paper's headline result (Figures 4-5) is a *speedup-vs-topology-size*
curve: the learning-accelerated path wins more as the WAN grows. This
benchmark produces the first real such curve from the grid engine, at the
full benchmark-scale size ladder — B4 < SWAN < UsCarrier < Kdl < ASN —
with two seeds per topology and two failure levels per cell, and measures
the new persistent scenario cache while doing it:

1. **Cold float32 grid** over all five topologies into a fresh cache
   directory (scenarios + Teal checkpoints are written to disk).
2. **Warm float32 grid**: in-memory caches cleared, same cache directory
   — every job loads its scenario and model from disk. The warm grid
   must equal the cold grid bit for bit (the cache's rebuild contract).
3. **Float64 grid**: scenario entries are precision-independent and Teal
   checkpoints store float64 weights, so this run also rides the warm
   cache and only pays for sweeps — giving the cross-precision table
   almost for free.
4. The float32/float64 ``GridResult`` JSONs are reduced through the real
   ``repro.cli analyze`` entry point (speedup curve, distributions,
   phase breakdown, precision table) and the record — including the
   cold/warm cache timings — lands in ``BENCH_analytics.json``.
5. **Interrupted + resumed grid**: the float32 grid re-runs into a fresh
   checkpoint directory capped at half its cells (``max_cells``), then
   resumes (``resume=True``). The merged result must equal the full run
   bit for bit — the resumable-grid contract at benchmark scale.
6. **Paper figures**: the analytics render through ``repro.cli plot``
   into the Figure 4-5 / 7 / 8-9 SVG set.

Run standalone::

    python benchmarks/bench_grid_analytics.py

or through pytest (``python -m pytest benchmarks/bench_grid_analytics.py``).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

if __name__ == "__main__":  # standalone: make src/ importable without env setup
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    )

from repro import cli
from repro.config import TrainingConfig
from repro.harness import clear_caches
from repro.sweep import (
    GridAnalytics,
    GridResult,
    ScenarioSuite,
    analyze,
    run_scenario_grid,
)

#: The full benchmark-scale size ladder, small to large (Table 1 order).
TOPOLOGIES = ("B4", "SWAN", "UsCarrier", "Kdl", "ASN")

#: Short per-topology training budget (minibatched per PR 2).
TRAINING = TrainingConfig(
    steps=8, warm_start_steps=30, log_every=50, batch_matrices=4
)


def make_suite(precision: str) -> ScenarioSuite:
    """The benchmark grid at one precision: 5 topologies x 2 seeds x 2 failures."""
    return ScenarioSuite(
        topologies=TOPOLOGIES,
        failure_counts=(0, 1),
        seeds=(0, 1),
        schemes=("LP-all", "Teal"),
        max_pairs=300,
        train=8,
        validation=2,
        test=4,
        training=TRAINING,
        precision=precision,
    )


_RECORD_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_analytics.json",
)


def _comparable(result: GridResult) -> list[tuple]:
    """The deterministic per-cell payload (timings excluded)."""
    return [
        (cell.coords, cell.run.satisfied, cell.run.objective_values)
        for cell in result.cells
    ]


def _phase_totals(result: GridResult) -> dict[str, float]:
    """Summed per-phase seconds across a grid's jobs."""
    return {
        phase: round(sum(t[f"{phase}_seconds"] for t in result.timings), 6)
        for phase in ("build", "train", "sweep")
    }


def run_benchmark() -> dict:
    """Run the cold/warm/float64 grids + CLI analytics; return the record."""
    with tempfile.TemporaryDirectory(prefix="teal-grid-cache-") as workdir:
        cache_dir = os.path.join(workdir, "cache")

        clear_caches()
        cold = run_scenario_grid(make_suite("float32"), cache_dir=cache_dir)
        clear_caches()  # drop in-memory tiers: the warm run must hit the disk
        warm = run_scenario_grid(make_suite("float32"), cache_dir=cache_dir)
        warm_matches_cold = _comparable(warm) == _comparable(cold)
        clear_caches()
        result64 = run_scenario_grid(make_suite("float64"), cache_dir=cache_dir)

        # Reduce the two precision runs through the real CLI entry point.
        grid32_path = os.path.join(workdir, "grid_float32.json")
        grid64_path = os.path.join(workdir, "grid_float64.json")
        analytics_path = os.path.join(workdir, "analytics.json")
        curve_path = os.path.join(workdir, "curve.csv")
        warm.to_json(grid32_path)
        result64.to_json(grid64_path)
        cli_exit = cli.main(
            [
                "analyze", grid32_path, grid64_path,
                "--output", analytics_path, "--csv", curve_path,
            ]
        )
        analytics = (
            GridAnalytics.from_json(analytics_path)
            if cli_exit == 0
            else analyze([warm, result64])
        )

        # Interrupt-and-resume at benchmark scale: cap the grid at half
        # its cells in a fresh checkpoint dir, then resume the rest.
        # (A fresh dir, so resume really loads checkpoints written by
        # the "interrupted" run rather than finding a complete cache.)
        resume_dir = os.path.join(workdir, "resume_cache")
        suite32 = make_suite("float32")
        half = cold.metadata["num_cells"] // 2
        partial = run_scenario_grid(
            suite32, cache_dir=resume_dir, max_cells=half
        )
        resumed = run_scenario_grid(
            suite32, cache_dir=resume_dir, resume=True
        )
        resume_record = {
            "interrupted_at_cells": half,
            "partial_seconds": round(partial.metadata["total_seconds"], 6),
            "resume_seconds": round(resumed.metadata["total_seconds"], 6),
            "loaded_cells": resumed.metadata["checkpointing"]["loaded_cells"],
            "executed_jobs": resumed.metadata["checkpointing"][
                "executed_jobs"
            ],
            "resumed_matches_full": _comparable(resumed) == _comparable(warm),
        }

        # Render the paper-figure set through the real CLI entry point.
        figures_dir = os.path.join(workdir, "figures")
        plot_exit = cli.main(
            ["plot", grid32_path, grid64_path, "--output-dir", figures_dir]
        )
        figures = {
            name: os.path.getsize(os.path.join(figures_dir, name))
            for name in sorted(os.listdir(figures_dir))
        } if plot_exit == 0 else {}

        cold_phases = _phase_totals(cold)
        warm_phases = _phase_totals(warm)
        record = {
            "benchmark": "grid_analytics",
            "topologies": list(TOPOLOGIES),
            "seeds": [0, 1],
            "failure_counts": [0, 1],
            "num_cells_per_grid": cold.metadata["num_cells"],
            "scenario_cache": {
                "cold_build_seconds": cold_phases["build"],
                "warm_build_seconds": warm_phases["build"],
                "build_speedup": round(
                    cold_phases["build"] / max(warm_phases["build"], 1e-9), 2
                ),
                "cold_train_seconds": cold_phases["train"],
                "warm_train_seconds": warm_phases["train"],
                "train_speedup": round(
                    cold_phases["train"] / max(warm_phases["train"], 1e-9), 2
                ),
                "cold_total_seconds": round(
                    cold.metadata["total_seconds"], 6
                ),
                "warm_total_seconds": round(
                    warm.metadata["total_seconds"], 6
                ),
                "total_speedup": round(
                    cold.metadata["total_seconds"]
                    / max(warm.metadata["total_seconds"], 1e-9),
                    2,
                ),
                "warm_matches_cold": warm_matches_cold,
            },
            "resume": resume_record,
            "cli_analyze_exit": cli_exit,
            "cli_plot_exit": plot_exit,
            "figures_bytes": figures,
            "speedup_curve": [p.to_dict() for p in analytics.curve],
            "precision_table": [p.to_dict() for p in analytics.precision],
            "distributions": [d.to_dict() for d in analytics.distributions],
            "phase_breakdown": [p.to_dict() for p in analytics.phases],
        }
    with open(_RECORD_PATH, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    return record


def test_grid_analytics_benchmark():
    """Grid analytics at Kdl/ASN scale with a working scenario cache.

    Pinned contracts: the warm (disk-cache) grid reproduces the cold
    grid bit for bit and is faster end to end; the CLI reduces both
    precision runs into a speedup curve covering the full size ladder.
    Absolute timings land in the JSON record, not in assertions.
    """
    record = run_benchmark()
    print("\n" + json.dumps(record["scenario_cache"]))
    cache = record["scenario_cache"]
    assert cache["warm_matches_cold"], "warm cache grid diverged from cold grid"
    assert cache["warm_build_seconds"] < cache["cold_build_seconds"]
    assert cache["warm_train_seconds"] < cache["cold_train_seconds"]
    assert record["cli_analyze_exit"] == 0
    resume = record["resume"]
    assert resume["resumed_matches_full"], "resumed grid diverged from full run"
    assert resume["loaded_cells"] == resume["interrupted_at_cells"]
    assert record["cli_plot_exit"] == 0
    assert len(record["figures_bytes"]) == 3
    assert all(size > 0 for size in record["figures_bytes"].values())
    curve32 = [
        p for p in record["speedup_curve"] if p["precision"] == "float32"
    ]
    assert [p["topology"] for p in curve32] == list(TOPOLOGIES)
    nodes = [p["num_nodes"] for p in curve32]
    assert nodes == sorted(nodes) and len(set(nodes)) == len(nodes)
    assert {p["topology"] for p in record["precision_table"]} == set(TOPOLOGIES)


def main() -> int:
    record = run_benchmark()
    json.dump(record, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    main()
