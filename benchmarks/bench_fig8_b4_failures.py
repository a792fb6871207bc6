"""Figure 8: satisfied demand under 0/1/2 link failures on B4.

All schemes (including TEAVAR*, only viable on B4 due to its
scenario-expanded LP) allocate on the failed topology; Teal reacts by
recomputation without retraining (§5.3). Expected shape: everyone's
satisfied demand declines with failures; Teal outperforms TEAVAR*
(which trades utilization for availability) and stays on par with the
LP schemes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.harness import make_baselines, run_failure_sweep
from repro.topology import sample_link_failures

from conftest import print_series, teal_for

_SCHEMES = ["LP-all", "LP-top", "NCFlow", "POP", "TEAVAR*", "Teal"]
_FAILURES = [0, 1, 2]


@pytest.fixture(scope="module")
def failure_results(b4_scenario, training_config):
    schemes = dict(
        make_baselines(
            b4_scenario,
            include=("LP-all", "LP-top", "NCFlow", "POP", "TEAVAR*"),
        )
    )
    schemes["Teal"] = teal_for(b4_scenario, training_config)
    # Per-matrix capacity stack: the whole 0/1/2-failure sweep runs as
    # one batched forward per scheme (run_failure_sweep) instead of one
    # comparison pass per failure level.
    capacity_sets: dict[int, np.ndarray] = {}
    for num_failures in _FAILURES:
        caps = b4_scenario.capacities.copy()
        if num_failures:
            failed = sample_link_failures(
                b4_scenario.topology, num_failures, seed=num_failures
            )
            caps[failed] = 0.0
        capacity_sets[num_failures] = caps
    return run_failure_sweep(
        b4_scenario,
        schemes,
        capacity_sets,
        matrices=b4_scenario.split.test[:4],
    )


def test_fig8_series(failure_results):
    rows = [("scheme", *(f"{f} failure(s)" for f in _FAILURES))]
    for name in _SCHEMES:
        rows.append(
            (
                name,
                *(
                    f"{100 * failure_results[f][name].mean_satisfied:.1f}"
                    for f in _FAILURES
                ),
            )
        )
    print_series("Figure 8: satisfied demand (%) under B4 link failures", rows)

    # Shape 1: failures reduce everyone's satisfied demand (weakly).
    for name in _SCHEMES:
        assert (
            failure_results[2][name].mean_satisfied
            <= failure_results[0][name].mean_satisfied + 0.05
        )
    # Shape 2: Teal >= TEAVAR* under failures (paper: +2.4-5.1%).
    for f in _FAILURES:
        assert (
            failure_results[f]["Teal"].mean_satisfied
            >= failure_results[f]["TEAVAR*"].mean_satisfied - 0.03
        )


def test_teal_failure_reaction_benchmark(benchmark, b4_scenario, training_config):
    """Benchmark Teal's recomputation on a failed topology (§5.3)."""
    teal = teal_for(b4_scenario, training_config)
    caps = b4_scenario.capacities.copy()
    failed = sample_link_failures(b4_scenario.topology, 2, seed=1)
    caps[failed] = 0.0
    demands = b4_scenario.demands(b4_scenario.split.test[0])
    allocation = benchmark.pedantic(
        teal.allocate,
        args=(b4_scenario.pathset, demands, caps),
        rounds=5,
        iterations=1,
    )
    report_loads = b4_scenario.pathset.edge_loads(
        b4_scenario.pathset.split_ratios_to_path_flows(
            np.clip(allocation.split_ratios, 0, 1), demands
        )
    )
    assert report_loads.shape[0] == b4_scenario.topology.num_edges
