"""Table 2: breakdown of computation time for each scheme.

The paper's Table 2 documents what each scheme's reported time includes
(solver time, model rebuilding, subproblem coalescing, GPU forward).
Every scheme in this reproduction attaches its components to
``Allocation.extras``; this bench prints the measured mean breakdown.
"""

from __future__ import annotations

from repro.harness import make_baselines, run_offline_comparison

from conftest import print_series, teal_for


def test_table2_breakdown(uscarrier_scenario, training_config):
    scenario = uscarrier_scenario
    schemes = dict(make_baselines(scenario))
    schemes["Teal"] = teal_for(scenario, training_config)
    runs = run_offline_comparison(
        scenario, schemes, matrices=scenario.split.test[:4]
    )

    rows = [("scheme", "component", "mean seconds")]
    for name, run in runs.items():
        breakdown = run.time_breakdown()
        for component, seconds in breakdown.items():
            rows.append((name, component, f"{seconds:.5f}"))
    print_series("Table 2: computation-time breakdown (UsCarrier)", rows)

    # Teal's breakdown includes the forward pass and ADMM (Table 2 row).
    teal_breakdown = runs["Teal"].time_breakdown()
    assert "forward_time" in teal_breakdown
    assert "admm_time" in teal_breakdown
    # LP-top charges model rebuilding on top of solver time (Table 2).
    lp_top_breakdown = runs["LP-top"].time_breakdown()
    assert "model_build_time" in lp_top_breakdown


def test_teal_component_benchmark(benchmark, uscarrier_scenario, training_config):
    """Benchmark Teal's full pipeline (forward + ADMM), its Table 2 row."""
    scenario = uscarrier_scenario
    teal = teal_for(scenario, training_config)
    demands = scenario.demands(scenario.split.test[0])
    allocation = benchmark.pedantic(
        teal.allocate, args=(scenario.pathset, demands), rounds=5, iterations=1
    )
    assert allocation.extras["forward_time"] > 0
