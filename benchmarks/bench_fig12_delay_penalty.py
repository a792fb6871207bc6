"""Figure 12: maximizing total flow with delay penalties (§5.5).

Every unit of flow is discounted by how much its path's latency exceeds
the demand's shortest path. Teal is retrained on this objective (reward
flexibility); LP-all and LP-top optimize it directly. Expected shape:
Teal's objective value comparable to LP-top, with a large speed
advantage (paper: 26-718x).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.harness import make_baselines, run_offline_comparison, trained_teal
from repro.lp import DelayPenalizedFlowObjective

from conftest import print_series

_SCHEMES = ["LP-all", "LP-top", "Teal"]


@pytest.mark.parametrize("topology", ["Kdl", "ASN"])
def test_fig12_series(request, topology):
    scenario = request.getfixturevalue(f"{topology.lower()}_scenario")
    objective = DelayPenalizedFlowObjective(beta=0.5)
    schemes = dict(
        make_baselines(
            scenario, objective=objective, include=("LP-all", "LP-top")
        )
    )
    schemes["Teal"] = trained_teal(
        scenario,
        objective_name="delay_penalized_flow",
        config=TrainingConfig(steps=40, warm_start_steps=250, log_every=60),
    )
    runs = run_offline_comparison(
        scenario,
        schemes,
        matrices=scenario.split.test[:3],
        objective=objective,
    )

    total_demand = float(
        np.mean(
            [scenario.demands(m).sum() for m in scenario.split.test[:3]]
        )
    )
    rows = [("scheme", "normalized penalized flow", "mean compute time (s)")]
    for name in _SCHEMES:
        normalized = np.mean(runs[name].objective_values) / total_demand
        rows.append(
            (name, f"{normalized:.3f}", f"{runs[name].mean_compute_time:.4f}")
        )
    print_series(
        f"Figure 12 ({topology}): latency-penalized total flow", rows
    )

    # Shape 1: Teal fastest.
    assert runs["Teal"].mean_compute_time == min(
        runs[s].mean_compute_time for s in _SCHEMES
    )
    # Shape 2: Teal's solution quality within 30% of LP-top (paper:
    # comparable or higher after a week of training; wider band for the
    # seconds-scale budget here).
    lp_top = np.mean(runs["LP-top"].objective_values)
    teal = np.mean(runs["Teal"].objective_values)
    assert teal >= 0.7 * lp_top
