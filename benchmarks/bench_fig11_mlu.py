"""Figure 11: the min-max-link-utilization objective on Kdl and ASN.

Teal is retrained for MLU (no surrogate loss exists, showing the RL
component's objective flexibility — §5.5); ADMM is omitted per the
paper. Baselines are LP-all and LP-top (NCFlow/POP do not support the
objective). Expected shape: comparable MLU, Teal markedly faster.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.harness import make_baselines, run_offline_comparison, trained_teal
from repro.lp import get_objective

from conftest import print_series

_SCHEMES = ["LP-all", "LP-top", "Teal"]


def _mlu_runs(scenario):
    objective = get_objective("min_mlu")
    schemes = dict(
        make_baselines(scenario, objective=objective, include=("LP-all", "LP-top"))
    )
    schemes["Teal"] = trained_teal(
        scenario,
        objective_name="min_mlu",
        config=TrainingConfig(steps=40, warm_start_steps=200, log_every=40),
    )
    return run_offline_comparison(
        scenario,
        schemes,
        matrices=scenario.split.test[:3],
        objective=objective,
    )


@pytest.mark.parametrize("topology", ["Kdl", "ASN"])
def test_fig11_series(request, topology):
    scenario = request.getfixturevalue(f"{topology.lower()}_scenario")
    runs = _mlu_runs(scenario)

    rows = [("scheme", "mean MLU", "mean compute time (s)")]
    for name in _SCHEMES:
        rows.append(
            (
                name,
                f"{np.mean(runs[name].objective_values):.3f}",
                f"{runs[name].mean_compute_time:.4f}",
            )
        )
    print_series(f"Figure 11 ({topology}): max link utilization", rows)

    # Shape 1: Teal is the fastest of the three (paper: 17-36x faster).
    assert runs["Teal"].mean_compute_time == min(
        runs[s].mean_compute_time for s in _SCHEMES
    )
    # Shape 2: Teal's MLU is within a reasonable factor of the LP optimum
    # (the paper reports statistically comparable MLUs).
    lp_mlu = np.mean(runs["LP-all"].objective_values)
    teal_mlu = np.mean(runs["Teal"].objective_values)
    assert teal_mlu <= max(lp_mlu * 2.5, lp_mlu + 0.5)
