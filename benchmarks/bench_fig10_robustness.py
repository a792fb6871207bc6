"""Figure 10: robustness to temporal and spatial demand changes.

- 10a: temporal fluctuation — demand noise with variance scaled 1/2/5/
  10/20x (§5.4). Models are trained on the *unperturbed* trace, so this
  measures out-of-distribution robustness.
- 10b: spatial redistribution — the top-10% demand share swept from the
  calibrated 88.4% down to 80/60/40/20%. LP-top's pinning heuristic
  relies on the heavy tail and degrades; Teal and the LPs are less
  affected.
"""

from __future__ import annotations

import pytest

from repro.harness import make_baselines, run_offline_comparison
from repro.traffic import (
    TrafficTrace,
    spatial_redistribution,
    temporal_fluctuation,
)

from conftest import print_series, teal_for

_SCHEMES = ["LP-top", "NCFlow", "POP", "Teal"]
_FLUCTUATIONS = [1, 2, 5, 10, 20]
_TOP_SHARES = [0.884, 0.8, 0.6, 0.4, 0.2]


@pytest.fixture(scope="module")
def swan_schemes(swan_scenario, training_config):
    schemes = dict(
        make_baselines(swan_scenario, include=("LP-top", "NCFlow", "POP"))
    )
    schemes["Teal"] = teal_for(swan_scenario, training_config)
    return schemes


def test_fig10a_temporal_fluctuation(swan_scenario, swan_schemes):
    test_trace = TrafficTrace(swan_scenario.split.test)
    results: dict[float, dict] = {}
    for factor in _FLUCTUATIONS:
        perturbed = temporal_fluctuation(test_trace, float(factor), seed=3)
        results[factor] = run_offline_comparison(
            swan_scenario, swan_schemes, matrices=perturbed.matrices[:4]
        )

    rows = [("scheme", *(f"{f}x" for f in _FLUCTUATIONS))]
    for name in _SCHEMES:
        rows.append(
            (
                name,
                *(
                    f"{100 * results[f][name].mean_satisfied:.1f}"
                    for f in _FLUCTUATIONS
                ),
            )
        )
    print_series(
        "Figure 10a: satisfied demand (%) under temporal fluctuation", rows
    )

    # Shape: small fluctuations (2x) are handled; Teal stays ahead of the
    # decomposition baselines even at 10x (paper: top performer at 10x).
    assert (
        results[2]["Teal"].mean_satisfied
        >= results[1]["Teal"].mean_satisfied - 0.1
    )
    assert (
        results[10]["Teal"].mean_satisfied
        >= results[10]["NCFlow"].mean_satisfied - 1e-9
    )


def test_fig10b_spatial_distribution(swan_scenario, swan_schemes):
    test_trace = TrafficTrace(swan_scenario.split.test)
    results: dict[float, dict] = {}
    for share in _TOP_SHARES:
        if share == _TOP_SHARES[0]:
            matrices = test_trace.matrices[:4]
        else:
            matrices = spatial_redistribution(test_trace, share).matrices[:4]
        results[share] = run_offline_comparison(
            swan_scenario, swan_schemes, matrices=matrices
        )

    rows = [("scheme", *(f"top10%={s:.0%}" for s in _TOP_SHARES))]
    for name in _SCHEMES:
        rows.append(
            (
                name,
                *(
                    f"{100 * results[s][name].mean_satisfied:.1f}"
                    for s in _TOP_SHARES
                ),
            )
        )
    print_series(
        "Figure 10b: satisfied demand (%) vs. spatial demand distribution",
        rows,
    )

    # Shape: LP-top's advantage over Teal shrinks (or flips) as the tail
    # flattens — pinning relies on the heavy-tailed distribution (§5.4).
    gap_heavy = (
        results[_TOP_SHARES[0]]["LP-top"].mean_satisfied
        - results[_TOP_SHARES[0]]["Teal"].mean_satisfied
    )
    gap_flat = (
        results[0.2]["LP-top"].mean_satisfied
        - results[0.2]["Teal"].mean_satisfied
    )
    assert gap_flat <= gap_heavy + 0.05
