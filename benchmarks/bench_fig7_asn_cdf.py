"""Figure 7: CDFs of computation time and satisfied demand on ASN.

Reproduces both CDF panels over the test matrices of the (scaled) ASN
scenario. Expected shapes: Teal's computation-time CDF is a near-vertical
line (fixed flops per allocation — §5.2), the LP-based schemes' times
spread widely (input-dependent stopping criteria), and Teal's satisfied
demand dominates the decomposition baselines across percentiles.
"""

from __future__ import annotations

import pytest

from repro.harness import make_baselines, run_offline_comparison

from conftest import print_series, teal_for

_SCHEMES = ["LP-top", "NCFlow", "POP", "Teal"]


@pytest.fixture(scope="module")
def asn_runs(asn_scenario, training_config):
    schemes = dict(
        make_baselines(asn_scenario, include=("LP-top", "NCFlow", "POP"))
    )
    teal = schemes["Teal"] = teal_for(asn_scenario, training_config)
    runs = run_offline_comparison(asn_scenario, schemes)
    # Fig 7a is a *distribution* claim (per-TM compute-time spread), so
    # Teal's times come from one allocate call per test matrix — its
    # amortized batch timing would flatten the CDF artificially. The LP
    # family's allocate_batch already loops allocate, so their times are
    # per TM.
    runs["Teal"].compute_times = [
        teal.allocate(asn_scenario.pathset, asn_scenario.demands(m)).compute_time
        for m in asn_scenario.split.test
    ]
    return runs


def test_fig7a_time_cdf(asn_runs):
    """Print time percentiles; assert Teal's runtime stability (§5.2)."""
    percentiles = [10, 25, 50, 75, 90, 100]
    rows = [("scheme", *(f"p{q}" for q in percentiles))]
    for name in _SCHEMES:
        run = asn_runs[name]
        rows.append(
            (name, *(f"{run.time_percentile(q):.4f}" for q in percentiles))
        )
    print_series("Figure 7a: computation time CDF on ASN (seconds)", rows)

    teal = asn_runs["Teal"]
    # Teal's p90/p10 spread is small (0.89-1.08s at all percentiles in
    # the paper); LP-based schemes fluctuate much more.
    teal_spread = teal.time_percentile(90) / max(teal.time_percentile(10), 1e-9)
    assert teal_spread < 3.0


def test_fig7b_satisfied_cdf(asn_runs):
    """Print satisfied-demand percentiles; Teal dominates NCFlow/POP."""
    percentiles = [10, 25, 50, 75, 90]
    rows = [("scheme", *(f"p{q}" for q in percentiles))]
    for name in _SCHEMES:
        run = asn_runs[name]
        rows.append(
            (
                name,
                *(
                    f"{100 * run.satisfied_percentile(q):.1f}"
                    for q in percentiles
                ),
            )
        )
    print_series("Figure 7b: satisfied demand CDF on ASN (%)", rows)

    for q in percentiles:
        assert (
            asn_runs["Teal"].satisfied_percentile(q)
            >= asn_runs["NCFlow"].satisfied_percentile(q) - 1e-9
        )
    # Median comparison against POP (paper: 6-33% higher at the median).
    assert (
        asn_runs["Teal"].satisfied_percentile(50)
        >= asn_runs["POP"].satisfied_percentile(50) - 0.02
    )
