"""Figure 9: satisfied demand under mass link failures on ASN.

The paper's stress test injects 50/100/200 simultaneous failures on ASN
and measures the *online* satisfied demand: slow schemes keep dropping
traffic on failed links while recomputing, so Teal's fast reaction wins
by 6-33%. We reproduce with failure counts scaled to the benchmark
instance (same fraction of physical links) and the scaled TE interval.
"""

from __future__ import annotations

import pytest

from repro.harness import (
    make_baselines,
    run_offline_comparison,
    run_online_failure_sweep,
    scaled_te_interval,
)
from repro.simulation import EventSchedule
from repro.topology import physical_links, sample_link_failures

from conftest import print_series, teal_for

_SCHEMES = ["LP-top", "NCFlow", "POP", "Teal"]
#: Paper failure counts on 4279 physical links -> fractions ~1.2/2.3/4.7%.
_FAILURE_FRACTIONS = [0.0, 0.012, 0.023, 0.047]


@pytest.fixture(scope="module")
def asn_failure_results(asn_scenario, training_config):
    schemes = dict(
        make_baselines(asn_scenario, include=("LP-top", "NCFlow", "POP"))
    )
    schemes["Teal"] = teal_for(asn_scenario, training_config)
    offline = run_offline_comparison(
        asn_scenario,
        {**schemes, "LP-all": make_baselines(asn_scenario, include=("LP-all",))["LP-all"]},
        matrices=asn_scenario.split.test[:2],
    )
    interval = scaled_te_interval(offline)
    num_links = len(physical_links(asn_scenario.topology))

    # One event schedule per failure fraction: every (fraction, interval)
    # pair becomes one row of a single batched forward per scheme, and
    # the online staleness semantics apply per schedule
    # (run_online_failure_sweep).
    schedules: dict[float, EventSchedule] = {}
    for fraction in _FAILURE_FRACTIONS:
        num_failures = int(round(fraction * num_links))
        failed = ()
        if num_failures:
            failed = tuple(
                sample_link_failures(asn_scenario.topology, num_failures, seed=7)
            )
        schedules[fraction] = EventSchedule.from_failure_case(
            asn_scenario.split.test,
            interval,
            failed_edges=failed,
            failure_at=2 if failed else None,
        )
    return run_online_failure_sweep(asn_scenario, schemes, schedules)


def test_fig9_series(asn_failure_results):
    rows = [
        (
            "scheme",
            *(
                f"{frac:.1%} links failed"
                for frac in _FAILURE_FRACTIONS
            ),
        )
    ]
    for name in _SCHEMES:
        rows.append(
            (
                name,
                *(
                    f"{100 * asn_failure_results[f][name].mean_satisfied:.1f}"
                    for f in _FAILURE_FRACTIONS
                ),
            )
        )
    print_series(
        "Figure 9: online satisfied demand (%) under mass ASN failures "
        "(paper: 50/100/200 of 4279 links)",
        rows,
    )

    worst = _FAILURE_FRACTIONS[-1]
    # Shape 1: mass failures hurt everyone relative to no failures.
    for name in _SCHEMES:
        assert (
            asn_failure_results[worst][name].mean_satisfied
            <= asn_failure_results[0.0][name].mean_satisfied + 0.05
        )
    # Shape 2: Teal routes more than the decomposition baselines under
    # failures thanks to fast recomputation (paper: +6-33%).
    assert (
        asn_failure_results[worst]["Teal"].mean_satisfied
        >= asn_failure_results[worst]["NCFlow"].mean_satisfied - 1e-9
    )
    assert (
        asn_failure_results[worst]["Teal"].mean_satisfied
        >= asn_failure_results[worst]["POP"].mean_satisfied - 0.02
    )
