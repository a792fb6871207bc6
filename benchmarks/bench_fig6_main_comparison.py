"""Figure 6: Teal vs. the state of the art across topology sizes.

Reproduces both panels on the benchmark-scale topology sweep
SWAN < UsCarrier < Kdl < ASN:

- 6a: average computation time per traffic matrix (log scale in the
  paper) — here as per-scheme pytest benchmarks plus a printed series.
- 6b: average satisfied demand in the *online* setting, with the TE
  interval scaled to the instances (harness.scaled_te_interval).

Expected shape (not absolute numbers): Teal's time stays flat and lowest
as size grows; LP-all grows fastest; on the larger instances Teal
satisfies comparable-or-more demand than the decomposition baselines.
"""

from __future__ import annotations

import pytest

from repro.harness import (
    make_baselines,
    run_offline_comparison,
    run_online_comparison,
    scaled_te_interval,
)

from conftest import print_series, teal_for

_TOPOLOGIES = ["SWAN", "UsCarrier", "Kdl", "ASN"]
_SCHEMES = ["LP-all", "LP-top", "NCFlow", "POP", "Teal"]

_results: dict[str, dict] = {}


def _scenario(request, name: str):
    return request.getfixturevalue(f"{name.lower()}_scenario")


def _schemes_for(scenario, training_config):
    schemes = dict(make_baselines(scenario))
    schemes["Teal"] = teal_for(scenario, training_config)
    return schemes


def _offline_runs(scenario, training_config):
    key = scenario.name
    if key not in _results:
        schemes = _schemes_for(scenario, training_config)
        # Batched engine (one vectorized Teal forward per trace); Teal's
        # reported time is amortized batch wall-clock / T, which tracks
        # its per-TM latency because the forward is math-bound (see
        # TealScheme.allocate_batch). 6a's per-scheme pytest benchmarks
        # below still time single allocation passes.
        runs = run_offline_comparison(scenario, schemes)
        _results[key] = {"schemes": schemes, "offline": runs}
    return _results[key]


@pytest.mark.parametrize("topology", _TOPOLOGIES)
@pytest.mark.parametrize("scheme_name", _SCHEMES)
def test_fig6a_computation_time(
    benchmark, request, training_config, topology, scheme_name
):
    """Benchmark one allocation pass per (topology, scheme)."""
    scenario = _scenario(request, topology)
    state = _offline_runs(scenario, training_config)
    scheme = state["schemes"][scheme_name]
    matrix = scenario.split.test[0]
    demands = scenario.demands(matrix)

    result = benchmark.pedantic(
        scheme.allocate,
        args=(scenario.pathset, demands),
        rounds=3,
        iterations=1,
    )
    assert result.split_ratios.shape[0] == scenario.pathset.num_demands


def test_fig6_summary(request, training_config):
    """Print both Figure 6 panels and assert the headline shape."""
    rows_time = [("topology", *(s for s in _SCHEMES), "(mean compute s)")]
    rows_sat = [("topology", *(s for s in _SCHEMES), "(online satisfied %)")]
    teal_times = []
    lp_times = []

    for topology in _TOPOLOGIES:
        scenario = _scenario(request, topology)
        state = _offline_runs(scenario, training_config)
        runs = state["offline"]
        interval = scaled_te_interval(runs)
        online = run_online_comparison(
            scenario, state["schemes"], interval_seconds=interval
        )
        state["online"] = online
        state["interval"] = interval
        rows_time.append(
            (
                topology,
                *(f"{runs[s].mean_compute_time:.4f}" for s in _SCHEMES),
                f"interval={interval:.4f}s",
            )
        )
        rows_sat.append(
            (
                topology,
                *(f"{100 * online[s].mean_satisfied:.1f}" for s in _SCHEMES),
                "",
            )
        )
        teal_times.append(runs["Teal"].mean_compute_time)
        lp_times.append(runs["LP-all"].mean_compute_time)

    print_series("Figure 6a: computation time (s) per traffic matrix", rows_time)
    print_series("Figure 6b: online satisfied demand (%)", rows_sat)

    # Shape assertions (paper trends, not absolute values):
    # 1. Teal is among the fastest schemes on the largest topology and
    #    strictly faster than the LP-based schemes. (POP's charged time is
    #    its *max replica* time — at miniature scale those replica LPs are
    #    degenerate, so POP can tie Teal here; at paper scale it is 625x
    #    slower.)
    largest = _results["ASN"]["offline"]
    fastest = min(largest[s].mean_compute_time for s in _SCHEMES)
    assert largest["Teal"].mean_compute_time <= 2.0 * fastest
    assert largest["Teal"].mean_compute_time < largest["LP-all"].mean_compute_time
    assert largest["Teal"].mean_compute_time < largest["LP-top"].mean_compute_time
    # 2. LP-all's cost grows faster with size than Teal's.
    lp_growth = lp_times[-1] / max(lp_times[0], 1e-9)
    teal_growth = teal_times[-1] / max(teal_times[0], 1e-9)
    assert lp_growth > teal_growth
    # 3. On the largest topology Teal beats the decomposition baselines
    #    on online satisfied demand.
    online = _results["ASN"]["online"]
    assert online["Teal"].mean_satisfied >= online["NCFlow"].mean_satisfied
    assert online["Teal"].mean_satisfied >= online["POP"].mean_satisfied - 0.02
