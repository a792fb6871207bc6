"""Figure 2: marginal speedup of the LP solver with more CPU threads.

The paper shows Gurobi achieving only 3.8x speedup with 16 threads on
the ASN LP, because LP solvers exploit threads by racing independent
serial algorithms. scipy's HiGHS exposes no thread knob, so we
measure the real single-thread solve and project the
concurrent-portfolio speedup curve calibrated to the paper's anchor
(see repro.analysis.solver_scaling).
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    calibrate_portfolio_sigma,
    concurrent_lp_speedups,
    measure_single_thread_time,
    projected_solve_times,
)
from repro.lp import TotalFlowObjective, solve_te_lp

from conftest import print_series

_THREADS = [1, 2, 4, 8, 16]


def test_fig2_series(benchmark, asn_scenario):
    """Print the Figure 2 speedup/time curve and check its shape."""
    demands = asn_scenario.demands(asn_scenario.split.test[0])
    single = benchmark.pedantic(
        measure_single_thread_time,
        args=(asn_scenario.pathset, demands),
        rounds=3,
        iterations=1,
    )
    sigma = calibrate_portfolio_sigma(target_speedup=3.8, threads=16)
    speedups = concurrent_lp_speedups(_THREADS, sigma=sigma)
    times = projected_solve_times(single, speedups)

    rows = [("threads", "speedup", "projected solve time (s)")]
    for n in _THREADS:
        rows.append((n, f"{speedups[n]:.2f}", f"{times[n]:.4f}"))
    print_series(
        "Figure 2: LP solver speedup vs. CPU threads (ASN-scale LP)", rows
    )

    # Shape: monotone but severely sublinear (3.8x at 16 threads).
    assert speedups[16] == pytest.approx(3.8, rel=0.1)
    assert speedups[16] < 16 / 2
    for a, b in zip(_THREADS, _THREADS[1:]):
        assert speedups[b] >= speedups[a]
        # Diminishing returns: each doubling gains less than 2x.
        assert speedups[b] / speedups[a] < 2.0


def test_single_thread_lp_benchmark(benchmark, asn_scenario):
    """Benchmark the raw HiGHS solve that anchors the Figure 2 curve."""
    demands = asn_scenario.demands(asn_scenario.split.test[0])
    solution = benchmark.pedantic(
        solve_te_lp,
        args=(asn_scenario.pathset, demands, TotalFlowObjective()),
        rounds=3,
        iterations=1,
    )
    assert solution.objective_value > 0
