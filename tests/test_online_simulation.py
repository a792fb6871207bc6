"""Tests for the online control loop with computation delay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.simulation import Allocation, DeploymentTracker, OnlineSimulator
from repro.simulation.metrics import SchemeRun, format_comparison_table, speedup


class FixedTimeScheme:
    """Test double: LP-quality allocation with a configurable compute time.

    The allocation is demand-aware (it solves the real LP), so stale
    routes actually cost performance, as in the paper's online setting.
    """

    def __init__(self, compute_time: float, name: str = "fixed") -> None:
        self.compute_time = compute_time
        self.name = name
        self.calls = 0
        self._lp = None

    def allocate(self, pathset, demands, capacities=None):
        from repro.baselines import LpAll

        self.calls += 1
        if self._lp is None:
            self._lp = LpAll()
        allocation = self._lp.allocate(pathset, demands, capacities)
        return Allocation(
            split_ratios=allocation.split_ratios,
            compute_time=self.compute_time,
            scheme=self.name,
        )


class TestOnlineSimulator:
    def test_fast_scheme_never_stale(self, b4_pathset, b4_trace):
        sim = OnlineSimulator(b4_pathset, interval_seconds=300.0)
        result = sim.run(FixedTimeScheme(1.0), b4_trace.matrices[:6])
        assert result.stale_fraction == 0.0
        assert all(r.allocation_age == 0 for r in result.intervals)

    def test_slow_scheme_uses_stale_routes(self, b4_pathset, b4_trace):
        sim = OnlineSimulator(b4_pathset, interval_seconds=300.0)
        # 700s compute -> allocation arrives 3 intervals later.
        result = sim.run(FixedTimeScheme(700.0), b4_trace.matrices[:8])
        assert result.stale_fraction > 0.5
        # First interval: only the shortest-path default exists.
        assert result.intervals[0].allocation_age == 0

    def test_slow_scheme_satisfies_less(self, b4_pathset, b4_trace):
        """The §5.1 mechanism: stale routes lose demand."""
        heavy = [m.scaled(2.0) for m in b4_trace.matrices[:8]]
        sim = OnlineSimulator(b4_pathset, interval_seconds=300.0)
        fast = sim.run(FixedTimeScheme(1.0), heavy)
        slow = sim.run(FixedTimeScheme(900.0), heavy)
        assert fast.mean_satisfied >= slow.mean_satisfied - 1e-9

    def test_failure_injection_changes_capacities(self, b4_pathset, b4_trace):
        sim = OnlineSimulator(b4_pathset, interval_seconds=300.0)
        result = sim.run(
            FixedTimeScheme(1.0),
            b4_trace.matrices[:6],
            failure_at=3,
            failed_edges=tuple(range(10)),
        )
        before = np.mean([r.satisfied_fraction for r in result.intervals[:3]])
        after = np.mean([r.satisfied_fraction for r in result.intervals[3:]])
        assert after <= before + 1e-9

    def test_validation(self, b4_pathset, b4_trace):
        with pytest.raises(SimulationError):
            OnlineSimulator(b4_pathset, interval_seconds=0.0)
        sim = OnlineSimulator(b4_pathset)
        with pytest.raises(SimulationError):
            sim.run(FixedTimeScheme(1.0), [])
        with pytest.raises(SimulationError):
            sim.run(FixedTimeScheme(1.0), b4_trace.matrices[:2], failure_at=1)

    def test_satisfied_series_length(self, b4_pathset, b4_trace):
        sim = OnlineSimulator(b4_pathset)
        result = sim.run(FixedTimeScheme(1.0), b4_trace.matrices[:5])
        assert result.satisfied_series().shape == (5,)


def _marked_allocation(marker: float, compute_time: float) -> Allocation:
    """An allocation whose ratios identify it (ratios[0, 0] == marker)."""
    ratios = np.zeros((2, 2))
    ratios[0, 0] = marker
    return Allocation(
        split_ratios=ratios, compute_time=compute_time, scheme="marked"
    )


class TestDeploymentTracker:
    """Regression tests for the §5.1 deployment-schedule semantics."""

    def _tracker(self) -> DeploymentTracker:
        return DeploymentTracker(
            _marked_allocation(-1.0, 0.0), interval_seconds=300.0
        )

    def test_within_budget_deploys_immediately(self):
        tracker = self._tracker()
        assert tracker.submit(0, _marked_allocation(0.0, 10.0)) == 0
        assert tracker.deployed.split_ratios[0, 0] == 0.0
        assert tracker.age(0) == 0

    def test_slow_allocation_queues_then_deploys(self):
        tracker = self._tracker()
        assert tracker.submit(0, _marked_allocation(0.0, 700.0)) == 2
        tracker.resolve(1)
        assert tracker.deployed.split_ratios[0, 0] == -1.0  # still default
        assert tracker.age(1) == 1
        tracker.resolve(2)
        assert tracker.deployed.split_ratios[0, 0] == 0.0
        assert tracker.age(2) == 2

    def test_slow_inflight_does_not_regress_fresh_deployment(self):
        """The fixed bug: a slow allocation started at interval 0 finishing
        at interval 2 must not overwrite interval 1's fresh deployment."""
        tracker = self._tracker()
        tracker.submit(0, _marked_allocation(0.0, 700.0))  # ready at t=2
        tracker.resolve(1)
        tracker.submit(1, _marked_allocation(1.0, 10.0))  # deploys now
        assert tracker.deployed.split_ratios[0, 0] == 1.0
        tracker.resolve(2)  # interval 0's stale result is discarded
        assert tracker.deployed.split_ratios[0, 0] == 1.0
        assert tracker.deployed_started == 1
        assert tracker.age(2) == 1

    def test_freshest_of_several_ready_wins(self):
        tracker = self._tracker()
        tracker.submit(0, _marked_allocation(0.0, 900.0))  # ready at t=3
        tracker.resolve(1)
        tracker.submit(1, _marked_allocation(1.0, 600.0))  # ready at t=3
        tracker.resolve(3)
        assert tracker.deployed.split_ratios[0, 0] == 1.0
        assert tracker.deployed_started == 1

    def test_interval_zero_delayed_allocation_still_deploys(self):
        """The default predates every decision: interval 0's delayed
        result must replace it (guard is strict on real decisions only)."""
        tracker = self._tracker()
        tracker.submit(0, _marked_allocation(0.0, 400.0))  # ready at t=1
        tracker.resolve(1)
        assert tracker.deployed.split_ratios[0, 0] == 0.0
        assert tracker.deployed_started == 0

    def test_run_ages_with_heterogeneous_compute_times(
        self, b4_pathset, b4_trace
    ):
        """End to end: ages reflect the anti-regression guard (interval 2
        keeps interval 1's allocation at age 1, not interval 0's at 2)."""

        class ScriptedTimeScheme(FixedTimeScheme):
            def __init__(self, times):
                super().__init__(times[0])
                self.times = times

            def allocate(self, pathset, demands, capacities=None):
                self.compute_time = self.times[
                    min(self.calls, len(self.times) - 1)
                ]
                return super().allocate(pathset, demands, capacities)

        sim = OnlineSimulator(b4_pathset, interval_seconds=300.0)
        result = sim.run(
            ScriptedTimeScheme([700.0, 10.0, 400.0, 10.0]),
            b4_trace.matrices[:4],
        )
        assert [r.allocation_age for r in result.intervals] == [0, 0, 1, 0]


class TestMetrics:
    def test_scheme_run_statistics(self):
        run = SchemeRun(scheme="x")
        for satisfied, t in [(0.8, 1.0), (0.9, 2.0), (1.0, 3.0)]:
            run.add(satisfied, t)
        assert run.mean_satisfied == pytest.approx(0.9)
        assert run.mean_compute_time == pytest.approx(2.0)
        assert run.satisfied_percentile(50) == pytest.approx(0.9)
        assert run.time_percentile(100) == pytest.approx(3.0)

    def test_empty_run_defaults(self):
        run = SchemeRun(scheme="x")
        assert run.mean_satisfied == 0.0
        assert run.time_percentile(50) == 0.0

    def test_cdf_monotone(self):
        run = SchemeRun(scheme="x")
        values, fractions = run.cdf([3.0, 1.0, 2.0])
        assert list(values) == [1.0, 2.0, 3.0]
        assert fractions[-1] == pytest.approx(1.0)

    def test_speedup(self):
        slow = SchemeRun(scheme="slow")
        slow.add(0.9, 10.0)
        fast = SchemeRun(scheme="fast")
        fast.add(0.9, 2.0)
        assert speedup(slow, fast) == pytest.approx(5.0)

    def test_speedup_zero_time_rejected(self):
        slow = SchemeRun(scheme="slow")
        slow.add(0.9, 10.0)
        fast = SchemeRun(scheme="fast")
        fast.add(0.9, 0.0)
        with pytest.raises(SimulationError):
            speedup(slow, fast)

    def test_time_breakdown_collects_components(self):
        run = SchemeRun(scheme="x")
        run.add(0.9, 1.0, extras={"forward_time": 0.2, "admm_time": 0.1})
        run.add(0.9, 2.0, extras={"forward_time": 0.4, "admm_time": 0.3})
        breakdown = run.time_breakdown()
        assert breakdown["forward_time"] == pytest.approx(0.3)
        assert breakdown["total_time"] == pytest.approx(1.5)

    def test_format_table_contains_schemes(self):
        run = SchemeRun(scheme="Teal")
        run.add(0.9, 0.5)
        table = format_comparison_table([run])
        assert "Teal" in table
        assert "90.0%" in table
