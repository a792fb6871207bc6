"""Tests for the event-driven streaming TE engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admm import AdmmFineTuner
from repro.exceptions import SimulationError
from repro.lp.objectives import TotalFlowObjective
from repro.simulation import (
    Allocation,
    EventSchedule,
    LinkFailure,
    LinkRecovery,
    OnlineSimulator,
    StreamingEngine,
    TrafficUpdate,
)
from repro.topology import b4

from test_online_simulation import FixedTimeScheme


class ScriptedTimeScheme(FixedTimeScheme):
    """LP-backed scheme whose compute time follows a per-call script."""

    def __init__(self, times: list[float], name: str = "scripted") -> None:
        super().__init__(times[0], name)
        self.times = list(times)

    def allocate(self, pathset, demands, capacities=None):
        self.compute_time = self.times[min(self.calls, len(self.times) - 1)]
        return super().allocate(pathset, demands, capacities)


class RecordingScheme:
    """Test double that records the capacities every decision sees."""

    name = "recording"

    def __init__(self) -> None:
        self.seen_capacities: list[np.ndarray] = []

    def allocate(self, pathset, demands, capacities=None):
        self.seen_capacities.append(np.array(capacities, copy=True))
        ratios = np.zeros((pathset.num_demands, pathset.max_paths))
        ratios[:, 0] = 1.0
        return Allocation(ratios, compute_time=1.0, scheme=self.name)


class TimedRecordingScheme(RecordingScheme):
    """Cheap demand-aware allocations with a fixed (synthetic) compute time."""

    def __init__(self, compute_time: float) -> None:
        super().__init__()
        self.compute_time = compute_time

    def allocate(self, pathset, demands, capacities=None):
        self.seen_capacities.append(np.array(capacities, copy=True))
        weights = (
            pathset.path_mask
            * (1.0 + np.arange(pathset.max_paths))
            * (1.0 + demands[:, None] / (1.0 + demands.max()))
        )
        ratios = weights / weights.sum(axis=1, keepdims=True)
        return Allocation(ratios, compute_time=self.compute_time, scheme=self.name)


class WarmCapableScheme(FixedTimeScheme):
    """LP allocations plus the ADMM warm-start seam Teal exposes."""

    def __init__(self, pathset) -> None:
        super().__init__(1.0, "warmable")
        self.admm = AdmmFineTuner(pathset)
        self.objective = TotalFlowObjective()


class TestEventSchedule:
    def test_from_trace(self, b4_trace):
        mats = b4_trace.matrices[:4]
        schedule = EventSchedule.from_trace(mats, interval_seconds=300.0)
        assert schedule.num_intervals == 4
        assert schedule.matrices() == mats
        assert [e.time for e in schedule.events] == [0.0, 300.0, 600.0, 900.0]

    def test_events_sorted_capacity_first(self, b4_trace):
        mats = b4_trace.matrices[:3]
        # Deliberately unsorted; failure shares interval 1's timestamp.
        schedule = EventSchedule(
            events=(
                TrafficUpdate(time=600.0, matrix=mats[2]),
                TrafficUpdate(time=0.0, matrix=mats[0]),
                TrafficUpdate(time=300.0, matrix=mats[1]),
                LinkFailure(time=300.0, edges=(0, 1)),
            ),
            interval_seconds=300.0,
        )
        kinds = [type(e).__name__ for e in schedule.events]
        assert kinds == [
            "TrafficUpdate", "LinkFailure", "TrafficUpdate", "TrafficUpdate"
        ]

    def test_validation(self, b4_trace):
        mats = b4_trace.matrices[:2]
        with pytest.raises(SimulationError):
            EventSchedule(events=(), interval_seconds=300.0)
        with pytest.raises(SimulationError):
            EventSchedule(
                events=(LinkFailure(time=0.0, edges=(0,)),),
                interval_seconds=300.0,
            )
        with pytest.raises(SimulationError):
            EventSchedule.from_trace(mats, interval_seconds=0.0)
        with pytest.raises(SimulationError):
            EventSchedule.from_failure_case(mats, failed_edges=(0,))
        with pytest.raises(SimulationError):
            EventSchedule.from_failure_case(mats, failure_at=1)
        with pytest.raises(SimulationError):
            EventSchedule.from_failure_case(
                mats, failed_edges=(0,), failure_at=1, recover_at=1
            )

    def test_negative_failure_at_rejected(self, b4_trace):
        """A negative failure_at used to fail every interval here but only
        the last ones in the replay's capacity slicing; now it is an error."""
        mats = b4_trace.matrices[:4]
        with pytest.raises(SimulationError, match="non-negative"):
            EventSchedule.from_failure_case(
                mats, failed_edges=(0,), failure_at=-1
            )

    def test_recovery_without_failure_rejected(self, b4_trace):
        with pytest.raises(SimulationError, match="recover_at"):
            EventSchedule.from_failure_case(
                b4_trace.matrices[:4], recover_at=2
            )

    @pytest.mark.parametrize("edge", [-1, 38, 1000])
    def test_out_of_range_edges_rejected(self, b4_pathset, b4_trace, edge):
        """Edge -1 used to zero B4's last edge silently and edge >= E raised
        a raw IndexError; both are now SimulationErrors naming the edge."""
        assert b4_pathset.topology.num_edges == 38
        mats = b4_trace.matrices[:2]
        for event in (
            LinkFailure(time=300.0, edges=(0, edge)),
            LinkRecovery(time=300.0, edges=(edge,)),
        ):
            schedule = EventSchedule(
                events=(
                    TrafficUpdate(time=0.0, matrix=mats[0]),
                    event,
                    TrafficUpdate(time=300.0, matrix=mats[1]),
                ),
                interval_seconds=300.0,
            )
            engine = StreamingEngine(b4_pathset, RecordingScheme(), warm_start=False)
            with pytest.raises(SimulationError, match=f"edge {edge}"):
                engine.run(schedule)

    def test_from_failure_case_timeline(self, b4_trace):
        mats = b4_trace.matrices[:4]
        schedule = EventSchedule.from_failure_case(
            mats,
            interval_seconds=300.0,
            failed_edges=(2, 3),
            failure_at=1,
            recover_at=3,
        )
        failures = [e for e in schedule.events if isinstance(e, LinkFailure)]
        recoveries = [
            e for e in schedule.events if isinstance(e, LinkRecovery)
        ]
        assert failures[0].time == 300.0 and failures[0].edges == (2, 3)
        assert recoveries[0].time == 900.0 and recoveries[0].edges == (2, 3)
        # The failure precedes interval 1's traffic update in the stream.
        order = [type(e).__name__ for e in schedule.events]
        assert order.index("LinkFailure") < order.index("TrafficUpdate") + 2

    def test_from_grid_cell_deterministic(self):
        from repro.harness import build_scenario
        from repro.sweep.grid import ScenarioSuite

        suite = ScenarioSuite(
            topologies=("B4",),
            mode="online",
            train=4,
            validation=1,
            test=4,
        )
        scenario = build_scenario("B4", train=4, validation=1, test=4)
        a = EventSchedule.from_grid_cell(suite, scenario, failure_count=1)
        b = EventSchedule.from_grid_cell(suite, scenario, failure_count=1)
        fa = [e for e in a.events if isinstance(e, LinkFailure)]
        fb = [e for e in b.events if isinstance(e, LinkFailure)]
        assert fa[0].edges == fb[0].edges
        # failure_at defaults to mid-trace.
        assert fa[0].time == (len(scenario.split.test) // 2) * suite.interval_seconds
        zero = EventSchedule.from_grid_cell(suite, scenario, failure_count=0)
        assert not any(isinstance(e, LinkFailure) for e in zero.events)


class TestStreamingEquivalence:
    def test_matches_online_simulator_exactly(self, b4_pathset, b4_trace):
        """The ISSUE acceptance case: a single-failure schedule replayed
        through the streaming engine reproduces OnlineSimulator.run's
        per-interval satisfied fractions bit for bit."""
        mats = b4_trace.matrices[:6]
        caps = b4_pathset.topology.capacities.copy()
        edges = (0, 1, 2, 3)

        sim = OnlineSimulator(b4_pathset, interval_seconds=300.0)
        ref = sim.run(
            FixedTimeScheme(700.0),
            mats,
            capacities=caps,
            failure_at=2,
            failed_edges=edges,
        )
        engine = StreamingEngine(
            b4_pathset, FixedTimeScheme(700.0), warm_start=False
        )
        schedule = EventSchedule.from_failure_case(
            mats, interval_seconds=300.0, failed_edges=edges, failure_at=2
        )
        run = engine.run(schedule, capacities=caps)

        assert np.array_equal(
            run.satisfied_series(), ref.satisfied_series()
        )
        for mine, theirs in zip(run.intervals, ref.intervals):
            assert mine.allocation_age == theirs.allocation_age
            assert mine.stale == theirs.stale
            assert mine.compute_time == theirs.compute_time
        assert run.event_counts == {"traffic": 6, "failure": 1, "recovery": 0}

    def test_matches_online_simulator_no_failure(self, b4_pathset, b4_trace):
        mats = b4_trace.matrices[:5]
        sim = OnlineSimulator(b4_pathset, interval_seconds=300.0)
        ref = sim.run(FixedTimeScheme(1.0), mats)
        engine = StreamingEngine(
            b4_pathset, FixedTimeScheme(1.0), warm_start=False
        )
        run = engine.run(EventSchedule.from_trace(mats, 300.0))
        assert np.array_equal(run.satisfied_series(), ref.satisfied_series())
        assert run.mean_satisfied == ref.mean_satisfied

    def test_out_of_order_completions_match_replay(
        self, b4_pathset, b4_trace
    ):
        """Heterogeneous compute times: a slow in-flight decision finishing
        after a fresher one must not regress routes — in either engine."""
        mats = b4_trace.matrices[:5]
        times = [700.0, 10.0, 400.0, 10.0, 10.0]
        sim = OnlineSimulator(b4_pathset, interval_seconds=300.0)
        ref = sim.run(ScriptedTimeScheme(times), mats)
        engine = StreamingEngine(
            b4_pathset, ScriptedTimeScheme(times), warm_start=False
        )
        run = engine.run(EventSchedule.from_trace(mats, 300.0))
        # Interval 2: interval 0's slow decision (ready now) loses to the
        # deployed interval-1 decision; interval 2's own takes one interval.
        assert [r.allocation_age for r in run.intervals] == [0, 0, 1, 0, 0]
        assert [r.allocation_age for r in ref.intervals] == [0, 0, 1, 0, 0]
        assert np.array_equal(run.satisfied_series(), ref.satisfied_series())


class TestCapacityEvents:
    def test_failure_then_recovery_restores_nominal_bit_for_bit(
        self, b4_pathset, b4_trace
    ):
        mats = b4_trace.matrices[:5]
        nominal = b4_pathset.topology.capacities.copy()
        edges = (0, 1, 4, 5)
        scheme = RecordingScheme()
        engine = StreamingEngine(b4_pathset, scheme, warm_start=False)
        schedule = EventSchedule.from_failure_case(
            mats,
            interval_seconds=300.0,
            failed_edges=edges,
            failure_at=1,
            recover_at=3,
        )
        run = engine.run(schedule, capacities=nominal)
        assert run.event_counts == {"traffic": 5, "failure": 1, "recovery": 1}
        seen = scheme.seen_capacities
        assert np.array_equal(seen[0], nominal)
        for t in (1, 2):
            assert np.all(seen[t][list(edges)] == 0.0)
        for t in (3, 4):
            assert np.array_equal(seen[t], nominal)

    def test_recovery_without_edges_restores_all_failed(
        self, b4_pathset, b4_trace
    ):
        mats = b4_trace.matrices[:3]
        nominal = b4_pathset.topology.capacities.copy()
        scheme = RecordingScheme()
        engine = StreamingEngine(b4_pathset, scheme, warm_start=False)
        schedule = EventSchedule(
            events=(
                TrafficUpdate(time=0.0, matrix=mats[0]),
                LinkFailure(time=300.0, edges=(0, 1)),
                LinkFailure(time=300.0, edges=(6,)),
                TrafficUpdate(time=300.0, matrix=mats[1]),
                LinkRecovery(time=600.0),  # no edges: restore everything
                TrafficUpdate(time=600.0, matrix=mats[2]),
            ),
            interval_seconds=300.0,
        )
        engine.run(schedule, capacities=nominal)
        assert np.all(scheme.seen_capacities[1][[0, 1, 6]] == 0.0)
        assert np.array_equal(scheme.seen_capacities[2], nominal)


class TestWarmStart:
    def test_first_decision_cold_rest_warm(self, b4_pathset, b4_trace):
        mats = b4_trace.matrices[:4]
        scheme = WarmCapableScheme(b4_pathset)
        engine = StreamingEngine(
            b4_pathset, scheme, warm_start=True, warm_iterations=2
        )
        run = engine.run(EventSchedule.from_trace(mats, 300.0))
        assert [d.warm for d in run.decisions] == [False, True, True, True]
        assert run.warm_fraction == pytest.approx(0.75)
        # Only the cold decision hits the full allocate pipeline.
        assert scheme.calls == 1
        # Warm decisions report measured wall-clock as compute time
        # (timed inside the decision, so bounded by the recorded latency).
        for d in run.decisions[1:]:
            assert 0.0 < d.compute_time <= d.latency

    def test_warm_start_disabled_is_all_cold(self, b4_pathset, b4_trace):
        mats = b4_trace.matrices[:3]
        scheme = WarmCapableScheme(b4_pathset)
        engine = StreamingEngine(b4_pathset, scheme, warm_start=False)
        run = engine.run(EventSchedule.from_trace(mats, 300.0))
        assert all(not d.warm for d in run.decisions)
        assert scheme.calls == 3

    def test_scheme_without_admm_seam_falls_back_cold(
        self, b4_pathset, b4_trace
    ):
        mats = b4_trace.matrices[:3]
        engine = StreamingEngine(
            b4_pathset, FixedTimeScheme(1.0), warm_start=True
        )
        run = engine.run(EventSchedule.from_trace(mats, 300.0))
        assert all(not d.warm for d in run.decisions)
        assert run.warm_fraction == 0.0

    @pytest.mark.parametrize("warm_iterations", [None, 3])
    def test_warm_decision_is_refine_of_previous(
        self, b4_pathset, b4_trace, warm_iterations
    ):
        """A warm decision is exactly the fine-tuner's acceptance rule
        applied to the previous interval's ratios."""
        scheme = WarmCapableScheme(b4_pathset)
        engine = StreamingEngine(
            b4_pathset, scheme, warm_iterations=warm_iterations
        )
        caps = b4_pathset.topology.capacities.copy()
        caps[[0, 1]] = 0.0
        previous = scheme.allocate(
            b4_pathset, b4_pathset.demand_volumes(b4_trace[0].values)
        ).split_ratios
        demands = b4_pathset.demand_volumes(b4_trace[1].scaled(2.0).values)
        allocation, warm = engine._decide(demands, caps, previous)
        assert warm
        expected = scheme.admm.refine(
            scheme.objective, previous[None], demands[None], caps[None],
            iterations=warm_iterations,
        )[0]
        assert np.array_equal(allocation.split_ratios, expected)

    def test_result_summary_fields(self, b4_pathset, b4_trace):
        mats = b4_trace.matrices[:3]
        engine = StreamingEngine(
            b4_pathset, WarmCapableScheme(b4_pathset), warm_iterations=1
        )
        run = engine.run(EventSchedule.from_trace(mats, 300.0))
        summary = run.to_dict()
        assert summary["num_decisions"] == 3
        assert 0.0 <= summary["p50_latency"] <= summary["p99_latency"]
        assert len(summary["satisfied"]) == 3
        assert len(summary["latencies"]) == 3
        assert run.latency_percentile(0) <= run.p50_latency


class TestWarmStartQuality:
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_warm_keeps_cold_satisfied_demand(self, precision):
        """On trained Teal across a link failure, warm decisions lose at
        most 0.005 of the cold pipeline's mean satisfied demand."""
        from repro.config import TrainingConfig
        from repro.harness import build_scenario, trained_teal
        from repro.topology.failures import sample_link_failures

        scenario = build_scenario("B4", train=8, validation=2, test=4, seed=0)
        teal = trained_teal(
            scenario,
            config=TrainingConfig(steps=10, warm_start_steps=40, log_every=100),
            precision=precision,
        )
        schedule = EventSchedule.from_failure_case(
            scenario.split.test,
            failed_edges=tuple(sample_link_failures(scenario.topology, 1, seed=7)),
            failure_at=2,
        )
        warm, cold = (
            StreamingEngine(scenario.pathset, teal, warm_start=flag).run(
                schedule, capacities=scenario.capacities
            )
            for flag in (True, False)
        )
        assert warm.warm_fraction > 0.5  # the warm path really ran
        assert warm.mean_satisfied >= cold.mean_satisfied - 0.005


class TestRunStreamingSweep:
    def test_sweep_over_schedules_and_schemes(self, b4_trace):
        from repro.harness import build_scenario, run_streaming_sweep

        scenario = build_scenario("B4", train=4, validation=1, test=4)
        mats = scenario.split.test
        schemes = {
            "fixed": FixedTimeScheme(1.0),
            "warmable": WarmCapableScheme(scenario.pathset),
        }
        schedules = {
            0: EventSchedule.from_trace(mats, 300.0),
            1: EventSchedule.from_failure_case(
                mats,
                interval_seconds=300.0,
                failed_edges=(0, 1),
                failure_at=2,
            ),
        }
        results = run_streaming_sweep(
            scenario, schemes, schedules, warm_iterations=1
        )
        assert set(results) == {0, 1}
        for key in results:
            assert set(results[key]) == {"fixed", "warmable"}
            for run in results[key].values():
                assert len(run.intervals) == len(mats)
        assert results[1]["fixed"].event_counts["failure"] == 1
        assert results[0]["warmable"].warm_fraction > 0.5

    def test_empty_schedules(self):
        from repro.harness import build_scenario, run_streaming_sweep

        scenario = build_scenario("B4", train=4, validation=1, test=4)
        assert run_streaming_sweep(scenario, {}, {}) == {}


#: Directed edges of B4 (the property test draws edge ids below this).
B4_EDGES = b4(capacity=100.0).num_edges

#: One capacity event: ("fail" | "recover", edges) or ("recover_all", ()).
capacity_events = st.one_of(
    st.tuples(
        st.sampled_from(["fail", "recover"]),
        st.lists(
            st.integers(0, B4_EDGES - 1), min_size=1, max_size=4, unique=True
        ).map(tuple),
    ),
    st.just(("recover_all", ())),
)


class TestReplayModesProperty:
    """The per-decision cold engine and the batched sweep are one loop."""

    @pytest.fixture(scope="class")
    def scenario(self):
        from repro.harness import build_scenario

        return build_scenario("B4", train=4, validation=1, test=6)

    @settings(max_examples=30, deadline=None)
    @given(
        timeline=st.lists(
            st.lists(capacity_events, max_size=2), min_size=1, max_size=6
        ),
        compute_time=st.sampled_from([0.0, 450.0, 950.0]),
    )
    def test_cold_and_batched_replays_agree(
        self, scenario, timeline, compute_time
    ):
        from repro.harness import run_online_failure_sweep

        assert scenario.topology.num_edges == B4_EDGES
        nominal = scenario.capacities
        interval = 300.0
        events = []
        expected = []
        failed: set[int] = set()
        for t, capacity_events_at_t in enumerate(timeline):
            for kind, edges in capacity_events_at_t:
                if kind == "fail":
                    events.append(LinkFailure(time=t * interval, edges=edges))
                    failed |= set(edges)
                elif kind == "recover":
                    events.append(LinkRecovery(time=t * interval, edges=edges))
                    failed -= set(edges)
                else:
                    events.append(LinkRecovery(time=t * interval))
                    failed = set()
            events.append(
                TrafficUpdate(time=t * interval, matrix=scenario.split.test[t])
            )
            row = nominal.copy()
            row[sorted(failed)] = 0.0
            expected.append(row)
        schedule = EventSchedule(events=tuple(events), interval_seconds=interval)

        stack = schedule.capacity_stack(nominal)
        assert np.array_equal(stack, np.array(expected))

        cold_scheme = TimedRecordingScheme(compute_time)
        cold = StreamingEngine(
            scenario.pathset, cold_scheme, warm_start=False
        ).run(schedule, nominal)
        batched_scheme = TimedRecordingScheme(compute_time)
        batched = run_online_failure_sweep(
            scenario, {"s": batched_scheme}, {0: schedule}
        )[0]["s"]

        assert np.array_equal(cold.satisfied_series(), batched.satisfied_series())
        assert [r.allocation_age for r in cold.intervals] == [
            r.allocation_age for r in batched.intervals
        ]
        assert [r.compute_time for r in cold.intervals] == [
            r.compute_time for r in batched.intervals
        ]
        for seen in (cold_scheme.seen_capacities, batched_scheme.seen_capacities):
            assert len(seen) == len(timeline)
            for t, capacities in enumerate(seen):
                assert np.array_equal(capacities, stack[t])
