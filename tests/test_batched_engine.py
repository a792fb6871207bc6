"""Equivalence tests for the batched multi-matrix inference engine.

Every batched path must reproduce its per-TM counterpart to tight
tolerance: the evaluator, the FlowGNN forward, Teal's allocate, and the
online replay. A fixed-seed B4 scenario anchors the end-to-end check.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TealScheme
from repro.core.model import TealModel
from repro.simulation import (
    Allocation,
    EventSchedule,
    OnlineSimulator,
    StreamingEngine,
    evaluate_allocation,
    evaluate_allocations_batch,
)

TOL = 1e-8


class DeterministicScheme:
    """Demand-aware allocation with a fixed compute time (no timing noise).

    Deterministic by construction, so the batched replay and the cold
    engine must agree exactly — including staleness decisions.
    """

    name = "deterministic"

    def __init__(self, compute_time: float = 0.0) -> None:
        self.compute_time = compute_time

    def allocate(self, pathset, demands, capacities=None):
        weights = (1.0 + np.arange(pathset.max_paths))[None, :] * (
            1.0 + demands[:, None] / (1.0 + demands.max())
        )
        weights = weights * pathset.path_mask
        ratios = weights / np.maximum(weights.sum(axis=1, keepdims=True), 1e-12)
        return Allocation(
            split_ratios=ratios, compute_time=self.compute_time, scheme=self.name
        )


@pytest.fixture(scope="module")
def ratio_stack(b4_pathset):
    rng = np.random.default_rng(123)
    T = 7
    ratios = rng.random((T, b4_pathset.num_demands, b4_pathset.max_paths))
    demands = 50.0 * rng.random((T, b4_pathset.num_demands))
    return ratios, demands


class TestBatchedEvaluator:
    def test_matches_looped_evaluation(self, b4_pathset, ratio_stack):
        ratios, demands = ratio_stack
        batch = evaluate_allocations_batch(b4_pathset, ratios, demands)
        for t in range(len(batch)):
            single = evaluate_allocation(b4_pathset, ratios[t], demands[t])
            assert batch.satisfied_fraction[t] == pytest.approx(
                single.satisfied_fraction, abs=TOL
            )
            assert batch.delivered_total[t] == pytest.approx(
                single.delivered_total, abs=TOL
            )
            assert np.allclose(
                batch.delivered_path_flows[t], single.delivered_path_flows, atol=TOL
            )
            assert np.allclose(batch.edge_loads[t], single.edge_loads, atol=TOL)
            assert batch.max_link_utilization[t] == pytest.approx(
                single.max_link_utilization, abs=TOL
            )
            assert batch.intended_mlu[t] == pytest.approx(
                single.intended_mlu, abs=TOL
            )

    def test_per_matrix_capacities(self, b4_pathset, ratio_stack):
        ratios, demands = ratio_stack
        rng = np.random.default_rng(7)
        caps = b4_pathset.topology.capacities * (
            0.5 + rng.random((ratios.shape[0], b4_pathset.topology.num_edges))
        )
        batch = evaluate_allocations_batch(b4_pathset, ratios, demands, caps)
        for t in range(len(batch)):
            single = evaluate_allocation(b4_pathset, ratios[t], demands[t], caps[t])
            assert batch.satisfied_fraction[t] == pytest.approx(
                single.satisfied_fraction, abs=TOL
            )

    def test_zero_capacity_links(self, b4_pathset, ratio_stack):
        ratios, demands = ratio_stack
        caps = b4_pathset.topology.capacities.copy()
        caps[:5] = 0.0
        batch = evaluate_allocations_batch(b4_pathset, ratios, demands, caps)
        for t in range(len(batch)):
            single = evaluate_allocation(b4_pathset, ratios[t], demands[t], caps)
            assert batch.satisfied_fraction[t] == pytest.approx(
                single.satisfied_fraction, abs=TOL
            )
        # Random ratios request load on the dead links: the intended MLU
        # is inf, while reconciliation drops that flow, so the delivered
        # MLU stays finite.
        requested = b4_pathset.edge_loads_batch(batch.intended_path_flows)[:, :5]
        assert np.all(requested.max(axis=1) > 0)
        assert np.all(np.isinf(batch.intended_mlu))
        assert np.all(batch.edge_loads[:, :5] == 0.0)
        assert np.all(np.isfinite(batch.max_link_utilization))

    def test_zero_demand_rows(self, b4_pathset):
        ratios = np.full((2, b4_pathset.num_demands, b4_pathset.max_paths), 0.25)
        demands = np.zeros((2, b4_pathset.num_demands))
        demands[1, 0] = 10.0
        batch = evaluate_allocations_batch(b4_pathset, ratios, demands)
        assert batch.satisfied_fraction[0] == 0.0
        assert batch.delivered_total[0] == 0.0
        assert batch.satisfied_fraction[1] > 0.0

    def test_empty_batch(self, b4_pathset):
        batch = evaluate_allocations_batch(
            b4_pathset,
            np.zeros((0, b4_pathset.num_demands, b4_pathset.max_paths)),
            np.zeros((0, b4_pathset.num_demands)),
        )
        assert len(batch) == 0
        assert batch.satisfied_fraction.shape == (0,)
        assert batch.reports() == []

    def test_report_roundtrip(self, b4_pathset, ratio_stack):
        ratios, demands = ratio_stack
        batch = evaluate_allocations_batch(b4_pathset, ratios, demands)
        reports = batch.reports()
        assert len(reports) == len(batch)
        assert reports[0].satisfied_fraction == pytest.approx(
            float(batch.satisfied_fraction[0])
        )


class TestBatchedPathSetAlgebra:
    def test_split_ratios_to_path_flows_batch(self, b4_pathset, ratio_stack):
        ratios, demands = ratio_stack
        flows = b4_pathset.split_ratios_to_path_flows_batch(ratios, demands)
        for t in range(ratios.shape[0]):
            assert np.allclose(
                flows[t],
                b4_pathset.split_ratios_to_path_flows(ratios[t], demands[t]),
                atol=TOL,
            )

    def test_edge_loads_batch(self, b4_pathset):
        rng = np.random.default_rng(5)
        flows = rng.random((4, b4_pathset.num_paths))
        loads = b4_pathset.edge_loads_batch(flows)
        for t in range(4):
            assert np.allclose(loads[t], b4_pathset.edge_loads(flows[t]), atol=TOL)

    def test_demand_volumes_batch(self, b4_pathset, b4_trace):
        stack = np.stack([m.values for m in b4_trace.matrices[:4]])
        batched = b4_pathset.demand_volumes_batch(stack)
        for t in range(4):
            assert np.allclose(
                batched[t], b4_pathset.demand_volumes(stack[t]), atol=TOL
            )


class TestBatchedModelForward:
    def test_split_ratios_batch_matches_loop(self, b4_pathset, b4_trace):
        model = TealModel(b4_pathset, seed=3)
        demands = np.stack(
            [b4_pathset.demand_volumes(m.values) for m in b4_trace.matrices[:5]]
        )
        caps = b4_pathset.topology.capacities
        batched = model.split_ratios_batch(demands, caps)
        looped = np.stack(
            [model.split_ratios(demands[t], caps) for t in range(5)]
        )
        assert np.allclose(batched, looped, atol=TOL)

    def test_flowgnn_forward_batch_matches_loop(self, b4_pathset, b4_trace):
        model = TealModel(b4_pathset, seed=3)
        demands = np.stack(
            [b4_pathset.demand_volumes(m.values) for m in b4_trace.matrices[:3]]
        )
        rng = np.random.default_rng(17)
        caps = b4_pathset.topology.capacities * (
            0.5 + rng.random((3, b4_pathset.topology.num_edges))
        )
        batched = model.flow_gnn.forward_batch(demands, caps).numpy()
        for t in range(3):
            looped = model.flow_gnn(demands[t], caps[t]).numpy()
            assert np.allclose(batched[t], looped, atol=TOL)

    def test_teal_allocate_batch_matches_loop(self, b4_pathset, b4_trace):
        teal = TealScheme(b4_pathset, seed=5)
        demands = np.stack(
            [b4_pathset.demand_volumes(m.values) for m in b4_trace.matrices[:4]]
        )
        batched = teal.allocate_batch(b4_pathset, demands)
        assert len(batched) == 4
        for t, allocation in enumerate(batched):
            single = teal.allocate(b4_pathset, demands[t])
            assert np.allclose(
                allocation.split_ratios, single.split_ratios, atol=TOL
            )

    def test_allocate_batch_empty(self, b4_pathset):
        teal = TealScheme(b4_pathset, seed=5)
        assert teal.allocate_batch(
            b4_pathset, np.zeros((0, b4_pathset.num_demands))
        ) == []


class TestOnlineReplayEquivalence:
    """The batched replay (every decision up front) must match the
    per-decision cold engine interval for interval."""

    @staticmethod
    def _cold(pathset, scheme, matrices, **failure):
        schedule = EventSchedule.from_failure_case(matrices, 300.0, **failure)
        engine = StreamingEngine(pathset, scheme, warm_start=False)
        return engine.run(schedule)

    @pytest.mark.parametrize("compute_time", [0.0, 450.0, 950.0])
    def test_deterministic_scheme(self, b4_pathset, b4_trace, compute_time):
        sim = OnlineSimulator(b4_pathset, interval_seconds=300.0)
        scheme = DeterministicScheme(compute_time)
        matrices = b4_trace.matrices[:8]
        cold = self._cold(b4_pathset, scheme, matrices)
        batched = sim.run(scheme, matrices)
        assert np.array_equal(cold.satisfied_series(), batched.satisfied_series())
        for before, after in zip(cold.intervals, batched.intervals):
            assert after.allocation_age == before.allocation_age
            assert after.stale == before.stale
            assert after.compute_time == before.compute_time

    def test_with_failure_injection(self, b4_pathset, b4_trace):
        failure = {"failure_at": 3, "failed_edges": tuple(range(8))}
        sim = OnlineSimulator(b4_pathset, interval_seconds=300.0)
        scheme = DeterministicScheme(400.0)
        matrices = b4_trace.matrices[:8]
        cold = self._cold(b4_pathset, scheme, matrices, **failure)
        batched = sim.run(scheme, matrices, **failure)
        assert np.array_equal(cold.satisfied_series(), batched.satisfied_series())

    def test_teal_scheme_replay(self, b4_pathset, b4_trace):
        """Fixed-seed B4 + Teal: batched replay equals the cold engine.

        A huge interval keeps every allocation fresh, so timing noise in
        measured compute times cannot flip staleness decisions and the
        series must agree to float tolerance.
        """
        teal = TealScheme(b4_pathset, seed=11, use_admm=False)
        matrices = b4_trace.matrices[:6]
        engine = StreamingEngine(b4_pathset, teal, warm_start=False)
        cold = engine.run(EventSchedule.from_trace(matrices, 1e9))
        batched = OnlineSimulator(b4_pathset, interval_seconds=1e9).run(
            teal, matrices
        )
        assert np.allclose(
            cold.satisfied_series(), batched.satisfied_series(), atol=TOL
        )
        assert batched.stale_fraction == cold.stale_fraction == 0.0

    def test_duck_typed_scheme_without_allocate_batch(self, b4_pathset, b4_trace):
        """Schemes exposing only ``allocate`` still work in batched mode."""
        sim = OnlineSimulator(b4_pathset, interval_seconds=300.0)
        result = sim.run(DeterministicScheme(1.0), b4_trace.matrices[:3])
        assert len(result.intervals) == 3
        assert result.stale_fraction == 0.0


class TestPaddedPathsetBatch:
    """Demands with fewer than k paths (padding slots) through the batch."""

    @pytest.fixture(scope="class")
    def padded_pathset(self):
        from repro.paths import PathSet
        from repro.topology import Topology

        edges = [
            (0, 1), (1, 3), (0, 2), (2, 3), (0, 3),
            (1, 0), (3, 1), (2, 0), (3, 2), (3, 0),
        ]
        topo = Topology(4, edges, capacities=10.0, name="diamond")
        return PathSet.from_topology(topo, pairs=[(0, 3), (1, 2)])

    def test_model_batch_with_padding(self, padded_pathset):
        assert not padded_pathset.path_mask.all()  # padding present
        model = TealModel(padded_pathset, seed=0)
        demands = np.array([[4.0, 2.0], [0.0, 0.0], [9.0, 1.0]])
        batched = model.split_ratios_batch(demands)
        looped = np.stack([model.split_ratios(d) for d in demands])
        assert np.allclose(batched, looped, atol=TOL)
        # Padding slots receive zero mass in every batch element.
        assert np.allclose(batched[:, ~padded_pathset.path_mask], 0.0)

    def test_evaluator_batch_with_padding(self, padded_pathset):
        ratios = np.full((3, padded_pathset.num_demands, padded_pathset.max_paths), 0.5)
        demands = np.array([[4.0, 2.0], [0.0, 0.0], [30.0, 30.0]])
        batch = evaluate_allocations_batch(padded_pathset, ratios, demands)
        for t in range(3):
            single = evaluate_allocation(padded_pathset, ratios[t], demands[t])
            assert batch.satisfied_fraction[t] == pytest.approx(
                single.satisfied_fraction, abs=TOL
            )
