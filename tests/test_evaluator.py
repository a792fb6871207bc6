"""Tests for feasible-flow evaluation (the satisfied-demand semantics)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.paths import PathSet
from repro.simulation import Allocation, evaluate_allocation


@pytest.fixture(scope="module")
def diamond_pathset():
    from repro.topology import Topology

    edges = [
        (0, 1), (1, 3), (0, 2), (2, 3), (0, 3),
        (1, 0), (3, 1), (2, 0), (3, 2), (3, 0),
    ]
    topo = Topology(4, edges, capacities=10.0, name="diamond")
    return PathSet.from_topology(topo, pairs=[(0, 3)])


class TestAllocation:
    def test_clipped_normalizes_oversum(self):
        alloc = Allocation(np.array([[0.8, 0.8, 0.0, 0.0]]))
        clipped = alloc.clipped()
        assert clipped.split_ratios.sum() == pytest.approx(1.0)

    def test_clipped_keeps_undersum(self):
        alloc = Allocation(np.array([[0.3, 0.2, 0.0, 0.0]]))
        clipped = alloc.clipped()
        assert np.allclose(clipped.split_ratios, [[0.3, 0.2, 0.0, 0.0]])

    def test_clipped_removes_negatives(self):
        alloc = Allocation(np.array([[-0.5, 0.5, 0.0, 0.0]]))
        assert clipped_min(alloc) >= 0.0


def clipped_min(alloc: Allocation) -> float:
    return float(alloc.clipped().split_ratios.min())


class TestEvaluateAllocation:
    def test_feasible_allocation_delivered_fully(self, diamond_pathset):
        demands = np.array([5.0])
        ratios = np.zeros((1, 4))
        ratios[0, 0] = 1.0  # direct edge 0->3, capacity 10
        report = evaluate_allocation(diamond_pathset, ratios, demands)
        assert report.satisfied_fraction == pytest.approx(1.0)
        assert report.max_link_utilization <= 1.0 + 1e-9

    def test_overload_scaled_back(self, diamond_pathset):
        demands = np.array([30.0])  # direct path capacity is 10
        ratios = np.zeros((1, 4))
        ratios[0, 0] = 1.0
        report = evaluate_allocation(diamond_pathset, ratios, demands)
        # 30 units on a 10-capacity path -> 1/3 delivered.
        assert report.delivered_total == pytest.approx(10.0)
        assert report.satisfied_fraction == pytest.approx(1 / 3)

    def test_multipath_uses_capacity(self, diamond_pathset):
        demands = np.array([30.0])
        ratios = np.full((1, 4), 0.25) * diamond_pathset.path_mask[0]
        report = evaluate_allocation(diamond_pathset, ratios, demands)
        # Spreading over 3+ disjoint-ish paths delivers more than one path.
        assert report.delivered_total > 10.0

    def test_zero_capacity_link_drops_flow(self, diamond_pathset):
        demands = np.array([5.0])
        ratios = np.zeros((1, 4))
        ratios[0, 0] = 1.0
        caps = diamond_pathset.topology.capacities.copy()
        direct = diamond_pathset.topology.edge_id(0, 3)
        caps[direct] = 0.0
        report = evaluate_allocation(diamond_pathset, ratios, demands, caps)
        assert report.delivered_total == pytest.approx(0.0)

    def test_zero_demand(self, diamond_pathset):
        report = evaluate_allocation(
            diamond_pathset, np.zeros((1, 4)), np.zeros(1)
        )
        assert report.satisfied_fraction == 0.0
        assert report.delivered_total == 0.0

    def test_satisfied_fraction_never_exceeds_one(self, diamond_pathset):
        """Rounded per-path flows of a fully routed demand can sum past the
        demand itself; the satisfied fraction must still stay in [0, 1]."""
        valid = diamond_pathset.path_mask[0]
        rng = np.random.default_rng(0)
        for _ in range(1000):
            demand = rng.uniform(0.1, 3.0)
            ratios = np.zeros((1, 4))
            head = rng.uniform(0.0, 0.5, size=int(valid.sum()) - 1)
            ratios[0, np.flatnonzero(valid)] = [*head, 1.0 - head.sum()]
            if ratios.sum() != 1.0:
                continue
            report = evaluate_allocation(diamond_pathset, ratios, [demand])
            if report.delivered_total > demand:
                break
        else:
            pytest.fail("no overshooting split found")
        assert 0.0 <= report.satisfied_fraction <= 1.0

    def test_shape_validation(self, diamond_pathset):
        with pytest.raises(SimulationError):
            evaluate_allocation(diamond_pathset, np.zeros((1, 4)), np.zeros(2))
        with pytest.raises(SimulationError):
            evaluate_allocation(
                diamond_pathset, np.zeros((1, 4)), np.zeros(1), np.ones(3)
            )


class TestCapacityInvariant:
    """Property: delivered loads never exceed capacity (paper's semantics)."""

    @given(
        ratios=st.lists(
            st.lists(st.floats(0, 1), min_size=4, max_size=4),
            min_size=1,
            max_size=1,
        ),
        demand=st.floats(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_exceeds_capacity(self, diamond_pathset, ratios, demand):
        report = evaluate_allocation(
            diamond_pathset, np.array(ratios), np.array([demand])
        )
        caps = diamond_pathset.topology.capacities
        assert np.all(report.edge_loads <= caps * (1 + 1e-9) + 1e-9)

    @given(demand=st.floats(0.1, 1000))
    @settings(max_examples=30, deadline=None)
    def test_delivered_bounded_by_demand(self, diamond_pathset, demand):
        ratios = np.full((1, 4), 0.25)
        report = evaluate_allocation(
            diamond_pathset, ratios, np.array([demand])
        )
        assert report.delivered_total <= demand * (1 + 1e-9)

    @given(
        scale=st.floats(0.1, 3.0),
        demand=st.floats(1.0, 100.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_capacity(self, diamond_pathset, scale, demand):
        """More capacity never delivers less traffic."""
        ratios = np.full((1, 4), 0.25)
        base = evaluate_allocation(diamond_pathset, ratios, np.array([demand]))
        more = evaluate_allocation(
            diamond_pathset,
            ratios,
            np.array([demand]),
            diamond_pathset.topology.capacities * (1 + scale),
        )
        assert more.delivered_total >= base.delivered_total - 1e-9


class TestDegenerateInputs:
    """Every scheme on B4 gets a defined, NaN-free answer on degenerate
    inputs; utilizations are inf exactly where load meets a dead link."""

    @pytest.fixture(scope="class")
    def scenario(self):
        from repro.harness import build_scenario

        return build_scenario("B4", train=4, validation=1, test=2, seed=0)

    @pytest.mark.parametrize(
        "scheme_name", ["LP-all", "LP-top", "NCFlow", "POP", "Teal"]
    )
    @pytest.mark.parametrize(
        "case", ["zero_demands", "zero_capacities", "half_links_down"]
    )
    def test_defined_answer(self, scenario, scheme_name, case):
        from repro.core import TealScheme
        from repro.harness import make_baselines

        pathset = scenario.pathset
        demands = scenario.demands(scenario.split.test[0])
        caps = scenario.capacities.copy()
        if case == "zero_demands":
            demands = np.zeros_like(demands)
        elif case == "zero_capacities":
            caps[:] = 0.0
        else:
            caps[::2] = 0.0
        if scheme_name == "Teal":
            scheme = TealScheme(pathset, seed=0)
        else:
            scheme = make_baselines(scenario, include=(scheme_name,))[scheme_name]
        allocation = scheme.allocate(pathset, demands, caps)
        report = evaluate_allocation(pathset, allocation.split_ratios, demands, caps)

        assert np.isfinite(report.satisfied_fraction)
        assert 0.0 <= report.satisfied_fraction <= 1.0
        if case == "zero_demands":
            assert report.satisfied_fraction == 0.0
        dead = caps == 0
        requested = pathset.edge_loads(report.intended_path_flows)[dead]
        assert not np.isnan(report.intended_mlu)
        assert np.isinf(report.intended_mlu) == bool(np.any(requested > 0))
        assert not np.isnan(report.max_link_utilization)
        assert np.isinf(report.max_link_utilization) == bool(
            np.any(report.edge_loads[dead] > 1e-9)
        )
        # Reconciliation drops every path crossing a dead link.
        assert np.all(report.edge_loads[dead] == 0.0)
