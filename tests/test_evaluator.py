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


class TestPathBottleneck:
    """The padded gather-max over ``PathSet.path_edge_index`` equals the
    zero-initialised scatter-max over the COO incidence bit for bit."""

    @pytest.mark.parametrize("failed", [False, True])
    def test_matches_scatter_max(self, b4_pathset, b4_trace, failed):
        from repro.simulation.evaluator import _path_max_utilization_batch

        pathset = b4_pathset
        demands = np.stack(
            [pathset.demand_volumes(m.values) for m in b4_trace[:4]]
        )
        rng = np.random.default_rng(5)
        ratios = (
            rng.dirichlet(np.ones(4), size=demands.shape) * pathset.path_mask
        )
        caps = np.tile(pathset.topology.capacities, (4, 1)) * rng.uniform(
            0.2, 1.0, (4, pathset.topology.num_edges)
        )
        if failed:
            caps[:, :6] = 0.0
        loads = pathset.edge_loads_batch(
            pathset.split_ratios_to_path_flows_batch(ratios, demands)
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            util = np.where(
                caps > 0, loads / caps, np.where(loads > 0, np.inf, 0.0)
            )
        assert np.isinf(util).any() == failed
        coo = pathset.edge_path_incidence.tocoo()
        scatter = np.zeros((pathset.num_paths, 4))
        np.maximum.at(scatter, coo.col, util.T[coo.row])
        # Two calls, two fresh arrays: the hop buffer is call-local.
        first = _path_max_utilization_batch(pathset, util)
        second = _path_max_utilization_batch(pathset, util)
        assert second is not first
        assert np.array_equal(first, scatter.T)
        assert np.array_equal(second, scatter.T)


class TestDegenerateInputs:
    """Every scheme on B4 gets a defined, NaN-free answer on degenerate
    inputs; utilizations are inf exactly where load meets a dead link."""

    @pytest.fixture(scope="class")
    def scenario(self):
        from repro.harness import build_scenario

        return build_scenario("B4", train=4, validation=1, test=2, seed=0)

    @pytest.mark.parametrize(
        "scheme_name",
        # Teal-float32 is the harness' deployment precision.
        ["LP-all", "LP-top", "NCFlow", "POP", "Teal", "Teal-float32"],
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
        elif scheme_name == "Teal-float32":
            scheme = TealScheme(pathset, seed=0, precision="float32")
        else:
            scheme = make_baselines(scenario, include=(scheme_name,))[scheme_name]
        allocation = scheme.allocate(pathset, demands, caps)
        report = evaluate_allocation(pathset, allocation.split_ratios, demands, caps)

        assert np.all(np.isfinite(allocation.split_ratios))
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


class TestRandomTopologyInvariants:
    """Invariants of untrained Teal (both precisions), LP-all and every
    baseline over random SWAN-like graphs, demand scales and dead links."""

    @given(
        num_nodes=st.integers(6, 15),
        seed=st.integers(0, 2**16),
        log_scale=st.floats(-1.0, 3.0),
        dead_links=st.integers(0, 2),
    )
    @settings(max_examples=20, deadline=None)
    def test_teal_and_lp_all_invariants(
        self, num_nodes, seed, log_scale, dead_links
    ):
        from repro.baselines.lp_all import LpAll
        from repro.core import TealScheme
        from repro.topology.failures import sample_link_failures
        from repro.topology.generators import swan
        from repro.traffic import TrafficTrace

        topology = swan(num_nodes=num_nodes, seed=seed)
        pathset = PathSet.from_topology(topology)
        matrix = TrafficTrace.generate(num_nodes, 1, seed=seed)[0]
        demands = pathset.demand_volumes(matrix.values) * 10.0**log_scale
        caps = topology.capacities.copy()
        caps[sample_link_failures(topology, dead_links, seed=seed)] = 0.0

        lp = LpAll().allocate(pathset, demands, caps)
        lp_satisfied = evaluate_allocation(
            pathset, lp.split_ratios, demands, caps
        ).satisfied_fraction
        for precision in ("float64", "float32"):
            teal = TealScheme(pathset, seed=0, precision=precision)
            ratios = teal.allocate(pathset, demands, caps).split_ratios
            assert ratios.dtype == precision
            eps = np.finfo(ratios.dtype).eps
            assert np.all(ratios.sum(axis=-1, dtype=np.float64) <= 1 + 2 * eps)
            satisfied = evaluate_allocation(
                pathset, ratios, demands, caps
            ).satisfied_fraction
            assert 0.0 <= satisfied <= 1.0
            assert lp_satisfied >= satisfied - 1e-6

    @staticmethod
    def _random_instance(num_nodes, seed, log_scale):
        from repro.topology.generators import swan
        from repro.traffic import TrafficTrace

        topology = swan(num_nodes=num_nodes, seed=seed)
        pathset = PathSet.from_topology(topology)
        matrix = TrafficTrace.generate(num_nodes, 1, seed=seed)[0]
        demands = pathset.demand_volumes(matrix.values) * 10.0**log_scale
        return topology, pathset, demands

    @given(
        num_nodes=st.integers(6, 15),
        seed=st.integers(0, 2**16),
        log_scale=st.floats(-1.0, 3.0),
        dead_links=st.integers(0, 2),
    )
    @settings(max_examples=20, deadline=None)
    def test_every_scheme_within_capacity_and_below_lp_all(
        self, num_nodes, seed, log_scale, dead_links
    ):
        """Delivered loads fit the capacities for every scheme, and LP-all
        satisfies at least as much demand as each of them."""
        from repro.baselines import (
            EqualSplit,
            LpAll,
            LpTop,
            NCFlow,
            Pop,
            ShortestPath,
            TeavarStar,
        )
        from repro.core import TealScheme
        from repro.topology.failures import sample_link_failures

        topology, pathset, demands = self._random_instance(
            num_nodes, seed, log_scale
        )
        caps = topology.capacities.copy()
        caps[sample_link_failures(topology, dead_links, seed=seed)] = 0.0

        def satisfied_and_loads(scheme):
            ratios = scheme.allocate(pathset, demands, caps).split_ratios
            report = evaluate_allocation(pathset, ratios, demands, caps)
            return report.satisfied_fraction, report.edge_loads

        lp_satisfied, lp_loads = satisfied_and_loads(LpAll())
        schemes = [
            LpTop(), NCFlow(), Pop(), TeavarStar(), ShortestPath(),
            EqualSplit(), TealScheme(pathset, seed=0),
        ]
        for scheme in [LpAll()] + schemes:
            satisfied, loads = satisfied_and_loads(scheme)
            assert np.all(loads <= caps * (1 + 1e-9) + 1e-9), scheme.name
            assert lp_satisfied >= satisfied - 1e-6, scheme.name

    @given(
        num_nodes=st.integers(6, 15),
        seed=st.integers(0, 2**16),
        log_scale=st.floats(-1.0, 3.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_lp_all_delivered_monotone_in_nested_failures(
        self, num_nodes, seed, log_scale
    ):
        """Failing more links (a superset) never raises LP-all's total."""
        from repro.baselines import LpAll
        from repro.topology.failures import physical_links

        topology, pathset, demands = self._random_instance(
            num_nodes, seed, log_scale
        )
        links = physical_links(topology)
        order = np.random.default_rng(seed).permutation(len(links))
        caps = topology.capacities.copy()
        previous = np.inf
        for count in range(min(4, len(links)) + 1):
            if count:
                u, v = links[order[count - 1]]
                for a, b in ((u, v), (v, u)):
                    if topology.has_edge(a, b):
                        caps[topology.edge_id(a, b)] = 0.0
            ratios = LpAll().allocate(pathset, demands, caps).split_ratios
            delivered = evaluate_allocation(
                pathset, ratios, demands, caps
            ).delivered_total
            assert delivered <= previous * (1 + 1e-6) + 1e-9
            previous = delivered


class TestRewardsMatchReports:
    """Flow-objective rewards come from the reconciliation core alone
    (no post-reconciliation loads), yet equal, bit for bit, the values a
    full :func:`evaluate_allocations_batch` report gives."""

    @given(
        num_nodes=st.integers(6, 15),
        seed=st.integers(0, 2**16),
        log_scale=st.floats(-1.0, 3.0),
        dead_links=st.integers(0, 2),
        rows=st.integers(1, 4),
    )
    @settings(max_examples=20, deadline=None)
    def test_flow_objectives_equal_report_values(
        self, num_nodes, seed, log_scale, dead_links, rows
    ):
        from repro.lp import DelayPenalizedFlowObjective, TotalFlowObjective
        from repro.simulation import evaluate_allocations_batch
        from repro.topology.failures import sample_link_failures

        topology, pathset, demands = (
            TestRandomTopologyInvariants._random_instance(
                num_nodes, seed, log_scale
            )
        )
        rng = np.random.default_rng(seed)
        demands = np.tile(demands, (rows, 1))
        # Zero demands: a random subset in every row, all of row 0.
        demands[:, rng.random(pathset.num_demands) < 0.2] = 0.0
        if rows > 1:
            demands[0] = 0.0
        caps = np.tile(topology.capacities, (rows, 1))
        caps[:, sample_link_failures(topology, dead_links, seed=seed)] = 0.0
        caps[-1, rng.integers(topology.num_edges, size=2)] = 0.0
        # Negative entries, and rows whose ratios sum above 1.
        ratios = rng.uniform(
            -0.2, 0.9, size=(rows, pathset.num_demands, pathset.max_paths)
        )
        ratios[:, ::2] *= 2.0

        report = evaluate_allocations_batch(pathset, ratios, demands, caps)
        total = TotalFlowObjective().evaluate_batch(
            pathset, ratios, demands, caps
        )
        assert total.dtype == report.delivered_total.dtype
        assert np.array_equal(total, report.delivered_total)

        delay = DelayPenalizedFlowObjective(beta=0.5)
        values = delay.path_values(pathset)
        expected = np.array(
            [row @ values for row in report.delivered_path_flows]
        )
        assert np.array_equal(
            delay.evaluate_batch(pathset, ratios, demands, caps), expected
        )
