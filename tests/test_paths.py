"""Tests for k-shortest paths and PathSet incidence structures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import PathError
from repro.paths import (
    PathSet,
    ShortestPathOracle,
    all_ordered_pairs,
    k_shortest_paths_deviation,
    k_shortest_paths_yen,
    path_cost,
    sampled_pairs,
)
from repro.topology import Topology


class TestShortestPathOracle:
    def test_shortest_path_matches_bfs(self, b4_topology):
        oracle = ShortestPathOracle(b4_topology, weight="hops")
        path = oracle.path(0, 11)
        assert path is not None
        assert path[0] == 0 and path[-1] == 11
        # B4 diameter is 5 (Table 3); 0 -> 11 must be within it.
        assert len(path) - 1 <= 5

    def test_unreachable_returns_none(self):
        topo = Topology(3, [(0, 1)])  # 2 unreachable from 0
        oracle = ShortestPathOracle(topo)
        assert oracle.path(0, 2) is None

    def test_reverse_path_consistent(self, b4_topology):
        oracle = ShortestPathOracle(b4_topology)
        forward = oracle.path(2, 9)
        backward = oracle.reverse_path(2, 9)
        assert forward is not None and backward is not None
        assert path_cost(b4_topology, forward, oracle.weights) == pytest.approx(
            path_cost(b4_topology, backward, oracle.weights)
        )


class TestKShortestPaths:
    def test_paths_are_simple_and_sorted(self, b4_topology):
        oracle = ShortestPathOracle(b4_topology)
        paths = k_shortest_paths_deviation(oracle, 0, 11, 4)
        assert 1 <= len(paths) <= 4
        costs = [path_cost(b4_topology, p, oracle.weights) for p in paths]
        assert costs == sorted(costs)
        for p in paths:
            assert len(p) == len(set(p))
            assert p[0] == 0 and p[-1] == 11

    def test_paths_distinct(self, b4_topology):
        oracle = ShortestPathOracle(b4_topology)
        paths = k_shortest_paths_deviation(oracle, 1, 10, 4)
        assert len({tuple(p) for p in paths}) == len(paths)

    def test_first_path_is_shortest(self, b4_topology):
        """The deviation algorithm's first path must be the true shortest."""
        oracle = ShortestPathOracle(b4_topology)
        for s, t in [(0, 7), (3, 11), (5, 0)]:
            dev = k_shortest_paths_deviation(oracle, s, t, 4)
            yen = k_shortest_paths_yen(b4_topology, s, t, 1)
            dev_cost = path_cost(b4_topology, dev[0], oracle.weights)
            yen_cost = path_cost(b4_topology, yen[0], oracle.weights)
            assert dev_cost == pytest.approx(yen_cost)

    def test_deviation_close_to_yen(self, b4_topology):
        """Deviation path costs should track exact Yen within a small factor."""
        oracle = ShortestPathOracle(b4_topology)
        for s, t in [(0, 11), (2, 9)]:
            dev = k_shortest_paths_deviation(oracle, s, t, 4)
            yen = k_shortest_paths_yen(b4_topology, s, t, 4)
            dev_total = sum(path_cost(b4_topology, p, oracle.weights) for p in dev)
            yen_total = sum(path_cost(b4_topology, p, oracle.weights) for p in yen)
            assert dev_total <= yen_total * 1.5

    def test_same_source_destination_raises(self, b4_topology):
        oracle = ShortestPathOracle(b4_topology)
        with pytest.raises(PathError):
            k_shortest_paths_deviation(oracle, 3, 3, 4)
        with pytest.raises(PathError):
            k_shortest_paths_yen(b4_topology, 3, 3, 4)


class TestPairHelpers:
    def test_all_ordered_pairs(self):
        pairs = all_ordered_pairs(3)
        assert len(pairs) == 6
        assert (0, 0) not in pairs

    def test_sampled_pairs_deterministic(self):
        a = sampled_pairs(20, 50, seed=1)
        b = sampled_pairs(20, 50, seed=1)
        assert a == b
        assert len(a) == 50

    def test_sampled_pairs_no_truncation_needed(self):
        assert len(sampled_pairs(3, 100)) == 6


class TestPathSet:
    def test_from_topology_all_pairs(self, b4_pathset):
        assert b4_pathset.num_demands == 12 * 11
        assert b4_pathset.max_paths == 4
        # Every demand has at least one path on a connected graph.
        assert b4_pathset.path_mask[:, 0].all()

    def test_incidence_shape_and_content(self, b4_pathset):
        incidence = b4_pathset.edge_path_incidence
        assert incidence.shape == (38, b4_pathset.num_paths)
        # Column sums equal path hop counts.
        col_sums = np.asarray(incidence.sum(axis=0)).reshape(-1)
        assert np.array_equal(col_sums, b4_pathset.path_hop_counts)

    def test_split_ratio_roundtrip(self, b4_pathset):
        rng = np.random.default_rng(0)
        demands = rng.uniform(1, 10, b4_pathset.num_demands)
        ratios = rng.uniform(0, 1, (b4_pathset.num_demands, 4))
        ratios /= ratios.sum(axis=1, keepdims=True)
        ratios = ratios * b4_pathset.path_mask
        flows = b4_pathset.split_ratios_to_path_flows(ratios, demands)
        back = b4_pathset.path_flows_to_split_ratios(flows, demands)
        assert np.allclose(back, ratios)

    def test_split_ratio_shape_validation(self, b4_pathset):
        with pytest.raises(PathError):
            b4_pathset.split_ratios_to_path_flows(
                np.zeros((3, 4)), np.zeros(b4_pathset.num_demands)
            )

    def test_edge_loads_additive(self, b4_pathset):
        flows_a = np.ones(b4_pathset.num_paths)
        flows_b = 2 * np.ones(b4_pathset.num_paths)
        loads = b4_pathset.edge_loads(flows_a + flows_b)
        assert np.allclose(
            loads, b4_pathset.edge_loads(flows_a) + b4_pathset.edge_loads(flows_b)
        )

    def test_demand_volumes_extraction(self, b4_pathset, b4_trace):
        demands = b4_pathset.demand_volumes(b4_trace[0].values)
        s, t = b4_pathset.pairs[5]
        assert demands[5] == b4_trace[0].values[s, t]

    def test_demand_volumes_shape_check(self, b4_pathset):
        with pytest.raises(PathError):
            b4_pathset.demand_volumes(np.ones((3, 3)))

    def test_shortest_path_loads(self, b4_pathset, b4_trace):
        loads = b4_pathset.shortest_path_loads(b4_trace[0].values)
        assert loads.shape == (38,)
        # Total load >= total demand (each unit traverses >= 1 edge).
        assert loads.sum() >= b4_trace[0].total_demand() - 1e-6

    def test_paths_of_demand(self, b4_pathset):
        paths = b4_pathset.paths_of_demand(0)
        s, t = b4_pathset.pairs[0]
        assert all(p[0] == s and p[-1] == t for p in paths)
        with pytest.raises(PathError):
            b4_pathset.paths_of_demand(10**6)

    def test_explicit_pairs_subset(self, b4_topology):
        ps = PathSet.from_topology(b4_topology, pairs=[(0, 5), (3, 9)])
        assert ps.num_demands == 2
        assert ps.pairs == [(0, 5), (3, 9)]

    def test_rejects_bad_path(self, b4_topology):
        with pytest.raises(PathError):
            PathSet(b4_topology, [(0, 5)], [[[0, 1, 2]]])  # wrong endpoint

    def test_rejects_too_many_paths(self, b4_topology):
        ps = PathSet.from_topology(b4_topology, pairs=[(0, 1)], max_paths=1)
        assert ps.max_paths == 1
        with pytest.raises(PathError):
            PathSet(
                b4_topology, [(0, 1)], [[[0, 1], [0, 2, 1]]], max_paths=1
            )
