"""K-shortest-path computation for the path formulation of TE (§2, §5.1).

The paper precomputes 4 shortest paths between every node pair.
:class:`~repro.paths.pathset.PathSet` builds them with
:func:`k_shortest_paths_deviation`, a vectorized *one-deviation*
enumeration. After two all-sources Dijkstra sweeps (forward graph and
reversed graph, both via ``scipy.sparse.csgraph``), the shortest path
through any specific edge ``(u, v)`` costs
``dist(s, u) + w(u, v) + dist(v, t)``; ranking edges by this cost and
reconstructing yields k near-shortest, mutually distinct simple paths per
pair in O(E log E) per pair with numpy, which scales to the large
topologies.

:func:`k_shortest_paths_yen` (exact k-shortest *simple* paths via
``networkx.shortest_simple_paths``) is the reference the tests compare
the deviation enumeration against on small graphs.

Both return loop-free paths sorted by cost.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from ..exceptions import PathError
from ..topology.graph import Topology

_UNREACHABLE = np.inf


def _weight_matrix(topology: Topology, weights: np.ndarray) -> sp.csr_matrix:
    """Sparse (n, n) weight matrix from per-edge weights."""
    rows = np.array([u for u, _ in topology.edges], dtype=np.int64)
    cols = np.array([v for _, v in topology.edges], dtype=np.int64)
    return sp.csr_matrix(
        (weights, (rows, cols)), shape=(topology.num_nodes, topology.num_nodes)
    )


def edge_weights(topology: Topology, weight: str = "latency") -> np.ndarray:
    """Per-edge weights used for path ranking.

    Args:
        topology: The graph.
        weight: ``"latency"`` (default, matches the paper's shortest paths)
            or ``"hops"`` (unit weights).
    """
    if weight == "latency":
        return topology.latencies.astype(float)
    if weight == "hops":
        return np.ones(topology.num_edges, dtype=float)
    raise PathError(f"unknown weight {weight!r}; expected 'latency' or 'hops'")


class ShortestPathOracle:
    """All-pairs shortest-path distances and predecessors, forward and reverse.

    Built once per (topology, weight) and shared by all per-pair queries.
    """

    def __init__(self, topology: Topology, weight: str = "latency") -> None:
        self.topology = topology
        self.weights = edge_weights(topology, weight)
        matrix = _weight_matrix(topology, self.weights)
        self.dist, self.pred = dijkstra(
            matrix, directed=True, return_predecessors=True
        )
        self.rdist, self.rpred = dijkstra(
            matrix.T.tocsr(), directed=True, return_predecessors=True
        )

    def distance(self, s: int, t: int) -> float:
        """Shortest-path cost from ``s`` to ``t`` (inf if unreachable)."""
        return float(self.dist[s, t])

    def path(self, s: int, t: int) -> list[int] | None:
        """Shortest path from ``s`` to ``t`` as a node list, or None."""
        if s == t:
            return [s]
        if not np.isfinite(self.dist[s, t]):
            return None
        nodes = [t]
        node = t
        while node != s:
            node = int(self.pred[s, node])
            if node < 0:
                return None
            nodes.append(node)
        nodes.reverse()
        return nodes

    def reverse_path(self, v: int, t: int) -> list[int] | None:
        """Shortest path from ``v`` to ``t`` using the reverse-graph sweep."""
        if v == t:
            return [v]
        if not np.isfinite(self.rdist[t, v]):
            return None
        nodes = [v]
        node = v
        while node != t:
            node = int(self.rpred[t, node])
            if node < 0:
                return None
            nodes.append(node)
        return nodes


def _is_simple(path: list[int]) -> bool:
    return len(path) == len(set(path))


def k_shortest_paths_deviation(
    oracle: ShortestPathOracle,
    s: int,
    t: int,
    k: int,
    candidate_multiplier: int = 8,
) -> list[list[int]]:
    """Up to ``k`` distinct simple near-shortest paths via one-deviation.

    Args:
        oracle: Precomputed shortest-path oracle.
        s: Source node.
        t: Destination node.
        k: Maximum number of paths to return.
        candidate_multiplier: Number of edge candidates examined per
            returned path (higher = closer to exact k-shortest).

    Returns:
        Simple paths from ``s`` to ``t``, sorted by cost, possibly fewer
        than ``k`` if the graph does not contain enough distinct ones.
    """
    if s == t:
        raise PathError("source and destination must differ")
    topo = oracle.topology
    base = oracle.path(s, t)
    if base is None:
        return []
    results: list[list[int]] = [base]
    seen = {tuple(base)}
    if k <= 1:
        return results

    heads = np.array([u for u, _ in topo.edges])
    tails = np.array([v for _, v in topo.edges])
    costs = oracle.dist[s, heads] + oracle.weights + oracle.rdist[t, tails]
    order = np.argsort(costs, kind="stable")
    budget = candidate_multiplier * k
    for eid in order[: budget + topo.num_edges]:
        if len(results) >= k:
            break
        if not np.isfinite(costs[eid]):
            continue
        u, v = topo.endpoints(int(eid))
        prefix = oracle.path(s, u)
        suffix = oracle.reverse_path(v, t)
        if prefix is None or suffix is None:
            continue
        candidate = prefix + suffix
        if not _is_simple(candidate):
            continue
        key = tuple(candidate)
        if key in seen:
            continue
        seen.add(key)
        results.append(candidate)
    return results


def k_shortest_paths_yen(
    topology: Topology, s: int, t: int, k: int, weight: str = "latency"
) -> list[list[int]]:
    """Exact k-shortest simple paths via networkx (small graphs / tests)."""
    import networkx as nx

    if s == t:
        raise PathError("source and destination must differ")
    graph = topology.to_networkx()
    attr = "latency" if weight == "latency" else None
    try:
        generator = nx.shortest_simple_paths(graph, s, t, weight=attr)
        paths: list[list[int]] = []
        for path in generator:
            paths.append([int(n) for n in path])
            if len(paths) >= k:
                break
        return paths
    except nx.NetworkXNoPath:
        return []


def path_cost(topology: Topology, path: list[int], weights: np.ndarray) -> float:
    """Total weight of a node-list path.

    Raises:
        PathError: If a hop in the path is not an edge of the topology.
    """
    total = 0.0
    for u, v in zip(path[:-1], path[1:]):
        total += float(weights[topology.edge_id(u, v)])
    return total
