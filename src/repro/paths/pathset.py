"""Path sets: the precomputed candidate paths of every demand (§2, Appendix A).

A :class:`PathSet` binds a topology to a list of demands (ordered node
pairs) and, for each demand, up to ``k`` candidate paths. It precomputes
the sparse incidence structures every downstream component needs:

- ``edge_path_incidence`` — (E, P) CSR 0/1 matrix; entry (e, p) = 1 iff
  edge ``e`` lies on path ``p``. Used by the LP builder, the feasible-flow
  evaluator, FlowGNN message passing, and ADMM.
- ``path_demand`` — (P,) map from path id to demand id.
- ``demand_path_ids`` — (D, k) grid of path ids, right-padded with -1 for
  demands that have fewer than ``k`` distinct paths (small or failed
  graphs). The padding mask flows through the model so softmax mass never
  lands on a nonexistent path.

Construction cost is dominated by the k-shortest-path sweep; the
``deviation`` algorithm (see :mod:`repro.paths.ksp`) keeps this tractable
on the large topologies.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import scipy.sparse as sp

from ..config import NUM_PATHS_PER_DEMAND
from ..exceptions import PathError
from ..topology.graph import Topology
from .ksp import (
    ShortestPathOracle,
    k_shortest_paths_deviation,
    k_shortest_paths_yen,
    path_cost,
)


def all_ordered_pairs(num_nodes: int) -> list[tuple[int, int]]:
    """Every ordered (src, dst) pair with distinct endpoints."""
    return [
        (s, t) for s in range(num_nodes) for t in range(num_nodes) if s != t
    ]


def sampled_pairs(
    num_nodes: int, max_pairs: int, seed: int = 0
) -> list[tuple[int, int]]:
    """A deterministic subsample of ordered pairs for large topologies.

    The paper evaluates all-pairs demands; on CPU budgets we subsample
    while preserving the all-pairs *distribution* (uniform over ordered
    pairs). Subsampling is part of the scaling policy in
    :mod:`repro.harness`.
    """
    pairs = all_ordered_pairs(num_nodes)
    if len(pairs) <= max_pairs:
        return pairs
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(pairs), size=max_pairs, replace=False)
    return [pairs[int(i)] for i in sorted(chosen)]


class PathSet:
    """Candidate paths for a demand set, with sparse incidence structures.

    Use :meth:`from_topology` to construct; the raw constructor accepts
    already-computed paths (e.g. from tests).

    Attributes:
        topology: The underlying graph.
        pairs: Ordered (src, dst) demand pairs, one per demand.
        num_demands: ``len(pairs)``.
        max_paths: Candidate-path budget ``k`` per demand.
        path_nodes: List of node-list paths (all demands concatenated).
        path_edge_ids: For each path, the numpy array of edge ids along it.
        path_demand: (P,) demand id of each path.
        demand_path_ids: (D, k) int array of path ids, -1 padded.
        path_mask: (D, k) bool array; True where a real path exists.
        edge_path_incidence: (E, P) CSR incidence matrix.
        path_hop_counts: (P,) number of edges on each path.
        path_latencies: (P,) total latency of each path.
    """

    def __init__(
        self,
        topology: Topology,
        pairs: Sequence[tuple[int, int]],
        paths_per_demand: Sequence[Sequence[list[int]]],
        max_paths: int = NUM_PATHS_PER_DEMAND,
    ) -> None:
        if len(pairs) != len(paths_per_demand):
            raise PathError("pairs and paths_per_demand must align")
        if max_paths < 1:
            raise PathError("max_paths must be at least 1")
        self.topology = topology
        self.pairs = [(int(s), int(t)) for s, t in pairs]
        self.max_paths = max_paths
        self.num_demands = len(self.pairs)

        self.path_nodes: list[list[int]] = []
        path_demand: list[int] = []
        demand_path_ids = np.full((self.num_demands, max_paths), -1, dtype=np.int64)

        for d, ((s, t), paths) in enumerate(zip(self.pairs, paths_per_demand)):
            if len(paths) > max_paths:
                raise PathError(
                    f"demand {d} has {len(paths)} paths, max is {max_paths}"
                )
            for slot, path in enumerate(paths):
                if len(path) < 2 or path[0] != s or path[-1] != t:
                    raise PathError(
                        f"path {path} does not connect demand {d} pair ({s}, {t})"
                    )
                demand_path_ids[d, slot] = len(self.path_nodes)
                self.path_nodes.append([int(n) for n in path])
                path_demand.append(d)

        self.path_demand = np.array(path_demand, dtype=np.int64)
        self.demand_path_ids = demand_path_ids
        self.path_mask = demand_path_ids >= 0
        self.num_paths = len(self.path_nodes)

        self.path_edge_ids: list[np.ndarray] = []
        rows: list[int] = []
        cols: list[int] = []
        for pid, nodes in enumerate(self.path_nodes):
            eids = np.array(
                [topology.edge_id(u, v) for u, v in zip(nodes[:-1], nodes[1:])],
                dtype=np.int64,
            )
            self.path_edge_ids.append(eids)
            rows.extend(int(e) for e in eids)
            cols.extend([pid] * len(eids))
        data = np.ones(len(rows), dtype=float)
        self.edge_path_incidence = sp.csr_matrix(
            (data, (rows, cols)), shape=(topology.num_edges, self.num_paths)
        )
        self.path_hop_counts = np.array(
            [len(e) for e in self.path_edge_ids], dtype=np.int64
        )
        self.path_latencies = np.array(
            [
                path_cost(topology, nodes, topology.latencies)
                for nodes in self.path_nodes
            ],
            dtype=float,
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_topology(
        cls,
        topology: Topology,
        pairs: Sequence[tuple[int, int]] | None = None,
        max_paths: int = NUM_PATHS_PER_DEMAND,
        algorithm: str = "deviation",
        weight: str = "latency",
        max_pairs: int | None = None,
        seed: int = 0,
    ) -> "PathSet":
        """Compute candidate paths for a demand set on ``topology``.

        Args:
            topology: The graph.
            pairs: Demand pairs; defaults to all ordered pairs (optionally
                subsampled via ``max_pairs``). Unreachable pairs are dropped.
            max_paths: Candidate paths per demand (paper: 4).
            algorithm: ``"deviation"`` (scalable default) or ``"yen"`` (exact).
            weight: Path-ranking weight (``"latency"`` or ``"hops"``).
            max_pairs: If set and ``pairs`` is None, subsample this many pairs.
            seed: Seed for pair subsampling.
        """
        if pairs is None:
            if max_pairs is not None:
                pairs = sampled_pairs(topology.num_nodes, max_pairs, seed)
            else:
                pairs = all_ordered_pairs(topology.num_nodes)
        if algorithm not in ("deviation", "yen"):
            raise PathError(f"unknown algorithm {algorithm!r}")

        oracle = ShortestPathOracle(topology, weight) if algorithm == "deviation" else None
        kept_pairs: list[tuple[int, int]] = []
        all_paths: list[list[list[int]]] = []
        for s, t in pairs:
            if algorithm == "deviation":
                paths = k_shortest_paths_deviation(oracle, s, t, max_paths)
            else:
                paths = k_shortest_paths_yen(topology, s, t, max_paths, weight)
            if paths:
                kept_pairs.append((s, t))
                all_paths.append(paths)
        if not kept_pairs:
            raise PathError("no reachable demand pairs on this topology")
        return cls(topology, kept_pairs, all_paths, max_paths=max_paths)

    # ------------------------------------------------------------------
    # Vectorized flow algebra
    # ------------------------------------------------------------------
    def demand_volumes(self, matrix: np.ndarray) -> np.ndarray:
        """Extract (D,) demand volumes from an (n, n) traffic matrix."""
        matrix = np.asarray(matrix, dtype=float)
        n = self.topology.num_nodes
        if matrix.shape != (n, n):
            raise PathError(
                f"traffic matrix shape {matrix.shape} does not match ({n}, {n})"
            )
        src = np.array([s for s, _ in self.pairs])
        dst = np.array([t for _, t in self.pairs])
        return matrix[src, dst]

    def demand_volumes_batch(self, matrices: np.ndarray) -> np.ndarray:
        """Extract (T, D) demand volumes from a (T, n, n) matrix stack."""
        matrices = np.asarray(matrices, dtype=float)
        n = self.topology.num_nodes
        if matrices.ndim != 3 or matrices.shape[1:] != (n, n):
            raise PathError(
                f"traffic matrix stack shape {matrices.shape} does not "
                f"match (T, {n}, {n})"
            )
        src = np.array([s for s, _ in self.pairs])
        dst = np.array([t for _, t in self.pairs])
        return matrices[:, src, dst]

    def split_ratios_to_path_flows(
        self, split_ratios: np.ndarray, demands: np.ndarray
    ) -> np.ndarray:
        """Convert (D, k) split ratios and (D,) volumes to (P,) path flows.

        Padding slots (no path) are ignored regardless of their ratio.
        """
        split_ratios = np.asarray(split_ratios, dtype=float)
        demands = np.asarray(demands, dtype=float)
        if split_ratios.shape != (self.num_demands, self.max_paths):
            raise PathError(
                f"split_ratios shape {split_ratios.shape} != "
                f"({self.num_demands}, {self.max_paths})"
            )
        flows = np.zeros(self.num_paths, dtype=float)
        valid = self.path_mask
        pids = self.demand_path_ids[valid]
        flows[pids] = (split_ratios * demands[:, None])[valid]
        return flows

    def split_ratios_to_path_flows_batch(
        self, split_ratios: np.ndarray, demands: np.ndarray
    ) -> np.ndarray:
        """Convert (T, D, k) ratios and (T, D) volumes to (T, P) flows.

        The batched analogue of :meth:`split_ratios_to_path_flows`; one
        fancy-index assignment covers the whole stack.
        """
        split_ratios = np.asarray(split_ratios, dtype=float)
        demands = np.asarray(demands, dtype=float)
        if (
            split_ratios.ndim != 3
            or split_ratios.shape[1:] != (self.num_demands, self.max_paths)
        ):
            raise PathError(
                f"split_ratios shape {split_ratios.shape} != "
                f"(T, {self.num_demands}, {self.max_paths})"
            )
        if demands.shape != split_ratios.shape[:2]:
            raise PathError(
                f"demands shape {demands.shape} does not match ratios batch"
            )
        flows = np.zeros((split_ratios.shape[0], self.num_paths), dtype=float)
        valid = self.path_mask
        pids = self.demand_path_ids[valid]
        flows[:, pids] = (split_ratios * demands[:, :, None])[:, valid]
        return flows

    def path_flows_to_split_ratios(
        self, path_flows: np.ndarray, demands: np.ndarray
    ) -> np.ndarray:
        """Inverse of :meth:`split_ratios_to_path_flows` (zero-demand safe)."""
        path_flows = np.asarray(path_flows, dtype=float)
        demands = np.asarray(demands, dtype=float)
        ratios = np.zeros((self.num_demands, self.max_paths), dtype=float)
        safe = np.where(demands > 0, demands, 1.0)
        valid = self.path_mask
        ratios[valid] = path_flows[self.demand_path_ids[valid]] / safe[
            self.path_demand[self.demand_path_ids[valid]]
        ]
        return ratios

    def edge_loads(self, path_flows: np.ndarray) -> np.ndarray:
        """Per-edge load (E,) induced by (P,) path flows."""
        return np.asarray(self.edge_path_incidence @ np.asarray(path_flows, float))

    def edge_loads_batch(self, path_flows: np.ndarray) -> np.ndarray:
        """Per-edge loads (T, E) induced by (T, P) path flows.

        One sparse product scores the entire stack.
        """
        path_flows = np.asarray(path_flows, dtype=float)
        if path_flows.ndim != 2 or path_flows.shape[1] != self.num_paths:
            raise PathError(
                f"path_flows shape {path_flows.shape} != (T, {self.num_paths})"
            )
        return np.asarray((self.edge_path_incidence @ path_flows.T).T)

    def shortest_path_loads(self, matrix: np.ndarray) -> np.ndarray:
        """Per-edge load when every demand rides its first (shortest) path.

        Used by capacity provisioning (§5.1 calibration).
        """
        demands = self.demand_volumes(matrix)
        ratios = np.zeros((self.num_demands, self.max_paths))
        ratios[:, 0] = 1.0
        flows = self.split_ratios_to_path_flows(ratios, demands)
        return self.edge_loads(flows)

    def paths_of_demand(self, demand_id: int) -> list[list[int]]:
        """Node-list candidate paths of one demand (no padding)."""
        if not 0 <= demand_id < self.num_demands:
            raise PathError(f"demand id {demand_id} out of range")
        return [
            self.path_nodes[pid]
            for pid in self.demand_path_ids[demand_id]
            if pid >= 0
        ]

    def __repr__(self) -> str:
        return (
            f"PathSet(topology={self.topology.name!r}, demands={self.num_demands}, "
            f"paths={self.num_paths}, k={self.max_paths})"
        )
