"""Directed WAN topology with link capacities and latencies.

The :class:`Topology` class is the foundational substrate of the library.
It stores a directed multigraph-free graph (at most one edge per ordered
node pair) with per-edge capacity and latency, backed by dense numpy
arrays for vectorized access and by an adjacency index for traversal.

Conventions
-----------
- Nodes are integers ``0..num_nodes-1``. Named sites can be attached via
  ``node_names`` but all algorithms operate on integer ids.
- Edges are *directed*. The paper reports directed edge counts
  (e.g. B4 has 12 nodes and 38 directed edges).
- Capacities are in arbitrary bandwidth units (the same units as traffic
  demands); latencies are in arbitrary time units (used by the
  latency-penalized objective of §5.5).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence

import networkx as nx
import numpy as np

from ..exceptions import TopologyError


def broadcast_capacities(capacities: np.ndarray, batch: int) -> np.ndarray:
    """Normalize an (E,) or (T, E) capacities argument to a (T, E) stack.

    The single implementation of the capacity-broadcast contract shared
    by every batched entry point (model forward, evaluator, ADMM,
    objectives, scheme base). A 1-D vector is broadcast read-only across
    the batch; a 2-D stack is passed through unchanged. A batch of one
    is a read-only ``capacities[None]`` view, which skips
    ``np.broadcast_to``'s per-call cost on the per-TM paths.
    """
    capacities = np.asarray(capacities, dtype=float)
    if capacities.ndim == 1:
        if batch == 1:
            row = capacities[None]
            row.flags.writeable = False
            return row
        capacities = np.broadcast_to(capacities, (batch, capacities.shape[0]))
    return capacities


class Topology:
    """A directed WAN graph with capacities and latencies.

    Args:
        num_nodes: Number of network sites.
        edges: Iterable of ``(src, dst)`` directed pairs.
        capacities: Per-edge capacity, aligned with ``edges``. A scalar
            applies the same capacity to every edge.
        latencies: Per-edge latency, aligned with ``edges``. Defaults to 1.0
            for every edge (hop-count latency).
        name: Human-readable topology name (e.g. ``"B4"``).
        node_names: Optional mapping from node id to site name.

    Raises:
        TopologyError: On duplicate edges, self-loops, out-of-range
            endpoints, or non-positive capacities.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[tuple[int, int]],
        capacities: float | Sequence[float] | np.ndarray = 1.0,
        latencies: float | Sequence[float] | np.ndarray | None = None,
        name: str = "topology",
        node_names: Mapping[int, str] | None = None,
    ) -> None:
        if num_nodes <= 0:
            raise TopologyError(f"num_nodes must be positive, got {num_nodes}")
        edge_list = [(int(u), int(v)) for u, v in edges]
        seen: set[tuple[int, int]] = set()
        for u, v in edge_list:
            if u == v:
                raise TopologyError(f"self-loop ({u}, {v}) is not allowed")
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise TopologyError(
                    f"edge ({u}, {v}) references a node outside 0..{num_nodes - 1}"
                )
            if (u, v) in seen:
                raise TopologyError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

        self.name = name
        self.num_nodes = num_nodes
        self._edges = edge_list
        self._edge_index = {edge: i for i, edge in enumerate(edge_list)}
        self.node_names = dict(node_names) if node_names else {}

        cap = np.asarray(capacities, dtype=float)
        if cap.ndim == 0:
            cap = np.full(len(edge_list), float(cap))
        if cap.shape != (len(edge_list),):
            raise TopologyError(
                f"capacities has shape {cap.shape}, expected ({len(edge_list)},)"
            )
        if np.any(cap < 0):
            raise TopologyError("capacities must be non-negative")
        self.capacities = cap.copy()

        if latencies is None:
            lat = np.ones(len(edge_list), dtype=float)
        else:
            lat = np.asarray(latencies, dtype=float)
            if lat.ndim == 0:
                lat = np.full(len(edge_list), float(lat))
            if lat.shape != (len(edge_list),):
                raise TopologyError(
                    f"latencies has shape {lat.shape}, expected ({len(edge_list)},)"
                )
            if np.any(lat <= 0):
                raise TopologyError("latencies must be positive")
        self.latencies = lat.copy()

        # Adjacency index: out_edges[u] is a list of (edge_id, v).
        self._out_edges: list[list[tuple[int, int]]] = [[] for _ in range(num_nodes)]
        self._in_edges: list[list[tuple[int, int]]] = [[] for _ in range(num_nodes)]
        for eid, (u, v) in enumerate(edge_list):
            self._out_edges[u].append((eid, v))
            self._in_edges[v].append((eid, u))

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return len(self._edges)

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Directed edge list in edge-id order (copy)."""
        return list(self._edges)

    def edge_id(self, src: int, dst: int) -> int:
        """Return the edge id for a directed ``(src, dst)`` pair.

        Raises:
            TopologyError: If the edge does not exist.
        """
        try:
            return self._edge_index[(src, dst)]
        except KeyError:
            raise TopologyError(f"edge ({src}, {dst}) does not exist") from None

    def has_edge(self, src: int, dst: int) -> bool:
        """Whether a directed edge ``(src, dst)`` exists."""
        return (src, dst) in self._edge_index

    def endpoints(self, edge_id: int) -> tuple[int, int]:
        """Return the ``(src, dst)`` endpoints of ``edge_id``."""
        return self._edges[edge_id]

    def out_edges(self, node: int) -> list[tuple[int, int]]:
        """Outgoing ``(edge_id, neighbor)`` pairs of ``node``."""
        return list(self._out_edges[node])

    def in_edges(self, node: int) -> list[tuple[int, int]]:
        """Incoming ``(edge_id, neighbor)`` pairs of ``node``."""
        return list(self._in_edges[node])

    def neighbors(self, node: int) -> Iterator[int]:
        """Iterate over out-neighbors of ``node``."""
        return (v for _, v in self._out_edges[node])

    def capacity(self, src: int, dst: int) -> float:
        """Capacity of the directed edge ``(src, dst)``."""
        return float(self.capacities[self.edge_id(src, dst)])

    def total_capacity(self) -> float:
        """Sum of all directed edge capacities."""
        return float(self.capacities.sum())

    # ------------------------------------------------------------------
    # Mutating copies
    # ------------------------------------------------------------------
    def with_capacities(self, capacities: np.ndarray) -> "Topology":
        """Return a copy of this topology with new per-edge capacities."""
        return Topology(
            self.num_nodes,
            self._edges,
            capacities=capacities,
            latencies=self.latencies,
            name=self.name,
            node_names=self.node_names,
        )

    def with_failed_edges(self, failed_edge_ids: Iterable[int]) -> "Topology":
        """Return a copy where the given edges have zero capacity.

        The paper models a link failure as a capacity drop to zero (§3.1,
        footnote 1), keeping the graph structure (and path sets) intact.
        """
        cap = self.capacities.copy()
        for eid in failed_edge_ids:
            if not (0 <= eid < self.num_edges):
                raise TopologyError(f"edge id {eid} out of range")
            cap[eid] = 0.0
        return self.with_capacities(cap)

    def scaled_capacities(self, factor: float) -> "Topology":
        """Return a copy with all capacities multiplied by ``factor``."""
        if factor < 0:
            raise TopologyError("capacity scale factor must be non-negative")
        return self.with_capacities(self.capacities * factor)

    # ------------------------------------------------------------------
    # Interop and dunder protocol
    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.DiGraph:
        """Export to a :class:`networkx.DiGraph` with capacity/latency attrs."""
        graph = nx.DiGraph()
        graph.add_nodes_from(range(self.num_nodes))
        for eid, (u, v) in enumerate(self._edges):
            graph.add_edge(
                u,
                v,
                capacity=float(self.capacities[eid]),
                latency=float(self.latencies[eid]),
                edge_id=eid,
            )
        return graph

    @classmethod
    def from_networkx(cls, graph: nx.DiGraph, name: str = "topology") -> "Topology":
        """Build a topology from a DiGraph with optional capacity/latency attrs.

        Nodes are relabeled to ``0..n-1`` in sorted order; original labels are
        preserved in ``node_names``.
        """
        nodes = sorted(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        edges = []
        caps = []
        lats = []
        for u, v, data in graph.edges(data=True):
            edges.append((index[u], index[v]))
            caps.append(float(data.get("capacity", 1.0)))
            lats.append(float(data.get("latency", 1.0)))
        return cls(
            len(nodes),
            edges,
            capacities=np.array(caps) if caps else 1.0,
            latencies=np.array(lats) if lats else None,
            name=name,
            node_names={i: str(node) for node, i in index.items()},
        )

    def is_strongly_connected(self) -> bool:
        """Whether every node can reach every other node."""
        return nx.is_strongly_connected(self.to_networkx())

    def __repr__(self) -> str:
        return (
            f"Topology(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and self._edges == other._edges
            and np.allclose(self.capacities, other.capacities)
            and np.allclose(self.latencies, other.latencies)
        )

    def __hash__(self) -> int:  # identity hashing; topologies are mutable-ish
        return id(self)
