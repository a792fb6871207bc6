"""Generators for the five evaluation topologies (Table 1).

The paper evaluates on B4, SWAN, UsCarrier, Kdl, and ASN. Only B4's graph
is public in full detail; SWAN is proprietary and UsCarrier/Kdl/ASN come
from datasets not shipped with this repository. Per the substitution
policy in :mod:`repro.harness`, we use *structure-matched synthetic
generators*:

- :func:`b4` returns the published 12-node, 38-directed-edge Google WAN.
- :func:`swan` synthesizes an O(100)-node inter-datacenter WAN.
- :func:`us_carrier` and :func:`kdl` synthesize sparse, high-diameter
  carrier backbones matched to Table 1 sizes and Table 3 statistics
  (diameter 35 / 58, average shortest-path length 12.1 / 22.7).
- :func:`asn` synthesizes interconnected star-shaped AS clusters with a
  small diameter (Table 3: diameter 8, average shortest path 3.2).

Every generator accepts a ``scale`` factor in ``(0, 1]`` that shrinks the
node/edge counts proportionally while preserving the structure class, so
the benchmark suite can sweep the paper's size ordering on CPU budgets.
All generators are deterministic given a seed.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import TopologyError
from .graph import Topology

#: Published B4 inter-datacenter links (19 bidirectional links, 12 sites),
#: adapted from the topology figure in the B4 paper [Jain et al., SIGCOMM'13].
_B4_LINKS: list[tuple[int, int]] = [
    (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 5), (3, 4), (3, 6),
    (4, 5), (4, 6), (5, 6), (5, 7), (6, 8), (7, 8), (7, 9), (8, 10),
    (9, 10), (9, 11), (10, 11),
]

#: Paper-reported sizes (Table 1) used as generator defaults. Directed edges.
PAPER_SIZES = {
    "B4": (12, 38),
    "SWAN": (100, 260),
    "UsCarrier": (158, 378),
    "Kdl": (754, 1790),
    "ASN": (1739, 8558),
}

#: Paper-reported structural statistics (Table 3) used by validation tests.
PAPER_STATS = {
    "B4": {"avg_shortest_path": 2.3, "diameter": 5},
    "UsCarrier": {"avg_shortest_path": 12.1, "diameter": 35},
    "Kdl": {"avg_shortest_path": 22.7, "diameter": 58},
    "ASN": {"avg_shortest_path": 3.2, "diameter": 8},
}


def _bidirectional(links: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Expand undirected links into both directed edges."""
    edges: list[tuple[int, int]] = []
    for u, v in links:
        edges.append((u, v))
        edges.append((v, u))
    return edges


def b4(capacity: float = 100.0) -> Topology:
    """The published 12-node Google B4 WAN (38 directed edges).

    Args:
        capacity: Uniform link capacity (the public dataset does not include
            capacities; §5.1 calibrates them — see :func:`provision_capacities`).
    """
    return Topology(
        num_nodes=12,
        edges=_bidirectional(_B4_LINKS),
        capacities=capacity,
        name="B4",
    )


def swan(num_nodes: int = 100, seed: int = 0, capacity: float = 100.0) -> Topology:
    """A synthetic SWAN-like inter-datacenter WAN with O(100) nodes.

    Microsoft's SWAN topology is proprietary; the paper reports only
    O(100) nodes and O(100) edges. We synthesize a connected sparse WAN:
    a random ring backbone (guaranteeing strong connectivity) plus random
    shortcut links until the directed edge count is ~2.6x the node count.

    Args:
        num_nodes: Number of datacenter sites.
        seed: RNG seed.
        capacity: Uniform link capacity before provisioning.
    """
    if num_nodes < 4:
        raise TopologyError("SWAN generator requires at least 4 nodes")
    rng = np.random.default_rng(seed)
    order = rng.permutation(num_nodes)
    links: set[tuple[int, int]] = set()

    def add(u: int, v: int) -> None:
        if u != v:
            links.add((min(u, v), max(u, v)))

    for i in range(num_nodes):
        add(int(order[i]), int(order[(i + 1) % num_nodes]))
    target_links = int(1.3 * num_nodes)
    while len(links) < target_links:
        u, v = rng.integers(0, num_nodes, size=2)
        add(int(u), int(v))
    return Topology(
        num_nodes=num_nodes,
        edges=_bidirectional(sorted(links)),
        capacities=capacity,
        name="SWAN",
    )


def _carrier_backbone(
    num_nodes: int,
    num_links: int,
    diameter_target: int,
    seed: int,
    name: str,
    capacity: float,
) -> Topology:
    """Synthesize a sparse, high-diameter carrier backbone.

    Construction: a backbone path of ``diameter_target`` hops (long-haul
    fiber route), remaining nodes attached as short chain branches
    (regional spurs), then short-range chords between nodes that are close
    along the backbone (parallel fiber) up to the link budget. Short-range
    chords barely reduce the diameter, so the result stays within the
    Table 3 band.
    """
    if diameter_target + 1 > num_nodes:
        raise TopologyError(
            f"{name}: diameter target {diameter_target} needs more than "
            f"{num_nodes} nodes"
        )
    rng = np.random.default_rng(seed)
    links: set[tuple[int, int]] = set()
    # position[i] = index along the backbone (branch nodes inherit the
    # position of their attachment point) — used to keep chords short-range.
    position = np.zeros(num_nodes, dtype=int)

    backbone = list(range(diameter_target + 1))
    for i in range(diameter_target):
        links.add((i, i + 1))
        position[i] = i
    position[diameter_target] = diameter_target

    max_branch_len = max(1, diameter_target // 8)
    next_node = diameter_target + 1
    while next_node < num_nodes:
        attach = int(rng.integers(0, len(backbone)))
        branch_len = int(rng.integers(1, max_branch_len + 1))
        prev = backbone[attach]
        for _ in range(branch_len):
            if next_node >= num_nodes:
                break
            links.add((min(prev, next_node), max(prev, next_node)))
            position[next_node] = position[prev]
            prev = next_node
            next_node += 1

    # Short-range chords: connect nodes within a small backbone window.
    window = max(2, diameter_target // 10)
    attempts = 0
    while len(links) < num_links and attempts < 50 * num_links:
        attempts += 1
        u = int(rng.integers(0, num_nodes))
        v = int(rng.integers(0, num_nodes))
        if u == v or abs(int(position[u]) - int(position[v])) > window:
            continue
        links.add((min(u, v), max(u, v)))
    return Topology(
        num_nodes=num_nodes,
        edges=_bidirectional(sorted(links)),
        capacities=capacity,
        name=name,
    )


def us_carrier(scale: float = 1.0, seed: int = 1, capacity: float = 100.0) -> Topology:
    """Synthetic UsCarrier-like backbone (Table 1: 158 nodes, 378 directed edges).

    Args:
        scale: Fraction of the paper's size to generate (``1.0`` = full size).
        seed: RNG seed.
        capacity: Uniform link capacity before provisioning.
    """
    num_nodes, num_directed = PAPER_SIZES["UsCarrier"]
    n = max(12, int(round(num_nodes * scale)))
    links = max(n, int(round(num_directed / 2 * scale)))
    diameter = max(6, int(round(35 * scale ** 0.5 if scale < 1 else 35)))
    diameter = min(diameter, n - 2)
    return _carrier_backbone(n, links, diameter, seed, "UsCarrier", capacity)


def kdl(scale: float = 1.0, seed: int = 2, capacity: float = 100.0) -> Topology:
    """Synthetic Kdl-like backbone (Table 1: 754 nodes, 1790 directed edges).

    Args:
        scale: Fraction of the paper's size to generate (``1.0`` = full size).
        seed: RNG seed.
        capacity: Uniform link capacity before provisioning.
    """
    num_nodes, num_directed = PAPER_SIZES["Kdl"]
    n = max(16, int(round(num_nodes * scale)))
    links = max(n, int(round(num_directed / 2 * scale)))
    diameter = max(8, int(round(58 * scale ** 0.5 if scale < 1 else 58)))
    diameter = min(diameter, n - 2)
    return _carrier_backbone(n, links, diameter, seed, "Kdl", capacity)


def asn(scale: float = 1.0, seed: int = 3, capacity: float = 100.0) -> Topology:
    """Synthetic ASN-like topology (Table 1: 1739 nodes, 8558 directed edges).

    The paper describes ASN as star-shaped AS clusters whose hubs are
    strongly interconnected (Appendix D), giving a small diameter (8) and
    short average paths (3.2) despite the node count. We synthesize:
    hub nodes forming a dense random hub graph, each hub carrying a star
    of leaf nodes, plus a few two-hop leaf chains to reach the paper's
    diameter.

    Args:
        scale: Fraction of the paper's size to generate (``1.0`` = full size).
        seed: RNG seed.
        capacity: Uniform link capacity before provisioning.
    """
    num_nodes, num_directed = PAPER_SIZES["ASN"]
    n = max(20, int(round(num_nodes * scale)))
    target_links = max(n, int(round(num_directed / 2 * scale)))
    rng = np.random.default_rng(seed)

    num_hubs = max(4, int(round(n / 12)))
    hubs = list(range(num_hubs))
    links: set[tuple[int, int]] = set()

    # Hub ring for guaranteed connectivity.
    for i in range(num_hubs):
        u, v = hubs[i], hubs[(i + 1) % num_hubs]
        links.add((min(u, v), max(u, v)))

    # Leaves: mostly direct spokes; a fraction form 2-hop chains so the
    # diameter reaches ~8 rather than ~6.
    next_node = num_hubs
    while next_node < n:
        hub = int(rng.integers(0, num_hubs))
        if rng.random() < 0.08 and next_node + 1 < n:
            links.add((min(hub, next_node), max(hub, next_node)))
            links.add((next_node, next_node + 1))
            next_node += 2
        else:
            links.add((min(hub, next_node), max(hub, next_node)))
            next_node += 1

    # Densify the hub graph with random hub-hub links up to the budget.
    attempts = 0
    while len(links) < target_links and attempts < 100 * target_links:
        attempts += 1
        u = int(rng.integers(0, num_hubs))
        v = int(rng.integers(0, num_hubs))
        if u != v:
            links.add((min(u, v), max(u, v)))
    return Topology(
        num_nodes=n,
        edges=_bidirectional(sorted(links)),
        capacities=capacity,
        name="ASN",
    )


#: Registry of generator callables keyed by paper topology name.
GENERATORS = {
    "B4": lambda scale=1.0, seed=0, capacity=100.0: b4(capacity=capacity),
    "SWAN": lambda scale=1.0, seed=0, capacity=100.0: swan(
        num_nodes=max(8, int(round(100 * scale))), seed=seed, capacity=capacity
    ),
    "UsCarrier": us_carrier,
    "Kdl": kdl,
    "ASN": asn,
}


def get_topology(
    name: str, scale: float = 1.0, seed: int | None = None, capacity: float = 100.0
) -> Topology:
    """Build one of the five evaluation topologies by name.

    Args:
        name: One of ``"B4"``, ``"SWAN"``, ``"UsCarrier"``, ``"Kdl"``, ``"ASN"``.
        scale: Structure-preserving size factor in ``(0, 1]``.
        seed: Optional RNG seed override.
        capacity: Uniform link capacity before provisioning.

    Raises:
        TopologyError: If the name is unknown or the scale is invalid.
    """
    if name not in GENERATORS:
        raise TopologyError(
            f"unknown topology {name!r}; expected one of {sorted(GENERATORS)}"
        )
    if not 0 < scale <= 1:
        raise TopologyError(f"scale must be in (0, 1], got {scale}")
    kwargs: dict = {"scale": scale, "capacity": capacity}
    if seed is not None:
        kwargs["seed"] = seed
    if name == "B4":
        kwargs.pop("scale")
        kwargs.pop("seed", None)
    return GENERATORS[name](**kwargs)


def provision_capacities(
    topology: Topology,
    shortest_path_loads: np.ndarray,
    headroom: float = 1.3,
    min_capacity_fraction: float = 0.05,
) -> Topology:
    """Set link capacities so a majority of demand is satisfiable (§5.1).

    The paper sets unspecified capacities "to ensure that the
    best-performing TE scheme satisfies a majority of traffic demand". We
    apply the standard provisioning heuristic: capacity = shortest-path
    load x headroom, floored at a fraction of the maximum load so no link
    is vanishingly small.

    Args:
        topology: The topology to provision.
        shortest_path_loads: Per-edge load when every demand is routed on
            its shortest path (see
            :meth:`repro.paths.pathset.PathSet.shortest_path_loads`).
        headroom: Multiplicative overprovisioning factor.
        min_capacity_fraction: Floor, as a fraction of the max per-edge load.

    Returns:
        A copy of ``topology`` with provisioned capacities.
    """
    loads = np.asarray(shortest_path_loads, dtype=float)
    if loads.shape != (topology.num_edges,):
        raise TopologyError(
            f"loads shape {loads.shape} does not match {topology.num_edges} edges"
        )
    if headroom <= 0:
        raise TopologyError("headroom must be positive")
    peak = float(loads.max()) if loads.size else 0.0
    floor = min_capacity_fraction * max(peak, 1.0)
    capacities = np.maximum(loads * headroom, floor)
    return topology.with_capacities(capacities)
