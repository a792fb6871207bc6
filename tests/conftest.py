"""Shared fixtures: small, fast instances reused across the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.paths import PathSet
from repro.topology import Topology, b4, swan
from repro.traffic import TrafficTrace


@pytest.fixture(scope="session")
def b4_topology() -> Topology:
    """The published B4 topology with uniform capacity 100."""
    return b4(capacity=100.0)


@pytest.fixture(scope="session")
def b4_pathset(b4_topology) -> PathSet:
    """All-pairs 4-shortest-path set on B4."""
    return PathSet.from_topology(b4_topology)


@pytest.fixture(scope="session")
def b4_trace() -> TrafficTrace:
    """A short deterministic traffic trace sized for B4."""
    return TrafficTrace.generate(12, 12, seed=42)


@pytest.fixture(scope="session")
def b4_demands(b4_pathset, b4_trace) -> np.ndarray:
    """Demand vector of the first B4 trace matrix."""
    return b4_pathset.demand_volumes(b4_trace[0].values)


@pytest.fixture(scope="session")
def small_swan() -> Topology:
    """A 16-node SWAN-like topology for mid-size tests."""
    return swan(num_nodes=16, seed=3, capacity=80.0)


@pytest.fixture(scope="session")
def small_swan_pathset(small_swan) -> PathSet:
    """All-pairs path set on the 16-node SWAN."""
    return PathSet.from_topology(small_swan)


@pytest.fixture()
def diamond_topology() -> Topology:
    """A 4-node diamond: 0->1->3 and 0->2->3 plus direct 0->3.

    Handy for hand-computable flow allocations.
    """
    edges = [(0, 1), (1, 3), (0, 2), (2, 3), (0, 3), (1, 0), (3, 1), (2, 0), (3, 2), (3, 0)]
    return Topology(4, edges, capacities=10.0, name="diamond")


@pytest.fixture(scope="session")
def entry_payloads():
    """One payload per cache entry kind: (scenario, model, grid cell).

    The grid cell stands for a one-cell ``gridjob`` entry."""
    from pathlib import Path

    from repro.core import TealModel
    from repro.harness import build_scenario
    from repro.sweep import GridResult

    scenario = build_scenario(
        "B4", seed=0, max_pairs=20, train=2, validation=1, test=1
    )
    model = TealModel(scenario.pathset, seed=0)
    fixture = Path(__file__).parent / "fixtures" / "grid_mini_small.json"
    cell = GridResult.from_json(fixture).cells[0]
    return scenario, model, cell
