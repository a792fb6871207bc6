"""Tests for the five evaluation-topology generators (Tables 1 and 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import TopologyError
from repro.topology import (
    PAPER_SIZES,
    asn,
    average_shortest_path_length,
    b4,
    diameter,
    get_topology,
    kdl,
    provision_capacities,
    swan,
    topology_summary,
    us_carrier,
)


def test_b4_matches_table1():
    topo = b4()
    nodes, edges = PAPER_SIZES["B4"]
    assert topo.num_nodes == nodes
    assert topo.num_edges == edges


def test_b4_matches_table3_stats():
    topo = b4()
    # Table 3: avg shortest path 2.3, diameter 5.
    assert average_shortest_path_length(topo) == pytest.approx(2.3, abs=0.2)
    assert diameter(topo) == 5


def test_swan_size_and_connectivity():
    topo = swan(num_nodes=50, seed=1)
    assert topo.num_nodes == 50
    assert topo.is_strongly_connected()


def test_swan_requires_four_nodes():
    with pytest.raises(TopologyError):
        swan(num_nodes=3)


@pytest.mark.parametrize(
    "factory,name", [(us_carrier, "UsCarrier"), (kdl, "Kdl"), (asn, "ASN")]
)
def test_scaled_generators_connected(factory, name):
    topo = factory(scale=0.1)
    assert topo.name == name
    assert topo.is_strongly_connected()


def test_us_carrier_full_size_matches_table1():
    topo = us_carrier(scale=1.0)
    nodes, edges = PAPER_SIZES["UsCarrier"]
    assert topo.num_nodes == nodes
    assert abs(topo.num_edges - edges) / edges < 0.1


def test_us_carrier_full_size_structure_matches_table3():
    topo = us_carrier(scale=1.0)
    # Table 3: diameter 35, avg shortest path 12.1. The generator is
    # structure-matched, not an exact copy, so the test allows a band.
    assert 25 <= diameter(topo) <= 45
    assert 8.0 <= average_shortest_path_length(topo) <= 17.0


def test_asn_small_diameter_structure():
    topo = asn(scale=0.15)
    # ASN's defining property: large node count, tiny diameter (Table 3).
    assert diameter(topo) <= 10
    assert average_shortest_path_length(topo) <= 6.0


def test_kdl_scaled_is_sparser_and_deeper_than_asn():
    k = kdl(scale=0.08)
    a = asn(scale=0.08)
    assert diameter(k) > diameter(a)


def test_get_topology_dispatch():
    topo = get_topology("SWAN", scale=0.2)
    assert topo.name == "SWAN"
    assert topo.num_nodes == 20


def test_get_topology_unknown_name():
    with pytest.raises(TopologyError):
        get_topology("NotATopology")


def test_get_topology_invalid_scale():
    with pytest.raises(TopologyError):
        get_topology("SWAN", scale=0.0)
    with pytest.raises(TopologyError):
        get_topology("SWAN", scale=1.5)


def test_generators_deterministic():
    a = swan(num_nodes=30, seed=9)
    b = swan(num_nodes=30, seed=9)
    assert a == b
    c = swan(num_nodes=30, seed=10)
    assert a != c


def test_provision_capacities_headroom():
    topo = b4(capacity=1.0)
    loads = np.linspace(1.0, 38.0, topo.num_edges)
    provisioned = provision_capacities(topo, loads, headroom=1.5)
    assert np.all(provisioned.capacities >= loads * 1.5 - 1e-9)


def test_provision_capacities_floor():
    topo = b4(capacity=1.0)
    loads = np.zeros(topo.num_edges)
    loads[0] = 100.0
    provisioned = provision_capacities(
        topo, loads, headroom=1.0, min_capacity_fraction=0.05
    )
    # Every unloaded link still gets the floor (5% of the peak load).
    assert provisioned.capacities.min() >= 5.0 - 1e-9


def test_provision_capacities_validates_shape():
    topo = b4()
    with pytest.raises(TopologyError):
        provision_capacities(topo, np.ones(3))


def test_provision_capacities_rejects_bad_headroom():
    topo = b4()
    with pytest.raises(TopologyError):
        provision_capacities(topo, np.ones(topo.num_edges), headroom=0.0)


def test_topology_summary_keys(b4_topology):
    summary = topology_summary(b4_topology)
    assert set(summary) == {"nodes", "edges", "avg_shortest_path", "diameter"}
