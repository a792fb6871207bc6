"""Table 3: average shortest-path length and network diameter.

Regenerates the Table 3 rows on the full-size public topologies and
checks them against the paper's bands (exact for B4, structure-matched
bands for the synthesized UsCarrier/Kdl/ASN — see
:mod:`repro.topology.generators`).
"""

from __future__ import annotations

import pytest

from repro.topology import (
    PAPER_STATS,
    average_shortest_path_length,
    diameter,
    get_topology,
)

from conftest import print_series

#: Acceptance bands around the paper's Table 3 values (synthetic graphs).
_BANDS = {
    "B4": {"aspl": (2.0, 2.7), "diameter": (5, 5)},
    "UsCarrier": {"aspl": (8.0, 17.0), "diameter": (25, 45)},
    "Kdl": {"aspl": (14.0, 32.0), "diameter": (40, 75)},
    "ASN": {"aspl": (2.0, 6.0), "diameter": (5, 11)},
}


def test_table3_rows():
    rows = [
        (
            "topology",
            "avg shortest path (paper)",
            "avg shortest path (ours)",
            "diameter (paper)",
            "diameter (ours)",
        )
    ]
    for name, stats in PAPER_STATS.items():
        topo = get_topology(name, scale=1.0)
        aspl = average_shortest_path_length(topo)
        diam = diameter(topo)
        rows.append(
            (name, stats["avg_shortest_path"], round(aspl, 1), stats["diameter"], diam)
        )
        lo, hi = _BANDS[name]["aspl"]
        assert lo <= aspl <= hi, f"{name} avg shortest path {aspl} outside band"
        lo, hi = _BANDS[name]["diameter"]
        assert lo <= diam <= hi, f"{name} diameter {diam} outside band"
    print_series("Table 3: topology structure statistics", rows)


@pytest.mark.parametrize("name", ["B4", "UsCarrier"])
def test_stats_computation_speed(benchmark, name):
    topo = get_topology(name, scale=1.0)
    result = benchmark(average_shortest_path_length, topo)
    assert result > 1.0
