"""Figure 17: percentage of demands routable on each edge (Appendix D).

For every edge, the fraction of demands with at least one candidate
path through it. Expected shape: the share shrinks with topology size,
with ASN exceptionally low (its star-cluster structure concentrates
paths on hub-hub links while most edges are leaf spokes).
"""

from __future__ import annotations

import numpy as np

from repro.topology import routable_demand_fraction_per_edge

from conftest import print_series

_TOPOLOGIES = ["B4", "UsCarrier", "Kdl", "ASN"]


def test_fig17_series(request, b4_scenario):
    distributions = {}
    for name in _TOPOLOGIES:
        scenario = (
            b4_scenario
            if name == "B4"
            else request.getfixturevalue(f"{name.lower()}_scenario")
        )
        fractions = routable_demand_fraction_per_edge(
            scenario.pathset.edge_path_incidence,
            scenario.pathset.num_demands,
            scenario.pathset.path_demand,
        )
        distributions[name] = fractions

    rows = [("topology", "median %", "p90 %", "max %")]
    for name, fractions in distributions.items():
        rows.append(
            (
                name,
                f"{100 * np.median(fractions):.1f}",
                f"{100 * np.percentile(fractions, 90):.1f}",
                f"{100 * fractions.max():.1f}",
            )
        )
    print_series("Figure 17: routable demands per edge (%)", rows)

    # Shape 1: the median share shrinks from B4 to the large topologies.
    assert np.median(distributions["B4"]) > np.median(distributions["Kdl"])
    # Shape 2: ASN's median share is the lowest (Appendix D highlights
    # its exceptionally low routable fraction).
    assert np.median(distributions["ASN"]) <= min(
        np.median(distributions[n]) for n in _TOPOLOGIES if n != "ASN"
    )
