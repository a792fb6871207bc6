#!/usr/bin/env python3
"""Quickstart: train Teal on B4 and compare it with the LP baseline.

Walks the complete workflow of the library in ~30 seconds:

1. build the published B4 WAN topology;
2. generate a calibrated synthetic traffic trace (heavy-tailed like the
   paper's production SWAN trace, §5.1);
3. precompute 4 candidate paths per demand (path formulation, §2);
4. train a Teal model (direct-loss warm start + COMA* fine-tuning);
5. allocate one traffic matrix with Teal and with the exact LP, and
   compare satisfied demand and computation time.

Run:
    python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    AdmmConfig,
    LpAll,
    PathSet,
    TealScheme,
    TrafficTrace,
    TrainingConfig,
    evaluate_allocation,
)
from repro.topology import b4, provision_capacities


def main() -> None:
    # 1. Topology: Google's B4 (12 nodes, 38 directed links, Table 1).
    topology = b4(capacity=100.0)
    print(f"topology: {topology}")

    # 2. Traffic: a synthetic trace calibrated so the top 10% of demands
    #    carry ~88.4% of the volume, like the paper's production trace.
    trace = TrafficTrace.generate(topology.num_nodes, 30, seed=7)
    print(f"trace: {len(trace)} intervals, "
          f"top-10% share = {trace[0].top_fraction_share():.1%}")

    # 3. Candidate paths (4 shortest per demand) and §5.1 capacity
    #    provisioning (so the best scheme can satisfy most demand).
    pathset = PathSet.from_topology(topology)
    loads = pathset.shortest_path_loads(trace.mean_matrix().values)
    topology = provision_capacities(topology, loads, headroom=0.9)
    pathset = PathSet.from_topology(topology)
    print(f"paths: {pathset}")

    # 4. Train Teal (short budget for the example; the paper trains for
    #    ~a week on a GPU). 12 ADMM iterations compensate for the short
    #    training (as repro.harness does; the paper's GPU pipeline uses 2-5).
    teal = TealScheme(pathset, seed=0, admm=AdmmConfig(iterations=12))
    histories = teal.train(
        trace.matrices[:20],
        config=TrainingConfig(steps=40, warm_start_steps=250, log_every=60),
    )
    final = histories["coma"].satisfied[-1]
    print(f"training finished; last training satisfied demand: {final:.1%}")

    # 5. Allocate the last (unseen) matrix with Teal and LP-all.
    demands = pathset.demand_volumes(trace[-1].values)
    for scheme in (teal, LpAll()):
        allocation = scheme.allocate(pathset, demands)
        report = evaluate_allocation(
            pathset, allocation.split_ratios, demands
        )
        print(
            f"{allocation.scheme:>7}: satisfied {report.satisfied_fraction:.1%} "
            f"in {1000 * allocation.compute_time:.1f} ms"
        )


if __name__ == "__main__":
    main()
