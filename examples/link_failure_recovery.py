#!/usr/bin/env python3
"""Link-failure reaction (§5.3): Teal recomputes, slow schemes serve stale routes.

Reproduces the Figure 9 mechanism end to end on a scaled ASN scenario:

1. build the ASN-like topology (interconnected star clusters) and train
   Teal with failure augmentation;
2. replay a traffic trace through the online control loop with a TE
   interval scaled to the instance;
3. fail a batch of links mid-trace and watch per-interval satisfied
   demand: Teal reroutes within one interval, while the LP baseline
   keeps pushing traffic into the failed links until its (late) solution
   arrives.

Run:
    python examples/link_failure_recovery.py
"""

from __future__ import annotations

from repro.harness import (
    build_scenario,
    make_baselines,
    run_offline_comparison,
    run_online_comparison,
    scaled_te_interval,
    trained_teal,
)
from repro.topology import sample_link_failures


def main() -> None:
    scenario = build_scenario("ASN", train=24, validation=4, test=12)
    print(
        f"scenario: {scenario.topology.name} "
        f"({scenario.topology.num_nodes} nodes, "
        f"{scenario.pathset.num_demands} demands)"
    )

    teal = trained_teal(scenario)
    schemes = {
        "Teal": teal,
        **make_baselines(scenario, include=("LP-all", "LP-top")),
    }

    # Calibrate the scaled TE interval from offline compute times.
    offline = run_offline_comparison(
        scenario, schemes, matrices=scenario.split.test[:2]
    )
    interval = scaled_te_interval(offline)
    print(f"scaled TE interval: {interval * 1000:.1f} ms "
          "(stands in for the 5-minute production interval)")

    # Fail ~2% of physical links at interval 4.
    failed = sample_link_failures(
        scenario.topology, max(2, scenario.topology.num_edges // 100), seed=3
    )
    print(f"failing {len(failed)} directed edges at interval 4")

    online = run_online_comparison(
        scenario,
        schemes,
        interval_seconds=interval,
        matrices=scenario.split.test,
        failure_at=4,
        failed_edges=tuple(failed),
    )

    header = "interval | " + " | ".join(f"{name:>8}" for name in schemes)
    print("\nper-interval satisfied demand (%):")
    print(header)
    for t in range(len(scenario.split.test)):
        row = " | ".join(
            f"{100 * online[name].intervals[t].satisfied_fraction:8.1f}"
            for name in schemes
        )
        marker = "  <- failure" if t == 4 else ""
        print(f"{t:8d} | {row}{marker}")
    print("\nmeans: " + ", ".join(
        f"{name}={100 * online[name].mean_satisfied:.1f}%" for name in schemes
    ))
    print("stale fractions: " + ", ".join(
        f"{name}={online[name].stale_fraction:.0%}" for name in schemes
    ))


if __name__ == "__main__":
    main()
