"""Command-line interface: run reproduction experiments from a shell.

Usage (installed as ``teal-repro`` or via ``python -m repro.cli``):

    teal-repro topologies                 # Table 1 / Table 3 rows
    teal-repro compare --topology SWAN    # Figure 6-style comparison
    teal-repro failures --topology B4     # Figure 8-style failure sweep
    teal-repro train --topology B4        # train + report a Teal model
    teal-repro sweep --topologies B4 SWAN # cross-topology scenario grid
    teal-repro stream --topology B4       # event-driven streaming online TE
    teal-repro analyze grid1.json grid2.json  # aggregate grid analytics
    teal-repro plot grid1.json -o figures # paper-style SVG figures
    teal-repro lint                       # RL001-RL004 static analysis
    teal-repro cache prune --cache-dir .cache --max-bytes 500M  # LRU evict
    teal-repro cache prune --cache-dir .cache --evict-stale  # drop old formats

Interrupted sweeps resume: ``sweep --cache-dir .cache`` checkpoints every
completed grid job, and re-running with ``--resume`` loads the completed
jobs and executes only the remainder (bit-identical results). Scenarios,
model checkpoints and grid jobs share one ``{kind}-<hash>.npz`` entry
format (:mod:`repro.cache`).
"""

from __future__ import annotations

import argparse
import sys


def _cmd_topologies(args: argparse.Namespace) -> int:
    from .topology import PAPER_SIZES, get_topology, topology_summary

    print(f"{'name':<10} {'nodes':>7} {'edges':>7} {'avg path':>9} {'diameter':>9}")
    for name in PAPER_SIZES:
        topo = get_topology(name, scale=args.scale)
        summary = topology_summary(topo)
        print(
            f"{name:<10} {summary['nodes']:>7.0f} {summary['edges']:>7.0f} "
            f"{summary['avg_shortest_path']:>9.2f} {summary['diameter']:>9.0f}"
        )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .harness import (
        build_scenario,
        make_baselines,
        run_offline_comparison,
        trained_teal,
    )
    from .simulation.metrics import format_comparison_table

    scenario = build_scenario(args.topology, scale=args.scale, seed=args.seed)
    print(
        f"scenario: {scenario.topology.name} "
        f"({scenario.topology.num_nodes} nodes, "
        f"{scenario.pathset.num_demands} demands)"
    )
    schemes = dict(make_baselines(scenario))
    print("training Teal...")
    schemes["Teal"] = trained_teal(scenario, precision=args.precision)
    runs = run_offline_comparison(
        scenario, schemes, matrices=scenario.split.test[: args.matrices]
    )
    print(format_comparison_table(list(runs.values())))
    return 0


def _cmd_failures(args: argparse.Namespace) -> int:
    from .harness import (
        build_scenario,
        make_baselines,
        run_failure_sweep,
        trained_teal,
    )
    from .topology import sample_link_failures

    scenario = build_scenario(args.topology, scale=args.scale, seed=args.seed)
    schemes = dict(make_baselines(scenario))
    print("training Teal...")
    schemes["Teal"] = trained_teal(scenario, precision=args.precision)

    capacity_sets = {}
    for count in args.counts:
        caps = scenario.capacities.copy()
        if count:
            caps[sample_link_failures(scenario.topology, count, seed=count)] = 0.0
        capacity_sets[count] = caps
    sweep = run_failure_sweep(
        scenario,
        schemes,
        capacity_sets,
        matrices=scenario.split.test[: args.matrices],
    )
    print(f"{'failures':>9} | " + " | ".join(f"{n:>8}" for n in schemes))
    for count, runs in sweep.items():
        row = " | ".join(
            f"{100 * runs[n].mean_satisfied:8.1f}" for n in schemes
        )
        print(f"{count:>9} | {row}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from .config import TrainingConfig
    from .harness import build_scenario, trained_teal

    scenario = build_scenario(args.topology, scale=args.scale, seed=args.seed)
    config = TrainingConfig(
        steps=args.steps,
        warm_start_steps=args.warm_start_steps,
        log_every=max(1, args.steps // 4),
    )
    teal = trained_teal(
        scenario, config=config, use_cache=False, precision=args.precision
    )
    demands = scenario.demands(scenario.split.test[0])
    allocation = teal.allocate(scenario.pathset, demands)
    from .simulation import evaluate_allocation

    report = evaluate_allocation(
        scenario.pathset, allocation.split_ratios, demands
    )
    print(
        f"trained Teal on {scenario.topology.name}: "
        f"satisfied {report.satisfied_fraction:.1%} on the first test "
        f"matrix in {1000 * allocation.compute_time:.1f} ms"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .config import TrainingConfig
    from .exceptions import ReproError
    from .sweep import ScenarioSuite, run_scenario_grid

    training = TrainingConfig(
        steps=args.steps,
        warm_start_steps=args.warm_start_steps,
        log_every=max(1, args.steps),
    )
    suite = ScenarioSuite(
        topologies=tuple(args.topologies),
        failure_counts=tuple(args.failures),
        seeds=tuple(args.seeds),
        schemes=tuple(args.schemes),
        mode=args.mode,
        precision=args.precision,
        train=args.train,
        validation=args.validation,
        test=args.matrices,
        training=training,
    )
    print(
        f"sweeping {suite.num_jobs} topology job(s), "
        f"{suite.num_cells} grid cell(s) [{args.executor}]..."
    )
    try:
        result = run_scenario_grid(
            suite,
            executor=args.executor,
            max_workers=args.workers,
            cache_dir=args.cache_dir,
            resume=args.resume,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(result.summary_table())
    print(
        f"\nswept {result.metadata['num_cells']} cells in "
        f"{result.metadata['total_seconds']:.2f}s "
        f"({result.metadata['executor']}, "
        f"{result.metadata['max_workers']} worker(s))"
    )
    checkpointing = result.metadata.get("checkpointing", {})
    if checkpointing.get("enabled"):
        print(
            f"checkpointed under suite {checkpointing['suite_token']}: "
            f"{checkpointing['loaded_cells']} cell(s) resumed from cache, "
            f"{checkpointing['executed_jobs']} job(s) executed"
        )
    if args.output:
        result.to_json(args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    import json

    from .harness import (
        build_scenario,
        make_baselines,
        run_streaming_sweep,
        trained_teal,
    )
    from .exceptions import ReproError
    from .simulation.streaming import EventSchedule
    from .topology import sample_link_failures

    scenario = build_scenario(args.topology, scale=args.scale, seed=args.seed)
    print(
        f"scenario: {scenario.topology.name} "
        f"({scenario.topology.num_nodes} nodes, "
        f"{scenario.pathset.num_demands} demands)"
    )
    schemes: dict[str, object] = {}
    baseline_names = tuple(n for n in args.schemes if n != "Teal")
    if baseline_names:
        schemes.update(make_baselines(scenario, include=baseline_names))
    if "Teal" in args.schemes:
        print("training Teal...")
        schemes["Teal"] = trained_teal(scenario, precision=args.precision)
    schemes = {name: schemes[name] for name in args.schemes}

    matrices = scenario.split.test[: args.matrices]
    failed_edges: tuple[int, ...] = ()
    failure_at = None
    recover_at = None
    if args.failures:
        failure_at = args.failure_at
        if failure_at is None:
            failure_at = len(matrices) // 2
        recover_at = args.recover_at
        failed_edges = tuple(
            sample_link_failures(
                scenario.topology, args.failures, seed=args.seed
            )
        )
    try:
        schedule = EventSchedule.from_failure_case(
            matrices,
            interval_seconds=args.interval_seconds,
            failed_edges=failed_edges,
            failure_at=failure_at,
            recover_at=recover_at,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(
        f"streaming {schedule.num_intervals} interval(s), "
        f"{len(schedule.events)} event(s) "
        f"[{'cold' if args.cold else 'warm'} decisions]..."
    )
    results = run_streaming_sweep(
        scenario,
        schemes,
        {"stream": schedule},
        warm_start=not args.cold,
        warm_iterations=args.warm_iterations,
    )["stream"]

    header = (
        f"{'scheme':<14} {'p50 lat (ms)':>13} {'p99 lat (ms)':>13} "
        f"{'warm %':>7} {'satisfied %':>12} {'stale %':>8}"
    )
    print(header)
    print("-" * len(header))
    for name, result in results.items():
        print(
            f"{name:<14} {1000 * result.p50_latency:>13.2f} "
            f"{1000 * result.p99_latency:>13.2f} "
            f"{100 * result.warm_fraction:>6.0f}% "
            f"{100 * result.mean_satisfied:>11.1f}% "
            f"{100 * result.stale_fraction:>7.1f}%"
        )
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(
                {name: r.to_dict() for name, r in results.items()},
                handle,
                indent=2,
            )
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .exceptions import ReproError
    from .sweep.analytics import analyze, format_analytics, load_grid_results

    try:
        results = load_grid_results(args.inputs)
        analytics = analyze(
            results,
            baseline=args.baseline,
            accelerated=args.accelerated,
            sources=args.inputs,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(format_analytics(analytics))
    try:
        if args.output:
            analytics.to_json(args.output)
            print(f"wrote {args.output}")
        if args.csv:
            analytics.to_csv(args.csv)
            print(f"wrote {args.csv}")
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    from .exceptions import ReproError
    from .sweep.analytics import analyze, load_grid_results
    from .sweep.plotting import render_figures

    try:
        results = load_grid_results(args.inputs)
        analytics = analyze(
            results,
            baseline=args.baseline,
            accelerated=args.accelerated,
            sources=args.inputs,
        )
        written = render_figures(
            results,
            analytics,
            args.output_dir,
            prefix=args.prefix,
            failure_count=args.cdf_failures,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .exceptions import ReproError
    from .lint.baseline import (
        apply_baseline,
        load_baseline,
        save_baseline,
        updated_entries,
    )
    from .lint.engine import lint_paths
    from .lint.report import format_json, format_text

    try:
        findings = lint_paths(args.paths)
        entries = load_baseline(args.baseline)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.update_baseline:
        entries = updated_entries(findings, entries)
        try:
            save_baseline(args.baseline, entries)
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(
            f"wrote {args.baseline}: {len(entries)} entries covering "
            f"{len(findings)} finding(s)"
        )
        return 0
    match = apply_baseline(findings, entries)
    if args.format == "json":
        sys.stdout.write(format_json(match))
    else:
        print(format_text(match, explain=args.explain))
    return 1 if match.new else 0


def _cmd_cache_prune(args: argparse.Namespace) -> int:
    from .cache import (
        cache_entries,
        parse_size,
        prune_cache_dir,
        stale_entries,
    )
    from .exceptions import ReproError

    if args.max_bytes is None and not args.evict_stale:
        print(
            "error: nothing to do; pass --max-bytes and/or --evict-stale",
            file=sys.stderr,
        )
        return 2
    verb = "would remove" if args.dry_run else "removed"
    removed = []
    try:
        stale = stale_entries(args.cache_dir)
        if args.evict_stale:
            for entry in stale:
                if not args.dry_run:
                    entry.path.unlink(missing_ok=True)
                removed.append(entry.path)
                print(f"{verb} {entry.path} (stale schema)")
        elif stale:
            noun = (
                "1 entry has a stale schema version"
                if len(stale) == 1
                else f"{len(stale)} entries have stale schema versions"
            )
            print(f"{noun}; re-run with --evict-stale to drop them")
        budget = None
        if args.max_bytes is not None:
            budget = parse_size(args.max_bytes)
            pruned = prune_cache_dir(
                args.cache_dir, budget, dry_run=args.dry_run
            )
            for path in pruned:
                if path not in set(removed):
                    removed.append(path)
                    print(f"{verb} {path}")
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    kept = cache_entries(args.cache_dir)
    if args.dry_run:
        kept = [e for e in kept if e.path not in set(removed)]
    total = sum(e.bytes for e in kept)
    budget_text = (
        "no byte budget"
        if budget is None
        else f"budget {budget / 1024**2:.1f} MiB"
    )
    print(
        f"{verb} {len(removed)} entr{'y' if len(removed) == 1 else 'ies'}; "
        f"{len(kept)} kept ({total / 1024**2:.1f} MiB / {budget_text})"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="teal-repro",
        description="Teal (SIGCOMM 2023) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_precision(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--precision",
            choices=("float32", "float64"),
            default="float32",
            help="Teal inference precision (training always runs float64; "
            "float32 matches float64 results within 1e-4 relative and is "
            "measurably faster — see README 'Precision & performance')",
        )

    p_topo = sub.add_parser("topologies", help="print Table 1 / Table 3 rows")
    p_topo.add_argument("--scale", type=float, default=1.0)
    p_topo.set_defaults(func=_cmd_topologies)

    p_cmp = sub.add_parser("compare", help="scheme comparison on one topology")
    p_cmp.add_argument("--topology", default="SWAN")
    p_cmp.add_argument("--scale", type=float, default=None)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--matrices", type=int, default=4)
    add_precision(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_fail = sub.add_parser("failures", help="link-failure sweep")
    p_fail.add_argument("--topology", default="B4")
    p_fail.add_argument("--scale", type=float, default=None)
    p_fail.add_argument("--seed", type=int, default=0)
    p_fail.add_argument("--matrices", type=int, default=3)
    p_fail.add_argument(
        "--counts", type=int, nargs="+", default=[0, 1, 2]
    )
    add_precision(p_fail)
    p_fail.set_defaults(func=_cmd_failures)

    p_train = sub.add_parser("train", help="train a Teal model")
    p_train.add_argument("--topology", default="B4")
    p_train.add_argument("--scale", type=float, default=None)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--steps", type=int, default=60)
    p_train.add_argument("--warm-start-steps", type=int, default=220)
    add_precision(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_sweep = sub.add_parser(
        "sweep", help="cross-topology scenario-grid sweep"
    )
    p_sweep.add_argument("--topologies", nargs="+", default=["B4", "SWAN"])
    p_sweep.add_argument(
        "--failures", type=int, nargs="+", default=[0, 1],
        help="simultaneous link failures per grid level",
    )
    p_sweep.add_argument("--seeds", type=int, nargs="+", default=[0])
    p_sweep.add_argument(
        "--schemes", nargs="+", default=["LP-all", "Teal"],
        help="baseline names plus 'Teal'",
    )
    p_sweep.add_argument("--mode", choices=("offline", "online"), default="offline")
    p_sweep.add_argument("--matrices", type=int, default=4, help="test matrices")
    p_sweep.add_argument("--train", type=int, default=8)
    p_sweep.add_argument("--validation", type=int, default=2)
    p_sweep.add_argument("--steps", type=int, default=20)
    p_sweep.add_argument("--warm-start-steps", type=int, default=80)
    p_sweep.add_argument(
        "--executor", choices=("serial", "process"), default="process"
    )
    p_sweep.add_argument("--workers", type=int, default=None)
    p_sweep.add_argument(
        "--output", default=None, help="write the GridResult JSON here"
    )
    p_sweep.add_argument(
        "--cache-dir", default=None,
        help="persistent cache directory: re-runs load scenarios and "
        "trained Teal checkpoints from disk instead of "
        "rebuilding/retraining, and every completed grid job is "
        "checkpointed there (bit-identical results)",
    )
    add_precision(p_sweep)
    p_sweep.add_argument(
        "--resume", action="store_true",
        help="load completed grid jobs checkpointed under --cache-dir by "
        "an earlier (possibly interrupted) run of the same suite and "
        "execute only the remainder; the merged result is bit-identical "
        "to an uninterrupted run (requires --cache-dir)",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_stream = sub.add_parser(
        "stream",
        help="streaming online TE: event-driven decisions with "
        "p50/p99 decision latency",
    )
    p_stream.add_argument("--topology", default="B4")
    p_stream.add_argument("--scale", type=float, default=None)
    p_stream.add_argument("--seed", type=int, default=0)
    p_stream.add_argument(
        "--matrices", type=int, default=6, help="trace length (intervals)"
    )
    p_stream.add_argument(
        "--schemes", nargs="+", default=["Teal"],
        help="baseline names plus 'Teal'",
    )
    p_stream.add_argument(
        "--failures", type=int, default=0,
        help="simultaneous physical-link failures injected mid-trace",
    )
    p_stream.add_argument(
        "--failure-at", type=int, default=None,
        help="interval the failure strikes (default: mid-trace)",
    )
    p_stream.add_argument(
        "--recover-at", type=int, default=None,
        help="interval the failed links recover (default: never)",
    )
    p_stream.add_argument(
        "--interval-seconds", type=float, default=300.0,
        help="TE interval length (staleness budget)",
    )
    p_stream.add_argument(
        "--cold", action="store_true",
        help="disable the ADMM warm-start path (full pipeline per "
        "decision; the mode equivalent to the batched online replay)",
    )
    p_stream.add_argument(
        "--warm-iterations", type=int, default=None,
        help="ADMM iteration budget of warm decisions",
    )
    p_stream.add_argument(
        "--output", default=None, help="write per-scheme JSON results here"
    )
    add_precision(p_stream)
    p_stream.set_defaults(func=_cmd_stream)

    p_analyze = sub.add_parser(
        "analyze",
        help="reduce GridResult JSONs into aggregate curves "
        "(speedup vs topology size, distributions, phase/precision tables)",
    )
    p_analyze.add_argument(
        "inputs", nargs="+", help="GridResult JSON files (from sweep --output)"
    )
    p_analyze.add_argument(
        "--baseline", default=None,
        help="baseline scheme for speedup curves "
        "(default: the suites' first non-accelerated scheme)",
    )
    p_analyze.add_argument(
        "--accelerated", default="Teal",
        help="accelerated scheme for speedup curves (default Teal)",
    )
    p_analyze.add_argument(
        "--output", default=None, help="write the analytics JSON here"
    )
    p_analyze.add_argument(
        "--csv", default=None, help="write the speedup-curve CSV here"
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_plot = sub.add_parser(
        "plot",
        help="render GridResult JSONs into paper-style figures: speedup "
        "vs topology size (Figs 4-5), satisfied-demand CDFs (Fig 7), "
        "and failure robustness (Figs 8-9) as dependency-free SVG",
    )
    p_plot.add_argument(
        "inputs", nargs="+", help="GridResult JSON files (from sweep --output)"
    )
    p_plot.add_argument(
        "--baseline", default=None,
        help="baseline scheme for the speedup figure "
        "(default: the suites' first non-accelerated scheme)",
    )
    p_plot.add_argument(
        "--accelerated", default="Teal",
        help="accelerated scheme for the speedup figure (default Teal)",
    )
    p_plot.add_argument(
        "--output-dir", "-o", default="figures",
        help="directory the figures are written into (default: figures)",
    )
    p_plot.add_argument(
        "--prefix", default="grid",
        help="figure filename prefix (default: grid)",
    )
    p_plot.add_argument(
        "--cdf-failures", type=int, default=None,
        help="restrict the satisfied-demand CDF to one failure level "
        "(default: pool all levels)",
    )
    p_plot.set_defaults(func=_cmd_plot)

    p_lint = sub.add_parser(
        "lint",
        help="invariant-checking static analysis (dtype policy, kernel "
        "aliasing, determinism, dispatch seam); exit 1 on findings "
        "not covered by the baseline",
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to scan (default: src)",
    )
    p_lint.add_argument(
        "--baseline", default="lint_baseline.json",
        help="baseline file of grandfathered findings "
        "(default: lint_baseline.json; missing file == empty baseline)",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default text)",
    )
    p_lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to cover exactly the current "
        "findings (justifications of surviving entries are preserved)",
    )
    p_lint.add_argument(
        "--explain", action="store_true",
        help="append rule documentation for every rule that fired",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_cache = sub.add_parser(
        "cache",
        help="manage the persistent cache directory (scenario, model "
        "and grid-cell .npz entries)",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_prune = cache_sub.add_parser(
        "prune",
        help="evict least-recently-used cache entries down to a byte "
        "budget (entries are touched on every disk hit, so recency "
        "reflects reads as well as writes), and report or evict "
        "entries whose format stamp is stale",
    )
    p_prune.add_argument(
        "--cache-dir", required=True,
        help="the directory passed to sweep --cache-dir",
    )
    p_prune.add_argument(
        "--max-bytes", default=None,
        help="byte budget after pruning, e.g. 500M, 2G, or a plain "
        "byte count (0 empties the cache)",
    )
    p_prune.add_argument(
        "--evict-stale", action="store_true",
        help="also remove entries stamped with a format this library "
        "no longer reads, or unreadable ones (they would be cache "
        "misses anyway)",
    )
    p_prune.add_argument(
        "--dry-run", action="store_true",
        help="report what would be removed without deleting",
    )
    p_prune.set_defaults(func=_cmd_cache_prune)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
