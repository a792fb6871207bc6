"""Run one perf-harness workload and report its metrics.

Usage (from the repository root):

    python benchmarks/perf/run.py --workload asn-decide --seed 0 --seconds 10 --trace 0

Runs one workload (``asn-decide``, ``b4-stream`` or ``ladder-grid``) in
one single-threaded process, prints every metric as ``name value unit``,
writes a JSON record (and, with ``--trace 1``, the spans as JSONL) under
``--out``, and prints the result as one JSON object on the last line of
standard output. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` its per-layer metrics. The exit code is 1
if a correctness check failed and 2 if the library is not found.

The seed sets the topology variant, traffic, demand pairs and failure
sampling; the same seed gives the same inputs.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("asn-decide", "b4-stream", "ladder-grid")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measuring time (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, one set-up and short rounds (for the tests)",
    )
    parser.add_argument(
        "--out", type=Path, default=HERE / "results",
        help="directory for the JSON record and trace",
    )
    return parser.parse_args(argv)


def git_commit() -> str:
    """HEAD's commit, read from .git without running git ("unknown" outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp() -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # The load shape is one single-threaded caller: pin BLAS before numpy
    # is imported (unpinned, the ASN decision p50 moved by 40% between
    # processes on a 2-core host).
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no library at {src / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(src)]

    import workloads
    from trace import Recorder

    spec = json.loads(BENCHMARK.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.smoke:
        seconds = min(seconds, 1.0)
    recorder = Recorder() if args.trace else None
    session = workloads.Session(args.seed, seconds, args.smoke, recorder)
    outcome = workloads.WORKLOADS[args.workload](session)
    if recorder is not None:
        recorder.uninstall()

    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(outcome.metrics) != sorted(expected):
        raise SystemExit(
            f"metric names {sorted(outcome.metrics)} do not match BENCHMARK.json"
        )

    for index, r in enumerate(outcome.details["rounds"]):
        print(
            f"# round {index}{' traced' if r['traced'] else ''}: {r['tms']} TMs, "
            f"p50 {r['p50_ms']:.3f} ms, p95 {r['p95_ms']:.3f} ms, "
            f"{r['tm_per_s']:.1f} TM/s"
        )
    print("# set-ups: " + ", ".join(f"{s:.3f} s" for s in outcome.details["setup_s"]))
    print(f"# mean satisfied demand: {outcome.details['satisfied_mean']:.4f}")
    for problem in outcome.details["problems"]:
        print(f"# FAILED: {problem}")
    for name in expected:
        value, unit = outcome.metrics[name]
        print(f"{name} {value!r} {unit}")

    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name][0], "unit": outcome.metrics[name][1]}
            for name in expected
        },
    }
    args.out.mkdir(parents=True, exist_ok=True)
    when = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{when}-{os.getpid()}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "stamp": stamp(),
        **result,
        "details": outcome.details,
    }
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if recorder is not None:
        recorder.write_jsonl(args.out / f"{stem}.jsonl")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
