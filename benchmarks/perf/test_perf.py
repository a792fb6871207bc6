"""Smoke tests of the perf harness.

Every workload runs at tiny size (``--smoke``) in both modes and must
emit exactly the metrics BENCHMARK.json names, pass every correctness
check and write its record. Run with ``python -m pytest benchmarks/perf -q``
(outside tier-1's ``testpaths``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))

import compare  # noqa: E402


def run(workload: str, trace: int, out: Path, runner: Path = HERE / "run.py"):
    return subprocess.run(
        [
            sys.executable, str(runner), "--workload", workload, "--seed", "0",
            "--trace", str(trace), "--smoke", "--out", str(out),
        ],
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_and_passes_checks(workload, trace, tmp_path):
    proc = run(workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in kind]
    for metric in kind:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert emitted["value"] == emitted["value"]  # not NaN
        if not trace:
            assert emitted["value"] > 0, metric["name"]
    for metric in kind:
        assert f"{metric['name']} " in proc.stdout

    (record_path,) = tmp_path.glob("*.json")
    record = json.loads(record_path.read_text())
    assert set(record["stamp"]) >= {"commit", "host", "nproc", "python", "numpy", "scipy"}
    assert record["metrics"] == result["metrics"]
    if trace:
        (spans_path,) = tmp_path.glob("*.jsonl")
        spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
        assert {"name", "start", "end", "parent", "round"} <= set(spans[0])
        assert result["metrics"]["trace.coverage_min"]["value"] >= 0.9


def test_runner_fails_without_the_library(tmp_path):
    """Only BENCHMARK.json and the harness: exit non-zero, print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf", ignore=shutil.ignore_patterns(
        "results", "__pycache__"
    ))
    proc = run("b4-stream", 0, tmp_path / "out", tmp_path / "benchmarks" / "perf" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def write_records(directory: Path, name: str, values: list[float]) -> list[Path]:
    paths = []
    for index, value in enumerate(values):
        path = directory / f"{name}-{index}.json"
        path.write_text(json.dumps({
            "workload": "b4-stream",
            "metrics": {"decision_p50_ms": {"value": value, "unit": "ms"}},
        }))
        paths.append(path)
    return paths


@pytest.mark.parametrize(
    ("base", "head", "expected"),
    [
        ([2.0, 2.01, 1.99, 2.0, 2.02], [2.01, 2.0, 2.02, 1.99, 2.0], "unchanged"),
        ([2.0, 2.01, 1.99, 2.0, 2.02], [3.0, 3.1, 3.05, 3.2, 3.1], "REGRESSED"),
        ([2.0, 2.01, 1.99, 2.0, 2.02], [1.5, 1.6, 1.55, 1.5, 1.52], "better"),
        ([2.0, 1.2, 2.8, 1.5, 2.6], [2.1, 1.3, 2.9, 1.4, 2.7], "unresolved"),
    ],
)
def test_compare_verdicts(tmp_path, base, head, expected):
    lines, regressed = compare.compare(
        write_records(tmp_path, "base", base), write_records(tmp_path, "head", head), SPEC
    )
    assert lines[1].split()[-1] == expected
    assert regressed == (expected == "REGRESSED")
