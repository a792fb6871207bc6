"""Tests for ``repro.lint``: rules, baseline, CLI, and runtime sanitizers.

Static-rule fixtures are tiny synthetic modules written under a temp dir
whose layout mirrors the repo (``<tmp>/repro/nn/...``), because the
rules scope by repo-relative path. Each rule gets at least one true
positive and one true negative. The sanitizer tests exercise
``wrap_kernel`` in-process and the full ``REPRO_SANITIZE=1`` install
path in a subprocess (the env var is read at ``repro.core.batching``
import time, which has already happened in this process).
"""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core import batching
from repro.core.batching import KERNEL_CONTRACTS, KernelContract
from repro.lint.baseline import (
    BaselineEntry,
    apply_baseline,
    load_baseline,
    save_baseline,
    updated_entries,
)
from repro.lint.engine import lint_paths
from repro.lint.report import format_json, format_text
from repro.lint.rules import RULES, in_hot_path, in_precision_scope, in_timing_scope
from repro.lint.sanitize import SanitizerError, sanitize_enabled, wrap_kernel

REPO_ROOT = Path(__file__).resolve().parents[1]


def _write_module(root: Path, relpath: str, source: str) -> None:
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))


def _lint(root: Path) -> list:
    return lint_paths([str(root)], root=str(root))


def _rules_hit(root: Path) -> set[str]:
    return {f.rule for f in _lint(root)}


# ----------------------------------------------------------------------
# Rule registry & scoping
# ----------------------------------------------------------------------


def test_rule_registry_documents_all_four_rules():
    assert sorted(RULES) == ["RL001", "RL002", "RL003", "RL004"]
    for rule in RULES.values():
        assert rule.title and rule.rationale and rule.scope


def test_path_scoping():
    assert in_precision_scope("src/repro/nn/tensor.py")
    assert in_precision_scope("src/repro/simulation/evaluator.py")
    assert not in_precision_scope("src/repro/nn/precision.py")  # exempt
    assert not in_precision_scope("src/repro/sweep/grid.py")
    assert in_timing_scope("src/repro/sweep/grid.py")
    assert in_timing_scope("benchmarks/bench_gates.py")
    assert not in_timing_scope("src/repro/core/admm.py")
    assert in_hot_path("src/repro/core/flowgnn.py")
    # The fused-kernel module is the one exempt hot-path module.
    assert not in_hot_path("src/repro/core/batching.py")
    assert not in_hot_path("src/repro/lp/solver.py")


# ----------------------------------------------------------------------
# RL001 dtype-policy
# ----------------------------------------------------------------------


def test_rl001_flags_dtype_literals_in_precision_scope(tmp_path):
    _write_module(
        tmp_path,
        "repro/nn/mod.py",
        """
        import numpy as np

        def f(x, precision):
            a = np.zeros(3, dtype=float)          # positive: keyword literal
            b = np.asarray(x, np.float64)          # positive: positional literal
            c = x.astype("float32")                # positive: astype literal
            d = np.zeros(3, dtype=precision)       # negative: policy-derived
            return a, b, c, d
        """,
    )
    findings = [f for f in _lint(tmp_path) if f.rule == "RL001"]
    assert len(findings) == 3
    assert {f.line for f in findings} == {5, 6, 7}


def test_rl001_ignores_out_of_scope_and_policy_module(tmp_path):
    source = """
        import numpy as np
        X = np.zeros(3, dtype=float)
        """
    _write_module(tmp_path, "repro/sweep/mod.py", source)
    _write_module(tmp_path, "repro/nn/precision.py", source)
    assert "RL001" not in _rules_hit(tmp_path)


# ----------------------------------------------------------------------
# RL002 kernel-aliasing
# ----------------------------------------------------------------------


def test_rl002_flags_out_aliasing_an_input(tmp_path):
    _write_module(
        tmp_path,
        "repro/core/mod.py",
        """
        from .batching import linear_into, pair_linear_into

        def f(x, w, b, scratch):
            linear_into(x, w, b, x)                      # positive: out is x
            pair_linear_into(x, x, w, None, out=scratch, scratch=scratch)
        """,
    )
    findings = [f for f in _lint(tmp_path) if f.rule == "RL002"]
    # line 5: out aliases x; line 6: scratch aliases out (a/b may repeat).
    assert {f.line for f in findings} == {5, 6}


def test_rl002_respects_may_alias_and_distinct_buffers(tmp_path):
    _write_module(
        tmp_path,
        "repro/core/mod.py",
        """
        from .batching import linear_into, masked_softmax_into

        def f(logits, not_mask, buf, x, w, b, out):
            masked_softmax_into(logits, not_mask, logits, buf)  # allowed alias
            linear_into(x, w, b, out)                            # distinct
        """,
    )
    assert "RL002" not in _rules_hit(tmp_path)


def test_rl002_binds_attribute_calls(tmp_path):
    _write_module(
        tmp_path,
        "repro/core/mod.py",
        """
        from . import batching

        def f(grid, index, out):
            batching.take_rows_into(grid, index, grid)  # positive: out is x
            batching.take_rows_into(grid, index, out)   # negative
        """,
    )
    findings = [f for f in _lint(tmp_path) if f.rule == "RL002"]
    assert [f.line for f in findings] == [5]


# ----------------------------------------------------------------------
# RL003 determinism
# ----------------------------------------------------------------------


def test_rl003_flags_global_rng_set_iteration_and_wall_clock(tmp_path):
    _write_module(
        tmp_path,
        "repro/core/mod.py",
        """
        import time
        import numpy as np

        def f(items):
            np.random.seed(0)                    # positive: global RNG
            for x in {1, 2, 3}:                  # positive: set iteration
                pass
            ordered = list({"a", "b"})           # positive: list(set)
            t = time.perf_counter()              # positive: stray wall clock
            return ordered, t
        """,
    )
    findings = [f for f in _lint(tmp_path) if f.rule == "RL003"]
    assert {f.line for f in findings} == {6, 7, 9, 10}


def test_rl003_allows_generator_api_sorted_sets_and_timing_modules(tmp_path):
    _write_module(
        tmp_path,
        "repro/core/mod.py",
        """
        import numpy as np

        def f(items):
            rng = np.random.default_rng(0)
            x = rng.normal(size=3)               # Generator API: fine
            for k in sorted({1, 2, 3}):          # sorted first: fine
                pass
            return x
        """,
    )
    _write_module(
        tmp_path,
        "repro/sweep/grid.py",
        """
        import time

        def f():
            return time.perf_counter()           # timing-designated module
        """,
    )
    assert "RL003" not in _rules_hit(tmp_path)


# ----------------------------------------------------------------------
# RL004 dispatch-seam
# ----------------------------------------------------------------------


def test_rl004_flags_direct_matmul_in_hot_path(tmp_path):
    _write_module(
        tmp_path,
        "repro/core/flowgnn.py",
        """
        import numpy as np

        def f(a, b):
            c = a @ b                    # positive
            d = np.matmul(a, b)          # positive
            e = a.dot(b)                 # positive
            return c, d, e
        """,
    )
    findings = [f for f in _lint(tmp_path) if f.rule == "RL004"]
    assert {f.line for f in findings} == {5, 6, 7}


def test_rl004_ignores_non_hot_path_and_the_seam_itself(tmp_path):
    source = """
        import numpy as np

        def f(a, b):
            return np.matmul(a @ b, b)
        """
    _write_module(tmp_path, "repro/lp/solver.py", source)
    _write_module(tmp_path, "repro/core/batching.py", source)
    assert "RL004" not in _rules_hit(tmp_path)


def test_rl004_flags_raw_allocations_in_hot_path(tmp_path):
    _write_module(
        tmp_path,
        "repro/core/model.py",
        """
        import numpy as np

        def f(n, ws, dtype):
            a = np.empty(n)              # positive
            b = np.zeros((n, n))         # positive
            c = ws.buffer("c", n, dtype) # negative: workspace scratch
            d = np.ones(n)               # negative: not an allocator we flag
            return a, b, c, d
        """,
    )
    findings = [f for f in _lint(tmp_path) if f.rule == "RL004"]
    assert {f.line for f in findings} == {5, 6}


# ----------------------------------------------------------------------
# Baseline round-trip
# ----------------------------------------------------------------------


def _violating_root(tmp_path: Path) -> Path:
    _write_module(
        tmp_path,
        "repro/nn/mod.py",
        """
        import numpy as np
        A = np.zeros(3, dtype=float)
        """,
    )
    return tmp_path


def test_baseline_round_trip_suppresses_known_findings(tmp_path):
    root = _violating_root(tmp_path)
    findings = _lint(root)
    assert findings, "fixture must produce findings"

    baseline_file = tmp_path / "baseline.json"
    save_baseline(str(baseline_file), updated_entries(findings, []))
    entries = load_baseline(str(baseline_file))
    assert all(isinstance(e, BaselineEntry) for e in entries)

    match = apply_baseline(_lint(root), entries)
    assert match.new == []
    assert len(match.suppressed) == len(findings)
    assert match.stale == []


def test_baseline_only_budgets_known_counts(tmp_path):
    root = _violating_root(tmp_path)
    entries = updated_entries(_lint(root), [])
    # A second, textually identical violation exceeds the fingerprint's
    # count budget -> reported as new, not silently absorbed.
    _write_module(
        tmp_path,
        "repro/nn/mod.py",
        """
        import numpy as np
        A = np.zeros(3, dtype=float)
        A = np.zeros(3, dtype=float)
        """,
    )
    match = apply_baseline(_lint(root), entries)
    assert len(match.new) == 1
    assert len(match.suppressed) == 1


def test_baseline_reports_stale_entries_and_keeps_justifications(tmp_path):
    root = _violating_root(tmp_path)
    entries = updated_entries(_lint(root), [])
    entries = [
        BaselineEntry(
            rule=e.rule,
            path=e.path,
            line_text=e.line_text,
            count=e.count,
            justification="grandfathered",
        )
        for e in entries
    ]
    # Fix the violation: the entry goes stale.
    _write_module(tmp_path, "repro/nn/mod.py", "X = 1\n")
    match = apply_baseline(_lint(root), entries)
    assert match.new == []
    assert [e.justification for e in match.stale] == ["grandfathered"]
    # updated_entries drops stale rows but keeps live justifications.
    assert updated_entries(_lint(root), entries) == []


def test_format_text_and_json(tmp_path):
    root = _violating_root(tmp_path)
    match = apply_baseline(_lint(root), [])
    text = format_text(match)
    assert "RL001" in text and "new finding" in text
    payload = json.loads(format_json(match))
    assert payload["summary"]["new"] == len(match.new)
    assert payload["new"][0]["rule"] == "RL001"


# ----------------------------------------------------------------------
# CLI exit codes (subprocess: the real entry point)
# ----------------------------------------------------------------------


def _run_cli(*args: str, env_extra: dict | None = None):
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    env.pop("REPRO_SANITIZE", None)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


def test_cli_lint_exit_codes(tmp_path):
    root = _violating_root(tmp_path)
    baseline = tmp_path / "baseline.json"

    dirty = _run_cli("lint", str(root), "--baseline", str(baseline))
    assert dirty.returncode == 1
    assert "RL001" in dirty.stdout

    update = _run_cli(
        "lint", str(root), "--baseline", str(baseline), "--update-baseline"
    )
    assert update.returncode == 0
    assert baseline.exists()

    clean = _run_cli("lint", str(root), "--baseline", str(baseline))
    assert clean.returncode == 0

    as_json = _run_cli(
        "lint", str(root), "--baseline", str(baseline), "--format", "json"
    )
    assert as_json.returncode == 0
    assert json.loads(as_json.stdout)["summary"]["new"] == 0


def test_cli_lint_repo_src_is_clean():
    result = _run_cli("lint")
    assert result.returncode == 0, result.stdout + result.stderr


# ----------------------------------------------------------------------
# Kernel contracts
# ----------------------------------------------------------------------


def test_kernel_contracts_match_signatures():
    for name, contract in KERNEL_CONTRACTS.items():
        func = inspect.unwrap(getattr(batching, name))
        params = tuple(inspect.signature(func).parameters)
        assert params == contract.params, name
        declared = set(
            contract.writes + contract.inout + contract.scratch
        ) | {p for pair in contract.may_alias for p in pair}
        assert declared <= set(contract.params), name
        assert isinstance(contract, KernelContract)


# ----------------------------------------------------------------------
# Runtime sanitizers
# ----------------------------------------------------------------------


def test_sanitize_enabled_env_parsing():
    assert not sanitize_enabled({})
    assert not sanitize_enabled({"REPRO_SANITIZE": ""})
    assert not sanitize_enabled({"REPRO_SANITIZE": "0"})
    assert sanitize_enabled({"REPRO_SANITIZE": "1"})
    assert sanitize_enabled({"REPRO_SANITIZE": "yes"})


def test_wrap_kernel_trips_on_forbidden_aliasing():
    contract = KERNEL_CONTRACTS["pair_linear_into"]
    wrapped = wrap_kernel(batching.pair_linear_into, contract)
    a = np.ones((2, 3))
    b = np.ones((2, 3))
    w = np.ones((6, 4))
    out = np.empty((2, 4))
    scratch = np.empty((2, 4))

    # Clean call: identical to the unwrapped kernel.
    expected = batching.pair_linear_into(a, b, w, None, out.copy(), scratch.copy())
    np.testing.assert_array_equal(wrapped(a, b, w, None, out, scratch), expected)

    with pytest.raises(SanitizerError, match="shares memory"):
        wrapped(a, b, w, None, out, out)  # scratch aliases out
    with pytest.raises(SanitizerError, match="shares memory"):
        wrapped(out, b, w, None, out, scratch)  # out aliases input a


def test_wrap_kernel_allows_exact_may_alias_but_not_partial_overlap():
    contract = KERNEL_CONTRACTS["masked_softmax_into"]
    wrapped = wrap_kernel(batching.masked_softmax_into, contract)
    logits = np.random.default_rng(0).normal(size=(2, 4))
    not_mask = np.zeros((2, 4), dtype=bool)
    buf = np.empty((2, 1))
    # Exact self-alias is contract-sanctioned (in-place softmax).
    wrapped(logits, not_mask, logits, buf)
    # Partial overlap of the same pair is never allowed.
    with pytest.raises(SanitizerError, match="shares memory"):
        wrapped(logits, not_mask, logits[:, :4][::-1], buf)


def test_wrap_kernel_trips_on_non_finite_output():
    contract = KERNEL_CONTRACTS["linear_into"]
    wrapped = wrap_kernel(batching.linear_into, contract)
    x = np.array([[np.inf, 1.0]])
    w = np.ones((2, 2))
    out = np.empty((1, 2))
    with pytest.raises(SanitizerError, match="non-finite"):
        wrapped(x, w, None, out)


_SANITIZER_E2E = """
import numpy as np
from repro.core import batching

assert batching._SANITIZE, "REPRO_SANITIZE=1 must arm the module flag"
assert getattr(batching.pair_linear_into, "__repro_sanitized__", False)
assert getattr(batching.take_rows_into, "__repro_sanitized__", False)

# Workspace poisoning: fresh float buffers are NaN, reuse keeps contents.
ws = batching.Workspace()
buf = ws.buffer("k", (4,), np.float64)
assert np.isnan(buf).all()
buf[:] = 1.0
assert not np.isnan(ws.buffer("k", (4,), np.float64)).any()

a = np.ones((2, 3)); b = np.ones((2, 3)); w = np.ones((6, 4))
out = np.empty((2, 4)); scratch = np.empty((2, 4))
batching.pair_linear_into(a, b, w, None, out, scratch)  # clean: passes

try:
    batching.pair_linear_into(a, b, w, None, out, out)
except Exception as exc:
    assert type(exc).__name__ == "SanitizerError", exc
else:
    raise AssertionError("aliased pair_linear_into did not trip")
print("E2E-OK")
"""


def test_sanitizer_end_to_end_under_env_flag():
    result = subprocess.run(
        [sys.executable, "-c", _SANITIZER_E2E],
        capture_output=True,
        text=True,
        env={
            **os.environ,
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "REPRO_SANITIZE": "1",
        },
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "E2E-OK" in result.stdout


def test_sanitizer_off_by_default_in_this_process():
    # This suite imports repro.core.batching without REPRO_SANITIZE, so
    # the kernels must be the raw functions: aliasing is *not* trapped.
    if batching._SANITIZE:
        pytest.skip("suite is running under REPRO_SANITIZE=1")
    assert not hasattr(batching.pair_linear_into, "__repro_sanitized__")
    ws = batching.Workspace()
    ws.buffer("k", (4,), np.float64)  # plain np.empty, no poisoning
