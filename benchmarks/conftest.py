"""Benchmark-suite fixtures and reporting helpers.

Each ``bench_fig*``/``bench_table*`` file regenerates the table or
figure of the paper its name gives. Benchmarks run on *scaled* instances
(harness BENCH_SCALES, see the scaling policy in :mod:`repro.harness`)
that preserve the paper's topology-size ordering; every bench prints the
paper-style rows it reproduces. ``bench_gates.py`` holds the timing
gates of the batched, fused and cached paths.

Conventions:

- ``benchmark`` (pytest-benchmark) wraps the *computation under test*
  (one allocation pass, one LP solve, ...), giving per-scheme timing
  distributions.
- Expensive shared state (scenarios, trained Teal models) is cached in
  the harness so the suite stays within a CPU budget.
"""

from __future__ import annotations

import pytest

from repro.config import TrainingConfig
from repro.harness import build_scenario, trained_teal


def _training_budget() -> TrainingConfig:
    return TrainingConfig(steps=60, warm_start_steps=220, log_every=60)


@pytest.fixture(scope="session")
def b4_scenario():
    return build_scenario("B4", train=24, validation=4, test=8)


@pytest.fixture(scope="session")
def swan_scenario():
    return build_scenario("SWAN", train=24, validation=4, test=8)


@pytest.fixture(scope="session")
def uscarrier_scenario():
    return build_scenario("UsCarrier", train=24, validation=4, test=8)


@pytest.fixture(scope="session")
def kdl_scenario():
    return build_scenario("Kdl", train=24, validation=4, test=8)


@pytest.fixture(scope="session")
def asn_scenario():
    return build_scenario("ASN", train=24, validation=4, test=8)


@pytest.fixture(scope="session")
def training_config():
    return _training_budget()


def teal_for(scenario, training_config, **kwargs):
    """Trained Teal for a scenario (session-cached via the harness)."""
    return trained_teal(scenario, config=training_config, **kwargs)


def print_series(title: str, rows: list[tuple]) -> None:
    """Emit a paper-style series block into the benchmark log."""
    print(f"\n=== {title} ===")
    for row in rows:
        print("  " + " | ".join(str(c) for c in row))
