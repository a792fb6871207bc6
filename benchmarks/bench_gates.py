"""Timing gates: batched, fused and cached paths must stay faster.

Each test times a fast path against the slower path it replaced and
asserts a speedup floor. The floors sit below the speedups measured on
an idle machine, so noisy shared CI runners do not fail unrelated
changes. Correctness twins of these gates (batched == looped, fused ==
naive, float32 ~ float64, warm quality ~ cold quality) live in the
tier-1 suite under ``tests/``. The equality checks kept here either make
a timing comparison honest (naive ADMM ~ fused, within the tier-1
reference tolerance) or need the full five-topology grid (warm cache ==
cold), too slow for tier-1.

Nothing is written outside pytest's temporary directories. Run with::

    python -m pytest benchmarks/bench_gates.py -q
"""

from __future__ import annotations

import dataclasses
import functools
import time
import tracemalloc

import numpy as np
import pytest
from helpers import REFERENCE_TOL, naive_admm_batch, scatter_add_regroup

from repro.config import AdmmConfig, TrainingConfig
from repro.core import (
    AdmmFineTuner,
    ComaTrainer,
    DirectLossTrainer,
    TealModel,
    TealScheme,
    transfer_weights,
)
from repro.harness import (
    build_scenario,
    clear_caches,
    run_failure_sweep,
    trained_teal,
)
from repro.lp import TotalFlowObjective
from repro.nn import Parameter
from repro.nn import functional as F
from repro.simulation import evaluate_allocation, evaluate_allocations_batch
from repro.simulation.streaming import EventSchedule, StreamingEngine
from repro.sweep import ScenarioSuite, analyze, run_scenario_grid
from repro.topology.failures import sample_link_failures


def best_of(fn, repeats: int) -> float:
    """Fastest wall-clock seconds of ``repeats`` calls (sheds scheduler noise)."""
    return best_of_each({"fn": fn}, repeats)["fn"]


def best_of_each(fns: dict, repeats: int) -> dict:
    """Fastest wall-clock seconds of each callable over ``repeats``
    interleaved rounds: a slow phase of the host slows every variant it
    overlaps, not one variant's whole measurement."""
    best = dict.fromkeys(fns, float("inf"))
    for _ in range(repeats):
        for name, fn in fns.items():
            start = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def _peak_bytes(fn) -> int:
    """Peak bytes of temporary allocations during one ``fn`` call."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ----------------------------------------------------------------------
# Minibatched training and batched ADMM (16-matrix B4 minibatch)
# ----------------------------------------------------------------------
TRAINING_BATCH = 16


@pytest.fixture(scope="module")
def training_batch():
    scenario = build_scenario(
        "B4", train=TRAINING_BATCH, validation=2, test=2, seed=0
    )
    # A quiet log cadence so timing measures gradient steps, not the
    # per-log greedy evaluations. Batched passes run off the config's
    # minibatch; looped passes use a copy with batch_matrices=1.
    config = TrainingConfig(
        steps=TRAINING_BATCH, warm_start_steps=0, log_every=10_000,
        batch_matrices=TRAINING_BATCH,
    )
    return scenario, config


@pytest.mark.parametrize("trainer_cls", [DirectLossTrainer, ComaTrainer])
def test_batched_training_step(training_batch, trainer_cls):
    """One 16-matrix step beats 16 one-matrix steps by >= 1.2x."""
    scenario, config = training_batch
    matrices = scenario.split.train
    objective = TotalFlowObjective()
    looped = trainer_cls(
        TealModel(scenario.pathset, seed=0), objective,
        dataclasses.replace(config, batch_matrices=1),
    )
    batched = trainer_cls(TealModel(scenario.pathset, seed=0), objective, config)
    looped.train(matrices, steps=1)  # warm-up
    batched.train(matrices, steps=1)
    looped_s = best_of(
        lambda: looped.train(matrices, steps=TRAINING_BATCH), 3
    )
    batched_s = best_of(lambda: batched.train(matrices, steps=1), 3)
    assert looped_s / batched_s >= 1.2, (looped_s, batched_s)


def test_batched_admm_not_slower_than_loop(training_batch):
    """``fine_tune_batch`` stays above 0.9x a loop of ``fine_tune``."""
    scenario, _ = training_batch
    demands = np.stack([scenario.demands(m) for m in scenario.split.train])
    ratios = TealModel(scenario.pathset, seed=0).split_ratios_batch(demands)
    tuner = AdmmFineTuner(scenario.pathset, AdmmConfig(iterations=12))
    looped_s = best_of(
        lambda: [
            tuner.fine_tune(ratios[t], demands[t])
            for t in range(TRAINING_BATCH)
        ],
        3,
    )
    batched_s = best_of(lambda: tuner.fine_tune_batch(ratios, demands), 3)
    assert looped_s / batched_s > 0.9, (looped_s, batched_s)


# ----------------------------------------------------------------------
# The path <-> grid regroup backward (ASN, width 6, one matrix)
# ----------------------------------------------------------------------
def test_regroup_backward():
    """``F.regroup``'s gather backward >= 5x the scatter-add it replaced,
    on ASN's path -> (D, k) grid regroup at the last layer's width."""
    pathset = build_scenario(
        "ASN", train=1, validation=1, test=1, seed=0
    ).pathset
    index, inverse = pathset.demand_path_ids, pathset.path_grid_index
    rng = np.random.default_rng(0)
    x = Parameter(rng.normal(size=(1, pathset.num_paths, 6)))
    grad = rng.normal(size=(1,) + index.shape + (6,))
    runs = {}
    for name, op in (("gather", F.regroup), ("scatter_add", scatter_add_regroup)):
        out = op(x, index, inverse)

        def backward(out=out):
            out.grad = x.grad = None
            out.backward(grad)

        runs[name] = backward
        backward()  # warm-up
    seconds = best_of_each(runs, 15)
    assert seconds["scatter_add"] / seconds["gather"] >= 5.0, seconds


# ----------------------------------------------------------------------
# Batched trace evaluation (32 B4 intervals)
# ----------------------------------------------------------------------
def test_batched_evaluation():
    """One ``evaluate_allocations_batch`` beats a per-TM loop by >= 3x."""
    intervals = 32
    scenario = build_scenario(
        "B4", train=4, validation=2, test=intervals, seed=0
    )
    pathset = scenario.pathset
    demands = pathset.demand_volumes_batch(
        np.stack([m.values for m in scenario.split.test])
    )
    ratios = TealScheme(pathset, seed=0, use_admm=False).model.split_ratios_batch(
        demands
    )

    def looped():
        return [
            evaluate_allocation(pathset, ratios[t], demands[t])
            for t in range(intervals)
        ]

    def batched():
        return evaluate_allocations_batch(pathset, ratios, demands)

    looped(), batched()  # warm-up
    looped_s = best_of(looped, 7)
    batched_s = best_of(batched, 7)
    assert looped_s / batched_s >= 3.0, (looped_s, batched_s)


# ----------------------------------------------------------------------
# Acceptance-check rewards vs full reports (B4, T = 1 and a 64-row stack)
# ----------------------------------------------------------------------
def test_lean_reward():
    """``TotalFlowObjective.evaluate_batch`` (the reconciliation core,
    no post-reconciliation loads) beats a full report's
    ``delivered_total`` by >= 1.1x, at one matrix and at 64."""
    scenario = build_scenario("B4", train=2, validation=1, test=64, seed=0)
    pathset, caps = scenario.pathset, scenario.capacities
    demands = pathset.demand_volumes_batch(
        np.stack([m.values for m in scenario.split.test])
    )
    ratios = TealScheme(pathset, seed=0, use_admm=False).model.split_ratios_batch(
        demands
    )
    objective = TotalFlowObjective()
    speedups = {}
    for rows in (1, 64):
        r, d = ratios[:rows], demands[:rows]
        runs = {
            "lean": lambda: objective.evaluate_batch(pathset, r, d, caps),
            "report": lambda: evaluate_allocations_batch(
                pathset, r, d, caps
            ).delivered_total,
        }
        assert np.array_equal(runs["lean"](), runs["report"]())
        seconds = best_of_each(runs, 50 if rows == 1 else 15)
        speedups[rows] = seconds["report"] / seconds["lean"]
    assert min(speedups.values()) >= 1.1, speedups


# ----------------------------------------------------------------------
# Warm vs cold streaming decisions (B4, one link failure, 4 intervals)
# ----------------------------------------------------------------------
def test_warm_streaming_decisions_are_faster():
    """Warm-started decisions beat cold ones: best p50 speedup >= 1.1x."""
    intervals = 4
    scenario = build_scenario(
        "B4", train=8, validation=2, test=intervals, seed=0
    )
    schedule = EventSchedule.from_failure_case(
        scenario.split.test,
        failed_edges=tuple(sample_link_failures(scenario.topology, 1, seed=7)),
        failure_at=intervals // 2,
    )
    training = TrainingConfig(steps=10, warm_start_steps=40, log_every=100)
    speedups = []
    for precision in ("float32", "float64"):
        teal = trained_teal(scenario, config=training, precision=precision)
        p50 = {}
        for warm in (True, False):
            engine = StreamingEngine(scenario.pathset, teal, warm_start=warm)
            # The first run sheds first-call costs (scipy workspaces,
            # lazy index builds); the second run's latencies count.
            engine.run(schedule, capacities=scenario.capacities)
            p50[warm] = engine.run(
                schedule, capacities=scenario.capacities
            ).p50_latency
        speedups.append(p50[False] / p50[True])
    assert any(s > 1.0 for s in speedups), speedups
    assert max(speedups) >= 1.1, speedups


# ----------------------------------------------------------------------
# Fused kernels and float32 inference vs the naive float64 baseline
# (16-matrix B4 batch)
# ----------------------------------------------------------------------
PRECISION_REPEATS = 5


@pytest.fixture(scope="module")
def precision_batch():
    scenario = build_scenario("B4", train=16, validation=2, test=2, seed=0)
    demands = np.stack([scenario.demands(m) for m in scenario.split.train])
    trained = trained_teal(
        scenario,
        config=TrainingConfig(steps=10, warm_start_steps=60, log_every=100),
        precision="float64",
    )
    return scenario, demands, trained


def test_fused_forward(precision_batch):
    """Fused forward: float64 >= 1.05x and float32 >= 1.2x the naive
    float64 Tensor path, with a smaller float32 temporary footprint."""
    scenario, demands, _ = precision_batch
    capacities = scenario.capacities
    runs = {}
    for name, dtype, fused in (
        ("naive64", np.float64, False),
        ("fused64", np.float64, True),
        ("fused32", np.float32, True),
    ):
        model = TealModel(scenario.pathset, seed=0).astype(dtype)
        if fused:
            runs[name] = functools.partial(model.split_ratios_batch, demands)
        else:
            def naive(model=model):
                return model.forward_batch(demands, capacities).numpy()

            runs[name] = naive
        runs[name]()  # warm-up: first-call costs, workspace buffers
    # After the training gates ran in this process the naive path is
    # ~2.5x faster than in a fresh one, so the float64 margin is narrow:
    # interleave the variants' rounds.
    seconds = best_of_each(runs, 15)
    peak = {name: _peak_bytes(run) for name, run in runs.items()}
    assert seconds["naive64"] / seconds["fused64"] >= 1.05, seconds
    assert seconds["naive64"] / seconds["fused32"] >= 1.2, seconds
    assert peak["fused32"] < peak["naive64"], peak


def test_fused_admm(precision_batch):
    """Fused float32 ADMM >= 1.0x the naive incidence-level float64 loop,
    with a smaller temporary footprint; the naive loop agrees with fused
    float64 within the tier-1 reference tolerance (the two compute
    different, equivalent arithmetic)."""
    scenario, demands, trained = precision_batch
    ratios = trained.model.split_ratios_batch(demands).astype(float)
    baseline = AdmmFineTuner(scenario.pathset, AdmmConfig(iterations=12))
    naive = functools.partial(naive_admm_batch, baseline, ratios, demands)
    gap = np.abs(naive() - baseline.fine_tune_batch(ratios, demands)).max()
    assert gap <= REFERENCE_TOL[12], gap
    naive_s = best_of(naive, PRECISION_REPEATS)
    naive_peak = _peak_bytes(naive)
    tuner32 = AdmmFineTuner(
        scenario.pathset, AdmmConfig(iterations=12), precision="float32"
    )
    fused = functools.partial(tuner32.fine_tune_batch, ratios, demands)
    fused()  # warm-up: workspace buffers, tiled indices
    fused_s = best_of(fused, PRECISION_REPEATS)
    assert naive_s / fused_s >= 1.0, (naive_s, fused_s)
    assert _peak_bytes(fused) < naive_peak


def test_fused_float32_end_to_end(precision_batch):
    """A two-level offline sweep (forward + ADMM + acceptance + scoring
    over 32 stacked rows) at fused float32 is >= 1.1x naive float64."""
    scenario, _, trained = precision_batch
    failed = scenario.capacities.copy()
    failed[sample_link_failures(scenario.topology, 2, seed=7)] = 0.0
    capacity_sets = {0: scenario.capacities, 2: failed}
    seconds = {}
    for name, precision, fused in (
        ("naive64", "float64", False),
        ("fused32", "float32", True),
    ):
        scheme = TealScheme(
            scenario.pathset, admm=AdmmConfig(iterations=12), seed=0,
            precision=precision,
        )
        transfer_weights(trained.model, scheme.model)
        scheme.trained = True
        if not fused:
            def naive(demands, capacities, model=scheme.model):
                return model.forward_batch(demands, capacities).numpy()

            scheme.model.split_ratios_batch = naive
        run = functools.partial(
            run_failure_sweep, scenario, {"Teal": scheme}, capacity_sets,
            matrices=scenario.split.train,
        )
        run()  # warm-up
        seconds[name] = best_of(run, PRECISION_REPEATS)
    assert seconds["naive64"] / seconds["fused32"] >= 1.1, seconds


# ----------------------------------------------------------------------
# Persistent scenario/model cache over the five-topology size ladder
# ----------------------------------------------------------------------
LADDER = ("B4", "SWAN", "UsCarrier", "Kdl", "ASN")


def _ladder_suite(precision: str) -> ScenarioSuite:
    return ScenarioSuite(
        topologies=LADDER,
        failure_counts=(0, 1),
        seeds=(0, 1),
        schemes=("LP-all", "Teal"),
        max_pairs=300,
        train=8,
        validation=2,
        test=4,
        training=TrainingConfig(
            steps=8, warm_start_steps=30, log_every=50, batch_matrices=4
        ),
        precision=precision,
    )


def _comparable(result) -> list[tuple]:
    return [
        (cell.coords, cell.run.satisfied, cell.run.objective_values)
        for cell in result.cells
    ]


def _phase_seconds(result, phase: str) -> float:
    return sum(t[f"{phase}_seconds"] for t in result.timings)


def test_disk_cache_grid(tmp_path):
    """A warm disk-cache grid rebuilds and retrains faster than a cold one
    and reproduces it bit for bit; a float64 rerun on the same cache
    completes the speedup curve and precision table over all five sizes."""
    clear_caches()
    cold = run_scenario_grid(_ladder_suite("float32"), cache_dir=tmp_path)
    clear_caches()  # drop the in-memory tiers: the warm run must hit disk
    warm = run_scenario_grid(_ladder_suite("float32"), cache_dir=tmp_path)
    clear_caches()
    result64 = run_scenario_grid(_ladder_suite("float64"), cache_dir=tmp_path)

    assert _comparable(warm) == _comparable(cold)
    assert _phase_seconds(warm, "build") < _phase_seconds(cold, "build")
    assert _phase_seconds(warm, "train") < _phase_seconds(cold, "train")
    analytics = analyze([warm, result64])
    curve32 = [p for p in analytics.curve if p.precision == "float32"]
    assert [p.topology for p in curve32] == list(LADDER)
    nodes = [p.num_nodes for p in curve32]
    assert nodes == sorted(nodes) and len(set(nodes)) == len(nodes)
    assert {p.topology for p in analytics.precision} == set(LADDER)
