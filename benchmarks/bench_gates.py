"""Timing gates: batched, fused and cached paths must stay faster.

Each test times a fast path against the slower path it replaced and
asserts a speedup floor. The floors sit below the speedups measured on
an idle machine, so noisy shared CI runners do not fail unrelated
changes. Correctness twins of these gates (batched == looped, fused ==
naive, float32 ~ float64, warm quality ~ cold quality) live in the
tier-1 suite under ``tests/``. The equality checks kept here either make
a timing comparison honest (naive ADMM == fused) or need the full
five-topology grid (warm cache == cold), too slow for tier-1.

Nothing is written outside pytest's temporary directories. Run with::

    python -m pytest benchmarks/bench_gates.py -q
"""

from __future__ import annotations

import functools
import time
import tracemalloc

import numpy as np
import pytest

from repro.config import AdmmConfig, TrainingConfig
from repro.core import (
    AdmmFineTuner,
    ComaTrainer,
    DirectLossTrainer,
    TealModel,
    TealScheme,
    transfer_weights,
)
from repro.core.admm import _project_ratios
from repro.harness import (
    build_scenario,
    clear_caches,
    run_failure_sweep,
    trained_teal,
)
from repro.lp import TotalFlowObjective
from repro.simulation import evaluate_allocation, evaluate_allocations_batch
from repro.simulation.streaming import EventSchedule, StreamingEngine
from repro.sweep import ScenarioSuite, analyze, run_scenario_grid
from repro.topology.failures import sample_link_failures


def best_of(fn, repeats: int) -> float:
    """Fastest wall-clock seconds of ``repeats`` calls (sheds scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
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
    # minibatch; looped passes override batch_size=1.
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
    looped = trainer_cls(TealModel(scenario.pathset, seed=0), objective, config)
    batched = trainer_cls(TealModel(scenario.pathset, seed=0), objective, config)
    looped.train(matrices, steps=1, batch_size=1)  # warm-up
    batched.train(matrices, steps=1)
    looped_s = best_of(
        lambda: looped.train(matrices, steps=TRAINING_BATCH, batch_size=1), 3
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
    looped_s = best_of(looped, 3)
    batched_s = best_of(batched, 3)
    assert looped_s / batched_s >= 3.0, (looped_s, batched_s)


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


def _naive_admm_batch(tuner: AdmmFineTuner, ratios, demands) -> np.ndarray:
    """The pre-fusion float64 ADMM loop (one fresh ndarray per op).

    A reimplementation of the elementwise update chains the fused
    kernels replaced. It must equal ``fine_tune_batch`` at float64 bit
    for bit, which is what makes it an honest timing baseline.
    """
    s = tuner.structures
    ps = tuner.pathset
    num_matrices = demands.shape[0]
    capacities = np.broadcast_to(
        ps.topology.capacities, (num_matrices, ps.topology.num_edges)
    )
    pos_mean = np.array([float(row[row > 0].mean()) for row in capacities])
    scale = np.maximum(pos_mean, 1e-9)[:, None]
    d_norm = demands / scale
    c_norm = capacities / scale
    rho = tuner.config.rho
    d_p = d_norm[:, s.path_demand]
    w_p = tuner.path_values
    a = np.maximum(d_p * d_p * s.hops, 1e-9)
    F = np.clip(ratios, 0.0, 1.0)
    F_flat = np.zeros((num_matrices, s.num_paths))
    valid = ps.path_mask
    F_flat[:, ps.demand_path_ids[valid]] = F[:, valid]
    z = (F_flat * d_p)[:, s.pair_path]
    sum_z = tuner._pair_to_edge.sum(z)
    s1 = np.maximum(0.0, 1.0 - tuner._path_to_demand.sum(F_flat))
    s3 = np.maximum(0.0, c_norm - sum_z)
    # Complementary-slackness dual warm start (same as the fused path).
    with np.errstate(divide="ignore", invalid="ignore"):
        warm_util = np.where(
            c_norm > 0,
            sum_z / np.maximum(c_norm, 1e-9),
            np.where(sum_z > 1e-9, np.inf, 0.0),
        )
    congestion_price = (warm_util > 1.0).astype(float)
    path_price = tuner._pair_to_path.sum(congestion_price[:, s.pair_edge])
    reduced_value = np.maximum(0.0, w_p - path_price)
    lam1 = tuner._path_to_demand.max(d_p) * tuner._path_to_demand.max(
        reduced_value
    )
    lam3 = np.zeros((num_matrices, s.num_edges))
    lam4 = np.zeros((num_matrices, len(s.pair_path)))
    for _ in range(tuner.iterations):
        lam4_pp = tuner._pair_to_path.sum(lam4)
        z_pp = tuner._pair_to_path.sum(z)
        b = (
            d_p * w_p
            - lam1[:, s.path_demand]
            - d_p * lam4_pp
            + rho * (1.0 - s1[:, s.path_demand])
            + rho * d_p * z_pp
        )
        inv_a = 1.0 / a
        correction = tuner._path_to_demand.sum(b * inv_a) / (
            1.0 + tuner._path_to_demand.sum(inv_a)
        )
        F_flat = np.clip(
            (inv_a / rho) * (b - correction[:, s.path_demand]), 0.0, 1.0
        )
        beta = (
            -lam3[:, s.pair_edge]
            + lam4
            + rho * (c_norm - s3)[:, s.pair_edge]
            + rho * (F_flat * d_p)[:, s.pair_path]
        )
        sum_beta = tuner._pair_to_edge.sum(beta)
        z = (beta - (sum_beta / (1.0 + s.paths_per_edge))[:, s.pair_edge]) / rho
        sum_F = tuner._path_to_demand.sum(F_flat)
        sum_z = tuner._pair_to_edge.sum(z)
        s1 = np.maximum(0.0, (1.0 - sum_F) - lam1 / rho)
        s3 = np.maximum(0.0, (c_norm - sum_z) - lam3 / rho)
        lam1 += rho * (sum_F + s1 - 1.0)
        lam3 += rho * (sum_z + s3 - c_norm)
        lam4 += rho * ((F_flat * d_p)[:, s.pair_path] - z)
    out = np.zeros_like(F)
    out[:, valid] = F_flat[:, ps.demand_path_ids[valid]]
    return _project_ratios(out)


def test_fused_forward(precision_batch):
    """Fused forward: float64 >= 1.05x and float32 >= 1.2x the naive
    float64 Tensor path, with a smaller float32 temporary footprint."""
    scenario, demands, _ = precision_batch
    seconds, peak = {}, {}
    for name, dtype, fused in (
        ("naive64", np.float64, False),
        ("fused64", np.float64, True),
        ("fused32", np.float32, True),
    ):
        model = TealModel(scenario.pathset, seed=0).astype(dtype)
        run = functools.partial(model.split_ratios_batch, demands, fused=fused)
        run()  # warm-up: first-call costs, workspace buffers
        seconds[name] = best_of(run, PRECISION_REPEATS)
        peak[name] = _peak_bytes(run)
    assert seconds["naive64"] / seconds["fused64"] >= 1.05, seconds
    assert seconds["naive64"] / seconds["fused32"] >= 1.2, seconds
    assert peak["fused32"] < peak["naive64"], peak


def test_fused_admm(precision_batch):
    """Fused float32 ADMM >= 1.0x the naive float64 loop, with a smaller
    temporary footprint; the naive loop equals fused float64 exactly."""
    scenario, demands, trained = precision_batch
    ratios = trained.model.split_ratios_batch(demands).astype(float)
    baseline = AdmmFineTuner(scenario.pathset, AdmmConfig(iterations=12))
    naive = functools.partial(_naive_admm_batch, baseline, ratios, demands)
    assert np.array_equal(naive(), baseline.fine_tune_batch(ratios, demands))
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
            scheme.model.split_ratios_batch = functools.partial(
                TealModel.split_ratios_batch, scheme.model, fused=False
            )
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
