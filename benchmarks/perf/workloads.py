"""The perf harness workloads: set-up, measured rounds, correctness checks.

Every workload is a closed loop with one caller — the TE controller
waits for each allocation before it sends the next traffic matrix — in
one single-threaded process. Latency is measured in *rounds*: each round
decides a fixed set of distinct traffic matrices, and the reported
values are those of the best round, because the shared host goes
through slow phases that last seconds. Set-up (scenario build, training,
the lazy float32 cast and the first call's buffers) is finished before
timing starts; it runs several times from cold caches and reports the
median.

Import this module only after the BLAS thread count is pinned (run.py
does it), because importing numpy fixes it.
"""

from __future__ import annotations

import dataclasses
import resource
import statistics
import time
from dataclasses import dataclass, field

# The harness's own trace.py (run.py puts this directory first on
# sys.path), not the standard library module of the same name.
from trace import Patches, Recorder, SpanStats

import numpy as np

from repro import harness
from repro.baselines import LpAll
from repro.config import TrainingConfig
from repro.core import TealScheme
from repro.simulation import evaluator
from repro.simulation.online import DeploymentTracker
from repro.simulation.streaming import (
    EventSchedule,
    LinkFailure,
    LinkRecovery,
    StreamingEngine,
    TrafficUpdate,
)
from repro.sweep import ScenarioSuite, grid
from repro.topology.failures import sample_link_failures

#: Training budget: the harness ``BENCH_TRAINING`` step counts at one
#: matrix per step. Its four-matrix minibatch would put ~20 s of ASN
#: training into every set-up; one matrix per step costs ~5 s and keeps
#: Teal within about a point of it in satisfied demand relative to
#: LP-all. Shorter budgets leave quality at the mercy of the weight-init
#: seed: 50 steps spread satisfied_vs_lp over 11% of its median across
#: ten seeds on the grid, against 2% here.
TRAINING = dataclasses.replace(harness.BENCH_TRAINING, batch_matrices=1)

SMOKE_TRAINING = TrainingConfig(steps=2, warm_start_steps=4, log_every=2)

#: The production TE interval (§5.1).
INTERVAL_SECONDS = 300.0

#: Slack for comparing LP-all's delivered flow with Teal's.
LP_BOUND_RTOL = 1e-6

#: Rounding slack of a satisfied-demand fraction.
FRACTION_ATOL = 1e-9


@dataclass
class Round:
    """One measured round: ``tms`` decisions in ``wall`` seconds."""

    tms: int
    wall: float
    latencies: list[float]
    traced: bool = False

    @property
    def p50_ms(self) -> float:
        return 1e3 * float(np.percentile(self.latencies, 50))

    @property
    def p95_ms(self) -> float:
        return 1e3 * float(np.percentile(self.latencies, 95))

    @property
    def tm_per_s(self) -> float:
        return self.tms / self.wall


@dataclass
class Outcome:
    """Everything one run measured."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    details: dict = field(default_factory=dict)


class Session:
    """Shared driver state: set-up repetitions, rounds, checks, tracing."""

    def __init__(
        self, seed: int, seconds: float, smoke: bool, recorder: Recorder | None
    ) -> None:
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.recorder = recorder
        self.setups = 1 if smoke else 3
        self.setup_times: list[float] = []
        self.rounds: list[Round] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        if recorder is not None:
            recorder.install()

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; ``what`` describes a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def set_up(self, build):
        """Run ``build`` from cold harness caches; return the last result."""
        for _ in range(self.setups):
            harness.clear_caches()
            start = time.perf_counter()
            result = build()
            self.setup_times.append(time.perf_counter() - start)
        return result

    def measure(self, run_round) -> None:
        """Call ``run_round(index)`` for ``seconds``, at least two rounds.

        In a traced run, even rounds run untraced and odd rounds traced,
        so both see the same host phases and their ratio is the tracing
        overhead.
        """
        recorder = self.recorder
        deadline = time.perf_counter() + self.seconds
        index = 0
        while index < 2 or time.perf_counter() < deadline:
            traced = recorder is not None and index % 2 == 1
            if recorder is not None:
                recorder.phase, recorder.round = "measure", index
                recorder.install() if traced else recorder.uninstall()
            measured = run_round(index)
            measured.traced = traced
            self.rounds.append(measured)
            index += 1
        if recorder is not None:
            recorder.install()
            recorder.phase, recorder.round = "reference", None

    def best(self, traced: bool = False) -> Round:
        """The round with the highest throughput among (un)traced rounds."""
        return max(
            (r for r in self.rounds if r.traced == traced),
            key=lambda r: r.tm_per_s,
        )

    def outcome(
        self, satisfied: list[float], teal_ref: list[float], lp_ref: list[float],
        layer_extras: dict[str, float],
    ) -> Outcome:
        """Assemble the metrics of this run (end-to-end or per-layer).

        Every round decides the same matrices in the same order, so each
        decision's latency is taken as its best over the untraced rounds
        (host noise only ever adds time), and the percentiles run over
        decisions: they show how latency varies with the input, as in
        Fig 7a, rather than how busy the host was.
        """
        untraced = [r for r in self.rounds if not r.traced]
        best = 1e3 * np.min([r.latencies for r in untraced], axis=0)
        details = {
            "setup_s": self.setup_times,
            "satisfied_mean": float(np.mean(satisfied)),
            "rounds": [
                {
                    "traced": r.traced, "tms": r.tms, "wall_s": r.wall,
                    "p50_ms": r.p50_ms, "p95_ms": r.p95_ms,
                    "tm_per_s": r.tm_per_s,
                }
                for r in self.rounds
            ],
            "satisfied_vs_lp_refs": len(lp_ref),
            "problems": self.problems,
        }
        if self.recorder is not None:
            metrics = layer_metrics(self, layer_extras)
        else:
            metrics = {
                "setup_s": (statistics.median(self.setup_times), "s"),
                "decision_p50_ms": (float(np.percentile(best, 50)), "ms"),
                "decision_p95_ms": (float(np.percentile(best, 95)), "ms"),
                "tm_per_s": (self.best().tm_per_s, "1/s"),
                "satisfied_vs_lp": (
                    float(np.mean(teal_ref) / np.mean(lp_ref)), "ratio"
                ),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "MB",
                ),
            }
        return Outcome(metrics, self.attempted, self.failed, details)


#: The layers doing a decision's numerical work, with the name of their
#: time metric. Self time in every other traced layer (the scheme
#: pipeline, streaming engine, online replay, harness sweeps and grid) is
#: the driver's overhead.
KERNEL_LAYERS = {
    "core.model": "forward",
    "core.admm": "fine_tune",
    "lp.objectives": "reward",
    "simulation.evaluator": "evaluate",
}


def layer_metrics(session: Session, extras: dict[str, float]) -> dict:
    """Per-layer metrics of a traced run.

    Decision-path layers are per TM decided in the traced rounds; set-up
    layers are per set-up; LP layers are per LP-all reference solve.
    Layer times include the layer's children; ``self`` times do not.
    """
    spans = session.recorder.spans
    measure = SpanStats(spans, "measure")
    setup = SpanStats(spans, "setup")
    reference = SpanStats(spans, "reference")
    traced = [r for r in session.rounds if r.traced]
    tms = sum(r.tms for r in traced)

    def per_tm(value: float) -> float:
        return value / tms

    driver = sum(
        measure.self_time(i) for i in measure.chosen
        if spans[i].layer not in KERNEL_LAYERS
    )
    metrics: dict[str, tuple[float, str]] = {
        "driver.self_ms": (per_tm(1e3 * driver), "ms/tm"),
        "core.teal.self_ms": (
            per_tm(1e3 * measure.layer("core.teal")["self_seconds"]), "ms/tm"
        ),
    }
    for layer, op in KERNEL_LAYERS.items():
        stats = measure.layer(layer)
        metrics[f"{layer}.{op}_ms"] = (per_tm(1e3 * stats["seconds"]), "ms/tm")
        metrics[f"{layer}.calls"] = (per_tm(stats["calls"]), "calls/tm")
        if layer != "lp.objectives":
            metrics[f"{layer}.rows"] = (per_tm(stats["rows"]), "rows/tm")
    admm = measure.named("core.admm:AdmmFineTuner.fine_tune_batch")
    metrics["core.admm.iterations"] = (
        float(np.mean([s.value for s in admm])) if admm else 0.0, "count"
    )
    kept, scored = measure.accept_counts()
    metrics["core.admm.accept_ratio"] = (kept / scored if scored else 0.0, "ratio")
    metrics["simulation.streaming.warm_fraction"] = (
        extras.get("warm_fraction", 0.0), "ratio"
    )
    metrics["sweep.invocations"] = (extras.get("invocations", 0.0), "count")
    metrics["sweep.buckets"] = (extras.get("buckets", 0.0), "count")

    for layer, name in (
        ("topology", "topology.generate_s"),
        ("traffic", "traffic.generate_s"),
        ("paths", "paths.pathset_s"),
        ("core.direct_loss", "core.direct_loss.train_s"),
        ("core.coma", "core.coma.train_s"),
    ):
        metrics[name] = (setup.layer(layer)["seconds"] / session.setups, "s")

    builds = reference.named("lp:build_lp")
    solves = reference.named("lp:solve_lp")
    metrics["lp.build_ms"] = (1e3 * np.mean([s.duration for s in builds]), "ms")
    metrics["lp.solve_ms"] = (1e3 * np.mean([s.duration for s in solves]), "ms")
    metrics["lp.iterations"] = (float(np.mean([s.value for s in solves])), "count")

    best_plain = session.best(traced=False)
    best_traced = session.best(traced=True)
    metrics["trace.overhead"] = (best_plain.tm_per_s / best_traced.tm_per_s, "ratio")
    coverage = measure.coverage()
    metrics["trace.coverage"] = (float(np.median(coverage)), "ratio")
    metrics["trace.coverage_min"] = (float(np.min(coverage)), "ratio")
    return {name: (float(value), unit) for name, (value, unit) in metrics.items()}


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def valid_allocation(pathset, ratios: np.ndarray) -> bool:
    """Finite, in [0, 1], valid-path row sums <= 1 + 1e-6, zero on padding."""
    ratios = np.asarray(ratios)
    mask = pathset.path_mask
    return bool(
        ratios.shape == mask.shape
        and np.isfinite(ratios).all()
        and ratios.min() >= 0.0
        and ratios.max() <= 1.0
        and not ratios[~mask].any()
        and (np.where(mask, ratios, 0.0).sum(axis=1) <= 1.0 + 1e-6).all()
    )


def valid_fraction(value: float) -> bool:
    """In [0, 1], up to rounding: the evaluator's delivered / offered
    ratio reads 1.0000000000000002 when every demand is met."""
    return bool(-FRACTION_ATOL <= value <= 1.0 + FRACTION_ATOL)


def lp_reference(session, pathset, demands, capacities, teal_satisfied):
    """LP-all's satisfied demand on reference matrices, checked as a bound.

    LP-all solves the same path formulation exactly, so its total flow
    must be at least Teal's on every matrix.
    """
    lp = LpAll()
    satisfied = []
    for d, caps, teal in zip(demands, capacities, teal_satisfied):
        allocation = lp.allocate(pathset, d, caps)
        value = evaluator.evaluate_allocation(pathset, allocation.split_ratios, d, caps)
        lp_satisfied = value.satisfied_fraction
        satisfied.append(lp_satisfied)
        session.check(
            valid_allocation(pathset, allocation.split_ratios)
            and valid_fraction(lp_satisfied)
            and lp_satisfied >= teal * (1.0 - LP_BOUND_RTOL),
            f"LP-all: invalid allocation, or satisfied {lp_satisfied!r} "
            f"outside [0, 1] or below Teal's {float(teal)!r}",
        )
    return satisfied


def demand_stack(scenario) -> np.ndarray:
    """(T, D) demand volumes of the scenario's test matrices."""
    return scenario.pathset.demand_volumes_batch(
        np.stack([m.values for m in scenario.split.test])
    )


# ----------------------------------------------------------------------
# asn-decide
# ----------------------------------------------------------------------
def asn_decide(session: Session) -> Outcome:
    """Cold per-TM Teal decisions on ASN at benchmark scale (float32).

    The paper's headline path at the largest size a CPU affords: one
    FlowGNN forward, ADMM fine-tuning and the acceptance check per
    traffic matrix.
    """
    smoke = session.smoke
    tms = 20 if smoke else 200
    scale = {"scale": 0.03, "max_pairs": 60} if smoke else {}
    training = SMOKE_TRAINING if smoke else TRAINING

    def build():
        scenario = harness.build_scenario(
            "ASN", seed=session.seed, test=tms, **scale
        )
        teal = harness.trained_teal(
            scenario, config=training, seed=session.seed, precision="float32"
        )
        demands = demand_stack(scenario)
        teal.allocate(scenario.pathset, demands[0], scenario.capacities)
        return scenario, teal, demands

    scenario, teal, demands = session.set_up(build)
    pathset, caps = scenario.pathset, scenario.capacities
    first_round: list[np.ndarray] = []

    def run_round(index: int) -> Round:
        latencies = []
        for t in range(tms):
            start = time.perf_counter()
            allocation = teal.allocate(pathset, demands[t], caps)
            latencies.append(time.perf_counter() - start)
            session.check(
                valid_allocation(pathset, allocation.split_ratios),
                f"round {index} TM {t}: invalid allocation",
            )
            if index == 0:
                first_round.append(allocation.split_ratios)
        return Round(tms, sum(latencies), latencies)

    session.measure(run_round)

    satisfied = []
    for t, ratios in enumerate(first_round):
        value = evaluator.evaluate_allocation(pathset, ratios, demands[t], caps)
        satisfied.append(value.satisfied_fraction)
        session.check(valid_fraction(value.satisfied_fraction), f"TM {t}: satisfied")
    refs = range(0, tms, 20 if not smoke else 10)
    teal_ref = [satisfied[t] for t in refs]
    lp_ref = lp_reference(
        session, pathset, [demands[t] for t in refs], [caps] * len(teal_ref), teal_ref
    )
    return session.outcome(satisfied, teal_ref, lp_ref, {})


# ----------------------------------------------------------------------
# b4-stream
# ----------------------------------------------------------------------
def failure_schedule(scenario, seed: int, block: int):
    """Traffic updates with 1-2 link failures per ``block`` intervals.

    In every block the failure strikes mid-block and the links recover
    40% of a block later. Returns the schedule and the (T, E)
    capacities in effect at each interval.
    """
    matrices = scenario.split.test
    nominal = scenario.capacities
    events = [
        TrafficUpdate(time=t * INTERVAL_SECONDS, matrix=m)
        for t, m in enumerate(matrices)
    ]
    capacities = np.tile(nominal, (len(matrices), 1))
    rng = np.random.default_rng(seed)
    for first in range(0, len(matrices), block):
        fail_at = first + block // 2
        recover_at = fail_at + (2 * block) // 5
        edges = tuple(
            sample_link_failures(
                scenario.topology, int(rng.integers(1, 3)),
                seed=int(rng.integers(2**31)),
            )
        )
        events.append(LinkFailure(time=fail_at * INTERVAL_SECONDS, edges=edges))
        events.append(LinkRecovery(time=recover_at * INTERVAL_SECONDS, edges=edges))
        capacities[fail_at:recover_at, list(edges)] = 0.0
    schedule = EventSchedule(events=tuple(events), interval_seconds=INTERVAL_SECONDS)
    return schedule, capacities


def b4_stream(session: Session) -> Outcome:
    """Warm-started streaming decisions on B4 under link failures.

    After the first (cold) decision of a replay, decisions are ADMM plus
    the acceptance check with the forward bypassed. At this size per-call
    Python overhead dominates, so overhead changes show here first.
    """
    smoke = session.smoke
    tms = 20 if smoke else 200
    training = SMOKE_TRAINING if smoke else TRAINING

    def build():
        scenario = harness.build_scenario("B4", seed=session.seed, test=tms)
        teal = harness.trained_teal(
            scenario, config=training, seed=session.seed, precision="float32"
        )
        schedule, capacities = failure_schedule(
            scenario, session.seed, 10 if smoke else 100
        )
        engine = StreamingEngine(scenario.pathset, teal, warm_start=True)
        reference = engine.run(schedule, capacities=scenario.capacities)
        return scenario, schedule, capacities, engine, reference

    scenario, schedule, capacities, engine, reference = session.set_up(build)
    expected = reference.satisfied_series()
    warm = []

    def replay(index: int):
        start = time.perf_counter()
        result = engine.run(schedule, capacities=scenario.capacities)
        wall = time.perf_counter() - start
        latencies = [d.latency for d in result.decisions]
        series = result.satisfied_series()
        session.check(
            sum(latencies) <= wall
            and np.array_equal(series, expected)
            and all(valid_fraction(s) for s in series),
            f"replay {index}: latencies exceed wall time or results differ",
        )
        return result, Round(len(latencies), wall, latencies)

    def run_round(index: int) -> Round:
        result, measured = replay(index)
        warm.append(result.warm_fraction)
        return measured

    session.measure(run_round)

    # One more replay with every deployed allocation captured and checked.
    submitted = []
    submit = DeploymentTracker.submit

    def capture(tracker, t, allocation):
        submitted.append(allocation.split_ratios)
        return submit(tracker, t, allocation)

    patches = Patches()
    patches.set(DeploymentTracker, "submit", capture)
    try:
        replay(-1)
    finally:
        patches.restore()
    for t, ratios in enumerate(submitted):
        session.check(
            valid_allocation(scenario.pathset, ratios), f"decision {t}: invalid allocation"
        )

    demands = demand_stack(scenario)
    refs = range(0, tms, 20 if not smoke else 5)
    teal_ref = [expected[t] for t in refs]
    lp_ref = lp_reference(
        session, scenario.pathset, [demands[t] for t in refs],
        [capacities[t] for t in refs], teal_ref,
    )
    return session.outcome(
        list(expected), teal_ref, lp_ref,
        {"warm_fraction": float(np.mean(warm))},
    )


# ----------------------------------------------------------------------
# ladder-grid
# ----------------------------------------------------------------------
def same_cells(result, reference) -> bool:
    """Bit-identical satisfied demand and objective values, cell by cell."""
    return len(result.cells) == len(reference.cells) and all(
        a.coords == b.coords
        and a.run.satisfied == b.run.satisfied
        and a.run.objective_values == b.run.objective_values
        for a, b in zip(result.cells, reference.cells)
    )


def ladder_grid(session: Session) -> Outcome:
    """Teal over the topology ladder x failure levels, offline and online.

    The researcher's Fig 8/9 sweep: batched rather than per-TM, across
    five sizes, with every failure level of a topology fused into one
    batched invocation. A round is one offline pass and one online pass;
    both hit the in-process scenario and model caches.
    """
    smoke = session.smoke
    offline = ScenarioSuite(
        topologies=("B4", "SWAN") if smoke else ("B4", "SWAN", "UsCarrier", "Kdl", "ASN"),
        failure_counts=(0, 1) if smoke else (0, 1, 2, 4),
        seeds=(session.seed,),
        schemes=("Teal",),
        max_pairs=40 if smoke else 300,
        test=4 if smoke else 16,
        training=SMOKE_TRAINING if smoke else TRAINING,
        precision="float32",
        cell_batch=0,
    )
    online = dataclasses.replace(offline, mode="online")

    def build():
        return grid.run_scenario_grid(offline), grid.run_scenario_grid(online)

    expected_offline, expected_online = session.set_up(build)

    def grid_pass(index: int):
        start = time.perf_counter()
        result_offline = grid.run_scenario_grid(offline)
        result_online = grid.run_scenario_grid(online)
        wall = time.perf_counter() - start
        cells = result_offline.cells + result_online.cells
        session.check(
            same_cells(result_offline, expected_offline)
            and same_cells(result_online, expected_online)
            and all(valid_fraction(s) for c in cells for s in c.run.satisfied),
            f"pass {index}: cells differ from the set-up pass",
        )
        latencies = [t for c in cells for t in c.run.compute_times]
        return Round(len(latencies), wall, latencies)

    session.measure(grid_pass)

    # One more offline pass with every Teal allocation captured and checked.
    captured = []
    allocate_batch = vars(TealScheme)["allocate_batch"]

    def capture(scheme, *args, **kwargs):
        allocations = allocate_batch(scheme, *args, **kwargs)
        captured.extend((scheme.pathset, a.split_ratios) for a in allocations)
        return allocations

    patches = Patches()
    patches.set(TealScheme, "allocate_batch", capture)
    try:
        session.check(
            same_cells(grid.run_scenario_grid(offline), expected_offline),
            "checked pass: cells differ from the set-up pass",
        )
    finally:
        patches.restore()
    for pathset, ratios in captured:
        session.check(valid_allocation(pathset, ratios), "grid: invalid allocation")

    # LP-all on the first matrix of every offline cell.
    teal_ref, lp_ref = [], []
    for topology in offline.topologies:
        scenario = harness.build_scenario(
            topology, scale=offline.scale, seed=session.seed,
            max_pairs=offline.max_pairs, train=offline.train,
            validation=offline.validation, test=offline.test,
            headroom=offline.headroom,
        )
        cells = [
            expected_offline.cell(topology, session.seed, count, "Teal")
            for count in offline.failure_counts
        ]
        capacities = []
        for cell in cells:
            caps = scenario.capacities.copy()
            caps[cell.extras["failed_edges"]] = 0.0
            capacities.append(caps)
        teal = [cell.run.satisfied[0] for cell in cells]
        first = demand_stack(scenario)[0]
        teal_ref += teal
        lp_ref += lp_reference(
            session, scenario.pathset, [first] * len(cells), capacities, teal
        )
    satisfied = [s for c in expected_offline.cells for s in c.run.satisfied]
    batching = expected_offline.metadata["cell_batching"]
    return session.outcome(
        satisfied, teal_ref, lp_ref,
        {
            "invocations": float(batching["num_invocations"]),
            "buckets": float(batching["num_buckets"]),
        },
    )


WORKLOADS = {
    "asn-decide": asn_decide,
    "b4-stream": b4_stream,
    "ladder-grid": ladder_grid,
}
