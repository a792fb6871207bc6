"""Experiment harness shared by the benchmark suite and examples.

Builds self-contained evaluation *scenarios* — a topology at benchmark
scale, a calibrated traffic trace split per §5.1, a path set, and
provisioned capacities — and provides scheme construction, Teal training
with caching, and scheme-comparison runners that populate
:class:`~repro.simulation.metrics.SchemeRun` records.

Scaling policy: the paper's largest instances (Kdl 754 nodes, ASN 1739
nodes, all-pairs demands) are GPU/cluster-scale; the default benchmark
scales below preserve the paper's size *ordering*
B4 < SWAN < UsCarrier < Kdl < ASN and each topology's structure class,
so every trend the figures sweep is reproduced on a CPU budget. Pass
``scale=1.0`` to build full-size instances. Demand pairs are subsampled
uniformly to ``BENCH_MAX_PAIRS`` instead of taking all pairs.

Substitution policy: inputs and tools the paper used but this package
cannot ship are replaced by stand-ins that keep the properties the
evaluation depends on — structure-matched synthetic topologies
(:mod:`repro.topology.generators`), synthetic traffic calibrated to the
paper's trace statistics (:mod:`repro.traffic.generators`), scipy's
HiGHS in place of Gurobi (:mod:`repro.lp.solver`), and a numpy autodiff
substrate in place of PyTorch (:mod:`repro.nn`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import LpAll, LpTop, NCFlow, Pop, TeavarStar
from .cache import entry_path, lookup, read_entry, write_entry
from .config import POP_REPLICAS, AdmmConfig, TrainingConfig
from .core import TealScheme
from .core.checkpoint import load_model, save_model
from .exceptions import ReproError
from .lp.objectives import Objective, TotalFlowObjective, get_objective
from .nn.precision import DEFAULT_INFERENCE_PRECISION, resolve_precision
from .paths.pathset import PathSet
from .simulation.evaluator import evaluate_allocations_batch
from .simulation.metrics import SchemeRun
from .simulation.online import allocate_all
from .topology.generators import get_topology, provision_capacities
from .topology.graph import Topology
from .traffic.matrix import TrafficMatrix
from .traffic.trace import TraceSplit, TrafficTrace

#: Benchmark-scale factors per topology (fractions of Table 1 sizes).
BENCH_SCALES = {
    "B4": 1.0,
    "SWAN": 0.24,
    "UsCarrier": 0.25,
    "Kdl": 0.085,
    "ASN": 0.055,
}

#: Demand-pair budget at benchmark scale (None = all pairs).
BENCH_MAX_PAIRS = 1200

#: Cap on POP replicas at benchmark scale: a scaled-down instance has far
#: fewer demands per replica than the paper's full-size WANs, so the
#: paper's largest replica counts (128 on Kdl/ASN) would leave replicas
#: with almost no demands. The benchmark values are *derived* from the
#: paper's §5.1 table (:data:`repro.config.POP_REPLICAS`) by clamping to
#: this cap — one source of truth, no hand-maintained copy to drift.
BENCH_POP_REPLICA_CAP = 8


def bench_pop_replicas(name: str, default: int = 4) -> int:
    """POP replica count at benchmark scale for topology ``name``.

    Derived from the paper's per-topology replica table
    (:data:`repro.config.POP_REPLICAS`) clamped to
    :data:`BENCH_POP_REPLICA_CAP`.
    """
    return min(POP_REPLICAS.get(name, default), BENCH_POP_REPLICA_CAP)


#: POP replica counts at benchmark scale, derived from the config table.
BENCH_POP_REPLICAS = {name: bench_pop_replicas(name) for name in POP_REPLICAS}

#: Default short training budget for benchmark Teal models.
#: Failure augmentation stands in for the capacity-state diversity a
#: week-long production training run would see (§5.3; TrainingConfig).
#: ``batch_matrices=4`` exploits the minibatch axis: each gradient step
#: consumes four matrices through one batched forward/backward, so the
#: same step count sees 4x the traffic diversity at ~the cost of the
#: one-matrix loop (timed in ``benchmarks/bench_gates.py``).
BENCH_TRAINING = TrainingConfig(
    steps=60, warm_start_steps=220, log_every=40, failure_rate=0.25,
    batch_matrices=4,
)


@dataclass
class Scenario:
    """A ready-to-evaluate TE workload.

    Attributes:
        name: Topology name.
        topology: Provisioned topology (capacities calibrated per §5.1).
        pathset: Candidate paths for the demand set.
        split: Train/validation/test traffic matrices.
        seed: Seed used throughout construction.
    """

    name: str
    topology: Topology
    pathset: PathSet
    split: TraceSplit
    seed: int
    #: Full build_scenario parameter tuple — distinguishes scenarios that
    #: share (name, seed) but differ in splits/headroom/scale, so caches
    #: keyed on a scenario never mix them. Empty for hand-built scenarios.
    build_key: tuple = ()

    @property
    def capacities(self) -> np.ndarray:
        """Provisioned per-edge capacities."""
        return self.topology.capacities

    def demands(self, matrix: TrafficMatrix) -> np.ndarray:
        """Demand vector of a traffic matrix for this scenario's pairs."""
        return self.pathset.demand_volumes(matrix.values)


_SCENARIO_CACHE: dict[tuple, Scenario] = {}
_TEAL_CACHE: dict[tuple, TealScheme] = {}

def save_scenario(scenario: Scenario, path: str | Path) -> Path:
    """Persist a scenario as one :mod:`repro.cache` entry.

    Stores the raw inputs of the :class:`Scenario` — provisioned
    topology arrays, demand pairs, candidate path node lists, and the
    train/validation/test matrix stacks — rather than derived structures
    (CSR incidence, segment indices): :class:`~repro.paths.pathset.PathSet`
    recomputes those deterministically, so a load rebuilds the scenario
    bit for bit while the archive stays compact. The entry is keyed by
    the scenario's ``build_key`` and written atomically.

    Args:
        scenario: The scenario to persist.
        path: Destination path.

    Returns:
        The written path.
    """
    topology = scenario.topology
    pathset = scenario.pathset
    split = scenario.split
    meta = {
        "build_key": list(scenario.build_key),
        "name": scenario.name,
        "seed": scenario.seed,
        "topology_name": topology.name,
        "num_nodes": topology.num_nodes,
        "node_names": {str(k): v for k, v in topology.node_names.items()},
        "max_paths": pathset.max_paths,
        "intervals": {
            part: [m.interval for m in getattr(split, part)]
            for part in ("train", "validation", "test")
        },
    }
    arrays = {
        "edges": np.array(topology.edges, dtype=np.int64).reshape(-1, 2),
        "capacities": topology.capacities,
        "latencies": topology.latencies,
        "pairs": np.array(pathset.pairs, dtype=np.int64).reshape(-1, 2),
        "path_nodes": (
            np.concatenate(
                [np.asarray(p, dtype=np.int64) for p in pathset.path_nodes]
            )
            if pathset.path_nodes
            else np.zeros(0, dtype=np.int64)
        ),
        "path_lengths": np.array(
            [len(p) for p in pathset.path_nodes], dtype=np.int64
        ),
        "path_demand": pathset.path_demand,
    }
    for part in ("train", "validation", "test"):
        arrays[part] = np.stack([m.values for m in getattr(split, part)])
    return write_entry(path, meta, arrays, key=scenario.build_key)


def load_scenario(path: str | Path, expected_key: tuple | None = None) -> Scenario:
    """Load a scenario written by :func:`save_scenario`.

    The rebuilt scenario is bit-identical to the one that was saved:
    topology/capacity/latency arrays round-trip exactly through ``.npz``
    and the path-set's derived structures are recomputed by the same
    deterministic constructor.

    Args:
        path: The ``.npz`` entry.
        expected_key: If given, the full ``build_scenario`` key the entry
            must have been stored under (guards against hash collisions).

    Raises:
        ReproError: On an unusable entry (see
            :func:`repro.cache.read_entry`); the cache treats it as a
            miss.
    """
    meta, arrays = read_entry(path, key=expected_key)
    topology = Topology(
        num_nodes=int(meta["num_nodes"]),
        edges=[(int(u), int(v)) for u, v in arrays["edges"]],
        capacities=arrays["capacities"],
        latencies=arrays["latencies"],
        name=str(meta["topology_name"]),
        node_names={int(k): str(v) for k, v in meta["node_names"].items()},
    )
    pairs = [(int(s), int(t)) for s, t in arrays["pairs"]]
    offsets = np.concatenate(([0], np.cumsum(arrays["path_lengths"])))
    flat = arrays["path_nodes"]
    paths_per_demand: list[list[list[int]]] = [[] for _ in pairs]
    for pid, demand in enumerate(arrays["path_demand"]):
        paths_per_demand[int(demand)].append(
            flat[offsets[pid] : offsets[pid + 1]].tolist()
        )
    pathset = PathSet(
        topology, pairs, paths_per_demand, max_paths=int(meta["max_paths"])
    )
    parts = {
        part: [
            TrafficMatrix(values, interval=int(interval))
            for values, interval in zip(arrays[part], meta["intervals"][part])
        ]
        for part in ("train", "validation", "test")
    }
    return Scenario(
        name=str(meta["name"]),
        topology=topology,
        pathset=pathset,
        split=TraceSplit(**parts),
        seed=int(meta["seed"]),
        build_key=tuple(meta["build_key"]),
    )


def build_scenario(
    name: str,
    scale: float | None = None,
    seed: int = 0,
    max_pairs: int | None = BENCH_MAX_PAIRS,
    train: int = 40,
    validation: int = 8,
    test: int = 16,
    headroom: float = 0.9,
    use_cache: bool = True,
    cache_dir: str | Path | None = None,
) -> Scenario:
    """Build (or fetch from cache) a benchmark scenario.

    Args:
        name: Topology name (Table 1).
        scale: Size factor; defaults to the benchmark scale for ``name``.
        seed: Master seed (topology, traffic, and pair sampling derive
            from it deterministically).
        max_pairs: Demand-pair budget (None = all ordered pairs).
        train: Training matrices to generate.
        validation: Validation matrices.
        test: Test matrices.
        headroom: Capacity-provisioning headroom over shortest-path load.
        use_cache: Reuse an identical previously built scenario.
        cache_dir: Optional persistent cache directory (the tier next to
            :func:`trained_teal`'s model checkpoints). When set, built
            scenarios are stored as ``scenario-*.npz`` entries (see
            :mod:`repro.cache`) keyed by the full parameter tuple, and later
            calls — including fresh processes, repeated grid cells, and
            CI re-runs — skip topology generation, k-shortest-path
            enumeration, and trace synthesis by loading the entry. A hit
            reproduces the rebuilt scenario bit for bit; an unreadable
            or mismatched entry falls back to a rebuild (with a
            ``RuntimeWarning``) and overwrites the bad entry.

    Returns:
        A :class:`Scenario`.

    Capacities are calibrated per §5.1 so the best scheme satisfies most
    demand — but only against the *train* split's mean matrix. The paper
    provisions from historical traffic, and the held-out test matrices
    stand in for the future: letting them influence provisioning would
    leak the evaluation split into the workload definition.
    """
    if scale is None:
        scale = BENCH_SCALES.get(name, 1.0)
    key = (name, scale, seed, max_pairs, train, validation, test, headroom)

    def build() -> Scenario:
        topology = get_topology(name, scale=scale, seed=seed)
        trace = TrafficTrace.generate(
            topology.num_nodes, train + validation + test, seed=seed + 17
        )
        split = trace.split(train, validation, test)
        pathset = PathSet.from_topology(
            topology, max_pairs=max_pairs, seed=seed + 29
        )
        # §5.1: capacities are set so the best scheme satisfies most
        # demand, calibrated on the train split only (see the docstring
        # above).
        train_mean = np.stack([m.values for m in split.train]).mean(axis=0)
        loads = pathset.shortest_path_loads(train_mean)
        provisioned = provision_capacities(topology, loads, headroom=headroom)
        # Rebind the pathset to the provisioned topology (same structure).
        pathset = PathSet(
            provisioned,
            pathset.pairs,
            [pathset.paths_of_demand(d) for d in range(pathset.num_demands)],
            max_paths=pathset.max_paths,
        )
        return Scenario(
            name=name,
            topology=provisioned,
            pathset=pathset,
            split=split,
            seed=seed,
            build_key=key,
        )

    return lookup(
        _SCENARIO_CACHE,
        key,
        entry_path(cache_dir, "scenario", key) if cache_dir is not None else None,
        load=lambda path: load_scenario(path, expected_key=key),
        build=build,
        save=save_scenario,
        use_cache=use_cache,
    )


def make_baselines(
    scenario: Scenario,
    objective: Objective | None = None,
    include: tuple[str, ...] = ("LP-all", "LP-top", "NCFlow", "POP"),
) -> dict[str, object]:
    """Construct baseline schemes configured for a scenario.

    Args:
        scenario: The workload.
        objective: TE objective (default: total flow).
        include: Scheme names to build.

    Returns:
        Mapping of scheme name to scheme instance.
    """
    if objective is None:
        objective = get_objective("total_flow")
    schemes: dict[str, object] = {}
    for name in include:
        if name == "LP-all":
            schemes[name] = LpAll(objective)
        elif name == "LP-top":
            schemes[name] = LpTop(objective)
        elif name == "NCFlow":
            schemes[name] = NCFlow(objective, seed=scenario.seed)
        elif name == "POP":
            replicas = bench_pop_replicas(scenario.name)
            schemes[name] = Pop(objective, num_replicas=replicas, seed=scenario.seed)
        elif name == "TEAVAR*":
            schemes[name] = TeavarStar(objective)
        else:
            raise ReproError(f"unknown baseline {name!r}")
    return schemes


def trained_teal(
    scenario: Scenario,
    objective_name: str = "total_flow",
    config: TrainingConfig | None = None,
    seed: int = 0,
    use_cache: bool = True,
    precision: np.dtype | str | None = None,
    cache_dir: str | Path | None = None,
    **teal_kwargs,
) -> TealScheme:
    """Build and train a Teal scheme for a scenario (cached per session).

    Args:
        scenario: The workload (training uses its train split).
        objective_name: Objective registry name.
        config: Training budget (default: the benchmark budget).
        seed: Model seed.
        use_cache: Reuse an identical previously trained model.
        precision: Inference precision (default float32 — the measured
            parity/speedup default for sweeps; see
            :mod:`repro.nn.precision`). Training always runs float64 and
            checkpoints store float64 weights, so one on-disk entry
            serves every inference precision's in-memory twin.
        cache_dir: Optional persistent cache directory. When set, the
            trained model's weights are stored as an ``.npz`` checkpoint
            keyed by the full config (``teal-*.npz``, see
            :mod:`repro.cache`) and
            later calls — including fresh processes and CI runs — skip
            retraining by loading the checkpoint. An unusable checkpoint
            warns (``RuntimeWarning``) and is retrained over.
        **teal_kwargs: Extra arguments forwarded to :class:`TealScheme`.

    Returns:
        A trained :class:`TealScheme`.
    """
    config = config if config is not None else BENCH_TRAINING
    precision = resolve_precision(precision, default=DEFAULT_INFERENCE_PRECISION)
    # The paper tunes 2/5 ADMM iterations for its GPU pipeline; our numpy
    # ADMM converges a little slower per iteration, so the benchmark
    # harness uses 12 (still sub-millisecond per iteration).
    teal_kwargs.setdefault("admm", AdmmConfig(iterations=12))
    # The cache key carries the *full* frozen TrainingConfig and the
    # resolved kwargs (including the AdmmConfig default above): keying on
    # a subset of fields silently returned models trained under a
    # different failure_rate / batch size / training seed. The scenario's
    # build_key likewise distinguishes workloads that share (name, seed,
    # num_demands) but differ in splits, headroom, or scale. The precision
    # is part of the key: a float32-inference scheme must not be handed
    # to a caller that asked for float64 parity numbers.
    key = (
        scenario.name,
        scenario.seed,
        scenario.pathset.num_demands,
        scenario.build_key,
        objective_name,
        config,
        seed,
        precision.name,
        tuple(sorted(teal_kwargs.items())),
    )
    # On-disk tier: checkpoints are precision-independent (the model
    # is float64; float32 inference runs a cast copy), so the disk key
    # drops the precision component of the in-memory key.
    disk_key = key[:7] + key[8:]

    def untrained() -> TealScheme:
        return TealScheme(
            scenario.pathset, objective=get_objective(objective_name),
            seed=seed, precision=precision, **teal_kwargs,
        )

    def load(path: Path) -> TealScheme:
        teal = untrained()
        load_model(teal.model, path, key=disk_key)
        teal.trained = True
        return teal

    def build() -> TealScheme:
        teal = untrained()
        teal.train(scenario.split.train, config=config)
        return teal

    return lookup(
        _TEAL_CACHE,
        key,
        entry_path(cache_dir, "teal", disk_key) if cache_dir is not None else None,
        load=load,
        build=build,
        # The model is float64 whatever the inference precision.
        save=lambda teal, path: save_model(teal.model, path, key=disk_key),
        use_cache=use_cache,
    )


def _objective_values(
    objective: Objective,
    pathset: PathSet,
    batch_report,
    ratios: np.ndarray,
    demands: np.ndarray,
    capacities: np.ndarray,
) -> np.ndarray:
    """(T,) objective values for a scored allocation stack.

    For the default total-flow objective the value is the delivered
    total the scoring pass already computed; anything else runs one
    batched evaluation instead of a per-matrix loop.
    """
    if type(objective) is TotalFlowObjective:
        return batch_report.delivered_total
    return objective.evaluate_batch(pathset, ratios, demands, capacities)


def run_offline_comparison(
    scenario: Scenario,
    schemes: dict[str, object],
    matrices: list[TrafficMatrix] | None = None,
    objective: Objective | None = None,
    capacities: np.ndarray | None = None,
) -> dict[str, SchemeRun]:
    """Evaluate schemes over the test trace in the offline setting (§5.6).

    The one-level case of :func:`run_failure_sweep`.

    Args:
        scenario: The workload.
        schemes: Mapping name -> scheme.
        matrices: Matrices to evaluate (default: the test split).
        objective: Objective whose raw value is also recorded.
        capacities: (E,) capacity override (failure experiments).

    Returns:
        Mapping name -> populated :class:`SchemeRun`.
    """
    caps = scenario.capacities if capacities is None else capacities
    return run_failure_sweep(scenario, schemes, {0: caps}, matrices, objective)[0]


def _checked_capacities(key, capacities, num_edges: int) -> np.ndarray:
    """One sweep level's (E,) capacity vector, or a :class:`ReproError`."""
    caps = np.asarray(capacities, dtype=float)
    if caps.shape != (num_edges,):
        reason = f"shape {caps.shape} != ({num_edges},)"
    elif not np.isfinite(caps).all():
        reason = "non-finite values"
    elif (caps < 0).any():
        reason = "negative values"
    else:
        return caps
    raise ReproError(f"capacities for sweep key {key!r}: {reason}")


def run_failure_sweep(
    scenario: Scenario,
    schemes: dict[str, object],
    capacity_sets: dict,
    matrices: list[TrafficMatrix] | None = None,
    objective: Objective | None = None,
) -> dict:
    """Offline comparison across several capacity states in one batch.

    The one offline allocate-and-score loop: every (capacity state,
    traffic matrix) combination becomes one row of a single
    (K * T, D) demand / (K * T, E) capacity stack, so each scheme's whole
    sweep shares *one* batched forward (one ``allocate_batch`` call, one
    ADMM fine-tuning run, one evaluation pass for Teal) instead of K.

    Timing semantics: a natively batched scheme (Teal) reports its
    *amortized* per-matrix compute time (total batch time / rows); the
    LP family's ``allocate_batch`` loops ``allocate``, so its times are
    per matrix.

    The batched kernels are row-identical across batch sizes (per-row
    matmuls, per-row tiled segment reductions), so a capacity state's
    rows do not depend on which other states share the stack: a
    one-level sweep returns the same numbers as that level inside a
    larger one.

    Args:
        scenario: The workload.
        schemes: Mapping name -> scheme.
        capacity_sets: Mapping sweep key (e.g. failure count) -> (E,)
            capacity vector in effect for that level.
        matrices: Matrices evaluated at every level (default: test split).
        objective: Objective whose raw value is also recorded.

    Returns:
        Mapping sweep key -> (mapping scheme name -> :class:`SchemeRun`).

    Raises:
        ReproError: When a capacity vector is not (E,), finite, and
            non-negative (checked before any allocation).
    """
    if matrices is None:
        matrices = scenario.split.test
    if objective is None:
        objective = get_objective("total_flow")
    num_edges = scenario.topology.num_edges
    capacity_sets = {
        key: _checked_capacities(key, caps, num_edges)
        for key, caps in capacity_sets.items()
    }
    keys = list(capacity_sets)
    results: dict = {
        key: {name: SchemeRun(scheme=name) for name in schemes} for key in keys
    }
    if not matrices or not keys:
        return results

    num_matrices = len(matrices)
    demands_one = scenario.pathset.demand_volumes_batch(
        np.stack([m.values for m in matrices])
    )
    demands_all = np.tile(demands_one, (len(keys), 1))
    caps_all = np.repeat(
        np.stack([capacity_sets[key] for key in keys]), num_matrices, axis=0
    )
    for name, scheme in schemes.items():
        allocations = allocate_all(scheme, scenario.pathset, demands_all, caps_all)
        ratios_all = np.stack([a.split_ratios for a in allocations])
        batch_report = evaluate_allocations_batch(
            scenario.pathset, ratios_all, demands_all, caps_all
        )
        values = _objective_values(
            objective, scenario.pathset, batch_report, ratios_all,
            demands_all, caps_all,
        )
        for row, allocation in enumerate(allocations):
            key = keys[row // num_matrices]
            results[key][name].add(
                satisfied=batch_report.satisfied_fraction[row],
                compute_time=allocation.compute_time,
                objective_value=float(values[row]),
                extras=allocation.extras,
            )
    return results


def run_online_failure_sweep(
    scenario: Scenario,
    schemes: dict[str, object],
    schedules: dict,
) -> dict:
    """Online comparisons across event schedules sharing one forward.

    Each schedule (e.g. one failure level) replays its own demand and
    capacity timeline. All schedules' (interval, demand, capacity) rows
    are stacked and every scheme allocates for the whole sweep in one
    :func:`~repro.simulation.online.allocate_all` call; each schedule's
    slice then runs through
    :meth:`~repro.simulation.streaming.StreamingEngine.run` as
    precomputed decisions, which applies the staleness/deployment
    semantics per schedule.

    Args:
        scenario: The workload (supplies pathset and nominal capacities).
        schemes: Mapping name -> scheme.
        schedules: Mapping sweep key ->
            :class:`~repro.simulation.streaming.EventSchedule` (e.g.
            built per failure level via
            ``EventSchedule.from_grid_cell``/``from_failure_case``).

    Returns:
        Mapping sweep key -> (mapping scheme name ->
        :class:`~repro.simulation.streaming.StreamingRunResult`). No
        schedules yields an empty mapping.
    """
    from .simulation.streaming import StreamingEngine

    pathset = scenario.pathset
    results: dict = {key: {} for key in schedules}
    if not schedules:
        return results
    demands_all = np.concatenate(
        [schedule.demand_stack(pathset) for schedule in schedules.values()]
    )
    caps_all = np.concatenate(
        [
            schedule.capacity_stack(scenario.capacities)
            for schedule in schedules.values()
        ]
    )
    for name, scheme in schemes.items():
        allocations = allocate_all(scheme, pathset, demands_all, caps_all)
        engine = StreamingEngine(pathset, scheme, warm_start=False)
        start = 0
        for key, schedule in schedules.items():
            stop = start + schedule.num_intervals
            results[key][name] = engine.run(
                schedule, scenario.capacities, allocations=allocations[start:stop]
            )
            start = stop
    return results


def run_streaming_sweep(
    scenario: Scenario,
    schemes: dict[str, object],
    schedules: dict,
    warm_start: bool = True,
    warm_iterations: int | None = None,
) -> dict:
    """Run every scheme through the streaming engine per event schedule.

    The per-decision counterpart of :func:`run_online_failure_sweep`
    (which precomputes every decision in one batch): each (schedule,
    scheme) cell drives a
    :class:`~repro.simulation.streaming.StreamingEngine` through its
    event stream, one decision per traffic update — genuine
    per-decision wall-clock, the p50/p99 latency the engine reports.

    Args:
        scenario: The workload (supplies pathset and nominal capacities).
        schemes: Mapping name -> scheme.
        schedules: Mapping sweep key ->
            :class:`~repro.simulation.streaming.EventSchedule` (e.g.
            built per failure level via
            ``EventSchedule.from_grid_cell``/``from_failure_case``).
        warm_start: Use the incremental ADMM warm-start path where the
            scheme supports it (False = cold decisions only, one
            ``allocate`` call per traffic update).
        warm_iterations: ADMM iteration budget of warm decisions.

    Returns:
        Mapping sweep key -> (mapping scheme name ->
        :class:`~repro.simulation.streaming.StreamingRunResult`). Empty
        ``schedules`` yields an empty mapping (matching the other
        sweeps' empty-input contract).
    """
    from .simulation.streaming import StreamingEngine

    results: dict = {}
    for key, schedule in schedules.items():
        results[key] = {}
        for name, scheme in schemes.items():
            engine = StreamingEngine(
                scenario.pathset,
                scheme,
                warm_start=warm_start,
                warm_iterations=warm_iterations,
            )
            results[key][name] = engine.run(
                schedule, capacities=scenario.capacities
            )
    return results


def scaled_te_interval(
    runs: dict[str, SchemeRun], fast: str = "Teal", slow: str = "LP-all"
) -> float:
    """A TE-interval length scaled to benchmark instances.

    At production scale the interval is 5 minutes and the paper's point
    is that LP-based schemes exceed it on large WANs while Teal does not.
    Benchmark instances are smaller, so the interval must shrink with
    them to preserve the *ratio* of compute time to control budget: we
    take the geometric mean of the fast and slow schemes' mean compute
    times, which places the budget between them (Teal within budget,
    LP-all beyond it) exactly as on the paper's large topologies.

    Args:
        runs: Offline comparison results including both schemes.
        fast: Name of the fast scheme (default Teal).
        slow: Name of the slow scheme (default LP-all).

    Returns:
        Interval length in seconds.
    """
    if fast not in runs or slow not in runs:
        raise ReproError(f"runs must include {fast!r} and {slow!r}")
    t_fast = max(runs[fast].mean_compute_time, 1e-6)
    t_slow = max(runs[slow].mean_compute_time, t_fast)
    return math.sqrt(t_fast * t_slow)


def run_online_comparison(
    scenario: Scenario,
    schemes: dict[str, object],
    interval_seconds: float,
    matrices: list[TrafficMatrix] | None = None,
    failure_at: int | None = None,
    failed_edges: tuple[int, ...] = (),
):
    """Run every scheme through the online control loop (§5.1 metric).

    The one-schedule case of :func:`run_online_failure_sweep`.

    Args:
        scenario: The workload.
        schemes: Mapping name -> scheme.
        interval_seconds: TE interval (see :func:`scaled_te_interval`).
        matrices: Matrices to replay (default: the test split).
        failure_at: Optional failure interval.
        failed_edges: Directed edge ids failing at ``failure_at``.

    Returns:
        Mapping name ->
        :class:`~repro.simulation.streaming.StreamingRunResult`.
    """
    from .simulation.streaming import EventSchedule

    if matrices is None:
        matrices = scenario.split.test
    schedule = EventSchedule.from_failure_case(
        matrices,
        interval_seconds,
        failed_edges=failed_edges,
        failure_at=failure_at,
    )
    return run_online_failure_sweep(scenario, schemes, {0: schedule})[0]


def clear_caches() -> None:
    """Drop cached scenarios and trained models (tests use this)."""
    _SCENARIO_CACHE.clear()
    _TEAL_CACHE.clear()
