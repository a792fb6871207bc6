"""Cross-topology scenario-grid sweeps (topology × failure × trace × scheme).

The paper's headline claim is that Teal's speedup *grows with topology
size* (Figures 4-7): every figure sweeps a grid of topologies crossed
with workloads. PRs 1-2 batched the failure and trace axes — a whole
(failure level × traffic matrix) inner product runs as one vectorized
forward per scheme — but the topology axis still required a hand-written
loop of ``build_scenario``/``trained_teal`` calls. This module is that
missing layer: declare the grid once as a :class:`ScenarioSuite`, and
:func:`run_scenario_grid` builds/trains each topology through the
harness caches, dispatches the batched inner sweep
(:func:`repro.harness.run_failure_sweep` offline,
:func:`repro.harness.run_online_failure_sweep` online), and runs
independent topologies concurrently through a ``concurrent.futures``
pool.

Determinism contract: every random choice derives from the suite spec —
scenario construction and training from the per-variant ``seed``,
failure sampling from :func:`cell_seed` (a CRC32 of the cell
coordinates, stable across processes, unlike Python's randomized string
``hash``). A parallel run therefore reproduces a serial run bit for bit,
which the test suite verifies.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from concurrent.futures import (
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from dataclasses import asdict, dataclass, field, fields, replace

from ..cache import atomic_write_json
from ..config import TE_INTERVAL_SECONDS, TrainingConfig
from ..exceptions import ReproError
from ..simulation.metrics import SchemeRun, format_comparison_table
from ..simulation.streaming import EventSchedule, LinkFailure
from .cellbatch import chunk_level_keys, resolve_cell_batch

#: Executors accepted by :func:`run_scenario_grid`.
EXECUTORS = ("serial", "thread", "process")


def cell_seed(topology: str, seed: int, failure_count: int) -> int:
    """Deterministic seed for one grid cell's failure sampling.

    Stable across interpreter runs and worker processes (CRC32 of the
    cell coordinates — Python's builtin string ``hash`` is randomized
    per process and must not be used here).
    """
    token = f"{topology}|{seed}|{failure_count}".encode()
    return int(zlib.crc32(token))


@dataclass(frozen=True)
class ScenarioSuite:
    """Declarative spec of a scenario grid.

    The grid is the cross product ``topologies × seeds × failure_counts
    × schemes``. Topology × seed pairs are independent *jobs* (each
    builds a scenario and trains Teal once); within a job the failure ×
    trace inner product runs through the batched sweep runners.

    Attributes:
        topologies: Topology names (Table 1).
        failure_counts: Simultaneous physical-link failures per level
            (0 = nominal capacities).
        seeds: Master seeds — each builds an independent topology/trace
            variant (the "trace variant" axis).
        schemes: Scheme names; baselines from
            :func:`repro.harness.make_baselines` plus ``"Teal"``.
        mode: ``"offline"`` (Figure 8 style) or ``"online"`` (Figure 9
            style, control-delay semantics).
        objective: Objective registry name.
        training: Teal training budget (None = the benchmark default).
        precision: Inference precision for Teal (``"float32"`` — the
            default, measured to match float64 sweep results within 1e-4
            relative — or ``"float64"``). Training always runs float64;
            see :mod:`repro.nn.precision`.
        scale: Topology size factor (None = per-topology benchmark scale).
        max_pairs: Demand-pair budget (None = all ordered pairs).
        train: Training matrices per scenario.
        validation: Validation matrices per scenario.
        test: Test matrices per scenario (the trace axis length).
        headroom: Capacity-provisioning headroom.
        interval_seconds: TE interval for online mode.
        failure_at: Online mode: interval the failure strikes (None =
            mid-trace).
        cell_batch: Grid-cell fusion bound (see
            :mod:`repro.sweep.cellbatch`): 0 stacks every compatible
            cell of a job into one batched kernel invocation (the
            default), 1 runs a strict per-cell loop, N > 1 fuses chunks
            of at most N failure levels. None defers to 0 unless
            ``run_scenario_grid``'s ``cell_batch`` argument (the CLI
            flag) is set. Every value is bit-identical.
    """

    topologies: tuple[str, ...]
    failure_counts: tuple[int, ...] = (0,)
    seeds: tuple[int, ...] = (0,)
    schemes: tuple[str, ...] = ("LP-all", "Teal")
    mode: str = "offline"
    objective: str = "total_flow"
    training: TrainingConfig | None = None
    precision: str = "float32"
    scale: float | None = None
    max_pairs: int | None = 1200
    train: int = 8
    validation: int = 2
    test: int = 4
    headroom: float = 0.9
    interval_seconds: float = TE_INTERVAL_SECONDS
    failure_at: int | None = None
    cell_batch: int | None = None

    def __post_init__(self) -> None:
        # Accept any sequence for the axes (CLI passes lists).
        for name in ("topologies", "failure_counts", "seeds", "schemes"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("topologies", "failure_counts", "seeds", "schemes"):
            axis = getattr(self, name)
            if not axis:
                raise ReproError(f"suite axis {name!r} must be non-empty")
            # Duplicates would yield cells with identical coordinates
            # (and silently doubled training work).
            if len(set(axis)) != len(axis):
                raise ReproError(f"duplicate values in suite axis {name!r}")
        if self.mode not in ("offline", "online"):
            raise ReproError(f"unknown sweep mode {self.mode!r}")
        if self.failure_at is not None and self.failure_at < 0:
            raise ReproError(
                f"failure_at must be non-negative, got {self.failure_at}"
            )
        if self.precision not in ("float32", "float64"):
            raise ReproError(
                f"unknown precision {self.precision!r}; "
                "expected 'float32' or 'float64'"
            )
        if self.cell_batch is not None:
            # Validate eagerly so a bad config fails at suite build, not
            # deep inside a pool worker.
            resolve_cell_batch(self.cell_batch)

    @property
    def num_jobs(self) -> int:
        """Independent (topology, seed) work units."""
        return len(self.topologies) * len(self.seeds)

    @property
    def num_cells(self) -> int:
        """Total grid cells (jobs × failure levels × schemes)."""
        return self.num_jobs * len(self.failure_counts) * len(self.schemes)

    def jobs(self) -> list[tuple[str, int]]:
        """(topology, seed) pairs in deterministic grid order."""
        return [(t, s) for t in self.topologies for s in self.seeds]

    def to_dict(self) -> dict:
        """JSON-ready dict (inverse of :meth:`from_dict`)."""
        record = asdict(self)
        for name in ("topologies", "failure_counts", "seeds", "schemes"):
            record[name] = list(record[name])
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "ScenarioSuite":
        """Rebuild a suite from :meth:`to_dict` output.

        Unknown keys are dropped rather than rejected: a result written
        by a newer library version (extra suite fields) stays loadable
        by this one, which is what lets grid analytics aggregate
        ``GridResult`` JSONs across PRs.
        """
        names = {f.name for f in fields(cls)}
        record = {k: v for k, v in record.items() if k in names}
        if record.get("training") is not None:
            training_names = {f.name for f in fields(TrainingConfig)}
            record["training"] = TrainingConfig(
                **{
                    k: v
                    for k, v in record["training"].items()
                    if k in training_names
                }
            )
        return cls(**record)


@dataclass
class GridCell:
    """One (topology, seed, failure level, scheme) cell of a grid result."""

    topology: str
    seed: int
    failure_count: int
    scheme: str
    run: SchemeRun
    extras: dict = field(default_factory=dict)

    @property
    def coords(self) -> tuple[str, int, int, str]:
        """(topology, seed, failure_count, scheme) lookup key."""
        return (self.topology, self.seed, self.failure_count, self.scheme)

    def to_dict(self) -> dict:
        """JSON-ready dict (inverse of :meth:`from_dict`)."""
        return {
            "topology": self.topology,
            "seed": self.seed,
            "failure_count": self.failure_count,
            "scheme": self.scheme,
            "run": self.run.to_dict(),
            "extras": self.extras,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "GridCell":
        """Rebuild a cell from :meth:`to_dict` output."""
        return cls(
            topology=record["topology"],
            seed=record["seed"],
            failure_count=record["failure_count"],
            scheme=record["scheme"],
            run=SchemeRun.from_dict(record["run"]),
            extras=dict(record.get("extras", {})),
        )


@dataclass
class GridResult:
    """Unified record of one grid sweep.

    Attributes:
        suite: The spec that produced it.
        cells: One :class:`GridCell` per (topology, seed, failure level,
            scheme), in deterministic grid order.
        timings: One record per (topology, seed) job with
            ``build_seconds`` / ``train_seconds`` / ``sweep_seconds`` and
            instance sizes.
        metadata: Executor, worker count, total wall-clock, cell count.
    """

    suite: ScenarioSuite
    cells: list[GridCell]
    timings: list[dict] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def cell(
        self, topology: str, seed: int, failure_count: int, scheme: str
    ) -> GridCell:
        """Look one cell up by its grid coordinates.

        Raises:
            ReproError: If no such cell exists.
        """
        coords = (topology, seed, failure_count, scheme)
        for cell in self.cells:
            if cell.coords == coords:
                return cell
        raise ReproError(f"no grid cell at {coords!r}")

    def runs(
        self, topology: str, seed: int, failure_count: int
    ) -> dict[str, SchemeRun]:
        """Scheme -> run mapping of one (topology, seed, failure) slice.

        The same shape :func:`repro.harness.run_offline_comparison`
        returns, so downstream metric helpers apply unchanged.
        """
        return {
            cell.scheme: cell.run
            for cell in self.cells
            if (cell.topology, cell.seed, cell.failure_count)
            == (topology, seed, failure_count)
        }

    def to_dict(self) -> dict:
        """JSON-ready dict (inverse of :meth:`from_dict`)."""
        return {
            "suite": self.suite.to_dict(),
            "cells": [cell.to_dict() for cell in self.cells],
            "timings": list(self.timings),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "GridResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            suite=ScenarioSuite.from_dict(record["suite"]),
            cells=[GridCell.from_dict(c) for c in record["cells"]],
            timings=list(record.get("timings", [])),
            metadata=dict(record.get("metadata", {})),
        )

    def to_json(self, path: str | os.PathLike) -> None:
        """Write the result as an indented JSON file.

        The write is atomic (:func:`repro.cache.atomic_write_json`): an
        interrupt mid-write leaves the previous file — if any — intact
        instead of a truncated, unloadable one.
        """
        atomic_write_json(path, self.to_dict())

    @classmethod
    def from_json(cls, path: str | os.PathLike) -> "GridResult":
        """Load a result written by :meth:`to_json`.

        Raises:
            ReproError: With the file path and reason, on unreadable
                files, truncated/invalid JSON, or documents missing the
                grid-result keys — never a raw ``KeyError`` or
                ``JSONDecodeError``.
        """
        name = os.fspath(path)
        try:
            with open(path) as handle:
                record = json.load(handle)
        except OSError as error:
            raise ReproError(
                f"cannot read grid result {name!r}: {error}"
            ) from error
        except json.JSONDecodeError as error:
            raise ReproError(
                f"malformed grid result {name!r}: {error}"
            ) from error
        try:
            return cls.from_dict(record)
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise ReproError(
                f"malformed grid result {name!r}: "
                f"{type(error).__name__}: {error}"
            ) from error

    def summary_table(self) -> str:
        """Paper-style text table, one comparison block per grid slice."""
        blocks: list[str] = []
        for topology, seed in self.suite.jobs():
            for count in self.suite.failure_counts:
                runs = self.runs(topology, seed, count)
                header = (
                    f"[{topology} seed={seed} failures={count} "
                    f"mode={self.suite.mode}]"
                )
                blocks.append(
                    header + "\n" + format_comparison_table(list(runs.values()))
                )
        return "\n\n".join(blocks)


def _online_to_scheme_run(name: str, result) -> tuple[SchemeRun, dict]:
    """Flatten a StreamingRunResult into the unified per-cell SchemeRun."""
    run = SchemeRun(scheme=name)
    for record in result.intervals:
        run.add(
            satisfied=record.satisfied_fraction,
            compute_time=record.compute_time,
            extras={
                "allocation_age": int(record.allocation_age),
                "stale": bool(record.stale),
            },
        )
    return run, {"stale_fraction": result.stale_fraction}


def _run_topology_job(
    suite: ScenarioSuite,
    topology: str,
    seed: int,
    cache_dir: str | None = None,
    cell_batch: int = 0,
) -> tuple[list[GridCell], dict]:
    """Build, train, and sweep one (topology, seed) grid job.

    Module-level (not a closure) so process-pool workers can import it;
    all inputs/outputs are picklable dataclasses. ``cache_dir`` enables
    the harness' persistent tiers: scenarios load from the on-disk
    scenario cache (skipping topology generation, k-shortest-path
    enumeration, and trace synthesis) and Teal models load from the
    checkpoint cache instead of retraining. ``cell_batch`` bounds how
    many of the job's failure levels fuse into one stacked kernel
    invocation (see :mod:`repro.sweep.cellbatch`); every value is
    bit-identical.
    """
    from .. import harness
    from ..lp.objectives import get_objective
    from ..topology.failures import sample_link_failures

    objective = get_objective(suite.objective)

    start = time.perf_counter()
    scenario = harness.build_scenario(
        topology,
        scale=suite.scale,
        seed=seed,
        max_pairs=suite.max_pairs,
        train=suite.train,
        validation=suite.validation,
        test=suite.test,
        headroom=suite.headroom,
        cache_dir=cache_dir,
    )
    build_seconds = time.perf_counter() - start

    baseline_names = tuple(n for n in suite.schemes if n != "Teal")
    schemes: dict[str, object] = {}
    if baseline_names:
        schemes.update(
            harness.make_baselines(
                scenario, objective=objective, include=baseline_names
            )
        )
    train_seconds = 0.0
    if "Teal" in suite.schemes:
        start = time.perf_counter()
        schemes["Teal"] = harness.trained_teal(
            scenario,
            objective_name=suite.objective,
            config=suite.training,
            seed=seed,
            precision=suite.precision,
            cache_dir=cache_dir,
        )
        train_seconds = time.perf_counter() - start
    schemes = {name: schemes[name] for name in suite.schemes}

    start = time.perf_counter()
    failed_edges: dict[int, list[int]] = {}
    if suite.mode == "offline":
        capacity_sets: dict[int, object] = {}
        for count in suite.failure_counts:
            edges = (
                sample_link_failures(
                    scenario.topology, count, seed=cell_seed(topology, seed, count)
                )
                if count
                else []
            )
            failed_edges[count] = [int(e) for e in edges]
            capacity_sets[count] = scenario.capacities.copy()
            capacity_sets[count][edges] = 0.0
        sweep = harness.run_failure_sweep(
            scenario,
            schemes,
            capacity_sets,
            objective=objective,
            cell_batch=cell_batch,
        )
        results = {
            count: {name: (sweep[count][name], {}) for name in suite.schemes}
            for count in suite.failure_counts
        }
    else:
        schedules = {
            count: EventSchedule.from_grid_cell(suite, scenario, count)
            for count in suite.failure_counts
        }
        for count, schedule in schedules.items():
            failed_edges[count] = [
                edge
                for event in schedule.events
                if isinstance(event, LinkFailure)
                for edge in event.edges
            ]
        sweep = harness.run_online_failure_sweep(
            scenario, schemes, schedules, cell_batch=cell_batch
        )
        results = {
            count: {
                name: _online_to_scheme_run(name, sweep[count][name])
                for name in suite.schemes
            }
            for count in suite.failure_counts
        }
    cells: list[GridCell] = []
    for count in suite.failure_counts:
        for name in suite.schemes:
            run, extras = results[count][name]
            cells.append(
                GridCell(
                    topology=topology,
                    seed=seed,
                    failure_count=count,
                    scheme=name,
                    run=run,
                    extras={**extras, "failed_edges": failed_edges[count]},
                )
            )
    sweep_seconds = time.perf_counter() - start

    timing = {
        "topology": topology,
        "seed": seed,
        "num_nodes": int(scenario.topology.num_nodes),
        "num_edges": int(scenario.topology.num_edges),
        "num_demands": int(scenario.pathset.num_demands),
        "build_seconds": build_seconds,
        "train_seconds": train_seconds,
        "sweep_seconds": sweep_seconds,
    }
    return cells, timing


def run_scenario_grid(
    suite: ScenarioSuite,
    executor: str = "serial",
    max_workers: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    cell_batch: int | None = None,
    resume: bool = False,
    max_cells: int | None = None,
) -> GridResult:
    """Run a scenario grid, optionally with concurrent topology workers.

    (topology, seed) jobs are independent — they share no mutable state
    beyond the harness caches, which the full-config cache keys keep
    collision-free — so they dispatch to a ``concurrent.futures`` pool.
    Cells are assembled in submission order, so the returned cells are
    in deterministic grid order regardless of completion order, and
    every job's randomness is seeded from the spec (see the module
    docstring), so ``executor="process"``/``"thread"`` reproduce
    ``"serial"`` bit for bit.

    With a ``cache_dir``, every completed job's cells are checkpointed
    to disk *as jobs complete* (one atomic ``gridcell-*.npz`` entry per
    cell — see :mod:`repro.sweep.checkpoint`), so an interrupted grid
    keeps its finished work. ``resume=True`` then
    loads the verified completed cells and only executes the remainder;
    because checkpointed cells round-trip exactly and recomputed cells
    are deterministic, the merged result is bit-identical to an
    uninterrupted run for every executor and ``cell_batch`` setting.
    Jobs whose cells are only partially checkpointed (an interrupt
    mid-``max_cells`` boundary) recompute whole — recomputation yields
    identical cells, so correctness never depends on partial reuse.

    Args:
        suite: The grid spec.
        executor: ``"serial"``, ``"thread"``, or ``"process"``.
        max_workers: Pool width (default: one per job, capped at the
            CPU count).
        cache_dir: Optional persistent cache directory shared by every
            job: scenarios and trained Teal models are stored on disk
            (see :func:`repro.harness.build_scenario` and
            :func:`repro.harness.trained_teal`), so repeated grid cells
            and re-runs — including fresh processes — skip rebuilds and
            retraining. A cache hit reproduces the rebuilt scenario bit
            for bit, so cached grids equal cold grids exactly. Also the
            home of the per-cell grid checkpoints above.
        cell_batch: Explicit grid-cell fusion bound; overrides the
            suite's ``cell_batch`` field (default 0 = fully fused). See
            :mod:`repro.sweep.cellbatch`. Every value reproduces the
            per-cell loop bit for bit; the knob only trades invocation
            count against peak stack size.
        resume: Load verified completed cells from ``cache_dir`` and
            execute only the remainder (requires ``cache_dir``).
        max_cells: Stop after this many cells (the partial-run /
            interrupt-simulation knob): jobs run until the quota is
            met, the last job's surplus cells are dropped, and the
            checkpoints cover exactly the returned cells.

    Returns:
        A :class:`GridResult`.

    Raises:
        ReproError: On an unknown executor name, ``resume`` without a
            ``cache_dir``, or a non-positive ``max_cells``.
    """
    if executor not in EXECUTORS:
        raise ReproError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}"
        )
    if resume and cache_dir is None:
        raise ReproError("resume=True requires a cache_dir to resume from")
    if max_cells is not None and max_cells < 1:
        raise ReproError(f"max_cells must be positive, got {max_cells}")
    cache_dir = os.fspath(cache_dir) if cache_dir is not None else None
    # Precedence: explicit argument (the CLI flag) beats the suite
    # field, which beats the fully-fused default.
    spec = cell_batch if cell_batch is not None else suite.cell_batch
    resolved_cell_batch = resolve_cell_batch(spec)
    jobs = suite.jobs()
    cells_per_job = len(suite.failure_counts) * len(suite.schemes)

    checkpointing = cache_dir is not None
    token = None
    completed: dict = {}
    if checkpointing:
        # Deferred import: checkpoint.py imports this module's types.
        from .checkpoint import load_completed_cells, suite_token

        token = suite_token(suite)
        if resume:
            completed = load_completed_cells(cache_dir, suite, token)

    start = time.perf_counter()

    # Per-job plan: the cell quota (max_cells truncation) and whether
    # every quota cell is already checkpointed (job skips execution).
    plans: list[tuple[str, int, int, list, bool]] = []
    budget = max_cells
    for topology, seed in jobs:
        if budget is not None and budget <= 0:
            break
        take = cells_per_job if budget is None else min(cells_per_job, budget)
        if budget is not None:
            budget -= take
        coords = [
            (topology, seed, count, scheme)
            for count in suite.failure_counts
            for scheme in suite.schemes
        ]
        loaded = bool(completed) and all(c in completed for c in coords[:take])
        plans.append((topology, seed, take, coords, loaded))

    outputs: list[tuple[list[GridCell], dict] | None] = [None] * len(plans)
    loaded_cells = 0
    for index, (topology, seed, take, coords, loaded) in enumerate(plans):
        if loaded:
            job_cells = [completed[c][0] for c in coords[:take]]
            timing = dict(completed[coords[0]][1])
            outputs[index] = (job_cells, timing)
            loaded_cells += take

    def record_job(index: int, job_cells: list[GridCell], timing: dict) -> None:
        # Called as each executed job completes (any completion order):
        # truncate to the quota and checkpoint, so an interrupt right
        # after this point loses nothing.
        _, _, take, _, _ = plans[index]
        kept = job_cells[:take]
        outputs[index] = (kept, timing)
        if checkpointing:
            from .checkpoint import save_cell_checkpoint

            for cell in kept:
                save_cell_checkpoint(cache_dir, token, cell, timing)

    run_indices = [i for i, p in enumerate(plans) if not p[4]]
    if executor == "serial" or not run_indices:
        workers = 1
        for index in run_indices:
            topology, seed = plans[index][0], plans[index][1]
            job_cells, timing = _run_topology_job(
                suite, topology, seed, cache_dir, resolved_cell_batch
            )
            record_job(index, job_cells, timing)
    else:
        pool_cls = (
            ThreadPoolExecutor if executor == "thread" else ProcessPoolExecutor
        )
        workers = max_workers or min(len(run_indices), os.cpu_count() or 1)
        with pool_cls(max_workers=workers) as pool:
            futures = {
                pool.submit(
                    _run_topology_job, suite, plans[i][0], plans[i][1],
                    cache_dir, resolved_cell_batch,
                ): i
                for i in run_indices
            }
            # as_completed, not submission order: each job checkpoints
            # the moment it finishes, so an interrupt while slower jobs
            # are still running keeps every completed job's cells.
            for future in as_completed(futures):
                job_cells, timing = future.result()
                record_job(futures[future], job_cells, timing)
    total_seconds = time.perf_counter() - start

    done = [output for output in outputs if output is not None]
    cells = [cell for job_cells, _ in done for cell in job_cells]
    timings = [timing for _, timing in done]
    # One bucket per (topology, scheme): only those cells may share a
    # stacked kernel call. Each bucket runs once per seed job, split into
    # the same failure-level chunks run_failure_sweep executes.
    num_buckets = len(suite.topologies) * len(suite.schemes)
    metadata = {
        "executor": executor,
        "max_workers": workers,
        "num_jobs": len(jobs),
        "num_cells": len(cells),
        "total_seconds": total_seconds,
        "cell_batch": resolved_cell_batch,
        "cell_batching": {
            "num_buckets": num_buckets,
            "num_invocations": num_buckets
            * len(suite.seeds)
            * len(chunk_level_keys(suite.failure_counts, resolved_cell_batch)),
        },
        "resumed": resume,
        "checkpointing": {
            "enabled": checkpointing,
            "suite_token": token,
            "loaded_cells": loaded_cells,
            "executed_jobs": len(run_indices),
            "max_cells": max_cells,
        },
    }
    return GridResult(suite=suite, cells=cells, timings=timings, metadata=metadata)


def single_topology(suite: ScenarioSuite, topology: str) -> ScenarioSuite:
    """A copy of ``suite`` restricted to one topology (ad-hoc reruns)."""
    if topology not in suite.topologies:
        raise ReproError(f"{topology!r} not in suite topologies")
    return replace(suite, topologies=(topology,))
