"""Intra-device grid-cell batching: fuse compatible cells into one kernel.

The grid engine gets parallelism *across* (topology, seed) jobs from
process pools; this module adds the within-device axis: compatible
grid cells — same topology, path set, precision, and scheme, differing
only in failure level, trace seed, and demand matrix — are *bucketed*
and executed through one stacked ``allocate_batch`` / ``split_ratios_batch`` /
``evaluate_allocations_batch`` invocation per bucket chunk, the PR-2
``run_failure_sweep`` recipe lifted from within-cell to across-cell.

Two layers:

**Bucket keying** (:func:`cell_bucket_key`, :func:`plan_cell_batches`).
The bucket key is everything that must match for two cells to share a
stacked kernel invocation: mode, topology, scale, demand-pair budget,
precision, objective, and scheme. Failure level and trace seed are
deliberately *absent* — they are the axes the capacity/demand
stacks carry as batch rows. Seed variants share a bucket (they are
compatible work), but execution still groups a bucket's cells by their
concrete (topology, seed) job: different seeds build different path
sets and train different models, so stacking across seeds would feed
one model another seed's demands. The plan records both levels — the
bucket (compatibility) and the per-job chunks (execution).

**Chunking** (:func:`chunk_level_keys`). The single source of truth for
how a job's failure levels split into stacked invocations, shared by
the plan and by :func:`repro.harness.run_failure_sweep` /
:func:`~repro.harness.run_online_failure_sweep` so the plan's chunk
boundaries are exactly the ones execution uses. ``cell_batch`` semantics
everywhere: 0 = one chunk holding every level (the fully-fused default,
today's behavior), N > 0 = chunks of at most N levels in level order,
1 = a strict per-cell loop (the unbatched baseline the benchmarks
compare against).

Selection: ``repro.cli sweep --cell-batch`` beats the suite's
``cell_batch`` field, which beats the fully-fused default 0
(:func:`resolve_cell_batch`).

Bit-identity contract: every ``cell_batch`` value produces identical
results bit for bit at both precisions. Chunks build their stacks
through the identical ``np.tile``/``np.repeat`` construction recipe
(the PR-6 lesson — value-equal stacks built differently perturb numpy
reductions by 1 ulp), and the batched kernels are row-identical across
batch sizes: batched matmuls run one fixed-shape GEMM per batch
element, CSR aggregation loops batch rows, and the tiled segment
primitives accumulate each segment in the original order.
``tests/test_scenario_grid.py`` pins this on B4/SWAN at float32 and
float64.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ReproError


def resolve_cell_batch(spec: int | None = None) -> int:
    """Validate a cell-batch spec; None means the fully-fused default 0.

    Raises:
        ReproError: On a negative or non-integer value.
    """
    if spec is None:
        return 0
    if not isinstance(spec, int) or spec < 0:
        raise ReproError(
            f"invalid cell batch {spec!r}; expected a non-negative integer "
            "(0 = fuse all compatible cells, 1 = per-cell loop)"
        )
    return spec


def chunk_level_keys(keys: list, cell_batch: int) -> list[list]:
    """Split a job's sweep keys into stacked-invocation chunks.

    The shared chunking rule (see the module docstring): ``cell_batch``
    0 yields one chunk with every key, N > 0 yields consecutive chunks
    of at most N keys in the given order. The order is preserved so the
    concatenation of chunk stacks equals the fully-fused stack row for
    row.
    """
    cell_batch = int(cell_batch)
    if cell_batch < 0:
        raise ReproError(
            f"invalid cell batch {cell_batch}; expected a non-negative integer"
        )
    keys = list(keys)
    if cell_batch == 0 or cell_batch >= len(keys):
        return [keys] if keys else []
    return [
        keys[start : start + cell_batch]
        for start in range(0, len(keys), cell_batch)
    ]


def cell_bucket_key(suite, topology: str, scheme: str) -> tuple:
    """The compatibility key of a grid cell: cells sharing it may fuse.

    Args:
        suite: The :class:`~repro.sweep.grid.ScenarioSuite` (supplies
            mode, scale, pair budget, precision, objective).
        topology: The cell's topology name.
        scheme: The cell's scheme name.

    Returns:
        A hashable tuple. Cells that differ in topology, precision,
        scheme, mode, scale, pair budget, or objective get
        distinct keys; cells that differ only in failure level or trace
        seed share one.
    """
    return (
        suite.mode,
        topology,
        suite.scale,
        suite.max_pairs,
        suite.precision,
        suite.objective,
        scheme,
    )


@dataclass(frozen=True)
class CellBucket:
    """One compatibility bucket of a cell-batch plan.

    Attributes:
        key: The :func:`cell_bucket_key` shared by every member cell.
        cells: Member cell coordinates (topology, seed, failure_count,
            scheme) in grid order.
        chunks: Stacked-invocation groups, one list of cell coordinates
            per ``allocate_batch`` call. Grouped by (topology, seed) job
            first — seed variants are *compatible* (same bucket) but
            execute per job because each seed trains its own model —
            then chunked by the shared :func:`chunk_level_keys` rule.
    """

    key: tuple
    cells: tuple = ()
    chunks: tuple = ()

    def to_dict(self) -> dict:
        return {
            "key": list(self.key),
            "cells": [list(cell) for cell in self.cells],
            "chunks": [[list(cell) for cell in chunk] for chunk in self.chunks],
        }


@dataclass(frozen=True)
class CellBatchPlan:
    """How a suite's cells fuse into stacked kernel invocations.

    Built by :func:`plan_cell_batches` before a grid runs; recorded in
    ``GridResult.metadata["cell_batching"]`` so a saved result documents
    the batching that produced it.

    Attributes:
        cell_batch: The resolved chunk bound (0 = fully fused).
        buckets: One :class:`CellBucket` per compatibility class, in
            grid order.
    """

    cell_batch: int
    buckets: tuple = ()

    @property
    def num_cells(self) -> int:
        return sum(len(bucket.cells) for bucket in self.buckets)

    @property
    def num_invocations(self) -> int:
        """Stacked ``allocate_batch`` calls per scheme across the grid."""
        return sum(len(bucket.chunks) for bucket in self.buckets)

    def to_dict(self) -> dict:
        return {
            "cell_batch": self.cell_batch,
            "num_buckets": len(self.buckets),
            "num_invocations": self.num_invocations,
            "buckets": [bucket.to_dict() for bucket in self.buckets],
        }


def plan_cell_batches(suite, cell_batch: int | None = None) -> CellBatchPlan:
    """Bucket a suite's cells and chunk each bucket into invocations.

    Args:
        suite: The :class:`~repro.sweep.grid.ScenarioSuite`.
        cell_batch: Explicit chunk bound; None resolves via
            :func:`resolve_cell_batch` (suite field, then 0).

    Returns:
        A :class:`CellBatchPlan` whose chunk boundaries are exactly the
        ones :func:`repro.harness.run_failure_sweep` executes.
    """
    if cell_batch is None:
        cell_batch = resolve_cell_batch(suite.cell_batch)
    buckets: dict[tuple, list] = {}
    for topology in suite.topologies:
        for scheme in suite.schemes:
            key = cell_bucket_key(suite, topology, scheme)
            members = buckets.setdefault(key, [])
            for seed in suite.seeds:
                members.append(
                    [
                        (topology, seed, count, scheme)
                        for count in suite.failure_counts
                    ]
                )
    built = []
    for key, jobs in buckets.items():
        cells = tuple(cell for job_cells in jobs for cell in job_cells)
        chunks = tuple(
            tuple(chunk)
            for job_cells in jobs
            for chunk in chunk_level_keys(job_cells, cell_batch)
        )
        built.append(CellBucket(key=key, cells=cells, chunks=chunks))
    return CellBatchPlan(cell_batch=cell_batch, buckets=tuple(built))
