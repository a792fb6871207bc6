"""Intra-device grid-cell batching: fuse compatible cells into one kernel.

The grid engine gets parallelism *across* (topology, seed) jobs from
process pools; this module adds the within-device axis: compatible
grid cells — same job and scheme, differing only in failure level and
demand matrix — execute through one stacked ``allocate_batch`` /
``split_ratios_batch`` / ``evaluate_allocations_batch`` invocation per
chunk: the ``run_failure_sweep`` recipe lifted from within-cell to
across-cell.

**Buckets.** Within one suite, mode, scale, pair budget, precision and
objective are fixed, so there is one bucket per (topology, scheme). A
bucket runs once per seed job, because different seeds build different
path sets and train different models. ``run_scenario_grid`` records the
resulting bucket and invocation counts in ``metadata["cell_batching"]``.

**Chunking** (:func:`chunk_level_keys`). The single source of truth for
how a job's failure levels split into stacked invocations, shared by
:func:`repro.harness.run_failure_sweep`,
:func:`~repro.harness.run_online_failure_sweep` and the grid's
invocation count. ``cell_batch`` semantics everywhere: 0 = one chunk
holding every level (the fully-fused default), N > 0 = chunks of at most
N levels in level order, 1 = a strict per-cell loop (the unbatched
baseline).

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
