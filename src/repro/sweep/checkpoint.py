"""Per-cell grid checkpoints: the resumable-grid persistence layer.

Paper-scale grids (``scale=1.0`` Kdl/ASN with LP baselines) outlive a
process, and an interrupted :func:`run_scenario_grid` would otherwise
restart from zero. Every completed (topology, seed) job writes each of
its finished cells into the cache directory as one ``gridcell-*.npz``
entry in the shared :mod:`repro.cache` format. A re-invocation with
``resume=True`` (``repro.cli sweep --cache-dir ... --resume``) probes
the suite's cell entries, loads the ones that verify, and only
executes the remainder.

Keying: each cell entry is keyed by :func:`cell_key` — the suite hash
(:func:`suite_token`, a SHA-256 of the canonical suite spec), the
cell's CRC32 :func:`~repro.sweep.grid.cell_seed`, and the full cell
parameter tuple ``(topology, seed, failure_count, scheme)``. The
filename carries a hash of that key and the key is also stored inside
the entry and checked on load, so a hash-prefix collision, a suite
edit, or an entry from another grid can never resurface as the wrong
cell. Any unusable entry — including a stale format stamp or a corrupt
file — is a miss and the cell recomputes.

Determinism: a cell and its job timing are stored as JSON metadata.
Python floats serialize via ``repr`` and parse back bit for bit, and
cell computation is fully seeded by the suite spec, so a resumed grid's
:class:`~repro.sweep.grid.GridResult` is bit-identical to an
uninterrupted run under either executor — ``tests/test_grid_resume.py``
holds this contract.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path

from ..cache import entry_path, read_entry, write_entry
from ..exceptions import ReproError
from .grid import GridCell, ScenarioSuite, cell_seed

#: Cell coordinates: (topology, seed, failure_count, scheme).
Coords = tuple[str, int, int, str]


def suite_token(suite: ScenarioSuite) -> str:
    """Content hash of a suite spec (the grid's identity on disk).

    Canonical-JSON SHA-256 over :meth:`ScenarioSuite.to_dict`, so two
    processes — or two library versions agreeing on the spec fields —
    compute the same token for the same grid, and *any* spec change
    (an extra failure level, a different training budget) yields a
    different token: checkpoints never leak across suites.
    """
    payload = json.dumps(suite.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def cell_key(token: str, coords: Coords) -> tuple:
    """Cache key of one cell entry (see :func:`repro.cache.entry_path`)."""
    topology, seed, failure_count, scheme = coords
    return (
        token,
        cell_seed(topology, seed, failure_count),
        topology,
        seed,
        failure_count,
        scheme,
    )


def save_cell_checkpoint(
    cache_dir: str | Path, token: str, cell: GridCell, timing: dict
) -> Path:
    """Atomically persist one completed cell (plus its job timing).

    The job timing rides along with every cell of the job (it is small
    and makes each entry self-contained); resume deduplicates it back
    to one timing record per (topology, seed).
    """
    key = cell_key(token, cell.coords)
    return write_entry(
        entry_path(cache_dir, "gridcell", key),
        {"cell": cell.to_dict(), "timing": dict(timing)},
        {},
        key=key,
    )


def load_cell_checkpoint(
    path: str | Path, token: str, coords: Coords
) -> tuple[GridCell, dict]:
    """Load and verify one cell checkpoint.

    Raises:
        ReproError: On an unusable entry (see
            :func:`repro.cache.read_entry`), including one stored under
            another suite token, coordinates or cell seed. Resume
            treats every such failure as a miss and recomputes the cell.
    """
    meta, _ = read_entry(path, key=cell_key(token, coords))
    return GridCell.from_dict(meta["cell"]), dict(meta["timing"])


def load_completed_cells(
    cache_dir: str | Path, suite: ScenarioSuite, token: str | None = None
) -> dict[Coords, tuple[GridCell, dict]]:
    """Verified completed cells of a suite found in a cache directory.

    Probes every cell coordinate of the suite directly and loads only
    entries whose full key checks out. Unusable entries — truncated or
    garbage files, stale format stamps, foreign suites — are counted,
    reported once as a ``RuntimeWarning``, and treated as misses.
    """
    cache_dir = Path(cache_dir)
    token = token if token is not None else suite_token(suite)
    completed: dict[Coords, tuple[GridCell, dict]] = {}
    unusable = 0
    for topology, seed in suite.jobs():
        for failure_count in suite.failure_counts:
            for scheme in suite.schemes:
                coords = (topology, seed, failure_count, scheme)
                path = entry_path(cache_dir, "gridcell", cell_key(token, coords))
                if not path.exists():
                    continue
                try:
                    completed[coords] = load_cell_checkpoint(path, token, coords)
                except ReproError:
                    unusable += 1
    if unusable:
        warnings.warn(
            f"{unusable} grid checkpoint entr"
            f"{'y is' if unusable == 1 else 'ies are'} unusable under "
            f"{cache_dir}; the affected cells will recompute",
            RuntimeWarning,
            stacklevel=2,
        )
    return completed
