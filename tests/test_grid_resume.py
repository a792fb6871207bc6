"""Tests for resumable checkpointed grid runs (``repro.sweep.checkpoint``).

The contract under test: a grid interrupted at *any* cell boundary and
resumed with ``resume=True`` produces a :class:`GridResult` bit-identical
to an uninterrupted run — across precisions, executors, and every
``cell_batch`` setting — and every persistence failure mode (truncated
writes, stale schema versions, foreign suites) degrades to a recompute,
never to wrong data.
"""

from __future__ import annotations

import pytest
from helpers import ENTRY_KINDS, entry_io

import repro.cache as cache_mod
from repro.cache import (
    CACHE_FORMAT,
    atomic_write_json,
    atomic_write_text,
    entry_path,
    write_entry,
)
from repro.config import TrainingConfig
from repro.exceptions import ReproError
from repro.harness import clear_caches
from repro.sweep import (
    GridResult,
    ScenarioSuite,
    cell_key,
    load_cell_checkpoint,
    load_completed_cells,
    run_scenario_grid,
    save_cell_checkpoint,
    suite_token,
)

#: Tiny training budget shared by every resume test.
TINY = TrainingConfig(steps=2, warm_start_steps=6, log_every=10)


def tiny_suite(**overrides) -> ScenarioSuite:
    defaults = dict(
        topologies=("B4",),
        failure_counts=(0, 1),
        seeds=(0, 1),  # 2 jobs x 4 cells = 8 cells
        schemes=("LP-all", "Teal"),
        train=4,
        validation=1,
        test=2,
        training=TINY,
    )
    defaults.update(overrides)
    return ScenarioSuite(**defaults)


def cell_path(cache_dir, token, coords):
    """The ``gridcell`` entry of one cell."""
    return entry_path(cache_dir, "gridcell", cell_key(token, coords))


def comparable(result: GridResult) -> list[tuple]:
    """Deterministic per-cell payload (wall-clock timings excluded)."""
    return [
        (cell.coords, cell.run.satisfied, cell.run.objective_values)
        for cell in result.cells
    ]


class TestSuiteToken:
    def test_deterministic(self):
        assert suite_token(tiny_suite()) == suite_token(tiny_suite())

    def test_any_spec_change_changes_the_token(self):
        base = suite_token(tiny_suite())
        assert suite_token(tiny_suite(failure_counts=(0, 1, 2))) != base
        assert suite_token(tiny_suite(precision="float64")) != base
        assert suite_token(tiny_suite(train=5)) != base


@pytest.fixture(scope="module")
def checkpointed(tmp_path_factory):
    """One full checkpointed run: (suite, token, result, cache_dir)."""
    suite = tiny_suite()
    cache_dir = tmp_path_factory.mktemp("grid_cache")
    clear_caches()
    result = run_scenario_grid(suite, cache_dir=cache_dir)
    return suite, suite_token(suite), result, cache_dir


class TestCellCheckpointEntries:
    def test_every_cell_has_a_verified_entry(self, checkpointed):
        suite, token, result, cache_dir = checkpointed
        for cell in result.cells:
            path = cell_path(cache_dir, token, cell.coords)
            assert path.exists()
            loaded, timing = load_cell_checkpoint(path, token, cell.coords)
            assert loaded.coords == cell.coords
            assert loaded.run.satisfied == cell.run.satisfied
            assert timing["train_seconds"] > 0.0

    def test_save_then_load_roundtrip(self, checkpointed, tmp_path):
        suite, token, result, _ = checkpointed
        cell = result.cells[0]
        path = save_cell_checkpoint(
            tmp_path, token, cell, {"train_seconds": 1.0}
        )
        assert path == cell_path(tmp_path, token, cell.coords)
        loaded, timing = load_cell_checkpoint(path, token, cell.coords)
        assert loaded.to_dict() == cell.to_dict()
        assert timing == {"train_seconds": 1.0}

    def test_no_temp_residue(self, checkpointed):
        _, _, _, cache_dir = checkpointed
        assert not list(cache_dir.glob("*.tmp-*"))

    def test_foreign_suite_token_is_rejected(self, checkpointed):
        suite, token, result, cache_dir = checkpointed
        coords = result.cells[0].coords
        path = cell_path(cache_dir, token, coords)
        with pytest.raises(ReproError, match="key mismatch"):
            load_cell_checkpoint(path, "0" * 16, coords)

    def test_foreign_coords_are_rejected(self, checkpointed):
        suite, token, result, cache_dir = checkpointed
        coords = result.cells[0].coords
        path = cell_path(cache_dir, token, coords)
        other = (coords[0], coords[1], coords[2], "NCFlow")
        with pytest.raises(ReproError, match="key mismatch"):
            load_cell_checkpoint(path, token, other)

    def test_stale_schema_version_is_rejected(
        self, checkpointed, tmp_path, monkeypatch
    ):
        suite, token, result, _ = checkpointed
        cell = result.cells[0]
        monkeypatch.setattr(cache_mod, "CACHE_FORMAT", CACHE_FORMAT + 1)
        stale = save_cell_checkpoint(tmp_path, token, cell, {})
        monkeypatch.undo()
        with pytest.raises(ReproError, match="stale cache entry"):
            load_cell_checkpoint(stale, token, cell.coords)

    def test_cell_seed_mismatch_is_rejected(self, checkpointed, tmp_path):
        suite, token, result, _ = checkpointed
        cell = result.cells[0]
        key = cell_key(token, cell.coords)
        bad = write_entry(
            tmp_path / "gridcell-seed.npz",
            {"cell": cell.to_dict(), "timing": {}},
            {},
            key=(key[0], key[1] + 1, *key[2:]),
        )
        with pytest.raises(ReproError, match="key mismatch"):
            load_cell_checkpoint(bad, token, cell.coords)

    def test_truncated_entry_is_a_clean_error(self, checkpointed, tmp_path):
        suite, token, result, cache_dir = checkpointed
        coords = result.cells[0].coords
        data = cell_path(cache_dir, token, coords).read_bytes()
        truncated = tmp_path / "gridcell-cut.npz"
        truncated.write_bytes(data[: len(data) // 2])
        with pytest.raises(ReproError, match="cannot read cache entry"):
            load_cell_checkpoint(truncated, token, coords)

    def test_missing_file_is_a_clean_error(self, checkpointed, tmp_path):
        suite, token, result, _ = checkpointed
        with pytest.raises(ReproError, match="cannot read cache entry"):
            load_cell_checkpoint(
                tmp_path / "absent.npz", token, result.cells[0].coords
            )


class TestAtomicWrite:
    def test_interrupted_write_preserves_the_old_file(
        self, tmp_path, monkeypatch
    ):
        """A crash inside the write window must never truncate the entry."""
        import repro.cache as cache_mod

        target = tmp_path / "entry.json"
        atomic_write_json(target, {"version": 1, "ok": True})
        before = target.read_text()

        def explode(src, dst):
            raise OSError("simulated crash mid-replace")

        monkeypatch.setattr(cache_mod.os, "replace", explode)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_json(target, {"version": 1, "ok": False})
        assert target.read_text() == before
        assert not list(tmp_path.glob("*.tmp-*"))

    @pytest.mark.parametrize("kind", ENTRY_KINDS)
    def test_interrupted_entry_write_preserves_the_old_entry(
        self, kind, entry_payloads, tmp_path, monkeypatch
    ):
        """Every entry kind writes through the same atomic helper: a
        crash mid-write keeps the old entry and leaves no temp file."""
        write, load = entry_io(kind, tmp_path, *entry_payloads)
        path = write()
        before = path.read_bytes()

        def explode(src, dst):
            raise OSError("simulated crash mid-replace")

        monkeypatch.setattr(cache_mod.os, "replace", explode)
        with pytest.raises(OSError, match="simulated crash"):
            write()
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        load(path)

    def test_text_round_trips(self, tmp_path):
        path = atomic_write_text(tmp_path / "deep" / "file.txt", "payload")
        assert path.read_text() == "payload"


class TestLoadCompletedCells:
    def test_full_cache_loads_every_cell(self, checkpointed):
        suite, token, result, cache_dir = checkpointed
        completed = load_completed_cells(cache_dir, suite, token)
        assert set(completed) == {c.coords for c in result.cells}

    def test_empty_dir_loads_nothing(self, checkpointed, tmp_path):
        suite, _, _, _ = checkpointed
        assert load_completed_cells(tmp_path, suite) == {}

    def test_unusable_entries_warn_and_miss(self, checkpointed, tmp_path):
        suite, token, result, cache_dir = checkpointed
        # Clone the cache, then corrupt one entry in the clone.
        for path in cache_dir.glob("gridcell-*.npz"):
            (tmp_path / path.name).write_bytes(path.read_bytes())
        victim = cell_path(tmp_path, token, result.cells[0].coords)
        victim.write_bytes(victim.read_bytes()[:10])
        with pytest.warns(RuntimeWarning, match="1 grid checkpoint entry is"):
            completed = load_completed_cells(tmp_path, suite, token)
        assert len(completed) == suite.num_cells - 1
        assert result.cells[0].coords not in completed


class TestResumeValidation:
    def test_resume_requires_a_cache_dir(self):
        with pytest.raises(ReproError, match="requires a cache_dir"):
            run_scenario_grid(tiny_suite(), resume=True)

    def test_max_cells_must_be_positive(self, tmp_path):
        with pytest.raises(ReproError, match="max_cells must be positive"):
            run_scenario_grid(tiny_suite(), cache_dir=tmp_path, max_cells=0)


class TestResumeDeterminism:
    """Interrupt at any cell boundary; resume must be bit-identical."""

    @pytest.fixture(scope="class")
    def reference(self) -> GridResult:
        clear_caches()
        return run_scenario_grid(tiny_suite())

    # 2 = mid-job interrupt (partial job recomputes whole), 4 = clean
    # job boundary, 6 = one full job + a partial one.
    @pytest.mark.parametrize("k", (2, 4, 6))
    def test_interrupt_then_resume_is_bit_identical(
        self, k, reference, tmp_path
    ):
        suite = tiny_suite()
        partial = run_scenario_grid(suite, cache_dir=tmp_path, max_cells=k)
        assert len(partial.cells) == k
        assert comparable(partial) == comparable(reference)[:k]
        resumed = run_scenario_grid(suite, cache_dir=tmp_path, resume=True)
        assert comparable(resumed) == comparable(reference)
        info = resumed.metadata["checkpointing"]
        # Only fully-checkpointed jobs load; partial jobs recompute whole.
        cells_per_job = len(suite.failure_counts) * len(suite.schemes)
        assert info["loaded_cells"] == (k // cells_per_job) * cells_per_job
        assert resumed.metadata["resumed"] is True

    @pytest.mark.parametrize("cell_batch", (0, 1, 2))
    def test_resume_matches_across_cell_batches(
        self, cell_batch, reference, tmp_path
    ):
        suite = tiny_suite()
        run_scenario_grid(
            suite, cache_dir=tmp_path, max_cells=4, cell_batch=cell_batch
        )
        resumed = run_scenario_grid(
            suite, cache_dir=tmp_path, resume=True, cell_batch=cell_batch
        )
        assert comparable(resumed) == comparable(reference)

    def test_resume_matches_at_float64(self, tmp_path):
        suite = tiny_suite(precision="float64")
        clear_caches()
        reference = run_scenario_grid(suite)
        run_scenario_grid(suite, cache_dir=tmp_path, max_cells=4)
        resumed = run_scenario_grid(suite, cache_dir=tmp_path, resume=True)
        assert comparable(resumed) == comparable(reference)

    @pytest.mark.parametrize("executor", ("thread", "process"))
    def test_pool_executors_resume_bit_identically(
        self, executor, reference, tmp_path
    ):
        suite = tiny_suite()
        run_scenario_grid(suite, cache_dir=tmp_path, max_cells=4)
        resumed = run_scenario_grid(
            suite,
            executor=executor,
            max_workers=2,
            cache_dir=tmp_path,
            resume=True,
        )
        assert comparable(resumed) == comparable(reference)
        assert resumed.metadata["checkpointing"]["loaded_cells"] == 4

    def test_fully_checkpointed_grid_resumes_without_execution(
        self, reference, tmp_path
    ):
        suite = tiny_suite()
        run_scenario_grid(suite, cache_dir=tmp_path)
        resumed = run_scenario_grid(
            suite, executor="process", cache_dir=tmp_path, resume=True
        )
        assert comparable(resumed) == comparable(reference)
        info = resumed.metadata["checkpointing"]
        assert info["loaded_cells"] == suite.num_cells
        assert info["executed_jobs"] == 0

    def test_stale_entry_recomputes_bit_identically(
        self, reference, tmp_path, monkeypatch
    ):
        suite = tiny_suite()
        token = suite_token(suite)
        full = run_scenario_grid(suite, cache_dir=tmp_path)
        monkeypatch.setattr(cache_mod, "CACHE_FORMAT", CACHE_FORMAT + 1)
        save_cell_checkpoint(tmp_path, token, full.cells[0], {})
        monkeypatch.undo()
        with pytest.warns(RuntimeWarning, match="unusable"):
            resumed = run_scenario_grid(
                suite, cache_dir=tmp_path, resume=True
            )
        assert comparable(resumed) == comparable(reference)
        # The stale job recomputed: only the untouched job loaded.
        assert resumed.metadata["checkpointing"]["loaded_cells"] == 4

    def test_garbage_entry_recomputes_bit_identically(
        self, reference, tmp_path
    ):
        """Regression: a non-UTF-8 cell entry used to abort resume with
        UnicodeDecodeError instead of reading as a miss."""
        suite = tiny_suite()
        run_scenario_grid(suite, cache_dir=tmp_path)
        victim = sorted(tmp_path.glob("gridcell-*"))[0]
        victim.write_bytes(b"\xff\xfe" + bytes(range(256)))
        with pytest.warns(RuntimeWarning, match="1 grid checkpoint entry is"):
            resumed = run_scenario_grid(
                suite, cache_dir=tmp_path, resume=True
            )
        assert comparable(resumed) == comparable(reference)
        # The damaged job recomputed: only the untouched job loaded.
        assert resumed.metadata["checkpointing"]["loaded_cells"] == 4

    def test_spec_change_invalidates_the_checkpoints(self, tmp_path):
        """A changed suite spec must never resurface foreign cells."""
        run_scenario_grid(tiny_suite(seeds=(0,)), cache_dir=tmp_path)
        changed = tiny_suite(seeds=(0,), precision="float64")
        resumed = run_scenario_grid(changed, cache_dir=tmp_path, resume=True)
        assert resumed.metadata["checkpointing"]["loaded_cells"] == 0
