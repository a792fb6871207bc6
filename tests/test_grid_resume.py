"""Tests for resumable checkpointed grid runs (``repro.sweep.grid``).

The contract under test: every completed (topology, seed) job is one
``gridjob`` cache entry; a grid interrupted at *any* cell boundary and
resumed with ``resume=True`` produces a :class:`GridResult` bit-identical
to an uninterrupted run — across precisions and executors — and every
persistence failure mode (truncated writes, stale schema versions,
foreign suites, entries holding the wrong cells) degrades to a
recompute, never to wrong data.
"""

from __future__ import annotations

import pytest
from helpers import ENTRY_KINDS, entry_io

import repro.cache as cache_mod
import repro.sweep.grid as grid_mod
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
    job_key,
    load_completed_cells,
    load_job_checkpoint,
    run_scenario_grid,
    save_job_checkpoint,
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


def job_path(cache_dir, token, topology, seed):
    """The ``gridjob`` entry of one (topology, seed) job."""
    return entry_path(cache_dir, "gridjob", job_key(token, topology, seed))


def job_cells(result: GridResult, topology, seed) -> list:
    """The cells of one job, in grid order."""
    return [c for c in result.cells if (c.topology, c.seed) == (topology, seed)]


def comparable(result: GridResult) -> list[tuple]:
    """Deterministic per-cell payload (wall-clock timings excluded)."""
    return [
        (cell.coords, cell.run.satisfied, cell.run.objective_values)
        for cell in result.cells
    ]


def interrupted_run(suite, cache_dir, monkeypatch) -> None:
    """Run ``suite`` serially until its second job raises mid-grid."""
    real_job = grid_mod._run_topology_job
    calls = []

    def flaky_job(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("interrupted")
        return real_job(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(grid_mod, "_run_topology_job", flaky_job)
        with pytest.raises(RuntimeError, match="interrupted"):
            run_scenario_grid(suite, cache_dir=cache_dir)


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
    """One ``gridjob`` entry per job holds the job's cells and timing."""

    def test_every_cell_has_a_verified_entry(self, checkpointed):
        suite, token, result, cache_dir = checkpointed
        assert len(list(cache_dir.glob("gridjob-*.npz"))) == suite.num_jobs
        for topology, seed in suite.jobs():
            path = job_path(cache_dir, token, topology, seed)
            cells, timing = load_job_checkpoint(
                path, token, suite.job_coords(topology, seed)
            )
            expected = job_cells(result, topology, seed)
            assert [c.to_dict() for c in cells] == [
                c.to_dict() for c in expected
            ]
            assert timing["train_seconds"] > 0.0

    def test_save_then_load_roundtrip(self, checkpointed, tmp_path):
        suite, token, result, _ = checkpointed
        cells = job_cells(result, "B4", 1)
        path = save_job_checkpoint(
            tmp_path, token, cells, {"train_seconds": 1.0}
        )
        assert path == job_path(tmp_path, token, "B4", 1)
        loaded, timing = load_job_checkpoint(
            path, token, suite.job_coords("B4", 1)
        )
        assert [c.to_dict() for c in loaded] == [c.to_dict() for c in cells]
        assert timing == {"train_seconds": 1.0}

    def test_no_temp_residue(self, checkpointed):
        _, _, _, cache_dir = checkpointed
        assert not list(cache_dir.glob("*.tmp-*"))

    def test_foreign_suite_token_is_rejected(self, checkpointed):
        suite, token, result, cache_dir = checkpointed
        path = job_path(cache_dir, token, "B4", 0)
        with pytest.raises(ReproError, match="key mismatch"):
            load_job_checkpoint(path, "0" * 16, suite.job_coords("B4", 0))

    def test_foreign_coords_are_rejected(self, checkpointed):
        suite, token, result, cache_dir = checkpointed
        path = job_path(cache_dir, token, "B4", 0)
        with pytest.raises(ReproError, match="key mismatch"):
            load_job_checkpoint(path, token, suite.job_coords("B4", 1))
        fewer_schemes = tiny_suite(schemes=("LP-all",))
        with pytest.raises(ReproError, match="holds cells"):
            load_job_checkpoint(
                path, token, fewer_schemes.job_coords("B4", 0)
            )

    def test_stale_schema_version_is_rejected(
        self, checkpointed, tmp_path, monkeypatch
    ):
        suite, token, result, _ = checkpointed
        cells = job_cells(result, "B4", 0)
        monkeypatch.setattr(cache_mod, "CACHE_FORMAT", CACHE_FORMAT + 1)
        stale = save_job_checkpoint(tmp_path, token, cells, {})
        monkeypatch.undo()
        with pytest.raises(ReproError, match="stale cache entry"):
            load_job_checkpoint(stale, token, suite.job_coords("B4", 0))

    def test_wrong_cells_are_rejected(self, checkpointed, tmp_path):
        """An entry under the right key must hold exactly the job's
        cells: a missing, extra or foreign cell fails verification."""
        suite, token, result, _ = checkpointed
        coords = suite.job_coords("B4", 0)
        cells = job_cells(result, "B4", 0)
        for wrong in (
            cells[:-1],
            cells + cells[:1],
            cells[:-1] + job_cells(result, "B4", 1)[-1:],
        ):
            path = save_job_checkpoint(tmp_path, token, wrong, {})
            with pytest.raises(ReproError, match="holds cells"):
                load_job_checkpoint(path, token, coords)

    def test_malformed_cell_record_is_rejected(self, checkpointed, tmp_path):
        suite, token, _, _ = checkpointed
        key = job_key(token, "B4", 0)
        bad = write_entry(
            tmp_path / "gridjob-bad.npz",
            {"cells": [{"topology": "B4"}], "timing": {}},
            {},
            key=key,
        )
        with pytest.raises(ReproError, match="malformed grid job entry"):
            load_job_checkpoint(bad, token, suite.job_coords("B4", 0))

    def test_truncated_entry_is_a_clean_error(self, checkpointed, tmp_path):
        suite, token, result, cache_dir = checkpointed
        data = job_path(cache_dir, token, "B4", 0).read_bytes()
        truncated = tmp_path / "gridjob-cut.npz"
        truncated.write_bytes(data[: len(data) // 2])
        with pytest.raises(ReproError, match="cannot read cache entry"):
            load_job_checkpoint(truncated, token, suite.job_coords("B4", 0))

    def test_missing_file_is_a_clean_error(self, checkpointed, tmp_path):
        suite, token, result, _ = checkpointed
        with pytest.raises(ReproError, match="cannot read cache entry"):
            load_job_checkpoint(
                tmp_path / "absent.npz", token, suite.job_coords("B4", 0)
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
        assert list(completed) == suite.jobs()
        loaded = [c.coords for cells, _ in completed.values() for c in cells]
        assert loaded == [c.coords for c in result.cells]

    def test_empty_dir_loads_nothing(self, checkpointed, tmp_path):
        suite, _, _, _ = checkpointed
        assert load_completed_cells(tmp_path, suite) == {}

    def test_unusable_entries_warn_and_miss(self, checkpointed, tmp_path):
        suite, token, result, cache_dir = checkpointed
        # Clone the cache, then corrupt one entry in the clone.
        for path in cache_dir.glob("gridjob-*.npz"):
            (tmp_path / path.name).write_bytes(path.read_bytes())
        victim = job_path(tmp_path, token, "B4", 0)
        victim.write_bytes(victim.read_bytes()[:10])
        with pytest.warns(RuntimeWarning, match="1 grid checkpoint entry is"):
            completed = load_completed_cells(tmp_path, suite, token)
        assert list(completed) == [("B4", 1)]

    def test_wrong_coordinates_are_a_miss(self, checkpointed, tmp_path):
        """A verified entry holding another job's cells is not loaded."""
        suite, token, result, _ = checkpointed
        foreign = job_cells(result, "B4", 1)
        write_entry(
            job_path(tmp_path, token, "B4", 0),
            {"cells": [c.to_dict() for c in foreign], "timing": {}},
            {},
            key=job_key(token, "B4", 0),
        )
        with pytest.warns(RuntimeWarning, match="1 grid checkpoint entry is"):
            assert load_completed_cells(tmp_path, suite, token) == {}


class TestResumeValidation:
    def test_resume_requires_a_cache_dir(self):
        with pytest.raises(ReproError, match="requires a cache_dir"):
            run_scenario_grid(tiny_suite(), resume=True)


class TestResumeDeterminism:
    """Interrupt at any cell boundary; resume must be bit-identical."""

    @pytest.fixture(scope="class")
    def reference(self) -> GridResult:
        clear_caches()
        return run_scenario_grid(tiny_suite())

    # The checkpoints an interrupt leaves after the first k cells were
    # computed: only whole jobs are ever on disk. 2 = mid-job (nothing),
    # 4 = clean job boundary, 6 = one full job + a partial one (the
    # full one).
    @pytest.mark.parametrize("k", (2, 4, 6))
    def test_interrupt_then_resume_is_bit_identical(
        self, k, reference, tmp_path
    ):
        suite = tiny_suite()
        token = suite_token(suite)
        run_scenario_grid(suite, cache_dir=tmp_path)
        cells_per_job = len(suite.failure_counts) * len(suite.schemes)
        finished = suite.jobs()[: k // cells_per_job]
        for topology, seed in suite.jobs()[len(finished):]:
            job_path(tmp_path, token, topology, seed).unlink()
        assert list(load_completed_cells(tmp_path, suite, token)) == finished
        resumed = run_scenario_grid(suite, cache_dir=tmp_path, resume=True)
        assert comparable(resumed) == comparable(reference)
        info = resumed.metadata["checkpointing"]
        assert info["loaded_cells"] == len(finished) * cells_per_job
        assert resumed.metadata["resumed"] is True

    def test_real_interrupt_keeps_finished_jobs(
        self, reference, tmp_path, monkeypatch
    ):
        suite = tiny_suite()
        token = suite_token(suite)
        interrupted_run(suite, tmp_path, monkeypatch)
        # The first job checkpointed as it finished; nothing of the second.
        assert list(load_completed_cells(tmp_path, suite, token)) == [
            ("B4", 0)
        ]
        resumed = run_scenario_grid(suite, cache_dir=tmp_path, resume=True)
        assert comparable(resumed) == comparable(reference)
        info = resumed.metadata["checkpointing"]
        assert (info["loaded_cells"], info["executed_jobs"]) == (4, 1)

    def test_partial_job_recomputes_whole(self, reference, tmp_path):
        """An entry missing one of its job's cells is a miss: the job
        recomputes whole and the entry is rewritten complete."""
        suite = tiny_suite()
        token = suite_token(suite)
        full = run_scenario_grid(suite, cache_dir=tmp_path)
        victim = save_job_checkpoint(
            tmp_path, token, job_cells(full, "B4", 0)[:-1], {}
        )
        with pytest.warns(RuntimeWarning, match="1 grid checkpoint entry is"):
            resumed = run_scenario_grid(
                suite, cache_dir=tmp_path, resume=True
            )
        assert comparable(resumed) == comparable(reference)
        info = resumed.metadata["checkpointing"]
        assert (info["loaded_cells"], info["executed_jobs"]) == (4, 1)
        load_job_checkpoint(victim, token, suite.job_coords("B4", 0))

    @pytest.mark.parametrize("cell_batch", (0, 1, 2))
    def test_resume_matches_across_cell_batches(
        self, cell_batch, reference, tmp_path, monkeypatch
    ):
        """The ignored ``cell_batch`` suite field changes no cell."""
        suite = tiny_suite(cell_batch=cell_batch)
        interrupted_run(suite, tmp_path, monkeypatch)
        resumed = run_scenario_grid(suite, cache_dir=tmp_path, resume=True)
        assert comparable(resumed) == comparable(reference)

    def test_resume_matches_at_float64(self, tmp_path, monkeypatch):
        suite = tiny_suite(precision="float64")
        clear_caches()
        reference = run_scenario_grid(suite)
        interrupted_run(suite, tmp_path, monkeypatch)
        resumed = run_scenario_grid(suite, cache_dir=tmp_path, resume=True)
        assert comparable(resumed) == comparable(reference)

    @pytest.mark.parametrize("executor", ("process",))
    def test_pool_executors_resume_bit_identically(
        self, executor, reference, tmp_path, monkeypatch
    ):
        suite = tiny_suite()
        interrupted_run(suite, tmp_path, monkeypatch)
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
        save_job_checkpoint(tmp_path, token, job_cells(full, "B4", 0), {})
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
        """Regression: a non-UTF-8 grid entry used to abort resume with
        UnicodeDecodeError instead of reading as a miss."""
        suite = tiny_suite()
        run_scenario_grid(suite, cache_dir=tmp_path)
        victim = sorted(tmp_path.glob("gridjob-*"))[0]
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
