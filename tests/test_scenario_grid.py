"""Tests for the cross-topology scenario-grid sweep engine."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import TrainingConfig
from repro.exceptions import ReproError
from repro.harness import (
    build_scenario,
    clear_caches,
    make_baselines,
    run_failure_sweep,
    trained_teal,
)
from repro.lp.objectives import get_objective
from repro.sweep import (
    GridResult,
    ScenarioSuite,
    cell_seed,
    run_scenario_grid,
    single_topology,
)
from repro.topology import sample_link_failures

#: Tiny training budget shared by every grid test.
TINY = TrainingConfig(steps=2, warm_start_steps=6, log_every=10)


def tiny_suite(**overrides) -> ScenarioSuite:
    defaults = dict(
        topologies=("B4",),
        failure_counts=(0, 1),
        seeds=(0,),
        schemes=("LP-all", "Teal"),
        train=4,
        validation=1,
        test=2,
        training=TINY,
    )
    defaults.update(overrides)
    return ScenarioSuite(**defaults)


def comparable(result: GridResult) -> list[tuple]:
    """Deterministic per-cell payload (wall-clock timings excluded)."""
    return [
        (cell.coords, cell.run.satisfied, cell.run.objective_values)
        for cell in result.cells
    ]


def by_coords(*results: GridResult) -> dict:
    """Coords -> deterministic payload, merged over several results."""
    return {
        coords: payload
        for result in results
        for coords, *payload in comparable(result)
    }


def per_level(suite: ScenarioSuite) -> list[GridResult]:
    """One grid per failure level: each level runs in a one-level stack."""
    return [
        run_scenario_grid(replace(suite, failure_counts=(count,)))
        for count in suite.failure_counts
    ]


class TestCellSeed:
    def test_deterministic(self):
        assert cell_seed("B4", 0, 1) == cell_seed("B4", 0, 1)

    def test_distinct_cells_distinct_seeds(self):
        seeds = {
            cell_seed(topology, seed, count)
            for topology in ("B4", "SWAN", "UsCarrier")
            for seed in (0, 1)
            for count in (0, 1, 2)
        }
        assert len(seeds) == 3 * 2 * 3

    def test_stable_value(self):
        """Pinned: a changed derivation would silently reshuffle failures."""
        import zlib

        assert cell_seed("B4", 0, 1) == zlib.crc32(b"B4|0|1")


class TestScenarioSuite:
    def test_axes_normalized_to_tuples(self):
        suite = tiny_suite(topologies=["B4"], failure_counts=[0], seeds=[0])
        assert suite.topologies == ("B4",)
        assert suite.failure_counts == (0,)
        assert suite.seeds == (0,)

    def test_empty_axis_rejected(self):
        with pytest.raises(ReproError):
            tiny_suite(topologies=())

    def test_bad_mode_rejected(self):
        with pytest.raises(ReproError):
            tiny_suite(mode="streaming")

    def test_duplicate_axis_values_rejected(self):
        for overrides in (
            {"schemes": ("Teal", "Teal")},
            {"topologies": ("B4", "B4")},
            {"failure_counts": (1, 1)},
            {"seeds": (0, 0)},
        ):
            with pytest.raises(ReproError):
                tiny_suite(**overrides)

    def test_negative_failure_at_rejected(self):
        with pytest.raises(ReproError, match="failure_at"):
            tiny_suite(mode="online", failure_at=-1)

    def test_cell_and_job_counts(self):
        suite = tiny_suite(
            topologies=("B4", "SWAN"), seeds=(0, 1), failure_counts=(0, 1, 2)
        )
        assert suite.num_jobs == 4
        assert suite.num_cells == 4 * 3 * 2
        assert suite.jobs() == [("B4", 0), ("B4", 1), ("SWAN", 0), ("SWAN", 1)]

    def test_dict_roundtrip(self):
        suite = tiny_suite(mode="online", failure_at=1)
        back = ScenarioSuite.from_dict(suite.to_dict())
        assert back == suite
        assert back.training == TINY

    def test_single_topology(self):
        suite = tiny_suite(topologies=("B4", "SWAN"))
        narrowed = single_topology(suite, "SWAN")
        assert narrowed.topologies == ("SWAN",)
        with pytest.raises(ReproError):
            single_topology(suite, "Kdl")


class TestRunScenarioGrid:
    @pytest.fixture(scope="class")
    def suite(self) -> ScenarioSuite:
        return tiny_suite(seeds=(0, 1))

    @pytest.fixture(scope="class")
    def serial_result(self, suite) -> GridResult:
        clear_caches()
        return run_scenario_grid(suite)

    def test_grid_shape(self, suite, serial_result):
        assert len(serial_result.cells) == suite.num_cells
        assert len(serial_result.timings) == suite.num_jobs
        assert serial_result.metadata["executor"] == "serial"
        # One bucket per (topology, scheme), run fused once per seed job.
        assert serial_result.metadata["cell_batching"] == {
            "num_buckets": 2,
            "num_invocations": 4,
        }
        coords = [cell.coords for cell in serial_result.cells]
        assert coords == [
            (topology, seed, count, scheme)
            for topology, seed in suite.jobs()
            for count in suite.failure_counts
            for scheme in suite.schemes
        ]

    def test_matches_handwritten_loop(self, suite, serial_result):
        """Grid engine == per-topology build/train/sweep loop, bit for bit."""
        clear_caches()  # force real rebuild + retrain, not a cache echo
        objective = get_objective(suite.objective)
        expected: list[tuple] = []
        for topology, seed in suite.jobs():
            scenario = build_scenario(
                topology,
                scale=suite.scale,
                seed=seed,
                max_pairs=suite.max_pairs,
                train=suite.train,
                validation=suite.validation,
                test=suite.test,
                headroom=suite.headroom,
            )
            schemes = dict(
                make_baselines(scenario, objective=objective, include=("LP-all",))
            )
            schemes["Teal"] = trained_teal(
                scenario,
                objective_name=suite.objective,
                config=suite.training,
                seed=seed,
            )
            capacity_sets = {}
            for count in suite.failure_counts:
                caps = scenario.capacities.copy()
                if count:
                    failed = sample_link_failures(
                        scenario.topology,
                        count,
                        seed=cell_seed(topology, seed, count),
                    )
                    caps[failed] = 0.0
                capacity_sets[count] = caps
            sweep = run_failure_sweep(
                scenario, schemes, capacity_sets, objective=objective
            )
            for count in suite.failure_counts:
                for name in suite.schemes:
                    run = sweep[count][name]
                    expected.append(
                        (
                            (topology, seed, count, name),
                            run.satisfied,
                            run.objective_values,
                        )
                    )
        assert comparable(serial_result) == expected

    def test_process_pool_matches_serial(self, suite, serial_result):
        clear_caches()  # cold cache: workers retrain rather than echo a fork
        forked = run_scenario_grid(suite, executor="process", max_workers=2)
        assert comparable(forked) == comparable(serial_result)

    def test_unknown_executor_rejected(self, suite):
        with pytest.raises(ReproError):
            run_scenario_grid(suite, executor="cluster")

    def test_cell_lookup(self, serial_result):
        cell = serial_result.cell("B4", 1, 1, "Teal")
        assert cell.extras["failed_edges"]
        assert len(cell.run.satisfied) == 2
        with pytest.raises(ReproError):
            serial_result.cell("B4", 9, 0, "Teal")

    def test_runs_slice_shape(self, serial_result):
        runs = serial_result.runs("B4", 0, 0)
        assert set(runs) == {"LP-all", "Teal"}
        assert runs["Teal"].scheme == "Teal"

    def test_timings_record_work(self, serial_result):
        for timing in serial_result.timings:
            assert timing["train_seconds"] > 0.0
            assert timing["sweep_seconds"] > 0.0
            assert timing["num_demands"] > 0

    def test_summary_table_covers_grid(self, suite, serial_result):
        table = serial_result.summary_table()
        assert table.count("[B4") == len(suite.seeds) * len(suite.failure_counts)
        assert "Teal" in table and "LP-all" in table


class TestOnlineGrid:
    def test_online_mode_records_intervals(self):
        suite = tiny_suite(
            schemes=("Teal",), mode="online", test=3, interval_seconds=1e9
        )
        result = run_scenario_grid(suite)
        cell = result.cell("B4", 0, 1, "Teal")
        assert len(cell.run.satisfied) == 3
        assert "stale_fraction" in cell.extras
        assert all("stale" in extras for extras in cell.run.extras)

    def test_failure_hurts_satisfied_demand(self):
        suite = tiny_suite(
            schemes=("LP-all",), mode="online", test=3, failure_at=0
        )
        result = run_scenario_grid(suite)
        nominal = result.cell("B4", 0, 0, "LP-all").run.mean_satisfied
        failed = result.cell("B4", 0, 1, "LP-all").run.mean_satisfied
        assert failed <= nominal + 1e-9


class TestCellBatchedGrid:
    """A cell's numbers do not depend on which levels share its stack."""

    @pytest.fixture(scope="class", params=("float32", "float64"))
    def suite(self, request) -> ScenarioSuite:
        return tiny_suite(
            topologies=("B4", "SWAN"),
            failure_counts=(0, 1, 2),
            precision=request.param,
        )

    @pytest.fixture(scope="class")
    def fused(self, suite) -> GridResult:
        return run_scenario_grid(suite)

    def test_fused_metadata(self, fused):
        # One bucket per (topology, scheme), one stacked invocation per
        # (job, scheme).
        assert fused.metadata["cell_batching"] == {
            "num_buckets": 4,
            "num_invocations": 4,
        }
        assert "cell_batch" not in fused.metadata

    def test_per_cell_loop_matches_fused(self, suite, fused):
        """Every level run in a one-level suite equals its fused cell."""
        looped = per_level(suite)
        assert by_coords(*looped) == by_coords(fused)
        assert all(t["sweep_seconds"] > 0.0 for r in looped for t in r.timings)

    def test_uneven_chunks_match_fused(self, suite, fused):
        head = run_scenario_grid(replace(suite, failure_counts=(0, 1)))
        tail = run_scenario_grid(replace(suite, failure_counts=(2,)))
        assert by_coords(head, tail) == by_coords(fused)

    def test_argument_overrides_suite_field(self, suite, fused):
        """No argument can chunk a grid any more; the suite field stays inert."""
        pinned = ScenarioSuite.from_dict({**suite.to_dict(), "cell_batch": 2})
        with pytest.raises(TypeError):
            run_scenario_grid(pinned, cell_batch=1)
        assert comparable(run_scenario_grid(pinned)) == comparable(fused)

    def test_env_overridden_by_suite_field(self, suite, fused):
        """``cell_batch`` is kept for old specs only: no value chunks a job."""
        for cell_batch in (0, 1):
            pinned = ScenarioSuite.from_dict(
                {**suite.to_dict(), "cell_batch": cell_batch}
            )
            result = run_scenario_grid(pinned)
            assert "cell_batch" not in result.metadata
            assert result.metadata["cell_batching"] == (
                fused.metadata["cell_batching"]
            )
            assert comparable(result) == comparable(fused)


class TestOnlineCellBatchedGrid:
    def test_online_chunks_match_fused(self):
        """Online: every level run alone equals its fused cell."""
        for precision in ("float32", "float64"):
            suite = tiny_suite(
                failure_counts=(0, 1, 2),
                mode="online",
                test=3,
                failure_at=1,
                precision=precision,
            )
            fused = run_scenario_grid(suite)
            assert by_coords(*per_level(suite)) == by_coords(fused)


class TestGridResultJson:
    def test_json_roundtrip(self, tmp_path):
        result = run_scenario_grid(tiny_suite())
        path = tmp_path / "grid.json"
        result.to_json(path)
        back = GridResult.from_json(path)
        assert back.suite == result.suite
        assert comparable(back) == comparable(result)
        assert back.metadata["num_cells"] == result.metadata["num_cells"]
        assert [c.run.compute_times for c in back.cells] == [
            c.run.compute_times for c in result.cells
        ]
