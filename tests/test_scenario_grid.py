"""Tests for the cross-topology scenario-grid sweep engine."""

from __future__ import annotations

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
    cell_bucket_key,
    cell_seed,
    chunk_level_keys,
    plan_cell_batches,
    resolve_cell_batch,
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

    def test_thread_pool_matches_serial(self, suite, serial_result):
        clear_caches()  # cold cache: concurrent jobs really build and train
        threaded = run_scenario_grid(suite, executor="thread", max_workers=2)
        assert comparable(threaded) == comparable(serial_result)
        assert threaded.metadata["executor"] == "thread"

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


class TestResolveCellBatch:
    def test_default_is_fully_fused(self):
        assert resolve_cell_batch(None) == 0

    def test_invalid_values_rejected(self):
        with pytest.raises(ReproError):
            resolve_cell_batch(-1)
        with pytest.raises(ReproError):
            resolve_cell_batch("many")

    def test_suite_validates_cell_batch(self):
        assert tiny_suite(cell_batch=2).cell_batch == 2
        with pytest.raises(ReproError):
            tiny_suite(cell_batch=-1)


class TestChunkLevelKeys:
    def test_zero_fuses_everything(self):
        assert chunk_level_keys([0, 1, 2], 0) == [[0, 1, 2]]

    def test_one_is_the_per_cell_loop(self):
        assert chunk_level_keys([0, 1, 2], 1) == [[0], [1], [2]]

    def test_uneven_tail_chunk(self):
        assert chunk_level_keys([0, 1, 2, 3, 4], 2) == [[0, 1], [2, 3], [4]]

    def test_bound_at_least_length_fuses(self):
        assert chunk_level_keys([0, 1], 5) == [[0, 1]]

    def test_empty_keys(self):
        assert chunk_level_keys([], 0) == []
        assert chunk_level_keys([], 2) == []

    def test_order_preserved(self):
        chunks = chunk_level_keys([3, 0, 2], 2)
        assert [key for chunk in chunks for key in chunk] == [3, 0, 2]

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            chunk_level_keys([0, 1], -1)


class TestCellBucketKey:
    def test_failure_and_seed_variants_share_a_bucket(self):
        suite = tiny_suite(failure_counts=(0, 1, 2), seeds=(0, 1))
        plan = plan_cell_batches(suite, 0)
        # One bucket per scheme: every (seed, failure) cell of a
        # (topology, scheme) pair is compatible work.
        assert len(plan.buckets) == len(suite.schemes)
        for bucket in plan.buckets:
            assert len(bucket.cells) == len(suite.seeds) * len(
                suite.failure_counts
            )

    def test_topology_precision_scheme_split_buckets(self):
        base = tiny_suite(topologies=("B4", "SWAN"))
        keys = {
            cell_bucket_key(base, topology, scheme)
            for topology in base.topologies
            for scheme in base.schemes
        }
        assert len(keys) == 4  # 2 topologies x 2 schemes, no sharing
        f32 = cell_bucket_key(base, "B4", "Teal")
        f64 = cell_bucket_key(
            tiny_suite(topologies=("B4", "SWAN"), precision="float64"),
            "B4",
            "Teal",
        )
        assert f32 != f64

    def test_plan_counts_and_chunks(self):
        suite = tiny_suite(
            topologies=("B4", "SWAN"),
            failure_counts=(0, 1, 2),
            seeds=(0, 1),
            cell_batch=2,
        )
        plan = plan_cell_batches(suite)
        assert plan.cell_batch == 2
        assert plan.num_cells == suite.num_cells
        # Per bucket: 2 seed jobs x ceil(3 levels / 2) = 4 invocations.
        assert plan.num_invocations == len(plan.buckets) * 4
        for bucket in plan.buckets:
            for chunk in bucket.chunks:
                assert len(chunk) <= 2
                # A chunk never mixes jobs: one (topology, seed) each.
                assert len({cell[:2] for cell in chunk}) == 1
        record = plan.to_dict()
        assert record["cell_batch"] == 2
        assert record["num_invocations"] == plan.num_invocations

    def test_fused_plan_has_one_invocation_per_job_scheme(self):
        suite = tiny_suite(failure_counts=(0, 1, 2), seeds=(0, 1))
        plan = plan_cell_batches(suite, 0)
        assert plan.num_invocations == suite.num_jobs * len(suite.schemes)


class TestCellBatchedGrid:
    """Batched execution must equal the per-cell loop bit for bit."""

    @pytest.fixture(scope="class", params=("float32", "float64"))
    def suite(self, request) -> ScenarioSuite:
        return tiny_suite(
            topologies=("B4", "SWAN"),
            failure_counts=(0, 1, 2),
            precision=request.param,
        )

    @pytest.fixture(scope="class")
    def fused(self, suite) -> GridResult:
        # cell_batch unset: resolves to 0, the fully-fused stack.
        return run_scenario_grid(suite)

    def test_fused_metadata(self, fused):
        assert fused.metadata["cell_batch"] == 0
        assert fused.metadata["cell_batching"]["num_buckets"] == 4
        # One stacked invocation per (job, scheme) when fully fused.
        assert fused.metadata["cell_batching"]["num_invocations"] == 4

    def test_per_cell_loop_matches_fused(self, suite, fused):
        looped = run_scenario_grid(suite, cell_batch=1)
        assert looped.metadata["cell_batch"] == 1
        assert comparable(looped) == comparable(fused)

    def test_uneven_chunks_match_fused(self, suite, fused):
        # 3 failure levels in chunks of 2: one full + one ragged chunk.
        chunked = run_scenario_grid(suite, cell_batch=2)
        assert comparable(chunked) == comparable(fused)

    def test_argument_overrides_suite_field(self, suite, fused):
        pinned = ScenarioSuite.from_dict({**suite.to_dict(), "cell_batch": 1})
        overridden = run_scenario_grid(pinned, cell_batch=2)
        assert overridden.metadata["cell_batch"] == 2
        assert comparable(overridden) == comparable(fused)

    def test_env_overridden_by_suite_field(self, suite, fused):
        """With no argument, the suite field sets the chunk bound."""
        pinned = ScenarioSuite.from_dict({**suite.to_dict(), "cell_batch": 1})
        result = run_scenario_grid(pinned)
        assert result.metadata["cell_batch"] == 1
        assert comparable(result) == comparable(fused)


class TestOnlineCellBatchedGrid:
    def test_online_chunks_match_fused(self):
        suite = tiny_suite(
            failure_counts=(0, 1, 2), mode="online", test=3, failure_at=1
        )
        fused = run_scenario_grid(suite)
        for cell_batch in (1, 2):
            chunked = run_scenario_grid(suite, cell_batch=cell_batch)
            assert comparable(chunked) == comparable(fused)


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
