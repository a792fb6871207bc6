"""Tests for the shared experiment harness."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import POP_REPLICAS, TrainingConfig
from repro.exceptions import ReproError, SimulationError
from repro.harness import (
    BENCH_POP_REPLICA_CAP,
    BENCH_POP_REPLICAS,
    BENCH_SCALES,
    Scenario,
    bench_pop_replicas,
    build_scenario,
    clear_caches,
    make_baselines,
    run_failure_sweep,
    run_offline_comparison,
    run_online_failure_sweep,
    trained_teal,
)
from repro.simulation import EventSchedule
from repro.topology import get_topology


@pytest.fixture(scope="module")
def b4_scenario() -> Scenario:
    clear_caches()
    return build_scenario("B4", train=8, validation=2, test=4)


class TestBuildScenario:
    def test_scenario_components(self, b4_scenario):
        assert b4_scenario.topology.num_nodes == 12
        assert len(b4_scenario.split.train) == 8
        assert len(b4_scenario.split.test) == 4
        assert b4_scenario.pathset.topology is b4_scenario.topology

    def test_capacities_provisioned(self, b4_scenario):
        """§5.1 calibration: the LP satisfies a majority of demand."""
        from repro.baselines import LpAll
        from repro.simulation import evaluate_allocation

        matrix = b4_scenario.split.test[0]
        demands = b4_scenario.demands(matrix)
        allocation = LpAll().allocate(b4_scenario.pathset, demands)
        report = evaluate_allocation(
            b4_scenario.pathset, allocation.split_ratios, demands
        )
        assert report.satisfied_fraction > 0.5

    def test_cache_returns_same_object(self):
        a = build_scenario("B4", train=8, validation=2, test=4)
        b = build_scenario("B4", train=8, validation=2, test=4)
        assert a is b

    def test_cache_bypass(self):
        a = build_scenario("B4", train=8, validation=2, test=4)
        b = build_scenario("B4", train=8, validation=2, test=4, use_cache=False)
        assert a is not b

    def test_all_bench_scales_defined(self):
        assert set(BENCH_SCALES) == {"B4", "SWAN", "UsCarrier", "Kdl", "ASN"}

    def test_bench_scales_keep_the_size_ladder(self):
        """Scaled instances keep Table 1's B4 < SWAN < UsCarrier < Kdl < ASN."""
        ladder = ("B4", "SWAN", "UsCarrier", "Kdl", "ASN")
        nodes = [
            get_topology(name, scale=BENCH_SCALES[name], seed=0).num_nodes
            for name in ladder
        ]
        assert nodes == sorted(nodes) and len(set(nodes)) == len(ladder)

    def test_demand_extraction(self, b4_scenario):
        demands = b4_scenario.demands(b4_scenario.split.train[0])
        assert demands.shape == (b4_scenario.pathset.num_demands,)

    def test_provisioning_uses_train_split_only(self):
        """§5.1: held-out test matrices must not leak into provisioning.

        The traffic generator is prefix-stable, so growing only the test
        split leaves the train matrices unchanged — capacities must not
        move either.
        """
        a = build_scenario("B4", train=6, validation=2, test=2, use_cache=False)
        b = build_scenario("B4", train=6, validation=2, test=6, use_cache=False)
        np.testing.assert_allclose(a.capacities, b.capacities)
        c = build_scenario("B4", train=4, validation=2, test=2, use_cache=False)
        assert not np.allclose(a.capacities, c.capacities)


class TestBenchPopReplicas:
    def test_derived_from_config_table(self):
        """One source of truth: the §5.1 table clamped to the bench cap."""
        assert BENCH_POP_REPLICAS == {
            name: min(replicas, BENCH_POP_REPLICA_CAP)
            for name, replicas in POP_REPLICAS.items()
        }

    def test_small_topologies_keep_paper_counts(self):
        assert bench_pop_replicas("B4") == POP_REPLICAS["B4"]
        assert bench_pop_replicas("SWAN") == POP_REPLICAS["SWAN"]
        assert bench_pop_replicas("UsCarrier") == POP_REPLICAS["UsCarrier"]

    def test_large_topologies_clamped(self):
        assert bench_pop_replicas("Kdl") == BENCH_POP_REPLICA_CAP
        assert bench_pop_replicas("ASN") == BENCH_POP_REPLICA_CAP

    def test_unknown_topology_default(self):
        assert bench_pop_replicas("Mystery") == 4


class TestMakeBaselines:
    def test_default_set(self, b4_scenario):
        schemes = make_baselines(b4_scenario)
        assert set(schemes) == {"LP-all", "LP-top", "NCFlow", "POP"}

    def test_teavar_included_on_request(self, b4_scenario):
        schemes = make_baselines(b4_scenario, include=("TEAVAR*",))
        assert "TEAVAR*" in schemes

    def test_unknown_scheme_rejected(self, b4_scenario):
        with pytest.raises(ReproError):
            make_baselines(b4_scenario, include=("Mystery",))


class TestTrainedTeal:
    def test_training_and_cache(self, b4_scenario):
        config = TrainingConfig(steps=4, warm_start_steps=20, log_every=4)
        a = trained_teal(b4_scenario, config=config)
        b = trained_teal(b4_scenario, config=config)
        assert a is b
        assert a.trained

    def test_cache_distinguishes_every_config_field(self, b4_scenario):
        """Regression: the cache once keyed only on (steps, warm_start_steps).

        A model trained with failure augmentation was silently returned
        for a no-augmentation request (and vice versa); every
        TrainingConfig field must produce a distinct cache entry.
        """
        base = TrainingConfig(steps=4, warm_start_steps=10, log_every=10)
        cached = trained_teal(b4_scenario, config=base)
        for changed in (
            dataclasses.replace(base, failure_rate=0.25),
            dataclasses.replace(base, batch_matrices=2),
            dataclasses.replace(base, batch_demands=16),
            dataclasses.replace(base, seed=7),
            dataclasses.replace(base, max_training_failures=1),
        ):
            assert trained_teal(b4_scenario, config=changed) is not cached, (
                f"cache collision for {changed}"
            )
        assert trained_teal(b4_scenario, config=base) is cached

    def test_cache_distinguishes_scenario_build_params(self):
        """Scenarios sharing (name, seed, num_demands) but built with
        different splits/headroom must not share a trained model."""
        config = TrainingConfig(steps=2, warm_start_steps=4, log_every=10)
        a = build_scenario("B4", train=4, validation=1, test=2)
        b = build_scenario("B4", train=6, validation=1, test=2)
        assert a.pathset.num_demands == b.pathset.num_demands
        teal_a = trained_teal(a, config=config)
        teal_b = trained_teal(b, config=config)
        assert teal_a is not teal_b
        assert trained_teal(a, config=config) is teal_a

    def test_cache_distinguishes_admm_config(self, b4_scenario):
        from repro.config import AdmmConfig

        config = TrainingConfig(steps=4, warm_start_steps=10, log_every=10)
        default = trained_teal(b4_scenario, config=config)
        other = trained_teal(
            b4_scenario, config=config, admm=AdmmConfig(iterations=3)
        )
        assert other is not default
        assert other.admm.config.iterations == 3

    def test_cache_distinguishes_precision(self, b4_scenario):
        config = TrainingConfig(steps=2, warm_start_steps=4, log_every=10)
        f32 = trained_teal(b4_scenario, config=config)  # default float32
        f64 = trained_teal(b4_scenario, config=config, precision="float64")
        assert f32 is not f64
        assert f32.precision.name == "float32"
        assert f64.precision.name == "float64"
        assert trained_teal(b4_scenario, config=config, precision="float32") is f32


class TestTrainedTealDiskCache:
    """The persistent model-cache tier (``cache_dir=``)."""

    _CONFIG = TrainingConfig(steps=2, warm_start_steps=6, log_every=10)

    @pytest.fixture(autouse=True)
    def _cold_memory_cache(self, b4_scenario):
        # The disk tier is only exercised on in-memory misses; start each
        # test cold so earlier tests' entries cannot short-circuit it.
        # (build_scenario re-fetch keeps the module-scoped scenario valid.)
        from repro import harness

        harness._TEAL_CACHE.clear()

    def test_checkpoint_written_and_reused(self, b4_scenario, tmp_path):
        first = trained_teal(
            b4_scenario, config=self._CONFIG, cache_dir=tmp_path
        )
        checkpoints = list(tmp_path.glob("teal-*.npz"))
        assert len(checkpoints) == 1

        # A fresh process is simulated by clearing the in-memory cache;
        # the second call must load the checkpoint instead of retraining.
        clear_caches()
        from repro.core import TealScheme

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("disk-cached model must not retrain")

        original = TealScheme.train
        TealScheme.train = boom
        try:
            second = trained_teal(
                b4_scenario, config=self._CONFIG, cache_dir=tmp_path
            )
        finally:
            TealScheme.train = original
        assert second is not first
        assert second.trained

        demands = b4_scenario.demands(b4_scenario.split.test[0])
        a = first.allocate(b4_scenario.pathset, demands)
        b = second.allocate(b4_scenario.pathset, demands)
        assert np.allclose(a.split_ratios, b.split_ratios)

    def test_memory_hit_still_materializes_checkpoint(
        self, b4_scenario, tmp_path
    ):
        """Asking for persistence after an in-memory hit writes the
        checkpoint, also after float32 inference has run (the model
        stays float64; inference used a cast copy)."""
        teal = trained_teal(b4_scenario, config=self._CONFIG)  # no cache_dir
        demands = b4_scenario.demands(b4_scenario.split.test[0])
        teal.allocate(b4_scenario.pathset, demands)  # float32 inference
        assert teal.model.dtype == np.float64

        again = trained_teal(
            b4_scenario, config=self._CONFIG, cache_dir=tmp_path
        )
        assert again is teal
        assert teal.model.dtype == np.float64
        checkpoints = list(tmp_path.glob("teal-*.npz"))
        assert len(checkpoints) == 1
        # The checkpoint holds float64 weights loadable into a fresh model.
        from repro.core import TealModel, load_model

        fresh = TealModel(b4_scenario.pathset, seed=0)
        load_model(fresh, checkpoints[0])
        assert fresh.dtype == np.float64

    def test_disk_entry_shared_across_precisions(self, b4_scenario, tmp_path):
        """Checkpoints store float64 weights, so float32 and float64
        schemes share one on-disk entry (training ran once)."""
        trained_teal(
            b4_scenario, config=self._CONFIG, cache_dir=tmp_path,
            precision="float32",
        )
        trained_teal(
            b4_scenario, config=self._CONFIG, cache_dir=tmp_path,
            precision="float64",
        )
        assert len(list(tmp_path.glob("teal-*.npz"))) == 1

    def test_use_cache_false_bypasses_disk_tier(self, b4_scenario, tmp_path):
        """use_cache=False means 'do not reuse' on disk too: the call
        retrains (never loads) and refreshes the stored entry."""
        trained_teal(b4_scenario, config=self._CONFIG, cache_dir=tmp_path)
        [checkpoint] = tmp_path.glob("teal-*.npz")
        before = checkpoint.stat().st_mtime_ns

        from repro.core import TealScheme

        calls = {"train": 0}
        original = TealScheme.train

        def counting(self, *args, **kwargs):
            calls["train"] += 1
            return original(self, *args, **kwargs)

        TealScheme.train = counting
        try:
            trained_teal(
                b4_scenario, config=self._CONFIG, cache_dir=tmp_path,
                use_cache=False,
            )
        finally:
            TealScheme.train = original
        assert calls["train"] == 1  # retrained despite the existing entry
        assert checkpoint.stat().st_mtime_ns > before  # entry refreshed

    def test_distinct_configs_distinct_checkpoints(self, b4_scenario, tmp_path):
        from repro.config import AdmmConfig

        default = trained_teal(b4_scenario, config=self._CONFIG, cache_dir=tmp_path)
        other = dataclasses.replace(self._CONFIG, steps=3)
        trained_teal(b4_scenario, config=other, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("teal-*.npz"))) == 2
        # The default admm kwarg is resolved before keying, so an explicit
        # request for the same resolved config hits the cache (no third
        # checkpoint, same in-memory object).
        explicit = trained_teal(
            b4_scenario, config=self._CONFIG, cache_dir=tmp_path,
            admm=AdmmConfig(iterations=12),
        )
        assert explicit is default
        assert len(list(tmp_path.glob("teal-*.npz"))) == 2

    def test_runs_comparison(self, b4_scenario):
        config = TrainingConfig(steps=4, warm_start_steps=20, log_every=4)
        teal = trained_teal(b4_scenario, config=config)
        schemes = {"Teal": teal, **make_baselines(b4_scenario, include=("LP-all",))}
        runs = run_offline_comparison(
            b4_scenario, schemes, matrices=b4_scenario.split.test[:2]
        )
        assert set(runs) == {"Teal", "LP-all"}
        for run in runs.values():
            assert len(run.satisfied) == 2
            assert all(0 <= s <= 1 for s in run.satisfied)

    def test_lp_all_quality_dominates(self, b4_scenario):
        """LP-all is offline-optimal: nothing beats it on satisfied demand."""
        config = TrainingConfig(steps=4, warm_start_steps=30, log_every=4)
        teal = trained_teal(b4_scenario, config=config)
        schemes = {"Teal": teal, **make_baselines(b4_scenario)}
        runs = run_offline_comparison(
            b4_scenario, schemes, matrices=b4_scenario.split.test[:2]
        )
        best = max(run.mean_satisfied for run in runs.values())
        assert runs["LP-all"].mean_satisfied >= best - 1e-6


class TestSweepEmptyContracts:
    """Both sweep runners share one empty-input contract (no raising)."""

    def test_offline_empty_levels(self, b4_scenario):
        schemes = make_baselines(b4_scenario, include=("LP-all",))
        assert run_failure_sweep(b4_scenario, schemes, {}) == {}

    def test_offline_empty_matrices(self, b4_scenario):
        schemes = make_baselines(b4_scenario, include=("LP-all",))
        caps = {0: b4_scenario.capacities}
        result = run_failure_sweep(b4_scenario, schemes, caps, matrices=[])
        assert set(result) == {0}
        assert result[0]["LP-all"].satisfied == []

    def test_online_empty_cases(self, b4_scenario):
        schemes = make_baselines(b4_scenario, include=("LP-all",))
        assert run_online_failure_sweep(b4_scenario, schemes, {}) == {}

    def test_online_empty_matrices(self):
        """An online run needs a traffic update: an empty trace has no
        schedule, so it is rejected instead of yielding empty results."""
        with pytest.raises(SimulationError):
            EventSchedule.from_trace([], interval_seconds=1.0)


class _NeverAllocates:
    def allocate_batch(self, pathset, demands, capacities):
        raise AssertionError("allocated before the capacities were checked")


class TestSweepCapacityValidation:
    @pytest.mark.parametrize(
        "bad,reason",
        [
            ("nan", "non-finite"),
            ("negative", "negative"),
            ("short", "shape"),
            ("stacked", "shape"),
        ],
    )
    def test_bad_capacities_raise_before_allocating(
        self, b4_scenario, bad, reason
    ):
        caps = b4_scenario.capacities.copy()
        if bad == "nan":
            caps[0] = np.nan
        elif bad == "negative":
            caps[0] = -1.0
        elif bad == "short":
            caps = caps[:-1]
        else:
            caps = np.stack([caps, caps])
        with pytest.raises(ReproError, match=f"sweep key 3: {reason}"):
            run_failure_sweep(
                b4_scenario,
                {"stub": _NeverAllocates()},
                {0: b4_scenario.capacities, 3: caps},
            )
