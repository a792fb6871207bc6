"""Tests for model checkpointing, weight transfer, and data serialization."""

from __future__ import annotations

import zipfile

import numpy as np
import pytest

import repro.cache as cache_mod
from repro.cache import CACHE_FORMAT, entry_schema_version, read_entry, write_entry
from repro.config import TrainingConfig
from repro.core import (
    TealModel,
    TealScheme,
    load_model,
    save_model,
    transfer_weights,
)
from repro.exceptions import ModelError, ReproError
from repro.io import load_topology, load_trace, save_topology, save_trace
from repro.paths import PathSet
from repro.topology import Topology, b4, swan
from repro.traffic import TrafficTrace


class TestCheckpoint:
    def test_save_load_roundtrip(self, b4_pathset, b4_demands, tmp_path):
        model = TealModel(b4_pathset, seed=3)
        reference = model.split_ratios(b4_demands)
        path = save_model(model, tmp_path / "model")
        assert path.suffix == ".npz"

        fresh = TealModel(b4_pathset, seed=99)
        assert not np.allclose(fresh.split_ratios(b4_demands), reference)
        load_model(fresh, path)
        assert np.allclose(fresh.split_ratios(b4_demands), reference)

    def test_load_rejects_architecture_mismatch(self, b4_pathset, tmp_path):
        model = TealModel(b4_pathset, seed=0)
        path = save_model(model, tmp_path / "model")
        from repro.config import TealHyperparameters

        other = TealModel(
            b4_pathset, hyper=TealHyperparameters(num_gnn_layers=4), seed=0
        )
        with pytest.raises(ModelError):
            load_model(other, path)

    def test_corrupt_checkpoint_raises_model_error(self, b4_pathset, tmp_path):
        bad = tmp_path / "model.npz"
        bad.write_bytes(b"definitely not a zip archive")
        with pytest.raises(ModelError, match="corrupt"):
            load_model(TealModel(b4_pathset, seed=0), bad)

    def test_load_clears_pending_gradients(self, b4_pathset, b4_demands, tmp_path):
        """Gradients computed against pre-load weights must not survive
        the load (they would corrupt the next optimizer step)."""
        model = TealModel(b4_pathset, seed=0)
        path = save_model(model, tmp_path / "model")
        loss = model(b4_demands, b4_pathset.topology.capacities).sum()
        loss.backward()
        assert any(p.grad is not None for p in model.parameters())
        load_model(model, path)
        assert all(p.grad is None for p in model.parameters())

    def test_dtype_mismatch_rejected(self, b4_pathset, tmp_path):
        """Regression: a float32-trained checkpoint used to load silently
        into a float64 model (leaving it mixed-precision); the stored
        dtype metadata now makes the mismatch an explicit error."""
        model = TealModel(b4_pathset, seed=0).astype(np.float32)
        path = save_model(model, tmp_path / "model32")

        target = TealModel(b4_pathset, seed=1)  # float64
        with pytest.raises(ModelError, match="float32"):
            load_model(target, path)
        # Casting the target first makes the load legal again.
        load_model(target.astype(np.float32), path)
        for a, b in zip(model.parameters(), target.parameters()):
            assert a.data.dtype == np.float32
            assert np.array_equal(a.data, b.data)

    def test_legacy_checkpoint_without_dtype_metadata(
        self, b4_pathset, b4_demands, tmp_path
    ):
        """Checkpoints written before dtype metadata existed load as
        float64 (the only dtype the old substrate produced)."""
        model = TealModel(b4_pathset, seed=5)
        reference = model.split_ratios(b4_demands)
        path = save_model(model, tmp_path / "model")
        meta, arrays = read_entry(path)
        del meta["dtype"]
        write_entry(path, meta, arrays)

        fresh = TealModel(b4_pathset, seed=9)
        load_model(fresh, path)
        assert np.allclose(fresh.split_ratios(b4_demands), reference)

    def test_stale_schema_version_rejected(
        self, b4_pathset, tmp_path, monkeypatch
    ):
        """A checkpoint stamped with a foreign schema version must read
        as stale (a miss), not deserialize an unknown layout."""
        model = TealModel(b4_pathset, seed=0)
        monkeypatch.setattr(cache_mod, "CACHE_FORMAT", CACHE_FORMAT + 1)
        path = save_model(model, tmp_path / "model")
        monkeypatch.undo()
        with pytest.raises(ModelError, match="stale"):
            load_model(TealModel(b4_pathset, seed=0), path)

    def test_unstamped_checkpoint_is_stale(self, b4_pathset, tmp_path):
        """Checkpoints without a metadata member (the layout before the
        shared entry format) report version 0 and are rejected as stale
        rather than guessed at."""
        model = TealModel(b4_pathset, seed=0)
        path = save_model(model, tmp_path / "model")
        _, arrays = read_entry(path)
        np.savez(path, meta_format=np.array(1), **arrays)
        with pytest.raises(ModelError, match="schema version 0"):
            load_model(TealModel(b4_pathset, seed=0), path)

    def test_harness_retrains_past_a_stale_checkpoint(
        self, tmp_path, monkeypatch
    ):
        """A stale on-disk model is a warning + retrain, never a crash
        and never a silent load of the stale weights."""
        from repro.config import TrainingConfig
        from repro.harness import build_scenario, clear_caches, trained_teal

        config = TrainingConfig(steps=1, warm_start_steps=2, log_every=10)
        kwargs = dict(max_pairs=20, train=2, validation=1, test=1,
                      cache_dir=tmp_path)
        scenario = build_scenario("B4", seed=0, **kwargs)
        trained_teal(scenario, config=config, cache_dir=tmp_path)
        [checkpoint] = list(tmp_path.glob("teal-*.npz"))
        meta, arrays = read_entry(checkpoint)
        monkeypatch.setattr(cache_mod, "CACHE_FORMAT", CACHE_FORMAT + 1)
        write_entry(checkpoint, meta, arrays)
        monkeypatch.undo()

        clear_caches()  # force the disk tier
        scenario = build_scenario("B4", seed=0, **kwargs)
        with pytest.warns(RuntimeWarning, match="retraining"):
            teal = trained_teal(scenario, config=config, cache_dir=tmp_path)
        assert teal.trained
        # The retrain re-saved a freshly stamped checkpoint.
        assert entry_schema_version(checkpoint) == CACHE_FORMAT

    def test_harness_retrains_past_a_corrupt_checkpoint(self, tmp_path):
        """Regression: one flipped byte inside a parameter member used to
        escape ``trained_teal`` as ``BadZipFile`` (bad CRC-32) instead of
        reading as a miss."""
        from repro.config import TrainingConfig
        from repro.harness import build_scenario, clear_caches, trained_teal

        config = TrainingConfig(steps=1, warm_start_steps=2, log_every=10)
        kwargs = dict(max_pairs=20, train=2, validation=1, test=1,
                      cache_dir=tmp_path)
        scenario = build_scenario("B4", seed=0, **kwargs)
        trained_teal(scenario, config=config, cache_dir=tmp_path)
        [checkpoint] = list(tmp_path.glob("teal-*.npz"))
        with zipfile.ZipFile(checkpoint) as archive:
            info = archive.getinfo("param_1.npy")
        data = bytearray(checkpoint.read_bytes())
        # Skip the member's local header (30 bytes + name + extra field)
        # and flip a byte in the middle of its stored data.
        header = info.header_offset
        name_len = int.from_bytes(data[header + 26 : header + 28], "little")
        extra_len = int.from_bytes(data[header + 28 : header + 30], "little")
        start = header + 30 + name_len + extra_len
        data[start + info.compress_size // 2] ^= 0xFF
        corrupted = bytes(data)
        checkpoint.write_bytes(corrupted)

        clear_caches()  # force the disk tier
        scenario = build_scenario("B4", seed=0, **kwargs)
        with pytest.warns(RuntimeWarning, match="retraining"):
            teal = trained_teal(scenario, config=config, cache_dir=tmp_path)
        assert teal.trained
        # The retrain rewrote a loadable entry over the corrupt one.
        assert checkpoint.read_bytes() != corrupted
        load_model(TealModel(scenario.pathset, seed=1), checkpoint)

    def test_harness_checkpoint_name_is_pinned(self, tmp_path):
        """The on-disk model key must not drift: existing ``teal-*.npz``
        caches would silently stop hitting. Update the pinned name only
        together with a deliberate cache-format change."""
        from repro.config import TrainingConfig
        from repro.harness import build_scenario, trained_teal

        scenario = build_scenario(
            "B4", seed=0, max_pairs=20, train=2, validation=1, test=1
        )
        config = TrainingConfig(steps=0, warm_start_steps=0)
        trained_teal(scenario, config=config, cache_dir=tmp_path)
        names = [p.name for p in tmp_path.glob("teal-*.npz")]
        assert names == ["teal-c338d857f23d088a179b.npz"]

    def test_transfer_weights_across_topologies(self, b4_pathset):
        """Teal's weights are topology-size agnostic (§3.2-§3.3, §4)."""
        other_topology = swan(num_nodes=15, seed=2, capacity=90.0)
        other_pathset = PathSet.from_topology(other_topology)
        source = TealModel(b4_pathset, seed=0)
        target = TealModel(other_pathset, seed=1)
        copied = transfer_weights(source, target)
        assert copied == len(source.parameters())
        for a, b in zip(source.parameters(), target.parameters()):
            assert np.allclose(a.data, b.data)

    def test_transfer_rejects_different_architectures(self, b4_pathset):
        from repro.config import TealHyperparameters

        source = TealModel(b4_pathset, seed=0)
        target = TealModel(
            b4_pathset, hyper=TealHyperparameters(num_gnn_layers=3), seed=0
        )
        with pytest.raises(ModelError):
            transfer_weights(source, target)


class TestRetraining:
    def test_retrain_for_new_topology(self):
        """§4: retraining warm-starts from the old weights and recovers
        performance on the updated topology quickly."""
        from repro.simulation import evaluate_allocation

        old_topology = b4(capacity=80.0)
        old_pathset = PathSet.from_topology(old_topology)
        trace = TrafficTrace.generate(12, 14, seed=6)
        teal = TealScheme(old_pathset, seed=0)
        teal.train(
            trace.matrices[:10],
            config=TrainingConfig(steps=10, warm_start_steps=80, log_every=30),
        )

        # Permanent change: add a node connected to sites 0 and 6.
        new_edges = old_topology.edges + [(0, 12), (12, 0), (6, 12), (12, 6)]
        new_topology = Topology(13, new_edges, capacities=80.0, name="B4+1")
        new_pathset = PathSet.from_topology(new_topology)
        new_trace = TrafficTrace.generate(13, 10, seed=7)

        retrained = teal.retrain_for(
            new_pathset,
            new_trace.matrices[:8],
            config=TrainingConfig(steps=5, warm_start_steps=30, log_every=10),
        )
        demands = new_pathset.demand_volumes(new_trace[9].values)
        allocation = retrained.allocate(new_pathset, demands)
        report = evaluate_allocation(
            new_pathset, allocation.split_ratios, demands
        )
        assert report.satisfied_fraction > 0.4
        assert retrained.pathset is new_pathset

    def test_warm_start_better_than_cold_at_same_budget(self):
        """The value of §4's warm start: same tiny budget, better result."""
        from repro.lp import TotalFlowObjective

        topology = b4(capacity=60.0)
        pathset = PathSet.from_topology(topology)
        trace = TrafficTrace.generate(12, 16, seed=8)
        budget = TrainingConfig(steps=0, warm_start_steps=15, log_every=10)

        donor = TealScheme(pathset, seed=0)
        donor.train(
            trace.matrices[:10],
            config=TrainingConfig(steps=0, warm_start_steps=150, log_every=50),
        )
        warm = donor.retrain_for(pathset, trace.matrices[:10], config=budget)
        cold = TealScheme(pathset, seed=5)
        cold.train(trace.matrices[:10], config=budget)

        objective = TotalFlowObjective()
        demands = pathset.demand_volumes(trace[12].values)
        warm_value = objective.evaluate(
            pathset, warm.allocate(pathset, demands).split_ratios, demands
        )
        cold_value = objective.evaluate(
            pathset, cold.allocate(pathset, demands).split_ratios, demands
        )
        assert warm_value >= cold_value * 0.95


class TestTopologyIo:
    def test_roundtrip(self, tmp_path):
        topology = swan(num_nodes=12, seed=4, capacity=55.0)
        path = save_topology(topology, tmp_path / "swan")
        loaded = load_topology(path)
        assert loaded == topology
        assert loaded.name == topology.name

    def test_bad_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ReproError):
            load_topology(bad)

    def test_unknown_format(self, tmp_path):
        bad = tmp_path / "v99.json"
        bad.write_text('{"format": 99}')
        with pytest.raises(ReproError):
            load_topology(bad)


class TestTraceIo:
    def test_roundtrip(self, tmp_path):
        trace = TrafficTrace.generate(8, 6, seed=11)
        path = save_trace(trace, tmp_path / "trace")
        loaded = load_trace(path)
        assert len(loaded) == len(trace)
        for a, b in zip(trace, loaded):
            assert a.interval == b.interval
            assert np.allclose(a.values, b.values)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ReproError):
            load_trace(tmp_path / "nope.npz")
