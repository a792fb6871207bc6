"""Regression tests for the on-disk scenario cache (harness tier).

Contracts pinned here:

1. **Hit == rebuild, bit for bit** — a scenario loaded from disk equals
   the freshly built one in every array and derived structure.
2. **Any key-field change misses** — each ``build_scenario`` parameter
   lands its own cache entry; no stale cross-config reuse.
3. **Corruption falls back to rebuild** — garbage, truncated, or
   key-mismatched entries warn, rebuild, and repair the entry rather
   than crash.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.cache as cache_mod
from repro.cache import entry_path
from repro.exceptions import ReproError
from repro.harness import (
    build_scenario,
    clear_caches,
    load_scenario,
    save_scenario,
)

#: Small, fast build_scenario kwargs shared by every test.
SMALL = dict(train=4, validation=1, test=2, max_pairs=60)


def assert_scenarios_identical(a, b) -> None:
    """Field-by-field bit-identity of two scenarios."""
    assert a.name == b.name and a.seed == b.seed
    assert a.build_key == b.build_key
    # Topology: structure and exact float arrays.
    assert a.topology.name == b.topology.name
    assert a.topology.num_nodes == b.topology.num_nodes
    assert a.topology.edges == b.topology.edges
    assert np.array_equal(a.topology.capacities, b.topology.capacities)
    assert np.array_equal(a.topology.latencies, b.topology.latencies)
    assert a.topology.node_names == b.topology.node_names
    # Path set: raw inputs and recomputed derived structures.
    assert a.pathset.pairs == b.pathset.pairs
    assert a.pathset.max_paths == b.pathset.max_paths
    assert a.pathset.path_nodes == b.pathset.path_nodes
    assert np.array_equal(a.pathset.path_demand, b.pathset.path_demand)
    assert np.array_equal(a.pathset.demand_path_ids, b.pathset.demand_path_ids)
    assert np.array_equal(a.pathset.path_latencies, b.pathset.path_latencies)
    incidence_delta = (
        a.pathset.edge_path_incidence != b.pathset.edge_path_incidence
    )
    assert incidence_delta.nnz == 0
    # Trace split: every matrix's values and interval label.
    for part in ("train", "validation", "test"):
        left, right = getattr(a.split, part), getattr(b.split, part)
        assert len(left) == len(right)
        for m_left, m_right in zip(left, right):
            assert np.array_equal(m_left.values, m_right.values)
            assert m_left.interval == m_right.interval


@pytest.fixture(autouse=True)
def _cold_memory_caches():
    """Every test starts (and leaves) with empty in-memory caches."""
    clear_caches()
    yield
    clear_caches()


class TestCacheHit:
    def test_hit_is_bit_identical(self, tmp_path):
        fresh = build_scenario("B4", cache_dir=tmp_path, **SMALL)
        clear_caches()  # force the second call onto the disk tier
        cached = build_scenario("B4", cache_dir=tmp_path, **SMALL)
        assert cached is not fresh
        assert_scenarios_identical(fresh, cached)

    def test_hit_across_topologies(self, tmp_path):
        for name in ("SWAN", "UsCarrier", "Kdl"):
            fresh = build_scenario(name, cache_dir=tmp_path, **SMALL)
            clear_caches()
            cached = build_scenario(name, cache_dir=tmp_path, **SMALL)
            assert_scenarios_identical(fresh, cached)

    def test_memory_hit_materializes_disk_entry(self, tmp_path):
        scenario = build_scenario("B4", cache_dir=tmp_path, **SMALL)
        entry = entry_path(tmp_path, "scenario", scenario.build_key)
        assert entry.exists()
        entry.unlink()
        # In-memory hit with a missing disk entry rewrites the entry.
        again = build_scenario("B4", cache_dir=tmp_path, **SMALL)
        assert again is scenario
        assert entry.exists()

    def test_save_load_roundtrip_direct(self, tmp_path):
        scenario = build_scenario("B4", **SMALL)
        path = save_scenario(scenario, tmp_path / "entry.npz")
        loaded = load_scenario(path, expected_key=scenario.build_key)
        assert_scenarios_identical(scenario, loaded)


class TestCacheMiss:
    def test_every_key_field_change_misses(self, tmp_path):
        """Changing any single build parameter must land a new entry."""
        base = dict(
            name="B4", scale=None, seed=0, max_pairs=60,
            train=4, validation=1, test=2, headroom=0.9,
        )
        variations = [
            {"name": "SWAN"},           # topology
            {"seed": 1},                # seed == trace/pair variant
            {"scale": 0.5},             # topology size (vs bench default)
            {"max_pairs": 50},          # demand budget
            {"train": 5},               # split sizes
            {"validation": 2},
            {"test": 3},
            {"headroom": 0.8},          # provisioning level
        ]
        build_scenario(cache_dir=tmp_path, **base)
        entries = set(tmp_path.glob("scenario-*.npz"))
        assert len(entries) == 1
        for overrides in variations:
            clear_caches()
            build_scenario(cache_dir=tmp_path, **{**base, **overrides})
            new_entries = set(tmp_path.glob("scenario-*.npz"))
            assert len(new_entries) == len(entries) + 1, (
                f"{overrides} did not produce a fresh cache entry"
            )
            entries = new_entries

    def test_use_cache_false_rebuilds_and_overwrites(self, tmp_path):
        build_scenario("B4", cache_dir=tmp_path, **SMALL)
        (entry,) = tmp_path.glob("scenario-*.npz")
        mtime = entry.stat().st_mtime_ns
        clear_caches()
        rebuilt = build_scenario(
            "B4", cache_dir=tmp_path, use_cache=False, **SMALL
        )
        assert entry.stat().st_mtime_ns > mtime  # overwritten, not loaded
        clear_caches()
        cached = build_scenario("B4", cache_dir=tmp_path, **SMALL)
        assert_scenarios_identical(rebuilt, cached)


class TestCorruptionFallback:
    def corrupt_and_rebuild(self, tmp_path, payload: bytes):
        reference = build_scenario("B4", cache_dir=tmp_path, **SMALL)
        (entry,) = tmp_path.glob("scenario-*.npz")
        entry.write_bytes(payload)
        clear_caches()
        with pytest.warns(RuntimeWarning, match="rebuilding"):
            rebuilt = build_scenario("B4", cache_dir=tmp_path, **SMALL)
        assert_scenarios_identical(reference, rebuilt)
        # The bad entry was repaired: the next load works silently.
        clear_caches()
        repaired = build_scenario("B4", cache_dir=tmp_path, **SMALL)
        assert_scenarios_identical(reference, repaired)

    def test_garbage_bytes_fall_back(self, tmp_path):
        self.corrupt_and_rebuild(tmp_path, b"this is not an npz archive")

    def test_truncated_archive_falls_back(self, tmp_path):
        build_scenario("B4", cache_dir=tmp_path, **SMALL)
        (entry,) = tmp_path.glob("scenario-*.npz")
        self.corrupt_and_rebuild(
            tmp_path, entry.read_bytes()[: entry.stat().st_size // 2]
        )

    def test_key_mismatch_detected_on_load(self, tmp_path):
        scenario = build_scenario("B4", cache_dir=tmp_path, **SMALL)
        (entry,) = tmp_path.glob("scenario-*.npz")
        with pytest.raises(ReproError, match="key mismatch"):
            load_scenario(entry, expected_key=("B4", 1.0, 99))
        # Without an expected key the entry still loads.
        assert_scenarios_identical(scenario, load_scenario(entry))

    def test_unknown_format_rejected(self, tmp_path, monkeypatch):
        build_scenario("B4", cache_dir=tmp_path, **SMALL)
        (entry,) = tmp_path.glob("scenario-*.npz")
        monkeypatch.setattr(
            cache_mod, "CACHE_FORMAT", cache_mod.CACHE_FORMAT + 1
        )
        with pytest.raises(ReproError, match="stale cache entry"):
            load_scenario(entry)

    def test_no_tmp_files_left_behind(self, tmp_path):
        build_scenario("B4", cache_dir=tmp_path, **SMALL)
        leftovers = [p for p in tmp_path.iterdir() if ".tmp-" in p.name]
        assert leftovers == []
