"""Tests for the cache entry format and LRU eviction (``repro.cache`` +
``cache prune`` CLI)."""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest
from helpers import ENTRY_KINDS, entry_io

import repro.cache as cache_mod
from repro.cache import (
    CACHE_FORMAT,
    CACHE_KINDS,
    CacheEntry,
    cache_entries,
    entry_path,
    entry_schema_version,
    parse_size,
    prune_cache_dir,
    read_entry,
    stale_entries,
    touch,
    write_entry,
)
from repro.cli import main
from repro.exceptions import ReproError


def _make_entry(cache_dir, name: str, size: int, mtime: float):
    path = cache_dir / name
    path.write_bytes(b"x" * size)
    os.utime(path, (mtime, mtime))
    return path


class TestParseSize:
    def test_plain_and_suffixed(self):
        assert parse_size(123) == 123
        assert parse_size("123") == 123
        assert parse_size("64K") == 64 * 1024
        assert parse_size("64KB") == 64 * 1024
        assert parse_size("500m") == 500 * 1024**2
        assert parse_size("2G") == 2 * 1024**3
        assert parse_size("1.5M") == int(1.5 * 1024**2)
        assert parse_size("0") == 0

    def test_rejects_garbage_and_negatives(self):
        with pytest.raises(ReproError, match="unparseable cache size"):
            parse_size("lots")
        with pytest.raises(ReproError, match="non-negative"):
            parse_size("-1")
        with pytest.raises(ReproError, match="non-negative"):
            parse_size(-1)


class TestCacheEntries:
    def test_lru_order_and_prefix_filtering(self, tmp_path):
        _make_entry(tmp_path, "scenario-aa.npz", 10, 300.0)
        _make_entry(tmp_path, "teal-bb.npz", 20, 100.0)
        _make_entry(tmp_path, "teal-cc.npz", 30, 200.0)
        _make_entry(tmp_path, "unrelated.npz", 99, 50.0)  # not ours
        _make_entry(tmp_path, "scenario-dd.txt", 99, 50.0)  # wrong suffix
        entries = cache_entries(tmp_path)
        assert [e.path.name for e in entries] == [
            "teal-bb.npz", "teal-cc.npz", "scenario-aa.npz",
        ]
        assert [e.bytes for e in entries] == [20, 30, 10]
        assert all(isinstance(e, CacheEntry) for e in entries)

    def test_mtime_ties_break_by_name(self, tmp_path):
        _make_entry(tmp_path, "teal-b.npz", 1, 100.0)
        _make_entry(tmp_path, "teal-a.npz", 1, 100.0)
        entries = cache_entries(tmp_path)
        assert [e.path.name for e in entries] == ["teal-a.npz", "teal-b.npz"]

    def test_missing_dir_is_empty(self, tmp_path):
        assert cache_entries(tmp_path / "absent") == []


class TestPruneCacheDir:
    def test_evicts_oldest_first_down_to_budget(self, tmp_path):
        old = _make_entry(tmp_path, "teal-old.npz", 40, 100.0)
        mid = _make_entry(tmp_path, "scenario-mid.npz", 40, 200.0)
        new = _make_entry(tmp_path, "teal-new.npz", 40, 300.0)
        removed = prune_cache_dir(tmp_path, 100)
        assert removed == [old]
        assert not old.exists() and mid.exists() and new.exists()

    def test_touch_refreshes_lru_recency(self, tmp_path):
        a = _make_entry(tmp_path, "teal-a.npz", 40, 100.0)
        b = _make_entry(tmp_path, "teal-b.npz", 40, 200.0)
        touch(a)  # a was just read: b becomes the eviction candidate
        removed = prune_cache_dir(tmp_path, 50)
        assert removed == [b]
        assert a.exists() and not b.exists()

    def test_zero_budget_empties_string_sizes_parse(self, tmp_path):
        _make_entry(tmp_path, "teal-a.npz", 10, 100.0)
        _make_entry(tmp_path, "scenario-b.npz", 10, 200.0)
        removed = prune_cache_dir(tmp_path, "0")
        assert len(removed) == 2
        assert cache_entries(tmp_path) == []

    def test_under_budget_removes_nothing(self, tmp_path):
        _make_entry(tmp_path, "teal-a.npz", 10, 100.0)
        assert prune_cache_dir(tmp_path, "1K") == []

    def test_dry_run_reports_without_deleting(self, tmp_path):
        a = _make_entry(tmp_path, "teal-a.npz", 40, 100.0)
        removed = prune_cache_dir(tmp_path, 0, dry_run=True)
        assert removed == [a]
        assert a.exists()

    def test_missing_dir_is_noop(self, tmp_path):
        assert prune_cache_dir(tmp_path / "absent", 0) == []


def _stamped_entry(cache_dir, name: str, meta):
    """An ``.npz`` whose metadata member holds ``json.dumps(meta)``."""
    path = cache_dir / name
    np.savez(path, meta=np.array(json.dumps(meta)), weights=np.zeros(2))
    return path


def _grid_entry(cache_dir, name: str, version):
    return _stamped_entry(cache_dir, name, {"format": version, "cells": []})


class TestEntryFormat:
    def test_entry_path_hashes_the_key_repr(self, tmp_path):
        key = ("B4", 1.0, 0)
        digest = hashlib.sha256(repr(key).encode()).hexdigest()[:20]
        assert entry_path(tmp_path, "teal", key) == tmp_path / f"teal-{digest}.npz"
        with pytest.raises(ReproError, match="unknown cache entry kind"):
            entry_path(tmp_path, "gridmanifest", key)

    def test_write_read_round_trip(self, tmp_path):
        arrays = {"a": np.arange(5, dtype=np.float32), "b": np.eye(2)}
        path = write_entry(
            tmp_path / "teal-x.npz", {"note": 0.1 + 0.2}, arrays, key=("k", 1)
        )
        meta, loaded = read_entry(path, key=("k", 1))
        assert meta["note"] == 0.1 + 0.2  # floats round-trip exactly
        assert meta["format"] == CACHE_FORMAT
        assert meta["key"] == repr(("k", 1))
        assert set(loaded) == set(arrays)
        for name, array in arrays.items():
            assert loaded[name].dtype == array.dtype
            assert np.array_equal(loaded[name], array)

    def test_missing_member_is_a_repro_error(self, tmp_path):
        path = write_entry(tmp_path / "teal-x.npz", {}, {"a": np.zeros(1)})
        meta, arrays = read_entry(path)
        with pytest.raises(ReproError, match="no member 'absent'"):
            meta["absent"]
        with pytest.raises(ReproError, match="no member 'absent'"):
            arrays["absent"]

    @pytest.mark.parametrize(
        "defect", ("stale", "foreign-key", "truncated", "garbage", "missing")
    )
    @pytest.mark.parametrize("kind", ENTRY_KINDS)
    def test_unusable_entry_raises(
        self, kind, defect, entry_payloads, tmp_path, monkeypatch
    ):
        """Every kind's loader turns every unusable entry into a
        ReproError (a cache miss), never another exception."""
        write, load = entry_io(kind, tmp_path, *entry_payloads)
        load(write())  # the healthy entry loads
        if defect == "stale":
            with monkeypatch.context() as patch:
                patch.setattr(cache_mod, "CACHE_FORMAT", CACHE_FORMAT + 1)
                path = write()
        else:
            path = write()
        if defect == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        elif defect == "garbage":
            path.write_bytes(b"\xff\xfe" + bytes(range(256)))
        elif defect == "missing":
            path.unlink()
        match = {
            "stale": "stale cache entry",
            "foreign-key": "key mismatch",
        }.get(defect, "cannot read cache entry")
        with pytest.raises(ReproError, match=match):
            load(path, foreign=defect == "foreign-key")

    @pytest.mark.parametrize("kind", ENTRY_KINDS)
    def test_cache_entries_ignore_writer_temp_names(
        self, kind, entry_payloads, tmp_path, monkeypatch
    ):
        """An in-flight write is invisible to listing and pruning."""
        write, _ = entry_io(kind, tmp_path, *entry_payloads)
        real_replace = os.replace
        temps = []

        def checked_replace(src, dst):
            temps.append(Path(src))
            assert Path(src).exists()
            assert cache_entries(tmp_path) == []
            assert stale_entries(tmp_path) == []
            real_replace(src, dst)

        monkeypatch.setattr(cache_mod.os, "replace", checked_replace)
        path = write()
        assert len(temps) == 1
        assert [e.path for e in cache_entries(tmp_path)] == [path]


class TestSchemaVersions:
    def test_expected_versions_per_prefix(self, tmp_path):
        """Every kind is stamped with the one CACHE_FORMAT, which is
        above the pre-shared-format version 1."""
        assert CACHE_KINDS == ("scenario", "teal", "gridjob")
        assert CACHE_FORMAT > 1
        for kind in CACHE_KINDS:
            path = write_entry(entry_path(tmp_path, kind, (kind,)), {}, {})
            assert entry_schema_version(path) == CACHE_FORMAT

    def test_json_entry_versions(self, tmp_path):
        """The stamp is read from the entry's JSON metadata member."""
        current = _grid_entry(tmp_path, "gridjob-a.npz", CACHE_FORMAT)
        unstamped = _stamped_entry(tmp_path, "gridjob-b.npz", {"cells": []})
        corrupt = tmp_path / "gridjob-c.npz"
        np.savez(corrupt, meta=np.array("{broken"))
        nondict = tmp_path / "gridjob-d.npz"
        np.savez(nondict, meta=np.array("[1, 2]"))
        assert entry_schema_version(current) == CACHE_FORMAT
        assert entry_schema_version(unstamped) == 0
        assert entry_schema_version(corrupt) is None
        assert entry_schema_version(nondict) is None

    def test_npz_entry_versions(self, tmp_path):
        """Entries written before the shared format read as stale."""
        scenario = _stamped_entry(tmp_path, "scenario-a.npz", {"format": 1})
        assert entry_schema_version(scenario) == 1
        teal_unstamped = tmp_path / "teal-a.npz"
        np.savez(teal_unstamped, meta_format=np.array(1), param_0=np.zeros(2))
        assert entry_schema_version(teal_unstamped) == 0
        teal_bad = tmp_path / "teal-b.npz"
        teal_bad.write_bytes(b"not a zip")
        assert entry_schema_version(teal_bad) is None

    def test_stale_entries_finds_only_mismatches(self, tmp_path):
        fresh = _grid_entry(tmp_path, "gridjob-fresh.npz", CACHE_FORMAT)
        old = _grid_entry(tmp_path, "gridjob-old.npz", 1)
        corrupt = tmp_path / "teal-bad.npz"
        corrupt.write_bytes(b"not a zip")
        _make_entry(tmp_path, "unrelated.json", 5, 100.0)  # not ours
        # Files of retired entry kinds are no longer cache entries.
        _make_entry(tmp_path, "gridmanifest-legacy.json", 5, 100.0)
        _grid_entry(tmp_path, "gridmanifest-legacy.npz", 1)
        stale = {entry.path for entry in stale_entries(tmp_path)}
        assert stale == {old, corrupt}
        assert fresh not in stale


class TestCliCachePrune:
    def test_prune_end_to_end(self, tmp_path, capsys):
        _make_entry(tmp_path, "teal-old.npz", 40, 100.0)
        keep = _make_entry(tmp_path, "teal-new.npz", 40, 200.0)
        rc = main(
            ["cache", "prune", "--cache-dir", str(tmp_path),
             "--max-bytes", "50"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "teal-old.npz" in out
        assert "removed 1 entry" in out
        assert keep.exists()

    def test_dry_run_keeps_files(self, tmp_path, capsys):
        a = _make_entry(tmp_path, "scenario-a.npz", 40, 100.0)
        rc = main(
            ["cache", "prune", "--cache-dir", str(tmp_path),
             "--max-bytes", "0", "--dry-run"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "would remove" in out
        assert a.exists()

    def test_bad_size_is_a_clean_error(self, tmp_path, capsys):
        rc = main(
            ["cache", "prune", "--cache-dir", str(tmp_path),
             "--max-bytes", "lots"]
        )
        assert rc == 2
        assert "unparseable cache size" in capsys.readouterr().err

    def test_no_action_flags_is_an_error(self, tmp_path, capsys):
        rc = main(["cache", "prune", "--cache-dir", str(tmp_path)])
        assert rc == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_stale_entries_reported_without_eviction(self, tmp_path, capsys):
        stale = _grid_entry(tmp_path, "gridjob-old.npz", 0)
        rc = main(
            ["cache", "prune", "--cache-dir", str(tmp_path),
             "--max-bytes", "1G"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "stale schema version" in out
        assert "--evict-stale" in out
        assert stale.exists()

    def test_evict_stale_removes_only_stale_entries(self, tmp_path, capsys):
        stale = _grid_entry(tmp_path, "gridjob-old.npz", 0)
        fresh = _grid_entry(tmp_path, "gridjob-new.npz", CACHE_FORMAT)
        rc = main(
            ["cache", "prune", "--cache-dir", str(tmp_path), "--evict-stale"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "gridjob-old.npz" in out
        assert not stale.exists()
        assert fresh.exists()

    def test_evict_stale_dry_run_keeps_files(self, tmp_path, capsys):
        stale = _grid_entry(tmp_path, "gridjob-old.npz", 0)
        rc = main(
            ["cache", "prune", "--cache-dir", str(tmp_path),
             "--evict-stale", "--dry-run"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "would remove" in out
        assert stale.exists()

    def test_evict_stale_composes_with_byte_budget(self, tmp_path):
        stale = _grid_entry(tmp_path, "gridjob-old.npz", 0)
        lru = _grid_entry(tmp_path, "gridjob-a.npz", CACHE_FORMAT)
        os.utime(lru, (100.0, 100.0))
        keep = _grid_entry(tmp_path, "gridjob-b.npz", CACHE_FORMAT)
        os.utime(keep, (200.0, 200.0))
        rc = main(
            ["cache", "prune", "--cache-dir", str(tmp_path),
             "--evict-stale", "--max-bytes", str(keep.stat().st_size)]
        )
        assert rc == 0
        # Stale eviction and LRU pruning both applied in one pass.
        assert not stale.exists() and not lru.exists() and keep.exists()


class TestHarnessTouchesOnHit:
    def test_scenario_and_model_disk_hits_refresh_mtime(self, tmp_path):
        from repro.config import TrainingConfig
        from repro.harness import build_scenario, clear_caches, trained_teal

        config = TrainingConfig(steps=1, warm_start_steps=2, log_every=10)
        kwargs = dict(
            max_pairs=20, train=2, validation=1, test=1,
            cache_dir=tmp_path,
        )
        scenario = build_scenario("B4", seed=0, **kwargs)
        trained_teal(scenario, config=config, cache_dir=tmp_path)
        entries = cache_entries(tmp_path)
        assert len(entries) == 2  # one scenario + one checkpoint
        stale = 1000.0
        for entry in entries:
            os.utime(entry.path, (stale, stale))
        clear_caches()  # force the disk tier on the next lookup
        scenario = build_scenario("B4", seed=0, **kwargs)
        trained_teal(scenario, config=config, cache_dir=tmp_path)
        for entry in cache_entries(tmp_path):
            assert entry.path.stat().st_mtime > stale


class TestLookup:
    """``repro.cache.lookup``: the one memory -> disk -> build lookup."""

    def run(self, memory, entry, use_cache=True):
        calls = []

        def load(path):
            calls.append("load")
            meta, _ = read_entry(path, key=("k",))
            return meta["value"]

        def build():
            calls.append("build")
            return 7

        def save(value, path):
            calls.append("save")
            write_entry(path, {"value": value}, {}, key=("k",))

        value = cache_mod.lookup(
            memory, "k", entry, load, build, save, use_cache
        )
        return value, calls

    def test_miss_builds_and_fills_both_tiers(self, tmp_path):
        memory, entry = {}, tmp_path / "teal-x.npz"
        assert self.run(memory, entry) == (7, ["build", "save"])
        assert memory == {"k": 7} and entry.exists()

    def test_memory_hit_writes_a_missing_entry(self, tmp_path):
        memory, entry = {"k": 7}, tmp_path / "teal-x.npz"
        assert self.run(memory, entry) == (7, ["save"])
        assert self.run(memory, entry) == (7, [])
        assert self.run(memory, None) == (7, [])

    def test_disk_hit_loads_and_touches(self, tmp_path):
        entry = tmp_path / "teal-x.npz"
        write_entry(entry, {"value": 5}, {}, key=("k",))
        os.utime(entry, (1000.0, 1000.0))
        memory = {}
        assert self.run(memory, entry) == (5, ["load"])
        assert memory == {"k": 5}
        assert entry.stat().st_mtime > 1000.0

    def test_unusable_entry_warns_and_rebuilds(self, tmp_path):
        entry = tmp_path / "teal-x.npz"
        entry.write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning, match=r"teal-x\.npz is unusable"):
            assert self.run({}, entry) == (7, ["load", "build", "save"])
        assert self.run({}, entry) == (7, ["load"])

    def test_use_cache_false_builds_and_overwrites(self, tmp_path):
        entry = tmp_path / "teal-x.npz"
        write_entry(entry, {"value": 5}, {}, key=("k",))
        memory = {"k": 5}
        assert self.run(memory, entry, use_cache=False) == (7, ["build", "save"])
        assert memory == {"k": 5}
        assert read_entry(entry)[0]["value"] == 7
