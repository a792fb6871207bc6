"""The persistent cache directory: one entry format, pruning, versioning.

The harness's on-disk tier (:func:`repro.harness.build_scenario` and
:func:`repro.harness.trained_teal` with ``cache_dir=``) and the grid
engine's per-job checkpoints (:func:`repro.sweep.grid.run_scenario_grid`)
all store their entries in one format, and this module is the only one
that knows it:

- :func:`entry_path` names an entry ``{kind}-{hash}.npz``, where the
  hash is a SHA-256 prefix of ``repr(key)`` and ``kind`` is one of
  :data:`CACHE_KINDS`.
- :func:`write_entry` writes one ``.npz`` archive holding the caller's
  arrays plus a JSON ``meta`` member: the caller's metadata, the
  :data:`CACHE_FORMAT` stamp, and ``repr(key)``. The write is atomic.
- :func:`read_entry` loads and verifies an entry. Every unusable entry
  (missing, unreadable, corrupt, missing a member, stale stamp, or
  stored under another key) raises :class:`ReproError`, which every
  cache tier treats as a miss.

The scenario, model and grid-job code only (de)serialise their
payloads through these three functions.

:func:`lookup` is the one memory -> disk -> build lookup both harness
tiers run: the caller supplies its in-memory dict and its own load,
build and save callables, and an unusable disk entry becomes a
``RuntimeWarning`` plus a rebuild that overwrites it.

The directory grows without bound: every distinct scenario, training
configuration or grid job adds an entry that is never deleted.
:func:`prune_cache_dir` adds the bound — least-recently-used eviction
down to a byte budget. Recency is tracked through file mtimes:
:func:`lookup` calls :func:`touch` on every disk-tier hit, so an entry's
mtime is the last time it was either written or read. :func:`stale_entries`
finds entries whose stamp no longer matches :data:`CACHE_FORMAT` (they
would be misses anyway). Both are exposed as ``repro.cli cache prune``.

:func:`atomic_write_text` / :func:`atomic_write_json` write the repo's
JSON artifacts through the same write-to-temp-then-:func:`os.replace`
helper as :func:`write_entry`, so an interrupted writer can never leave
a truncated file where a reader expects a complete one.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import ReproError

#: Schema version stamped into every cache entry; bump on layout
#: changes or when stored results change. Readers treat any other stamp
#: as a miss and rebuild, so a long-lived cache directory never
#: deserializes a stale layout or mixes old results into a resumed run.
#: Entries written before the shared format (version 1 and unstamped)
#: read as stale.
CACHE_FORMAT = 3

#: Entry kinds this module manages (``{kind}-*.npz``). Anything else in
#: the directory (user files, other artifacts) is left alone.
CACHE_KINDS = ("scenario", "teal", "gridjob")

#: Archive member holding an entry's JSON metadata.
_META = "meta"

_SIZE_SUFFIXES = {
    "K": 1024,
    "M": 1024**2,
    "G": 1024**3,
    "T": 1024**4,
}


@dataclass(frozen=True)
class CacheEntry:
    """One prunable file in a cache directory."""

    path: Path
    bytes: int
    mtime: float


def parse_size(text: str | int) -> int:
    """Parse a byte budget like ``"500M"``, ``"2G"``, or a plain int.

    Suffixes are binary (K=2**10, M=2**20, G=2**30, T=2**40) and
    case-insensitive; an optional trailing ``B`` is accepted
    (``"64KB"``). Raises :class:`ReproError` on anything else.
    """
    if isinstance(text, int):
        if text < 0:
            raise ReproError(f"cache size must be non-negative, got {text}")
        return text
    raw = text.strip().upper().removesuffix("B")
    factor = 1
    if raw and raw[-1] in _SIZE_SUFFIXES:
        factor = _SIZE_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError:
        raise ReproError(
            f"unparseable cache size {text!r}; use e.g. 500M, 2G, or a "
            "plain byte count"
        ) from None
    if value < 0:
        raise ReproError(f"cache size must be non-negative, got {text!r}")
    return int(value * factor)


def touch(path: str | Path) -> None:
    """Mark a cache entry as just-used (best effort).

    Called by :func:`lookup` on disk-tier hits so LRU pruning sees reads,
    not only writes. A concurrently pruned entry is not an error.
    """
    try:
        os.utime(path)
    except OSError:  # pragma: no cover - raced with prune/cleanup
        pass


def _atomic_write(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (temp file + :func:`os.replace`).

    The temp file lives in the destination directory so the final
    rename never crosses filesystems, and its name ends in
    ``.tmp-<pid>``, so it never matches an entry glob: pruning cannot
    list (and delete) an in-flight write. An interrupted write leaves
    the previous file (if any) untouched and no temp residue behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    return path


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` (UTF-8) to ``path`` atomically."""
    return _atomic_write(path, text.encode())


def atomic_write_json(path: str | Path, payload: object) -> Path:
    """Serialize ``payload`` fully in memory, then atomically write it.

    Serializing before opening the destination means even a crash
    inside ``json`` encoding cannot produce a half-written document.
    """
    return atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def entry_path(cache_dir: str | Path, kind: str, key: object) -> Path:
    """Path of the ``kind`` entry stored under ``key`` in ``cache_dir``.

    The filename carries a SHA-256 prefix of ``repr(key)``, so every
    distinct key gets its own entry; the key itself is also stored
    inside the entry (:func:`write_entry`) and checked on load, so a
    hash-prefix collision reads as a miss, never as the wrong entry.
    """
    if kind not in CACHE_KINDS:
        raise ReproError(
            f"unknown cache entry kind {kind!r}; expected one of {CACHE_KINDS}"
        )
    digest = hashlib.sha256(repr(key).encode()).hexdigest()[:20]
    return Path(cache_dir) / f"{kind}-{digest}.npz"


def write_entry(
    path: str | Path,
    meta: dict,
    arrays: dict[str, np.ndarray],
    key: object = None,
) -> Path:
    """Atomically write one cache entry.

    Args:
        path: Destination, usually from :func:`entry_path`.
        meta: JSON-serializable metadata (``format`` and ``key`` are
            reserved and overwritten by the stamp).
        arrays: Named arrays stored next to the metadata.
        key: The cache key, stored as ``repr(key)`` and checked by
            :func:`read_entry`. ``None`` stores no key (user paths).

    Returns:
        The written path.
    """
    stamped = {
        **meta,
        "format": CACHE_FORMAT,
        "key": None if key is None else repr(key),
    }
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer, **arrays, **{_META: np.array(json.dumps(stamped))}
    )
    return _atomic_write(path, buffer.getvalue())


class _Members(dict):
    """An entry's metadata or arrays: a missing name raises ReproError."""

    def __init__(self, path: Path, items: dict):
        super().__init__(items)
        self.path = path

    def __missing__(self, name: str):
        raise ReproError(f"cache entry {self.path} has no member {name!r}")


def _decode_meta(raw: np.ndarray | None) -> dict:
    """The metadata dict of an entry (``{}`` when unstamped)."""
    if raw is None:
        return {}
    meta = json.loads(str(raw[()]))
    if not isinstance(meta, dict):
        raise ValueError(f"metadata is a {type(meta).__name__}, not an object")
    return meta


def read_entry(
    path: str | Path, key: object = None
) -> tuple[dict, dict[str, np.ndarray]]:
    """Load and verify one cache entry written by :func:`write_entry`.

    Every array is read here, so a corrupt member (bad CRC, truncated
    stream) fails now rather than in the caller's decoder. Looking up a
    name the entry lacks, in either returned mapping, raises
    :class:`ReproError` too.

    Args:
        path: The entry.
        key: The key the entry must have been stored under; ``None``
            skips the check.

    Returns:
        ``(meta, arrays)``: the stored metadata (including the
        ``format`` and ``key`` stamps) and the named arrays.

    Raises:
        ReproError: On a missing, unreadable or corrupt entry, a stamp
            other than :data:`CACHE_FORMAT`, or a key mismatch. Cache
            tiers treat every one of these as a miss.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = _decode_meta(arrays.pop(_META, None))
    except Exception as error:
        raise ReproError(
            f"cannot read cache entry {path} (missing or corrupt): "
            f"{type(error).__name__}: {error}"
        ) from error
    stamp = meta.get("format", 0)
    if stamp != CACHE_FORMAT:
        raise ReproError(
            f"stale cache entry {path}: schema version {stamp!r}, this "
            f"library writes version {CACHE_FORMAT}"
        )
    if key is not None and meta.get("key") != repr(key):
        raise ReproError(
            f"cache entry {path} key mismatch: stored {meta.get('key')}, "
            f"expected {key!r}"
        )
    return _Members(path, meta), _Members(path, arrays)


def lookup(
    memory: dict,
    key: object,
    entry: Path | None,
    load: Callable[[Path], object],
    build: Callable[[], object],
    save: Callable[[object, Path], object],
    use_cache: bool,
):
    """The memory -> disk -> build lookup of one cached value.

    1. A memory hit returns at once, first writing the disk entry if it
       is missing (the caller asked for persistence after the value was
       built without it).
    2. A disk hit loads the entry and :func:`touch`-es it.
    3. An unusable entry (``load`` raised :class:`ReproError`) warns
       with a ``RuntimeWarning`` naming the entry and the reason, then
       falls through to a rebuild that overwrites it.
    4. A miss builds the value and stores it in both tiers.

    Args:
        memory: The caller's in-memory tier.
        key: The in-memory key.
        entry: The disk entry (from :func:`entry_path`), or ``None`` for
            no disk tier.
        load: Reads a value from an entry; raises :class:`ReproError`
            when the entry is unusable.
        build: Computes the value from scratch.
        save: Writes a value to an entry.
        use_cache: ``False`` means "do not reuse": neither tier is
            read and the memory tier is not filled; the value is built
            and its disk entry overwritten.
    """
    if use_cache and key in memory:
        value = memory[key]
        if entry is not None and not entry.exists():
            save(value, entry)
        return value
    if use_cache and entry is not None and entry.exists():
        try:
            value = load(entry)
        except ReproError as error:
            warnings.warn(
                f"cache entry {entry} is unusable ({error}); rebuilding",
                RuntimeWarning,
                stacklevel=3,
            )
        else:
            touch(entry)  # LRU recency for ``repro.cli cache prune``
            memory[key] = value
            return value
    value = build()
    if entry is not None:
        save(value, entry)
    if use_cache:
        memory[key] = value
    return value


def cache_entries(cache_dir: str | Path) -> list[CacheEntry]:
    """Prunable entries of a cache directory, least recently used first.

    Only ``{kind}-*.npz`` files of the :data:`CACHE_KINDS` are
    considered. Files that vanish mid-scan are skipped. Ties on mtime break by name so
    the ordering is deterministic.
    """
    cache_dir = Path(cache_dir)
    entries = []
    for kind in CACHE_KINDS:
        for path in cache_dir.glob(f"{kind}-*.npz"):
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - raced with cleanup
                continue
            entries.append(
                CacheEntry(path=path, bytes=stat.st_size, mtime=stat.st_mtime)
            )
    entries.sort(key=lambda e: (e.mtime, e.path.name))
    return entries


def prune_cache_dir(
    cache_dir: str | Path,
    max_bytes: int | str,
    dry_run: bool = False,
) -> list[Path]:
    """Evict least-recently-used cache entries down to ``max_bytes``.

    Args:
        cache_dir: The directory passed to the harness as ``cache_dir``.
        max_bytes: Byte budget the directory must fit after pruning
            (int or a :func:`parse_size` string). ``0`` empties it.
        dry_run: Report what would be removed without deleting.

    Returns:
        The paths removed (or, with ``dry_run``, that would be).

    A missing directory is an empty cache, not an error.
    """
    budget = parse_size(max_bytes)
    entries = cache_entries(cache_dir)
    total = sum(e.bytes for e in entries)
    removed: list[Path] = []
    for entry in entries:
        if total <= budget:
            break
        if not dry_run:
            try:
                entry.path.unlink()
            except OSError:  # pragma: no cover - raced with cleanup
                continue
        removed.append(entry.path)
        total -= entry.bytes
    return removed


def entry_schema_version(path: str | Path) -> int | None:
    """Schema version stamped in a cache entry's metadata.

    Unstamped entries (no ``format``, or no metadata at all) report
    ``0``; unreadable or corrupt entries report ``None``. Either way
    they compare unequal to :data:`CACHE_FORMAT`, so readers and the
    prune report treat them as stale.
    """
    try:
        with np.load(path, allow_pickle=False) as archive:
            raw = archive[_META] if _META in archive.files else None
            return int(_decode_meta(raw).get("format", 0))
    except Exception:
        return None


def stale_entries(cache_dir: str | Path) -> list[CacheEntry]:
    """Cache entries whose stamp is not :data:`CACHE_FORMAT`.

    These are exactly the entries every reader already treats as a
    miss; evicting them (``repro.cli cache prune --evict-stale``) just
    reclaims the dead bytes early.
    """
    return [
        entry
        for entry in cache_entries(cache_dir)
        if entry_schema_version(entry.path) != CACHE_FORMAT
    ]
