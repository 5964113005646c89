"""Content-addressed on-disk cache of simulation results.

A cache entry is one pickled ``(elapsed_seconds, SimulationResult)``
pair stored under ``<dir>/<key[:2]>/<key>.pkl`` where ``key`` is the
stable fingerprint of ``(format version, code salt, SimulationConfig)``
-- see :mod:`repro.runtime.fingerprint`.  Because the configuration
includes the seed and the salt covers the simulator's source, a hit is
guaranteed to be the byte-identical result the simulator would have
produced.  On disk every entry is framed as ``magic || sha256(payload)
|| payload`` so bit rot and truncation are detected by checksum before
any unpickling happens.

Failure policy: a corrupted or truncated entry is *a miss, not a
crash* -- it is counted, moved into ``<dir>/quarantine/`` (preserved
for inspection, never silently destroyed) and recomputed.  Writes go
through a temp file plus :func:`os.replace` so a killed process can
never leave a half-written entry behind that parses.

Beyond get/put the cache exposes its own maintenance surface (the
``repro cache`` CLI subcommand): :meth:`ResultCache.disk_stats`,
:meth:`ResultCache.verify` (checksum every entry, quarantining the bad
ones), :meth:`ResultCache.purge` and :meth:`ResultCache.prune`
(oldest-first eviction down to a byte budget).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.runtime.fingerprint import (
    CACHE_FORMAT_VERSION,
    code_salt,
    stable_fingerprint,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.config import SimulationConfig
    from repro.sim.results import SimulationResult

__all__ = [
    "CacheStats",
    "CacheDiskStats",
    "CacheVerifyReport",
    "ResultCache",
    "default_cache_dir",
]

#: On-disk entry framing: magic + 32-byte SHA-256 of the payload.
_ENTRY_MAGIC = b"RPRC2\n"
_DIGEST_SIZE = hashlib.sha256().digest_size


def _frame_payload(payload: bytes) -> bytes:
    return _ENTRY_MAGIC + hashlib.sha256(payload).digest() + payload


def _unframe_payload(blob: bytes) -> bytes | None:
    """The checksum-verified payload, or None when the frame is bad."""
    header_size = len(_ENTRY_MAGIC) + _DIGEST_SIZE
    if len(blob) < header_size or not blob.startswith(_ENTRY_MAGIC):
        return None
    digest = blob[len(_ENTRY_MAGIC):header_size]
    payload = blob[header_size:]
    if hashlib.sha256(payload).digest() != digest:
        return None
    return payload


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro/results``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "results"


@dataclass
class CacheStats:
    """Hit/miss/elapsed counters for one cache (mergeable across workers)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    seconds_saved: float = 0.0
    seconds_computed: float = 0.0

    def snapshot(self) -> "CacheStats":
        """An independent copy (for before/after deltas in workers)."""
        return replace(self)

    def delta_since(self, before: "CacheStats") -> "CacheStats":
        """Counter increments accumulated since ``before``."""
        return CacheStats(
            hits=self.hits - before.hits,
            misses=self.misses - before.misses,
            stores=self.stores - before.stores,
            corrupt=self.corrupt - before.corrupt,
            seconds_saved=self.seconds_saved - before.seconds_saved,
            seconds_computed=self.seconds_computed - before.seconds_computed,
        )

    def merge(self, delta: "CacheStats") -> None:
        """Fold a worker-side delta into this (parent-side) counter set."""
        self.hits += delta.hits
        self.misses += delta.misses
        self.stores += delta.stores
        self.corrupt += delta.corrupt
        self.seconds_saved += delta.seconds_saved
        self.seconds_computed += delta.seconds_computed

    def render(self) -> str:
        """One status line, the CLI's cache-stats output."""
        return (
            f"cache: {self.hits} hits, {self.misses} misses, "
            f"{self.stores} stored, {self.corrupt} corrupt; "
            f"{self.seconds_saved:.1f}s compute saved, "
            f"{self.seconds_computed:.1f}s spent"
        )


class ResultCache:
    """Content-addressed store of :class:`SimulationResult` objects.

    Parameters
    ----------
    directory:
        Root of the on-disk store (created lazily on first write).
    salt:
        Code-version salt mixed into every key; defaults to
        :func:`repro.runtime.fingerprint.code_salt`.  Tests inject a
        fixed salt to exercise invalidation without editing source.
    """

    def __init__(self, directory: str | Path, salt: str | None = None) -> None:
        self.directory = Path(directory)
        self.salt = code_salt() if salt is None else str(salt)
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def key_for(self, config: "SimulationConfig") -> str:
        """The content address of one configuration (seed included)."""
        return stable_fingerprint((CACHE_FORMAT_VERSION, self.salt, config))

    def _path_for(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.pkl"

    @property
    def quarantine_dir(self) -> Path:
        return self.directory / "quarantine"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside instead of silently destroying it."""
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:  # pragma: no cover - cross-device/racy fallback
            try:
                path.unlink()
            except OSError:
                pass

    def _load_entry(self, path: Path) -> "tuple[float, SimulationResult] | None":
        """Checksum-verify and unpickle one entry file, or None if bad."""
        try:
            payload = _unframe_payload(path.read_bytes())
            if payload is None:
                return None
            elapsed, result = pickle.loads(payload)
            return float(elapsed), result
        except Exception:
            return None

    # ------------------------------------------------------------------
    def get(
        self, config: "SimulationConfig", *, key: str | None = None
    ) -> "SimulationResult | None":
        """The stored result for ``config``, or None on a miss.

        ``key`` is ``config``'s :meth:`key_for`, when the caller already
        has it.  A corrupted entry (bad checksum, unpicklable, wrong
        shape) is quarantined and reported as a miss, never raised.
        """
        path = self._path_for(key if key is not None else self.key_for(config))
        if not path.is_file():
            self.stats.misses += 1
            return None
        entry = self._load_entry(path)
        if entry is None:
            self.stats.corrupt += 1
            self.stats.misses += 1
            self._quarantine(path)
            return None
        elapsed, result = entry
        self.stats.hits += 1
        self.stats.seconds_saved += elapsed
        return result

    def put(
        self,
        config: "SimulationConfig",
        result: "SimulationResult",
        elapsed: float,
        *,
        key: str | None = None,
    ) -> None:
        """Store ``result`` (with its compute time) under ``config``'s key
        (``key``, when the caller already computed it)."""
        path = self._path_for(key if key is not None else self.key_for(config))
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(
            (float(elapsed), result), protocol=pickle.HIGHEST_PROTOCOL
        )
        # Atomic publish: concurrent workers (possibly fabric workers on
        # other hosts sharing one --cache-dir) may race on the same
        # key, but every one of them writes the identical byte-for-byte
        # payload, so last-replace-wins is harmless.  The fsync before
        # the rename keeps a power-cut from publishing a name whose
        # data blocks never hit the disk.
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(_frame_payload(payload))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        self.stats.seconds_computed += elapsed

    # ------------------------------------------------------------------
    # Maintenance surface (the ``repro cache`` subcommand).
    def iter_entry_paths(self) -> Iterator[Path]:
        """Every entry file, in stable (shard, name) order."""
        if not self.directory.is_dir():
            return
        for shard in sorted(self.directory.iterdir()):
            if shard.is_dir() and len(shard.name) == 2:
                yield from sorted(shard.glob("*.pkl"))

    def disk_stats(self) -> "CacheDiskStats":
        """Entry/quarantine counts and byte totals from a directory walk."""
        stats = CacheDiskStats(directory=self.directory)
        for path in self.iter_entry_paths():
            stats.entries += 1
            stats.entry_bytes += path.stat().st_size
        if self.quarantine_dir.is_dir():
            for path in sorted(self.quarantine_dir.iterdir()):
                if path.is_file():
                    stats.quarantined += 1
                    stats.quarantined_bytes += path.stat().st_size
        return stats

    def sweep_stale_tmp(self, max_age_seconds: float = 3600.0) -> int:
        """Delete abandoned ``*.tmp`` files older than ``max_age_seconds``.

        A writer killed between ``mkstemp`` and ``os.replace`` leaves an
        invisible-but-real temp file behind; entries themselves are
        never torn (the rename is atomic), but the strays accumulate.
        The age guard keeps a sweep from deleting a temp file another
        live writer is about to rename.  Returns the number removed.
        """
        if not self.directory.is_dir():
            return 0
        cutoff = time.time() - max(0.0, max_age_seconds)
        removed = 0
        candidates = list(self.directory.glob("*.tmp"))
        for shard in self.directory.iterdir():
            if shard.is_dir() and len(shard.name) == 2:
                candidates.extend(shard.glob("*.tmp"))
        for path in candidates:
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    removed += 1
            except OSError:  # pragma: no cover - racy cleanup is best-effort
                continue
        return removed

    def verify(self) -> "CacheVerifyReport":
        """Checksum-and-unpickle every entry, quarantining the bad ones.

        Also sweeps stale writer temp files (see :meth:`sweep_stale_tmp`).
        """
        report = CacheVerifyReport()
        for path in list(self.iter_entry_paths()):
            report.checked += 1
            if self._load_entry(path) is None:
                report.quarantined.append(path.name)
                self._quarantine(path)
        report.stale_tmp_removed = self.sweep_stale_tmp()
        return report

    def purge(self, include_quarantine: bool = True) -> tuple[int, int]:
        """Delete all entries (and quarantined files); returns
        ``(files_removed, bytes_reclaimed)``."""
        removed = reclaimed = 0
        targets = list(self.iter_entry_paths())
        if include_quarantine and self.quarantine_dir.is_dir():
            targets.extend(p for p in sorted(self.quarantine_dir.iterdir()) if p.is_file())
        for path in targets:
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:  # pragma: no cover - racy cleanup is best-effort
                continue
            removed += 1
            reclaimed += size
        return removed, reclaimed

    def prune(self, max_bytes: int) -> tuple[int, int]:
        """Evict oldest entries (by mtime) until the store fits
        ``max_bytes``; returns ``(files_removed, bytes_reclaimed)``."""
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be non-negative, got {max_bytes}")
        entries = []
        total = 0
        for path in self.iter_entry_paths():
            stat = path.stat()
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        entries.sort(key=lambda e: (e[0], str(e[2])))
        removed = reclaimed = 0
        for _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racy cleanup is best-effort
                continue
            total -= size
            removed += 1
            reclaimed += size
        return removed, reclaimed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache({str(self.directory)!r}, salt={self.salt[:8]}...)"


@dataclass
class CacheDiskStats:
    """What is actually on disk (as opposed to the session counters)."""

    directory: Path
    entries: int = 0
    entry_bytes: int = 0
    quarantined: int = 0
    quarantined_bytes: int = 0

    def render(self) -> str:
        return (
            f"cache directory : {self.directory}\n"
            f"entries         : {self.entries} ({self.entry_bytes} bytes)\n"
            f"quarantined     : {self.quarantined} ({self.quarantined_bytes} bytes)"
        )


@dataclass
class CacheVerifyReport:
    """Outcome of one :meth:`ResultCache.verify` pass."""

    checked: int = 0
    quarantined: list[str] = field(default_factory=list)
    stale_tmp_removed: int = 0

    @property
    def ok(self) -> int:
        return self.checked - len(self.quarantined)

    def render(self) -> str:
        line = f"verified {self.checked} entries: {self.ok} ok, {len(self.quarantined)} quarantined"
        if self.stale_tmp_removed:
            line += f"; swept {self.stale_tmp_removed} stale tmp files"
        for name in self.quarantined:
            line += f"\n  quarantined {name}"
        return line
