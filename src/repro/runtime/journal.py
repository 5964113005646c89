"""Append-only checkpoint journal for resumable sweeps.

Every supervised sweep writes one JSONL file next to the result cache
(``<cache_dir>/journal/<sweep_id>.jsonl``): one line per completed cell
carrying the cell's index and the pickled result guarded by a SHA-256
checksum (:func:`repro.blob.pack_blob`).  A re-run with ``--resume``
loads the journal, verifies every line, and hands the already-completed
cells back to :func:`repro.runtime.supervisor.supervised_map` so only the
missing cells are recomputed.

Failure policy mirrors the result cache: a torn or bit-rotted line
(a SIGINT can land mid-``write``) is *skipped and counted*, never
raised -- the cell it described is simply recomputed.  The journal file
is identified by :func:`sweep_fingerprint`, which covers the sweep
label, every item, and the simulation code salt, so a changed sweep
shape or edited simulator code can never resume stale cells.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import IO

from repro.blob import pack_blob, unpack_blob
from repro.runtime.fingerprint import code_salt, stable_fingerprint

__all__ = [
    "JOURNAL_VERSION",
    "JournalStats",
    "SweepJournal",
    "sweep_fingerprint",
    "CompactionStats",
    "compact_journal",
]

#: Bump to orphan every existing journal file (format changes).
JOURNAL_VERSION = 1


def sweep_fingerprint(label: str, items: list) -> str:
    """Identity of one sweep: label + every item + simulation code salt.

    Raises ``TypeError`` (propagated from ``stable_fingerprint``) when an
    item is not fingerprintable; callers treat that as "this sweep
    cannot be journaled" rather than an error.
    """
    return stable_fingerprint(
        (JOURNAL_VERSION, code_salt(), label, [stable_fingerprint(i) for i in items])
    )


@dataclass
class JournalStats:
    """Per-context journal counters (the CLI's ``journal:`` line)."""

    resumed: int = 0
    recorded: int = 0
    corrupt: int = 0

    def render(self) -> str:
        return (
            f"journal: {self.resumed} resumed, {self.recorded} recorded, "
            f"{self.corrupt} corrupt"
        )


class SweepJournal:
    """One sweep's append-only completion log.

    Parameters
    ----------
    directory:
        Journal root (created lazily on first record).
    sweep_id:
        Output of :func:`sweep_fingerprint` for this sweep.
    n_items:
        Sweep size; used to reject out-of-range indices on load.
    resume:
        When True the existing file is kept and appended to; when False
        a fresh run truncates it (its cells are being recomputed).
    """

    def __init__(
        self,
        directory: str | Path,
        sweep_id: str,
        n_items: int,
        resume: bool = False,
    ) -> None:
        self.directory = Path(directory)
        self.sweep_id = sweep_id
        self.path = self.directory / f"{sweep_id}.jsonl"
        self.n_items = int(n_items)
        self.resume = resume
        self.corrupt_lines = 0
        self._handle: IO[str] | None = None

    # ------------------------------------------------------------------
    def load(self) -> dict[int, object]:
        """Verified completed cells (``index -> result``) from disk.

        Lines that fail JSON parsing, checksum verification, index
        bounds, or unpickling are counted in ``corrupt_lines`` and
        skipped.  Later lines win on duplicate indices (a re-run may
        have re-recorded a cell).
        """
        results: dict[int, object] = {}
        if not self.path.is_file():
            return results
        try:
            lines = self.path.read_text(encoding="utf-8").splitlines()
        except OSError:
            self.corrupt_lines += 1
            return results
        for line in lines:
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                if entry.get("kind") != "cell":
                    continue  # header / event / future record kinds
                index = int(entry["index"])
                if not 0 <= index < self.n_items:
                    raise ValueError(f"index {index} out of range")
                results[index] = unpack_blob(entry)
            except Exception:
                self.corrupt_lines += 1
        return results

    # ------------------------------------------------------------------
    def _open(self) -> IO[str]:
        if self._handle is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            fresh = not (self.resume and self.path.exists())
            self._handle = self.path.open("a" if not fresh else "w", encoding="utf-8")
            if fresh:
                header = {
                    "kind": "header",
                    "version": JOURNAL_VERSION,
                    "sweep": self.sweep_id,
                    "n_items": self.n_items,
                }
                self._handle.write(json.dumps(header) + "\n")
                self._handle.flush()
        return self._handle

    def record(self, index: int, value: object) -> None:
        """Append one completed cell; flushed line-by-line so a crash
        loses at most the cell being written."""
        try:
            blob = pack_blob(value)
        except Exception:
            return  # unpicklable result: cell simply is not resumable
        handle = self._open()
        handle.write(json.dumps({"kind": "cell", "index": int(index), **blob}) + "\n")
        handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.flush()
                self._handle.close()
            finally:
                self._handle = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SweepJournal({str(self.path)!r}, n_items={self.n_items})"


# ----------------------------------------------------------------------
@dataclass
class CompactionStats:
    """Outcome of one :func:`compact_journal` pass."""

    path: Path
    lines_before: int = 0
    lines_after: int = 0
    bytes_before: int = 0
    bytes_after: int = 0
    dropped_superseded: int = 0
    dropped_events: int = 0
    dropped_corrupt: int = 0

    @property
    def bytes_reclaimed(self) -> int:
        return max(0, self.bytes_before - self.bytes_after)

    def render(self) -> str:
        return (
            f"{self.path.name}: {self.lines_before} -> {self.lines_after} lines "
            f"({self.dropped_superseded} superseded, {self.dropped_events} "
            f"events, {self.dropped_corrupt} corrupt); "
            f"reclaimed {self.bytes_reclaimed} bytes"
        )


def compact_journal(path: str | Path) -> CompactionStats:
    """Rewrite one journal keeping only the last record per cell.

    Retried cells and resumed runs append fresh records for indices
    that already have one, and journals may carry ``event`` or
    ``failed`` lines that matter only while a run is live.  Compaction
    keeps:

    * the first ``header`` line, verbatim;
    * the *last* ``cell`` line per index (later lines win on load, so
      dropping earlier duplicates cannot change a resume);
    * the last ``failed`` line per index, only for indices with no
      ``cell`` record (a later success supersedes the failure).

    Everything else -- event/lease/retry lines, unparsable or torn
    lines -- is dropped and counted.  The rewrite is atomic (temp file
    + ``os.replace``); an untouched journal (nothing to drop) is left
    in place byte-for-byte.  Compacting a journal while its sweep is
    still running can drop the in-flight line, so the CLI surfaces this
    as a maintenance verb (``repro cache prune --compact-journals``),
    not something a live run does to itself.
    """
    path = Path(path)
    raw = path.read_bytes()
    text = raw.decode("utf-8", errors="replace")
    lines = text.splitlines()
    stats = CompactionStats(
        path=path, lines_before=len(lines), bytes_before=len(raw)
    )

    header: str | None = None
    cells: dict[int, str] = {}
    failed: dict[int, str] = {}
    order: list[int] = []  # first-seen index order, for a stable output
    seen: set[int] = set()
    for line in lines:
        if not line.strip():
            stats.dropped_corrupt += 1
            continue
        try:
            entry = json.loads(line)
            kind = entry.get("kind")
            if kind == "header":
                if header is None:
                    header = line
                else:
                    stats.dropped_superseded += 1
                continue
            if kind in ("cell", "failed"):
                index = int(entry["index"])
                table = cells if kind == "cell" else failed
                if index in table:
                    stats.dropped_superseded += 1
                if index not in seen:
                    seen.add(index)
                    order.append(index)
                table[index] = line
                continue
            # event / lease / retry / unknown structured kinds.
            stats.dropped_events += 1
        except Exception:
            stats.dropped_corrupt += 1

    kept: list[str] = [] if header is None else [header]
    for index in order:
        if index in cells:
            kept.append(cells[index])
            if index in failed:
                stats.dropped_superseded += 1
        else:
            kept.append(failed[index])
    stats.lines_after = len(kept)

    if (
        stats.lines_after == stats.lines_before
        and stats.dropped_corrupt == 0
    ):
        stats.bytes_after = stats.bytes_before
        return stats

    payload = "".join(line + "\n" for line in kept)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    stats.bytes_after = len(payload.encode("utf-8"))
    return stats
