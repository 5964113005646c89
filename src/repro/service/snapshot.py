"""Crash-safe snapshot of buffered (not-yet-released) entries.

On SIGTERM the service writes every admitted-but-unreleased entry to a
single snapshot file; on the next start it restores them, so a restart
loses **zero admitted events** and every restored entry keeps its
original scheduled release time (a packet is never released early
because of a crash).

The file reuses the checkpoint journal's framing
(:mod:`repro.runtime.journal`): JSON lines, one header plus one line
per entry, each entry's pickled body guarded by a SHA-256 checksum
(:func:`repro.blob.pack_blob`).
Unlike the journal, the snapshot is written *atomically*: the lines go
to a temp file that is fsynced and then ``os.replace``\\ d over the
target, so a crash during snapshotting leaves the previous snapshot
(or none) -- never a torn file.  Corrupt lines on load are counted and
skipped, mirroring the journal's failure policy.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.blob import pack_blob, unpack_blob

__all__ = ["SNAPSHOT_VERSION", "SnapshotEntry", "write_snapshot", "load_snapshot"]

#: Bump to orphan existing snapshot files on format changes.
SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class SnapshotEntry:
    """One buffered event as persisted across a restart.

    ``admit_seq`` is the service-wide admission sequence number; restore
    re-admits entries in ascending ``admit_seq`` so per-shard entry ids
    are renumbered in original admission order and preemption
    tie-breaking replays identically.
    """

    flow_id: int
    seq: int
    payload: Any
    arrival_time: float
    release_time: float
    admit_seq: int


def write_snapshot(
    path: str | Path, entries: Sequence[SnapshotEntry]
) -> Path:
    """Atomically persist ``entries``; returns the snapshot path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        header = {
            "kind": "header",
            "version": SNAPSHOT_VERSION,
            "n_entries": len(entries),
        }
        handle.write(json.dumps(header) + "\n")
        for entry in entries:
            blob = pack_blob(
                (
                    entry.flow_id,
                    entry.seq,
                    entry.payload,
                    entry.arrival_time,
                    entry.release_time,
                    entry.admit_seq,
                )
            )
            handle.write(json.dumps({"kind": "entry", **blob}) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def load_snapshot(path: str | Path) -> tuple[list[SnapshotEntry], int]:
    """Load and verify a snapshot.

    Returns ``(entries, corrupt_lines)`` with entries sorted by
    ``admit_seq``.  A missing file yields ``([], 0)``.  Lines failing
    JSON parsing, checksum verification, or unpickling are counted and
    skipped rather than raised -- the atomic write makes them
    improbable, but a snapshot must never be a new crash loop.
    """
    path = Path(path)
    if not path.is_file():
        return [], 0
    entries: list[SnapshotEntry] = []
    corrupt = 0
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return [], 1
    for line in lines:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if record.get("kind") != "entry":
                continue  # header / future record kinds
            flow_id, seq, payload, arrival_time, release_time, admit_seq = (
                unpack_blob(record)
            )
            entries.append(
                SnapshotEntry(
                    flow_id=flow_id,
                    seq=seq,
                    payload=payload,
                    arrival_time=float(arrival_time),
                    release_time=float(release_time),
                    admit_seq=int(admit_seq),
                )
            )
        except Exception:
            corrupt += 1
    entries.sort(key=lambda e: e.admit_seq)
    return entries, corrupt
