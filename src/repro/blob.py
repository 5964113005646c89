"""Checksummed pickles for JSON records.

One codec for every place a Python object travels inside JSON: a
checkpoint-journal line (:mod:`repro.runtime.journal`), a service
snapshot line (:mod:`repro.service.snapshot`) and a fabric wire payload
(:mod:`repro.runtime.transport`).  The object is pickled, and the JSON
carries the pickle base64-encoded beside its SHA-256, so a torn or
bit-flipped record is caught before anything is unpickled.

The module loads neither ``asyncio`` nor ``socket``, so the journal and
the service can use it without pulling in the transport.
"""

from __future__ import annotations

import base64
import hashlib
import pickle

__all__ = ["pack_blob", "unpack_blob"]


def pack_blob(value: object) -> dict:
    """``value`` pickled for a JSON record: ``{"sha", "data"}``."""
    data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return {
        "sha": hashlib.sha256(data).hexdigest(),
        "data": base64.b64encode(data).decode("ascii"),
    }


def unpack_blob(blob: dict) -> object:
    """Inverse of :func:`pack_blob`; a checksum mismatch raises
    ``ValueError``."""
    data = base64.b64decode(blob["data"], validate=True)
    if hashlib.sha256(data).hexdigest() != blob.get("sha"):
        raise ValueError("blob checksum mismatch")
    return pickle.loads(data)
