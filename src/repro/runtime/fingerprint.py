"""Stable content fingerprints for cache keys.

The result cache must key on *what the simulation will compute*, not on
Python object identity.  Two ingredients:

* :func:`stable_fingerprint` -- a canonical recursive encoding of a
  configuration object (dataclasses, mappings, sequences, numpy
  values), hashed with SHA-256.  The encoding is independent of dict
  insertion order and of the process that produced it, so the same
  configuration always maps to the same key across runs and machines;
* :func:`code_salt` -- a hash over the source of every ``repro``
  module that can influence a simulation's output.  Touching simulator
  code invalidates the whole cache automatically; touching only
  analysis/plotting code does not.

Unknown types fail loudly: silently falling back to ``repr`` or ``id``
would risk serving stale results for configurations the encoder does
not actually distinguish.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from pathlib import Path
from typing import Iterable

import numpy as np

__all__ = ["stable_fingerprint", "code_salt", "CACHE_FORMAT_VERSION"]

#: Bump to invalidate every existing cache entry (format changes).
#: v2: entries framed as ``magic || sha256(payload) || payload`` so
#: corruption is caught by checksum before unpickling.
#: v3: a result's deliveries are one columnar ``DeliveryLog`` instead
#: of two lists of per-packet objects.
CACHE_FORMAT_VERSION = 3

#: Subpackages whose source participates in the code-version salt --
#: everything that can change what a simulation produces.  Analysis,
#: experiment drivers and this runtime package are deliberately absent:
#: the whole point of the cache is that touching them keeps hits warm.
_SALTED_SUBPACKAGES = (
    "sim",
    "des",
    "core",
    "net",
    "traffic",
    "faults",
    "queueing",
    "crypto",
    "location",
    "mixes",
    "telemetry",
)


def _encode(obj: object, update) -> None:
    """Feed a canonical byte encoding of ``obj`` into ``update``."""
    if obj is None:
        update(b"N")
    elif obj is True:
        update(b"T")
    elif obj is False:
        update(b"F")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        update(b"i" + str(int(obj)).encode("ascii"))
    elif isinstance(obj, (float, np.floating)):
        update(b"f" + struct.pack("<d", float(obj)))
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        update(b"s" + str(len(raw)).encode("ascii") + b":" + raw)
    elif isinstance(obj, (bytes, bytearray)):
        update(b"b" + str(len(obj)).encode("ascii") + b":" + bytes(obj))
    elif isinstance(obj, np.ndarray):
        canonical = np.ascontiguousarray(obj)
        update(b"a" + canonical.dtype.str.encode("ascii"))
        update(repr(canonical.shape).encode("ascii"))
        update(canonical.tobytes())
    elif isinstance(obj, (list, tuple)):
        update(b"l" if isinstance(obj, list) else b"t")
        update(str(len(obj)).encode("ascii"))
        for element in obj:
            _encode(element, update)
    elif isinstance(obj, (set, frozenset)):
        update(b"e" + str(len(obj)).encode("ascii"))
        for element_bytes in sorted(_encoded_bytes(element) for element in obj):
            update(element_bytes)
    elif isinstance(obj, dict):
        update(b"d" + str(len(obj)).encode("ascii"))
        items = sorted(
            (_encoded_bytes(key), value) for key, value in obj.items()
        )
        for key_bytes, value in items:
            update(key_bytes)
            _encode(value, update)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        update(b"D" + _type_tag(obj))
        for field in sorted(dataclasses.fields(obj), key=lambda f: f.name):
            update(field.name.encode("utf-8"))
            _encode(getattr(obj, field.name), update)
    elif hasattr(obj, "__dict__") and not callable(obj):
        # Plain parameter objects: delay distributions, traffic models,
        # victim policies.  Their behaviour is fully determined by
        # their class and instance attributes.
        update(b"O" + _type_tag(obj))
        for name in sorted(vars(obj)):
            update(name.encode("utf-8"))
            _encode(vars(obj)[name], update)
    else:
        raise TypeError(
            f"cannot fingerprint {type(obj).__module__}.{type(obj).__qualname__}: "
            "add an explicit encoding before caching configurations that carry it"
        )


def _type_tag(obj: object) -> bytes:
    cls = type(obj)
    return f"{cls.__module__}.{cls.__qualname__}".encode("utf-8") + b";"


def _encoded_bytes(obj: object) -> bytes:
    chunks: list[bytes] = []
    _encode(obj, chunks.append)
    return b"".join(chunks)


def stable_fingerprint(obj: object) -> str:
    """SHA-256 hex digest of the canonical encoding of ``obj``."""
    digest = hashlib.sha256()
    _encode(obj, digest.update)
    return digest.hexdigest()


def _salted_files() -> Iterable[Path]:
    package_root = Path(__file__).resolve().parent.parent
    for subpackage in _SALTED_SUBPACKAGES:
        directory = package_root / subpackage
        if not directory.is_dir():  # pragma: no cover - defensive
            continue
        yield from sorted(directory.glob("*.py"))


_CODE_SALT: str | None = None


def code_salt() -> str:
    """Hash of the simulation-relevant ``repro`` source (cached).

    Any edit to the simulator, DES core, buffers, faults, crypto or
    queueing code changes the salt and therefore every cache key; edits
    confined to analysis or experiment-driver code leave it unchanged.
    """
    global _CODE_SALT
    if _CODE_SALT is None:
        digest = hashlib.sha256()
        digest.update(f"format={CACHE_FORMAT_VERSION};".encode("ascii"))
        package_root = Path(__file__).resolve().parent.parent
        for path in _salted_files():
            digest.update(str(path.relative_to(package_root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_SALT = digest.hexdigest()
    return _CODE_SALT
