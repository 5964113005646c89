"""TCP transport of the distributed sweep fabric.

The fabric (:mod:`repro.runtime.fabric`) is the worker pool the
:class:`~repro.runtime.supervisor.Supervisor` drives when a command runs
with ``--listen HOST:PORT``.  This module is its wire and its server.

**Frames.**  A 4-byte big-endian length, then a UTF-8 JSON envelope
``{"v": 2, "sha": <hex>, "payload": {...}}`` whose ``sha`` is the
SHA-256 of the canonical payload encoding (sorted keys, compact
separators): a torn or bit-flipped frame is detected and retransmitted,
never acted on.  Cell results and grid items travel inside payloads as
base64 pickles with their own SHA-256 (:func:`repro.blob.pack_blob`).

**Delivery.**  Every RPC is idempotent, so :class:`TransportClient`
retransmits blindly after any transport failure: ``acquire`` hands a
worker back the lease it already holds; the first ``upload`` of a cell
completes its future and any later one (a retransmission, or the first
owner of a stolen lease finishing after all) is counted as a duplicate
and dropped -- cells are deterministic, so the bytes agree anyway; the
other RPCs change nothing a replay could corrupt.

**Leases.**  :class:`FabricEndpoint` keeps the armed sweep's queue,
leases and futures in memory and judges them by its own clock: every
RPC refreshes its worker's last-heard time, so workers do no clock
arithmetic and cross-host skew is harmless.  A lease whose worker has
been silent for :data:`LEASE_TTL` seconds goes back to the front of the
queue for another worker -- a steal, not a charged failure.  If cells
are outstanding and no worker running the sweep has been heard from for
one TTL, the endpoint fails their futures; the supervisor handles that
as a worker crash.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import socket
import struct
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import asdict, dataclass
from typing import Sequence

from repro.blob import pack_blob
from repro.blob import unpack_blob as _unpack_blob

__all__ = [
    "TRANSPORT_VERSION",
    "MAX_FRAME_BYTES",
    "LEASE_TTL",
    "TransportError",
    "TransportDown",
    "FrameError",
    "parse_endpoint",
    "format_endpoint",
    "encode_frame",
    "decode_frame",
    "send_frame",
    "recv_frame",
    "pack_blob",
    "unpack_blob",
    "Backoff",
    "TransportStats",
    "EndpointStats",
    "TransportClient",
    "FabricEndpoint",
]

#: Bump on any incompatible change to the frame or RPC format.
TRANSPORT_VERSION = 2

#: Upper bound on one frame; a length prefix beyond this is treated as
#: stream corruption, not an allocation request.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Seconds of silence after which a worker's leases are re-leased.
#: Workers heartbeat every ``LEASE_TTL / 3`` seconds.
LEASE_TTL = 10.0

_LEN = struct.Struct(">I")


class TransportError(RuntimeError):
    """The server answered with an application-level error (no retry)."""


class TransportDown(TransportError):
    """The retry/backoff budget is exhausted; the endpoint is gone."""


class FrameError(ValueError):
    """A torn, oversized, or checksum-failing frame."""


# ----------------------------------------------------------------------
# Endpoint strings.


def parse_endpoint(
    text: str, *, allow_port_zero: bool = False
) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` with clear errors.

    ``allow_port_zero`` admits ``:0`` (bind an ephemeral port) for
    listen endpoints; connect endpoints need a real port.
    """
    if not isinstance(text, str) or ":" not in text:
        raise ValueError(f"endpoint must look like host:port, got {text!r}")
    host, _, port_text = text.rpartition(":")
    host = host.strip("[]")  # tolerate [::1]:port
    if not host:
        raise ValueError(f"endpoint {text!r} has an empty host")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"endpoint {text!r} has a non-numeric port {port_text!r}"
        ) from None
    low = 0 if allow_port_zero else 1
    if not low <= port <= 65535:
        raise ValueError(f"endpoint port must be in [{low}, 65535], got {port}")
    return host, port


def format_endpoint(host: str, port: int) -> str:
    return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"


# ----------------------------------------------------------------------
# Frame codec.  The envelope checksum covers the canonical payload
# encoding so both sides agree byte-for-byte on what was signed.


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def encode_frame(payload: dict) -> bytes:
    """One payload as a length-prefixed checksummed wire frame."""
    envelope = json.dumps(
        {
            "v": TRANSPORT_VERSION,
            "sha": hashlib.sha256(_canonical(payload)).hexdigest(),
            "payload": payload,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    if len(envelope) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(envelope)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LEN.pack(len(envelope)) + envelope


def decode_frame(body: bytes) -> dict:
    """Verify and unwrap one frame body (everything after the length)."""
    try:
        envelope = json.loads(body.decode("utf-8"))
    except Exception as exc:
        raise FrameError(f"unparsable frame: {exc!r}") from exc
    version = envelope.get("v") if isinstance(envelope, dict) else "?"
    if version != TRANSPORT_VERSION:
        raise FrameError(f"unsupported frame version {version!r}")
    payload = envelope.get("payload")
    if not isinstance(payload, dict):
        raise FrameError("frame payload is not an object")
    if hashlib.sha256(_canonical(payload)).hexdigest() != envelope.get("sha"):
        raise FrameError("frame checksum mismatch")
    return payload


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < n:
        chunk = sock.recv(n - len(chunks))
        if not chunk:
            raise FrameError(f"connection closed mid-frame ({len(chunks)}/{n} bytes)")
        chunks += chunk
    return bytes(chunks)


def _check_length(header: bytes) -> int:
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    return length


def send_frame(sock: socket.socket, payload: dict) -> None:
    sock.sendall(encode_frame(payload))


def recv_frame(sock: socket.socket) -> dict:
    length = _check_length(_recv_exact(sock, _LEN.size))
    return decode_frame(_recv_exact(sock, length))


def unpack_blob(blob: dict) -> object:
    """:func:`repro.blob.unpack_blob` for a wire payload: a checksum
    mismatch raises :class:`TransportError`."""
    try:
        return _unpack_blob(blob)
    except ValueError as exc:
        raise TransportError(str(exc)) from None


# ----------------------------------------------------------------------
# Capped exponential backoff with jitter.


@dataclass(frozen=True)
class Backoff:
    """Retry pacing: ``base * factor**attempt`` capped at ``cap``.

    ``jitter`` is the randomized fraction of each delay (0 = fully
    deterministic, 1 = anywhere in ``(0, delay]``); the default 0.5
    is the classic "equal jitter" that avoids synchronized retry
    stampedes from many workers reconnecting at once.
    """

    base: float = 0.05
    cap: float = 2.0
    factor: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.base <= 0:
            raise ValueError(f"backoff base must be positive, got {self.base}")
        if self.cap < self.base:
            raise ValueError(f"backoff cap ({self.cap}) must be >= base ({self.base})")
        if self.factor < 1.0:
            raise ValueError(f"backoff factor must be >= 1, got {self.factor}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"backoff jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int, rng: random.Random) -> float:
        """The jittered delay before retry number ``attempt`` (0-based)."""
        raw = min(self.cap, self.base * self.factor ** max(0, attempt))
        return raw * (1.0 - self.jitter) + rng.random() * raw * self.jitter


# ----------------------------------------------------------------------
# Stats, both sides.


@dataclass
class TransportStats:
    """Client-side counters (shipped to the endpoint in heartbeats)."""

    rpcs: int = 0
    reconnects: int = 0
    retransmitted_frames: int = 0
    backoff_seconds: float = 0.0
    frame_errors: int = 0
    partitions: int = 0
    """RPC episodes in which at least one (re)connect itself failed --
    the endpoint was unreachable, not merely a torn frame."""

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class EndpointStats:
    """Server-side counters for one :class:`FabricEndpoint`."""

    connections: int = 0
    frames_in: int = 0
    frames_out: int = 0
    frame_errors: int = 0
    leases: int = 0
    steals: int = 0
    uploads: int = 0
    uploads_deduped: int = 0
    heartbeats: int = 0
    unknown_ops: int = 0


# ----------------------------------------------------------------------
# Client.


class TransportClient:
    """Synchronous fabric RPC client with reconnect + capped backoff.

    Every RPC is idempotent (see the module docstring), so :meth:`call`
    retransmits the request after *any* transport failure -- connect
    refused, reset mid-frame, checksum mismatch -- pacing retries with
    :class:`Backoff` until ``max_retry_elapsed`` seconds have been
    spent, then raising :class:`TransportDown`.

    The instance is thread-safe: a lock serializes frame exchanges so a
    heartbeat thread can share the connection with the worker loop.
    """

    def __init__(
        self,
        endpoint: str | tuple[str, int],
        worker_id: str = "client",
        *,
        connect_timeout: float = 5.0,
        call_timeout: float = 5.0,
        max_retry_elapsed: float = 60.0,
        backoff: Backoff | None = None,
    ) -> None:
        if isinstance(endpoint, str):
            endpoint = parse_endpoint(endpoint)
        self.host, self.port = endpoint
        self.worker_id = worker_id
        self.connect_timeout = float(connect_timeout)
        self.call_timeout = float(call_timeout)
        self.max_retry_elapsed = float(max_retry_elapsed)
        if self.max_retry_elapsed <= 0:
            raise ValueError(
                f"max_retry_elapsed must be positive, got {max_retry_elapsed}"
            )
        self.backoff = backoff if backoff is not None else Backoff()
        self.stats = TransportStats()
        self._sock: socket.socket | None = None
        self._ever_connected = False
        self._connect_failed = False
        self._seq = 0
        self._lock = threading.Lock()
        # Deterministic jitter per worker id: reproducible tests, and
        # distinct workers still desynchronize their retry storms.
        self._rng = random.Random(
            int.from_bytes(hashlib.sha256(worker_id.encode()).digest()[:8], "big")
        )

    @property
    def endpoint(self) -> str:
        return format_endpoint(self.host, self.port)

    def _ensure_connected(self) -> socket.socket:
        if self._sock is not None:
            return self._sock
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
        except OSError:
            self._connect_failed = True
            raise
        sock.settimeout(self.call_timeout)
        if self._ever_connected:
            self.stats.reconnects += 1
        self._ever_connected = True
        self._sock = sock
        return sock

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def call(self, op: str, *, max_elapsed: float | None = None, **fields) -> dict:
        """One idempotent RPC, retransmitted until it lands or the
        ``max_retry_elapsed`` budget (override with ``max_elapsed``) is
        spent."""
        with self._lock:
            self._seq += 1
            request = {"op": op, "worker": self.worker_id, "id": self._seq, **fields}
        budget = self.max_retry_elapsed if max_elapsed is None else max_elapsed
        deadline = time.monotonic() + budget
        attempt = 0
        partition_counted = False
        while True:
            try:
                with self._lock:
                    sock = self._ensure_connected()
                    send_frame(sock, request)
                    response = recv_frame(sock)
                    # Duplicate delivery (or an endpoint answering a
                    # retransmitted request twice) leaves stale
                    # responses in the stream; discard until the ids
                    # line up.  A long run of strangers is a desync --
                    # drop the connection and retransmit.
                    drained = 0
                    while response.get("id") not in (None, request["id"]):
                        drained += 1
                        if drained > 64:
                            raise FrameError("response stream desynchronized")
                        response = recv_frame(sock)
            except (OSError, FrameError) as exc:
                with self._lock:
                    self._drop_connection()
                if isinstance(exc, FrameError):
                    self.stats.frame_errors += 1
                if self._connect_failed:
                    self._connect_failed = False
                    if not partition_counted:
                        partition_counted = True
                        self.stats.partitions += 1
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TransportDown(
                        f"endpoint {self.endpoint} unreachable after "
                        f"{attempt + 1} attempts over {budget:g}s: {exc!r}"
                    ) from exc
                delay = min(self.backoff.delay(attempt, self._rng), remaining)
                self.stats.backoff_seconds += delay
                self.stats.retransmitted_frames += 1
                attempt += 1
                time.sleep(delay)
                continue
            self.stats.rpcs += 1
            if not response.get("ok", False):
                raise TransportError(str(response.get("error", "unspecified server error")))
            return response

    def close(self, *, bye: bool = False) -> None:
        if bye and self._ever_connected:
            try:
                self.call("bye", max_elapsed=1.0)
            except TransportError:
                pass
        with self._lock:
            self._drop_connection()


# ----------------------------------------------------------------------
# Server.


class FabricEndpoint:
    """The coordinator's asyncio RPC endpoint and in-memory lease table.

    One endpoint serves a whole command; each sweep the supervisor runs
    on the fabric is *armed* on it (:meth:`arm`), fed cell indices
    (:meth:`submit`, one future each) and disarmed when its pool shuts
    down.  Workers acquire leases on the armed sweep, upload results
    (which complete the futures) and heartbeat.  The event loop runs on
    a daemon thread so a synchronous coordinator can host it;
    ``start()`` blocks until the socket is bound and returns the port.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.requested_port = int(port)
        self.port: int | None = None
        self.stats = EndpointStats()
        self.cells_by: dict[str, int] = {}
        self.client_stats: dict[str, dict] = {}
        self._lock = threading.Lock()
        self._sweep: str | None = None
        self._grid: dict = {}
        self._armed_at = 0.0
        self._futures: dict[int, Future] = {}  # pending cells only
        self._queue: deque[int] = deque()  # cells waiting for a lease
        self._leases: dict[int, str] = {}  # cell -> worker
        self._heard: dict[str, float] = {}  # worker -> last RPC, server time
        self._runners: set[str] = set()  # workers that acquired on this sweep
        self._closing = False
        self._writers: set[asyncio.StreamWriter] = set()  # open connections
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._start_error: BaseException | None = None

    # ------------------------------------------------------------------
    # Lifecycle.

    def start(self) -> int:
        """Bind and serve on a daemon thread; returns the bound port."""
        if self._thread is not None:
            raise RuntimeError("endpoint already started")
        self._thread = threading.Thread(
            target=self._thread_main,
            name=f"fabric-endpoint-{self.requested_port}",
            daemon=True,
        )
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._start_error is not None:
            error, self._start_error = self._start_error, None
            self._thread.join(timeout=5.0)
            self._thread = None
            raise error
        if self.port is None:
            raise TransportError("endpoint failed to bind within 30s")
        return self.port

    def stop(self, grace: float | None = None) -> None:
        """Tell workers to leave, wait up to ``grace`` seconds (default
        one lease TTL) for the live ones to say goodbye, then close the
        listener and every connection.  Stopping twice is a no-op."""
        if self._thread is None:
            return
        with self._lock:
            self._closing = True
        deadline = time.monotonic() + (LEASE_TTL if grace is None else grace)
        while time.monotonic() < deadline:
            with self._lock:
                if not self._live(self._heard):
                    break
            time.sleep(0.05)
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # pragma: no cover - surfaced by start()
            self._start_error = exc
            self._started.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle, self.host, self.requested_port
            )
        except OSError as exc:
            self._start_error = TransportError(
                f"cannot listen on {self.host}:{self.requested_port}: {exc}"
            )
            self._started.set()
            return
        self.port = server.sockets[0].getsockname()[1]
        self._started.set()
        reaper = asyncio.ensure_future(self._reap_periodically())
        await self._stop_event.wait()
        reaper.cancel()
        server.close()
        # Sever live connections too: since Python 3.12 a closed server
        # keeps serving them until the peers hang up.
        for writer in list(self._writers):
            writer.transport.abort()

    async def _reap_periodically(self) -> None:
        # Steals must happen even when no worker is idle-polling, and a
        # sweep whose every worker died must fail rather than hang.
        while True:
            await asyncio.sleep(LEASE_TTL / 3.0)
            with self._lock:
                self._reap(time.monotonic())

    # ------------------------------------------------------------------
    # The coordinator side: arm a sweep, submit cells, disarm.

    def arm(self, sweep: str, grid: dict) -> None:
        """Make ``sweep`` the active one; ``grid`` is what ``grid``
        RPCs return to workers that must load it."""
        with self._lock:
            self._sweep, self._grid = sweep, grid
            self._armed_at = time.monotonic()
            self._runners = set()

    def submit(self, index: int) -> Future:
        """Queue one cell of the armed sweep; its future resolves to the
        worker's upload."""
        future: Future = Future()
        with self._lock:
            self._futures[index] = future
            self._queue.append(index)
        return future

    def disarm(self, workers: Sequence[str] = ()) -> None:
        """Drop the active sweep, cancel its open futures and forget
        ``workers`` (local processes the pool has killed)."""
        with self._lock:
            futures = list(self._futures.values())
            self._sweep, self._grid = None, {}
            self._futures.clear()
            self._queue.clear()
            self._leases.clear()
            for worker in workers:
                self._heard.pop(worker, None)
        for future in futures:
            future.cancel()

    def live_runners(self) -> int:
        """Workers running the armed sweep heard from within one TTL."""
        with self._lock:
            return len(self._live({w: self._heard.get(w, 0.0) for w in self._runners}))

    @staticmethod
    def _live(heard: dict[str, float]) -> list[str]:
        now = time.monotonic()
        return [worker for worker, t in heard.items() if now - t < LEASE_TTL]

    def _reap(self, now: float) -> None:
        """Re-queue the leases of silent workers; fail an orphaned sweep."""
        for index, worker in list(self._leases.items()):
            if now - self._heard.get(worker, 0.0) >= LEASE_TTL:
                del self._leases[index]
                self._queue.appendleft(index)
                self.stats.steals += 1
        if (
            self._futures
            and now - self._armed_at >= LEASE_TTL
            and not any(now - self._heard.get(w, 0.0) < LEASE_TTL for w in self._runners)
        ):
            error = TransportError(
                f"no fabric worker heard from for {LEASE_TTL:g}s"
            )
            for future in self._futures.values():
                future.set_exception(error)
            self._futures.clear()
            self._queue.clear()
            self._leases.clear()

    # ------------------------------------------------------------------
    # Connection handling.

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections += 1
        self._writers.add(writer)
        loop = asyncio.get_running_loop()
        try:
            while True:
                length = _check_length(await reader.readexactly(_LEN.size))
                request = decode_frame(await reader.readexactly(length))
                self.stats.frames_in += 1
                response = await loop.run_in_executor(None, self._dispatch, request)
                writer.write(encode_frame(response))
                await writer.drain()
                self.stats.frames_out += 1
        except FrameError:
            self.stats.frame_errors += 1
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            # Absorbed: a handler task that ends "cancelled" at shutdown
            # makes the streams machinery log spurious tracebacks.
            pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    # ------------------------------------------------------------------
    # RPC dispatch (synchronous; serialized by the lock so executor
    # threads never interleave on the lease table).

    def _dispatch(self, request: dict) -> dict:
        base = {"ok": True, "t": time.time(), "id": request.get("id")}
        op = request.get("op")
        try:
            with self._lock:
                if op == "hello":
                    return {
                        **base,
                        "version": TRANSPORT_VERSION,
                        "sweep": self._sweep,
                        "lease_ttl": LEASE_TTL,
                    }
                if op == "status":
                    return {
                        **base,
                        "sweep": self._sweep,
                        "queued": len(self._queue),
                        "pending": len(self._futures),
                        "leases": {str(i): w for i, w in self._leases.items()},
                    }
                if op == "grid":
                    if request.get("sweep") != self._sweep:
                        raise TransportError(f"sweep {request.get('sweep')!r} is not armed")
                    return {**base, **self._grid}
                worker = request.get("worker")
                if not isinstance(worker, str) or not worker:
                    raise TransportError("request carries no worker id")
                if op == "bye":
                    self._heard.pop(worker, None)
                    self._release(worker)
                    return base
                now = time.monotonic()
                self._heard[worker] = now
                if op == "heartbeat":
                    self.stats.heartbeats += 1
                    if isinstance(request.get("stats"), dict):
                        self.client_stats[worker] = request["stats"]
                    return base
                if op == "acquire":
                    return {**base, **self._acquire(worker, request.get("sweep"), now)}
                if op == "upload":
                    return {**base, "deduped": self._upload(worker, request)}
            self.stats.unknown_ops += 1
            return {**base, "ok": False, "error": f"unknown op {op!r}"}
        except Exception as exc:
            return {**base, "ok": False, "error": repr(exc)[:500]}

    def _release(self, worker: str) -> None:
        for index, owner in list(self._leases.items()):
            if owner == worker:
                del self._leases[index]
                self._queue.appendleft(index)

    def _acquire(self, worker: str, sweep: str | None, now: float) -> dict:
        """The next cell for ``worker``, which names the sweep it has
        loaded; a different (or no) sweep gets the armed sweep's id so
        the worker can load it first."""
        if self._closing:
            return {"shutdown": True}
        if sweep is None or sweep != self._sweep:
            return {"index": None, "sweep": self._sweep}
        self._runners.add(worker)
        self._reap(now)
        for index, owner in self._leases.items():
            if owner == worker:  # re-delivery of a lost response
                return {"index": index, "sweep": sweep}
        while self._queue:
            index = self._queue.popleft()
            if index in self._futures and index not in self._leases:
                self._leases[index] = worker
                self.stats.leases += 1
                return {"index": index, "sweep": sweep}
        return {"index": None, "sweep": sweep}

    def _upload(self, worker: str, request: dict) -> bool:
        """Complete one cell's future; True when it was a duplicate."""
        index = int(request["index"])
        value = unpack_blob(request)
        future = self._futures.pop(index, None) if request.get("sweep") == self._sweep else None
        if future is None:
            self.stats.uploads_deduped += 1
            return True
        self._leases.pop(index, None)
        self.stats.uploads += 1
        self.cells_by[worker] = self.cells_by.get(worker, 0) + 1
        future.set_result(value)
        return False
