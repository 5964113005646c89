"""In-process chaos proxy for the fabric's TCP transport.

A :class:`ChaosProxy` sits between a
:class:`~repro.runtime.transport.TransportClient` and a
:class:`~repro.runtime.transport.FabricEndpoint` and injects network
faults *at frame granularity*: it parses the transport's own
length-prefixed framing on both directions, so a "drop" loses exactly
one RPC request or response, a "reset" tears a connection mid-frame
(half the bytes, then an abortive close), and a "duplicate" delivers
one frame twice -- the precise failure modes the transport's
at-least-once retransmission, frame checksums and request-id
correlation claim to survive.

Faults are declared up front in a :class:`NetFaultPlan` -- the same
frozen-dataclass, validated, ``describe()``-able style as
:class:`repro.faults.FaultPlan` -- and drawn from per-connection
deterministic RNGs, so a failing CI run replays exactly.

The proxy is plain threads and blocking sockets (the client side is
synchronous anyway); it is a test/CI instrument, not a production
relay.

Typical use::

    endpoint = FabricEndpoint()                    # the real server
    port = endpoint.start()
    proxy = ChaosProxy(
        "127.0.0.1", port,
        plan=NetFaultPlan(
            drop_probability=0.05,
            duplicate_probability=0.05,
            partitions=(PartitionWindow(start=2.0, duration=1.0),),
            seed=7,
        ),
    )
    chaos_port = proxy.start()
    client = TransportClient(("127.0.0.1", chaos_port), "w0")
"""

from __future__ import annotations

import random
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

from repro.runtime.transport import MAX_FRAME_BYTES, FrameError

__all__ = [
    "NetFaultPlan",
    "PartitionWindow",
    "ChaosStats",
    "ChaosProxy",
]

_LEN = struct.Struct(">I")


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class PartitionWindow:
    """One full network partition: ``[start, start + duration)`` seconds
    after the proxy starts, every connection is severed and new ones
    are refused."""

    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"partition start must be >= 0, got {self.start}")
        if self.duration <= 0:
            raise ValueError(
                f"partition duration must be positive, got {self.duration}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration

    def contains(self, elapsed: float) -> bool:
        return self.start <= elapsed < self.end


@dataclass(frozen=True)
class NetFaultPlan:
    """Declarative description of the network faults to inject.

    Parameters
    ----------
    latency:
        Fixed forwarding delay per frame, seconds.
    jitter:
        Extra uniform ``[0, jitter)`` delay per frame.
    drop_probability:
        Chance a frame is silently discarded (the receiver sees
        nothing; the sender's RPC times out and retransmits).
    duplicate_probability:
        Chance a forwarded frame is delivered twice.
    reset_probability:
        Chance a frame is torn: roughly half its bytes are forwarded,
        then the connection is abortively closed in both directions.
    partitions:
        Non-overlapping :class:`PartitionWindow` instances (relative to
        proxy start) during which the link is fully severed.
    seed:
        Root of the per-connection deterministic RNGs.
    """

    latency: float = 0.0
    jitter: float = 0.0
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    reset_probability: float = 0.0
    partitions: tuple[PartitionWindow, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        _check_probability("drop_probability", self.drop_probability)
        _check_probability("duplicate_probability", self.duplicate_probability)
        _check_probability("reset_probability", self.reset_probability)
        if self.drop_probability + self.reset_probability > 1.0:
            raise ValueError(
                "drop_probability + reset_probability must not exceed 1"
            )
        ordered = sorted(self.partitions, key=lambda w: w.start)
        for before, after in zip(ordered, ordered[1:]):
            if after.start < before.end:
                raise ValueError(
                    f"partition windows overlap: "
                    f"[{before.start}, {before.end}) and "
                    f"[{after.start}, {after.end})"
                )
        object.__setattr__(self, "partitions", tuple(ordered))

    @property
    def is_noop(self) -> bool:
        return (
            self.latency == 0.0
            and self.jitter == 0.0
            and self.drop_probability == 0.0
            and self.duplicate_probability == 0.0
            and self.reset_probability == 0.0
            and not self.partitions
        )

    def describe(self) -> str:
        if self.is_noop:
            return "no network faults"
        parts = []
        if self.latency or self.jitter:
            parts.append(f"latency {self.latency:g}s+U[0,{self.jitter:g})")
        if self.drop_probability:
            parts.append(f"drop {self.drop_probability:.0%}")
        if self.duplicate_probability:
            parts.append(f"duplicate {self.duplicate_probability:.0%}")
        if self.reset_probability:
            parts.append(f"mid-frame reset {self.reset_probability:.0%}")
        for window in self.partitions:
            parts.append(
                f"partition [{window.start:g}s, {window.end:g}s)"
            )
        return ", ".join(parts)


@dataclass
class ChaosStats:
    """What the proxy actually did (all counters are per proxy)."""

    connections: int = 0
    refused: int = 0
    frames_forwarded: int = 0
    frames_dropped: int = 0
    frames_duplicated: int = 0
    resets: int = 0
    partitions_enforced: int = 0
    connections_severed: int = 0
    bytes_forwarded: int = 0
    delay_seconds: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(self, **deltas: float) -> None:
        """Bump counters atomically: the accept loop, the partition
        watchdog and two pump threads per link all write here."""
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)


@dataclass
class _Link:
    """One proxied connection pair (downstream client, upstream server)."""

    down: socket.socket
    up: socket.socket
    lock: threading.Lock = field(default_factory=threading.Lock)
    dead: bool = False

    def abort(self) -> None:
        """Abortive close of both sides (RST where the stack allows).

        Each socket is shut down before it is closed: a ``close`` alone
        does not wake a pump thread blocked in ``recv`` on it.
        """
        with self.lock:
            if self.dead:
                return
            self.dead = True
            for sock in (self.down, self.up):
                try:
                    sock.setsockopt(
                        socket.SOL_SOCKET,
                        socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass


class ChaosProxy:
    """Frame-aware TCP fault injector between one client and one server.

    ``start()`` binds (ephemeral port by default), launches the accept
    loop and the partition watchdog on daemon threads, and returns the
    port to point clients at.  Faults apply independently per frame and
    per direction; the RNG for connection ``n``'s direction ``d`` is
    seeded with ``(plan.seed, n, d)`` so runs replay deterministically
    regardless of thread scheduling.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        plan: NetFaultPlan | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.upstream = (upstream_host, int(upstream_port))
        self.plan = plan if plan is not None else NetFaultPlan()
        self.host = host
        self.requested_port = int(port)
        self.port: int | None = None
        self.stats = ChaosStats()
        self.started_at: float | None = None
        self._listener: socket.socket | None = None
        self._links: list[_Link] = []
        self._links_lock = threading.Lock()
        self._stopping = threading.Event()
        self._threads: list[threading.Thread] = []

    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        return 0.0 if self.started_at is None else time.monotonic() - self.started_at

    def in_partition(self, elapsed: float | None = None) -> bool:
        at = self.elapsed() if elapsed is None else elapsed
        return any(w.contains(at) for w in self.plan.partitions)

    # ------------------------------------------------------------------
    def start(self) -> int:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.requested_port))
        listener.listen(32)
        listener.settimeout(0.2)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self.started_at = time.monotonic()
        self._spawn(self._accept_loop, "chaosnet-accept")
        if self.plan.partitions:
            self._spawn(self._partition_watchdog, "chaosnet-partition")
        return self.port

    def stop(self) -> None:
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        self._sever_all(count=False)
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()

    def _spawn(self, target, name: str) -> None:
        thread = threading.Thread(target=target, name=name, daemon=True)
        thread.start()
        self._threads.append(thread)

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        conn_index = 0
        while not self._stopping.is_set():
            try:
                down, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            if self.in_partition():
                # The network is partitioned: accept and immediately
                # sever, so the client sees a dead link, not a server.
                self.stats.add(refused=1)
                try:
                    down.close()
                except OSError:
                    pass
                continue
            try:
                up = socket.create_connection(self.upstream, timeout=5.0)
            except OSError:
                self.stats.add(refused=1)
                try:
                    down.close()
                except OSError:
                    pass
                continue
            self.stats.add(connections=1)
            link = _Link(down=down, up=up)
            with self._links_lock:
                # stop() sets _stopping before it severs the links, so a
                # link registered after that would never be severed.
                stopping = self._stopping.is_set()
                if not stopping:
                    self._links.append(link)
            if stopping:
                link.abort()
                return
            for src, dst, direction in (
                (down, up, 0),  # client -> server
                (up, down, 1),  # server -> client
            ):
                rng = random.Random(
                    f"{self.plan.seed}:{conn_index}:{direction}"
                )
                self._spawn(
                    lambda s=src, d=dst, r=rng, li=link: self._pump(s, d, r, li),
                    f"chaosnet-pump-{conn_index}-{direction}",
                )
            conn_index += 1

    def _partition_watchdog(self) -> None:
        for window in self.plan.partitions:
            while not self._stopping.wait(0.01):
                if self.elapsed() >= window.start:
                    break
            if self._stopping.is_set():
                return
            self.stats.add(partitions_enforced=1)
            self._sever_all(count=True)
            while not self._stopping.wait(0.01):
                if self.elapsed() >= window.end:
                    break
            if self._stopping.is_set():
                return

    def _sever_all(self, count: bool) -> None:
        with self._links_lock:
            links, self._links = self._links, []
        for link in links:
            if count and not link.dead:
                self.stats.add(connections_severed=1)
            link.abort()

    # ------------------------------------------------------------------
    def _recv_exact(self, sock: socket.socket, n: int) -> bytes | None:
        chunks = bytearray()
        while len(chunks) < n:
            try:
                chunk = sock.recv(n - len(chunks))
            except OSError:
                return None
            if not chunk:
                return None
            chunks += chunk
        return bytes(chunks)

    def _pump(
        self,
        src: socket.socket,
        dst: socket.socket,
        rng: random.Random,
        link: _Link,
    ) -> None:
        plan = self.plan
        while not self._stopping.is_set() and not link.dead:
            header = self._recv_exact(src, _LEN.size)
            if header is None:
                break
            (length,) = _LEN.unpack(header)
            if length > MAX_FRAME_BYTES:
                raise FrameError(
                    f"proxied frame of {length} bytes exceeds the transport "
                    f"maximum; not a transport stream?"
                )
            body = self._recv_exact(src, length)
            if body is None:
                break
            frame = header + body
            if self.in_partition():
                break  # watchdog is severing; don't leak a last frame
            delay = plan.latency + (
                rng.uniform(0.0, plan.jitter) if plan.jitter else 0.0
            )
            if delay > 0:
                self.stats.add(delay_seconds=delay)
                if self._stopping.wait(delay):
                    break
            roll = rng.random()
            if roll < plan.drop_probability:
                self.stats.add(frames_dropped=1)
                continue
            if roll < plan.drop_probability + plan.reset_probability:
                # Mid-frame reset: half the frame, then an abortive
                # close of the whole link.
                try:
                    dst.sendall(frame[: max(1, len(frame) // 2)])
                except OSError:
                    pass
                self.stats.add(resets=1)
                break
            # Count before sending: once the frame is out the peer may
            # reply, and whoever sees the reply must see it counted.
            self.stats.add(frames_forwarded=1, bytes_forwarded=len(frame))
            duplicate = rng.random() < plan.duplicate_probability
            if duplicate:
                self.stats.add(frames_duplicated=1)
            try:
                dst.sendall(frame)
                if duplicate:
                    dst.sendall(frame)
            except OSError:
                break
        link.abort()
