"""Configuration for the streaming anonymization service."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Static parameters of one :class:`~repro.service.server.TemporalPrivacyService`.

    Attributes
    ----------
    shards:
        Number of independent buffer shards; flows are hashed onto
        shards, so per-flow ordering is preserved while unrelated flows
        never contend.
    shard_capacity:
        RCAD buffer slots per shard.  A full shard preempts (tier 2 of
        the degradation ladder) instead of dropping.
    max_buffered_total:
        Global bound on buffered events across all shards -- the
        service's memory budget expressed in entries.  At or above the
        bound new arrivals are shed with explicit accounting (tier 3).
    mean_delay:
        Mean of the exponential artificial delay, in seconds (the
        service's wall-clock analogue of the paper's 1/mu).
    seed:
        Root seed for the per-shard delay streams.
    snapshot_path:
        Where the crash-safe snapshot of buffered entries is written on
        SIGTERM and restored from on start; ``None`` disables
        snapshotting.
    watchdog_interval:
        Period of the stalled-shard watchdog, and the maximum time a
        shard pump sleeps between heartbeats.
    stall_timeout:
        A shard whose pump has not heartbeat for this long is declared
        stalled and restarted.
    drain_poll:
        Polling period while waiting for buffers to empty during a
        clean drain.
    """

    shards: int = 4
    shard_capacity: int = 128
    max_buffered_total: int = 512
    mean_delay: float = 0.5
    seed: int = 0
    snapshot_path: str | Path | None = None
    watchdog_interval: float = 0.25
    stall_timeout: float = 2.0
    drain_poll: float = 0.02

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be at least 1, got {self.shards}")
        if self.shard_capacity < 1:
            raise ValueError(
                f"shard_capacity must be at least 1, got {self.shard_capacity}"
            )
        if self.max_buffered_total < 1:
            raise ValueError(
                f"max_buffered_total must be at least 1, got {self.max_buffered_total}"
            )
        # ``not x > 0`` rather than ``x <= 0``: NaN fails every
        # comparison, so only this form rejects it.
        if not self.mean_delay > 0:
            raise ValueError(
                f"mean_delay must be positive (not NaN), got {self.mean_delay}"
            )
        if not (self.watchdog_interval > 0 and self.stall_timeout > 0):
            raise ValueError(
                "watchdog_interval and stall_timeout must be positive (not NaN)"
            )
        if self.stall_timeout <= self.watchdog_interval:
            raise ValueError(
                "stall_timeout must exceed watchdog_interval "
                f"({self.stall_timeout} <= {self.watchdog_interval})"
            )
        if not self.drain_poll > 0:
            raise ValueError(
                f"drain_poll must be positive (not NaN), got {self.drain_poll}"
            )
