"""Fabric TCP transport: framing, backoff, client retransmission, endpoint.

These tests exercise the wire layer and the endpoint in isolation:
frame integrity, endpoint parsing, retry pacing, at-least-once
retransmission against a flaky server, and each endpoint RPC against
an armed sweep whose futures the test holds.
"""

import random
import socket
import threading
import time

import pytest

from repro.runtime import transport
from repro.runtime.transport import (
    LEASE_TTL,
    MAX_FRAME_BYTES,
    TRANSPORT_VERSION,
    Backoff,
    FabricEndpoint,
    FrameError,
    TransportClient,
    TransportDown,
    TransportError,
    decode_frame,
    encode_frame,
    format_endpoint,
    pack_blob,
    parse_endpoint,
    recv_frame,
    send_frame,
)


class TestEndpointParsing:
    def test_roundtrip(self):
        assert parse_endpoint("example.org:8080") == ("example.org", 8080)
        assert format_endpoint("example.org", 8080) == "example.org:8080"

    def test_ipv6_brackets(self):
        assert parse_endpoint("[::1]:9000") == ("::1", 9000)
        assert format_endpoint("::1", 9000) == "[::1]:9000"

    def test_rejects_missing_port(self):
        with pytest.raises(ValueError, match="host:port"):
            parse_endpoint("just-a-host")

    def test_rejects_empty_host(self):
        with pytest.raises(ValueError, match="empty host"):
            parse_endpoint(":8080")

    def test_rejects_non_numeric_port(self):
        with pytest.raises(ValueError, match="non-numeric port"):
            parse_endpoint("host:http")

    def test_rejects_out_of_range_port(self):
        with pytest.raises(ValueError, match=r"\[1, 65535\]"):
            parse_endpoint("host:70000")
        with pytest.raises(ValueError, match=r"\[1, 65535\]"):
            parse_endpoint("host:0")

    def test_port_zero_needs_opt_in(self):
        assert parse_endpoint("host:0", allow_port_zero=True) == ("host", 0)


class TestFraming:
    def test_roundtrip(self):
        payload = {"op": "hello", "nested": {"a": [1, 2, 3]}, "x": None}
        frame = encode_frame(payload)
        assert decode_frame(frame[4:]) == payload

    def test_checksum_detects_payload_tampering(self):
        frame = encode_frame({"op": "claim", "index": 3})
        # Same length, parsable JSON, different payload bytes.
        tampered = frame.replace(b'"index":3', b'"index":2')
        assert tampered != frame
        with pytest.raises(FrameError, match="checksum"):
            decode_frame(tampered[4:])

    def test_rejects_wrong_version(self):
        import json

        body = json.dumps(
            {"v": TRANSPORT_VERSION + 1, "sha": "0" * 64, "payload": {}}
        ).encode()
        with pytest.raises(FrameError, match="version"):
            decode_frame(body)

    def test_rejects_garbage(self):
        with pytest.raises(FrameError):
            decode_frame(b"\x00\xff not json")

    def test_rejects_non_object_payload(self):
        import json

        body = json.dumps(
            {"v": TRANSPORT_VERSION, "sha": "0" * 64, "payload": [1]}
        ).encode()
        with pytest.raises(FrameError, match="not an object"):
            decode_frame(body)

    def test_socket_roundtrip(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, {"op": "status", "id": 7})
            assert recv_frame(right) == {"op": "status", "id": 7}
        finally:
            left.close()
            right.close()

    def test_truncated_stream_is_frame_error(self):
        left, right = socket.socketpair()
        try:
            frame = encode_frame({"op": "x"})
            left.sendall(frame[: len(frame) // 2])
            left.close()
            with pytest.raises(FrameError, match="mid-frame"):
                recv_frame(right)
        finally:
            right.close()

    def test_oversized_length_prefix_rejected_before_allocation(self):
        left, right = socket.socketpair()
        try:
            left.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(FrameError, match="exceeds"):
                recv_frame(right)
        finally:
            left.close()
            right.close()


class TestBackoff:
    def test_validation(self):
        with pytest.raises(ValueError, match="base must be positive"):
            Backoff(base=0)
        with pytest.raises(ValueError, match="cap"):
            Backoff(base=1.0, cap=0.5)
        with pytest.raises(ValueError, match="factor"):
            Backoff(factor=0.5)
        with pytest.raises(ValueError, match="jitter"):
            Backoff(jitter=1.5)

    def test_delay_grows_and_caps(self):
        backoff = Backoff(base=0.1, cap=1.0, factor=2.0, jitter=0.0)
        rng = random.Random(0)
        delays = [backoff.delay(a, rng) for a in range(8)]
        assert delays[0] == pytest.approx(0.1)
        assert delays[1] == pytest.approx(0.2)
        assert delays == sorted(delays)
        assert delays[-1] == pytest.approx(1.0)

    def test_jitter_stays_within_envelope(self):
        backoff = Backoff(base=0.1, cap=1.0, factor=2.0, jitter=0.5)
        rng = random.Random(1)
        for attempt in range(6):
            raw = min(1.0, 0.1 * 2.0**attempt)
            for _ in range(50):
                delay = backoff.delay(attempt, rng)
                assert raw * 0.5 <= delay <= raw


class _FlakyServer:
    """Accepts TCP connections and answers transport frames, dropping
    the first ``fail_first`` connections right after the request
    arrives (so the client must reconnect and retransmit)."""

    def __init__(self, fail_first=0):
        self.fail_first = fail_first
        self.requests = []
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.port = self.listener.getsockname()[1]
        self._stop = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        conn_count = 0
        self.listener.settimeout(0.1)
        while not self._stop.is_set():
            try:
                conn, _ = self.listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn_count += 1
            try:
                while True:
                    request = recv_frame(conn)
                    self.requests.append(request)
                    if conn_count <= self.fail_first:
                        conn.close()
                        break
                    send_frame(
                        conn,
                        {"ok": True, "id": request.get("id"), "echo": request},
                    )
            except (FrameError, OSError):
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def stop(self):
        self._stop.set()
        self.listener.close()
        self.thread.join(timeout=5.0)


class TestTransportClient:
    def test_retransmits_until_a_connection_survives(self):
        server = _FlakyServer(fail_first=2)
        try:
            client = TransportClient(
                ("127.0.0.1", server.port),
                "w0",
                call_timeout=2.0,
                max_retry_elapsed=30.0,
                backoff=Backoff(base=0.01, cap=0.05),
            )
            response = client.call("ping", value=42)
            client.close()
            assert response["ok"] is True
            assert response["echo"]["value"] == 42
            # Two dropped connections -> two retransmissions of the
            # same request (same id), landed on the third.
            assert client.stats.retransmitted_frames == 2
            assert client.stats.reconnects == 2
            assert [r["id"] for r in server.requests] == [1, 1, 1]
        finally:
            server.stop()

    def test_unreachable_endpoint_raises_transport_down(self):
        # Grab a port nothing listens on.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = TransportClient(
            ("127.0.0.1", port),
            "w0",
            max_retry_elapsed=0.3,
            backoff=Backoff(base=0.01, cap=0.02),
        )
        started = time.monotonic()
        with pytest.raises(TransportDown, match="unreachable"):
            client.call("ping")
        assert time.monotonic() - started < 5.0
        assert client.stats.partitions == 1

    def test_per_call_budget_override(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = TransportClient(
            ("127.0.0.1", port),
            "w0",
            max_retry_elapsed=60.0,
            backoff=Backoff(base=0.01, cap=0.02),
        )
        started = time.monotonic()
        with pytest.raises(TransportDown):
            client.call("ping", max_elapsed=0.2)
        assert time.monotonic() - started < 5.0


GRID = {"fn_ref": None, "items": None, "telemetry": False}


class TestFabricEndpoint:
    @pytest.fixture()
    def served(self):
        endpoint = FabricEndpoint()
        port = endpoint.start()
        endpoint.arm("sweep-test", GRID)
        futures = [endpoint.submit(index) for index in range(5)]
        client = TransportClient(("127.0.0.1", port), "w0", max_retry_elapsed=5.0)
        yield endpoint, client, futures
        client.close()
        endpoint.stop(grace=0)

    def test_hello_describes_the_grid(self, served):
        _, client, _ = served
        hello = client.call("hello")
        assert hello["version"] == TRANSPORT_VERSION
        assert hello["sweep"] == "sweep-test"
        assert hello["lease_ttl"] == pytest.approx(LEASE_TTL)
        assert "t" in hello

    def test_grid_ships_the_armed_grid(self, served):
        _, client, _ = served
        grid = client.call("grid", sweep="sweep-test")
        assert {key: grid[key] for key in GRID} == GRID
        with pytest.raises(TransportError, match="not armed"):
            client.call("grid", sweep="other")

    def test_acquire_without_the_armed_sweep_gets_no_lease(self, served):
        """A worker names the sweep it has loaded; any other answer
        tells it which sweep to load first."""
        endpoint, client, _ = served
        response = client.call("acquire", sweep=None)
        assert response["index"] is None
        assert response["sweep"] == "sweep-test"
        assert endpoint.stats.leases == 0

    def test_acquire_walks_the_whole_grid(self, served):
        _, client, futures = served
        seen = set()
        for _ in range(5):
            index = client.call("acquire", sweep="sweep-test")["index"]
            seen.add(index)
            client.call("upload", sweep="sweep-test", index=index, **pack_blob(index * 2))
        assert seen == set(range(5))
        assert [future.result(timeout=5) for future in futures] == [0, 2, 4, 6, 8]
        assert client.call("acquire", sweep="sweep-test")["index"] is None

    def test_acquire_re_delivery_returns_the_same_cell(self, served):
        """A lost acquire response replays safely: the worker still
        owns the lease, so the retransmitted acquire lands on the same
        index instead of leaking a second lease."""
        _, client, _ = served
        first = client.call("acquire", sweep="sweep-test")["index"]
        assert client.call("acquire", sweep="sweep-test")["index"] == first

    def test_orphaned_sweep_fails_its_futures(self, monkeypatch):
        """Nobody left running the sweep: its futures fail (the
        supervisor treats that as a worker crash) instead of hanging."""
        monkeypatch.setattr(transport, "LEASE_TTL", 0.2)
        endpoint = FabricEndpoint()
        endpoint.start()
        try:
            endpoint.arm("orphan", GRID)
            future = endpoint.submit(0)
            with pytest.raises(TransportError, match="no fabric worker"):
                future.result(timeout=10)
        finally:
            endpoint.stop(grace=0)

    def test_disarm_cancels_open_futures(self, served):
        endpoint, client, futures = served
        endpoint.disarm()
        assert all(future.cancelled() for future in futures)
        assert client.call("acquire", sweep="sweep-test")["index"] is None

    def test_stop_tells_workers_to_leave(self, served):
        endpoint, client, _ = served
        client.call("heartbeat")
        stopper = threading.Thread(target=endpoint.stop)
        stopper.start()
        time.sleep(0.1)
        assert client.call("acquire", sweep="sweep-test")["shutdown"] is True
        client.call("bye")
        stopper.join(timeout=5)
        assert not stopper.is_alive()  # the goodbye ended the drain early

    def test_stop_severs_live_connections(self, served):
        """A connected worker cannot keep a stopped endpoint serving
        (since Python 3.12 a closed asyncio server keeps its live
        connections until the peers hang up)."""
        endpoint, client, _ = served
        client.call("acquire", sweep="sweep-test")
        started = time.monotonic()
        endpoint.stop(grace=0)
        assert time.monotonic() - started < 5.0
        with pytest.raises(TransportDown):
            client.call("acquire", sweep="sweep-test", max_elapsed=0.5)

    def test_upload_resolves_the_cell_future(self, served):
        _, client, futures = served
        response = client.call(
            "upload", sweep="sweep-test", index=3, **pack_blob({"value": 123})
        )
        assert response["deduped"] is False
        assert futures[3].result(timeout=5) == {"value": 123}

    def test_duplicate_upload_is_deduplicated(self, served):
        endpoint, client, futures = served
        blob = pack_blob("payload")
        assert client.call("upload", sweep="sweep-test", index=0, **blob)["deduped"] is False
        assert client.call("upload", sweep="sweep-test", index=0, **blob)["deduped"] is True
        assert endpoint.stats.uploads == 1
        assert endpoint.stats.uploads_deduped == 1
        assert futures[0].result(timeout=5) == "payload"

    def test_corrupt_upload_is_rejected(self, served):
        _, client, futures = served
        blob = pack_blob("good")
        blob["sha"] = "0" * 64
        with pytest.raises(TransportError, match="checksum"):
            client.call("upload", sweep="sweep-test", index=1, **blob)
        assert not futures[1].done()

    def test_heartbeat_writes_server_side_liveness(self, served):
        endpoint, client, _ = served
        client.call("acquire", sweep="sweep-test")
        client.call("heartbeat", stats={"reconnects": 1})
        assert endpoint.client_stats["w0"] == {"reconnects": 1}
        assert endpoint.live_runners() == 1

    def test_status_reports_progress(self, served):
        _, client, _ = served
        index = client.call("acquire", sweep="sweep-test")["index"]
        status = client.call("status")
        assert status["sweep"] == "sweep-test"
        assert status["leases"] == {str(index): "w0"}
        assert status["pending"] == 5
        assert status["queued"] == 4

    def test_unknown_op_is_an_error(self, served):
        endpoint, client, _ = served
        with pytest.raises(TransportError, match="unknown op"):
            client.call("frobnicate")
        assert endpoint.stats.unknown_ops == 1

    def test_responses_carry_server_time(self, served):
        _, client, _ = served
        before = time.time()
        response = client.call("status")
        after = time.time()
        assert before - 1.0 <= response["t"] <= after + 1.0

    def test_stale_response_ids_are_discarded(self, served):
        """A duplicated frame in flight must not desynchronize RPCs."""
        _, client, _ = served
        # Simulate a duplicate by sending one raw request out-of-band
        # on the client's socket, leaving its (unconsumed) response in
        # the stream, then doing a normal RPC through call().
        sock = client._ensure_connected()
        send_frame(sock, {"op": "status", "worker": "w0", "id": 9999})
        response = client.call("status")
        assert response["id"] != 9999
        assert response["ok"] is True

    def test_missing_worker_id_is_an_error(self, served):
        _, client, _ = served
        with pytest.raises(TransportError, match="worker id"):
            client.call("acquire", worker=None)

    def test_concurrent_workers_lose_no_cell(self, served):
        """Stress: more worker threads than cores race acquire/upload on
        one lease table; every cell is leased once and uploaded once."""
        import sys

        endpoint, _, _ = served
        endpoint.disarm()
        endpoint.arm("stress", GRID)
        futures = [endpoint.submit(index) for index in range(120)]

        def work(worker):
            client = TransportClient(("127.0.0.1", endpoint.port), worker)
            try:
                while (index := client.call("acquire", sweep="stress")["index"]) is not None:
                    client.call("upload", sweep="stress", index=index, **pack_blob(-index))
            finally:
                client.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(f"s{i}",)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [future.result(timeout=5) for future in futures] == [-i for i in range(120)]
        assert endpoint.stats.leases == endpoint.stats.uploads == 120
        assert endpoint.stats.uploads_deduped == 0
        assert sum(endpoint.cells_by.values()) == 120

    def test_start_twice_fails(self, served):
        endpoint, _, _ = served
        with pytest.raises(RuntimeError, match="already started"):
            endpoint.start()
