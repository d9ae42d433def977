"""Integration tests for the TCP front door: NetServerThread (shard
router + asyncio server) exercised through NetClient and raw sockets."""

from __future__ import annotations

import socket
import time

import pytest

from repro.service import CompileRequest, RetryPolicy, ServiceConfig
from repro.service.net import (
    NetClient,
    NetServerConfig,
    NetServerThread,
)
from repro.service.net.client import STATUS_UNAVAILABLE
from repro.service.net.protocol import (
    FrameDecoder,
    encode_frame,
    ping_message,
    request_message,
)

SOURCE = """\
int printf(const char *fmt, ...);
int main() {
  int sum = 0;
  #pragma omp tile sizes(2)
  for (int i = 0; i < 8; i += 1)
    sum += i;
  printf("net: %d\\n", sum);
  return 0;
}
"""


def _configs(n: int = 2) -> list[ServiceConfig]:
    return [
        ServiceConfig(
            workers=1,
            queue_capacity=64,
            deadline_s=10.0,
            retry=RetryPolicy(
                max_attempts=3, base_delay_s=0.01, max_delay_s=0.1
            ),
            quarantine_dir=None,
        )
        for _ in range(n)
    ]


def _request(tag: str, **kwargs) -> CompileRequest:
    return CompileRequest(
        source=f"// {tag}\n" + SOURCE,
        filename=f"{tag}.c",
        action="run",
        **kwargs,
    )


@pytest.fixture(scope="module")
def host():
    server = NetServerThread(
        _configs(),
        NetServerConfig(frame_timeout_s=2.0, idle_timeout_s=30.0),
    )
    server.start()
    yield server
    server.stop()


def _recv_events(sock, timeout_s: float = 10.0) -> list:
    decoder = FrameDecoder()
    events: list = []
    sock.settimeout(timeout_s)
    deadline = time.monotonic() + timeout_s
    try:
        while time.monotonic() < deadline and not events:
            data = sock.recv(65536)
            if not data:
                break
            events.extend(decoder.feed(data))
    except (socket.timeout, OSError):
        pass
    return events


class TestRequestResponse:
    def test_ping(self, host):
        assert NetClient(host.address).ping()

    def test_compile_run_round_trip(self, host):
        client = NetClient(host.address, deadline_s=30.0)
        response = client.request(_request("rt"))
        assert response.ok
        assert response.exit_code == 0
        assert "net: 28" in (response.output or "")
        assert client.duplicate_responses == 0

    def test_worker_kill_is_retried_transparently(self, host):
        client = NetClient(host.address, deadline_s=30.0)
        response = client.request(
            _request(
                "kill",
                inject_faults=("service-worker-exit",),
                fault_attempts=1,
            )
        )
        assert response.ok
        assert response.attempts >= 2

    def test_hedged_request_single_answer(self, host):
        client = NetClient(
            host.address, deadline_s=30.0, hedge_delay_s=0.05
        )
        response = client.request(_request("hedge"))
        assert response.ok
        assert client.duplicate_responses == 0

    def test_concurrent_clients_spread_over_shards(self, host):
        import threading

        results: list = []
        lock = threading.Lock()

        def one(i: int) -> None:
            client = NetClient(host.address, deadline_s=30.0)
            response = client.request(_request(f"conc-{i}"))
            with lock:
                results.append(response)

        threads = [
            threading.Thread(target=one, args=(i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert len(results) == 6
        assert all(r.ok for r in results)


class TestDeadlinePropagation:
    def test_expired_budget_rejected_at_admission(self, host):
        # The wire deadline is the caller's *remaining* budget; an
        # effectively-zero budget must come back as a structured
        # timeout without burning a worker attempt.
        sock = socket.create_connection(host.address, timeout=5.0)
        try:
            sock.sendall(
                encode_frame(
                    request_message(
                        "expired",
                        _request("expired"),
                        deadline_s=1e-6,
                    )
                )
            )
            events = _recv_events(sock)
        finally:
            sock.close()
        assert events, "no reply to an expired-budget request"
        msg = events[0]
        assert msg["type"] == "response"
        assert msg["id"] == "expired"
        assert msg["response"]["status"] == "timeout"
        assert msg["response"]["attempts"] == 0

    def test_client_gives_up_when_budget_exhausted(self, host):
        client = NetClient(host.address, deadline_s=1e-6)
        response = client.request(_request("nobudget"))
        assert response.status == "timeout"


class TestProtocolDefense:
    def test_garbage_gets_error_frame_then_resync(self, host):
        sock = socket.create_connection(host.address, timeout=5.0)
        try:
            junk = bytes([0x00, 0x7F, 0xFE]) * 5
            sock.sendall(
                junk + encode_frame(ping_message("resync"))
            )
            decoder = FrameDecoder()
            events: list = []
            sock.settimeout(5.0)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and len(events) < 2:
                data = sock.recv(65536)
                if not data:
                    break
                events.extend(decoder.feed(data))
        finally:
            sock.close()
        types = [
            (e.get("type"), e.get("code"))
            for e in events
            if isinstance(e, dict)
        ]
        assert ("error", "bad-magic") in types
        assert ("pong", None) in types

    def test_unknown_message_type_answered_not_fatal(self, host):
        sock = socket.create_connection(host.address, timeout=5.0)
        try:
            sock.sendall(
                encode_frame({"v": 1, "type": "teapot", "id": "t1"})
            )
            events = _recv_events(sock)
        finally:
            sock.close()
        assert events and events[0]["type"] == "error"
        assert events[0]["code"] == "bad-type"

    def test_invalid_request_fields_get_bad_request(self, host):
        sock = socket.create_connection(host.address, timeout=5.0)
        try:
            sock.sendall(
                encode_frame(
                    {
                        "v": 1,
                        "type": "request",
                        "id": "bad1",
                        "request": {"source": "x", "evil": True},
                    }
                )
            )
            events = _recv_events(sock)
        finally:
            sock.close()
        assert events and events[0]["type"] == "error"
        assert events[0]["code"] == "bad-request"
        assert events[0]["id"] == "bad1"


class TestDrain:
    def test_drain_announces_and_client_fails_over_cleanly(self):
        server = NetServerThread(_configs(1), NetServerConfig())
        server.start()
        try:
            client = NetClient(server.address, deadline_s=20.0)
            assert client.request(_request("pre-drain")).ok
            # an open connection gets the structured goodbye
            sock = socket.create_connection(
                server.address, timeout=5.0
            )
            try:
                # complete a ping round trip first so the connection
                # is registered server-side before the drain broadcast
                sock.sendall(encode_frame(ping_message("pre")))
                assert _recv_events(sock)[0]["type"] == "pong"
                server._loop.call_soon_threadsafe(
                    server.server.request_drain, 2.0
                )
                events = _recv_events(sock)
            finally:
                sock.close()
            assert events
            assert events[0]["type"] == "draining"
            # once drained, new work cannot reach the server: the
            # client returns a structured failure, never raises
            server.stop()
            response = client.request(_request("post-drain"))
            assert response.status in (STATUS_UNAVAILABLE, "timeout")
            assert not response.ok
        finally:
            server.stop()
