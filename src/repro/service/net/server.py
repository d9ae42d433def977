"""The asyncio TCP front door.

One :class:`NetServer` accepts connections, decodes length-prefixed
JSON frames (:mod:`repro.service.net.protocol`), and routes ``request``
messages into a :class:`~repro.service.net.router.ShardRouter`.  The
design goals, in the envoy/nginx tradition of overload handling:

* **misbehaving clients cannot take the server down** — malformed
  frames get structured ``error`` frames back (connection-fatal only
  for an oversized declared length, whose framing can't be trusted);
  a client that stops mid-frame is evicted on the ``frame_timeout_s``
  slow-loris timer; a client that stops *reading* is evicted on the
  write timeout; connection and per-connection-inflight caps bound
  resource use;
* **a dropped connection never loses accounting** — the shard service
  still resolves every admitted request; a response whose connection
  died is counted as orphaned and discarded, so requests-in equals
  terminal-statuses exactly on the service ledger;
* **drain is structured** — :meth:`NetServer.request_drain` stops
  accepting, pushes a ``draining`` frame to every live connection,
  drains the shards (in-flight work finishes, stragglers are shed with
  terminal answers), then closes everything and lets the process exit 0.

The server runs on one asyncio thread; shard callbacks re-enter via
``call_soon_threadsafe``.  :class:`NetServerThread` hosts the whole
stack (router + server + loop) on a background thread for tests and
benchmarks.
"""

from __future__ import annotations

import asyncio
import sys
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.instrument.stats import MetricsRegistry, get_statistic
from repro.service.net.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameDecoder,
    FrameError,
    FrameTooLarge,
    ProtocolError,
    draining_message,
    encode_frame,
    error_message,
    pong_message,
    request_from_wire,
    response_message,
)
from repro.service.net.router import ShardRouter
from repro.service.service import ServiceConfig

_CONNECTIONS = get_statistic(
    "net", "connections", "TCP connections accepted"
)
_CONN_REJECTED = get_statistic(
    "net",
    "connections-rejected",
    "Connections turned away at the concurrency cap",
)
_FRAMES_IN = get_statistic(
    "net", "frames-in", "Well-formed frames received"
)
_FRAME_ERRORS = get_statistic(
    "net", "frame-errors", "Malformed frames answered with errors"
)
_NET_REQUESTS = get_statistic(
    "net", "requests", "Request frames admitted to the router"
)
_BAD_REQUESTS = get_statistic(
    "net", "bad-requests", "Request frames rejected at validation"
)
_RESPONSES_SENT = get_statistic(
    "net", "responses-sent", "Response frames written back"
)
_RESPONSES_ORPHANED = get_statistic(
    "net",
    "responses-orphaned",
    "Responses whose connection was gone (still counted terminal "
    "on the service ledger)",
)
_SLOW_LORIS = get_statistic(
    "net",
    "slow-loris-evictions",
    "Connections evicted for stalling mid-frame",
)
_WRITE_EVICTIONS = get_statistic(
    "net",
    "write-evictions",
    "Connections evicted for not reading their responses",
)
_DRAIN_REJECTS = get_statistic(
    "net",
    "drain-rejects",
    "Request frames refused while draining",
)
_INFLIGHT_REJECTS = get_statistic(
    "net",
    "inflight-rejects",
    "Request frames refused at the per-connection in-flight cap",
)


@dataclass
class NetServerConfig:
    host: str = "127.0.0.1"
    #: 0 = let the OS pick (tests); the bound port lands in
    #: :attr:`NetServer.address`
    port: int = 0
    #: hard cap on concurrent connections (excess get a retryable
    #: ``server-busy`` error frame and are closed)
    max_connections: int = 64
    #: per-connection cap on unanswered request frames
    max_inflight_per_conn: int = 64
    #: a connection with no pending frame bytes may sit idle this long
    idle_timeout_s: float = 300.0
    #: the slow-loris guard: once a frame has *started*, the rest of it
    #: must keep arriving within this window
    frame_timeout_s: float = 10.0
    #: a peer must drain our writes within this window
    write_timeout_s: float = 10.0
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES


class _Connection:
    """Parent-side state of one accepted connection."""

    _next_id = 0

    def __init__(self, reader, writer) -> None:
        _Connection._next_id += 1
        self.conn_id = _Connection._next_id
        self.reader = reader
        self.writer = writer
        self.decoder: Optional[FrameDecoder] = None
        #: message ids awaiting a response
        self.inflight: set[str] = set()
        self.write_lock = asyncio.Lock()
        self.closed = False


class NetServer:
    """The asyncio acceptor in front of a :class:`ShardRouter`."""

    def __init__(
        self,
        router: ShardRouter,
        config: Optional[NetServerConfig] = None,
    ) -> None:
        self.router = router
        self.config = config or NetServerConfig()
        self.address: Optional[tuple[str, int]] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._conns: set[_Connection] = set()
        self._draining = False
        self._drained: Optional[asyncio.Event] = None
        #: request frames admitted to the router, not yet answered
        #: (or orphaned) — the drain watcher waits on this
        self._inflight_total = 0

    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        self._loop = asyncio.get_running_loop()
        self._drained = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    async def serve_until_drained(self) -> None:
        """Block until a drain (:meth:`request_drain`) completes."""
        assert self._drained is not None
        await self._drained.wait()

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _close_connection(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        try:
            conn.writer.close()
        except (OSError, RuntimeError):
            pass

    async def _send(self, conn: _Connection, payload: dict) -> bool:
        """Write one frame; evicts the connection (and returns False)
        when the peer will not drain it within the write timeout."""
        if conn.closed:
            return False
        try:
            frame = encode_frame(
                payload, max_frame_bytes=self.config.max_frame_bytes
            )
        except FrameTooLarge:
            # The answer itself does not fit the wire contract; send a
            # structured error in its place rather than violating our
            # own max-frame-size.
            frame = encode_frame(
                error_message(
                    "response-too-large",
                    "response exceeded the max frame size",
                    msg_id=payload.get("id"),
                )
            )
        try:
            async with conn.write_lock:
                if conn.closed:
                    return False
                conn.writer.write(frame)
                await asyncio.wait_for(
                    conn.writer.drain(), self.config.write_timeout_s
                )
            return True
        except asyncio.TimeoutError:
            _WRITE_EVICTIONS.inc()
            self._close_connection(conn)
            return False
        except (ConnectionError, OSError, RuntimeError):
            self._close_connection(conn)
            return False

    # ------------------------------------------------------------------
    # Accepting and reading
    # ------------------------------------------------------------------
    async def _on_connection(self, reader, writer) -> None:
        conn = _Connection(reader, writer)
        try:
            if self._draining:
                await self._send(conn, draining_message("draining"))
                return
            if len(self._conns) >= self.config.max_connections:
                _CONN_REJECTED.inc()
                await self._send(
                    conn,
                    error_message(
                        "server-busy",
                        f"connection cap "
                        f"({self.config.max_connections}) reached",
                        retryable=True,
                    ),
                )
                return
            _CONNECTIONS.inc()
            self._conns.add(conn)
            await self._read_loop(conn)
        except (ConnectionError, OSError):
            pass
        finally:
            self._conns.discard(conn)
            self._close_connection(conn)
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError):
                pass

    async def _read_loop(self, conn: _Connection) -> None:
        decoder = FrameDecoder(self.config.max_frame_bytes)
        conn.decoder = decoder
        while not conn.closed:
            timeout = (
                self.config.frame_timeout_s
                if decoder.mid_frame
                else self.config.idle_timeout_s
            )
            try:
                data = await asyncio.wait_for(
                    conn.reader.read(65536), timeout
                )
            except asyncio.TimeoutError:
                if decoder.mid_frame:
                    # Slow loris: the frame started but is not being
                    # finished; evict rather than hold the slot.
                    _SLOW_LORIS.inc()
                    await self._send(
                        conn,
                        error_message(
                            "slow-client",
                            "frame not completed within "
                            f"{self.config.frame_timeout_s}s; "
                            "connection evicted",
                        ),
                    )
                else:
                    await self._send(
                        conn,
                        error_message(
                            "idle-timeout",
                            "connection idle past "
                            f"{self.config.idle_timeout_s}s",
                        ),
                    )
                return
            if not data:
                return  # peer closed cleanly
            for event in decoder.feed(data):
                if isinstance(event, FrameError):
                    _FRAME_ERRORS.inc()
                    await self._send(
                        conn,
                        error_message(event.code, event.detail),
                    )
                    if event.fatal:
                        return
                    continue
                _FRAMES_IN.inc()
                await self._handle_message(conn, event)

    # ------------------------------------------------------------------
    # Messages
    # ------------------------------------------------------------------
    async def _handle_message(
        self, conn: _Connection, msg: dict
    ) -> None:
        msg_type = msg.get("type")
        msg_id = msg.get("id")
        if msg_type == "ping":
            await self._send(
                conn, pong_message(msg_id if isinstance(msg_id, str) else "ping")
            )
            return
        if msg_type in ("pong", "draining"):
            return  # tolerated, nothing to do server-side
        if msg_type != "request":
            await self._send(
                conn,
                error_message(
                    "bad-type",
                    f"unknown message type {msg_type!r}",
                    msg_id=msg_id if isinstance(msg_id, str) else None,
                ),
            )
            return
        if not isinstance(msg_id, str) or not msg_id:
            _BAD_REQUESTS.inc()
            await self._send(
                conn,
                error_message(
                    "bad-request", "request frame is missing 'id'"
                ),
            )
            return
        if self._draining:
            _DRAIN_REJECTS.inc()
            await self._send(
                conn,
                error_message(
                    "draining",
                    "server is draining; resubmit to a live instance",
                    msg_id=msg_id,
                    retryable=True,
                ),
            )
            return
        if len(conn.inflight) >= self.config.max_inflight_per_conn:
            _INFLIGHT_REJECTS.inc()
            await self._send(
                conn,
                error_message(
                    "too-many-inflight",
                    "per-connection in-flight cap "
                    f"({self.config.max_inflight_per_conn}) reached",
                    msg_id=msg_id,
                    retryable=True,
                ),
            )
            return
        deadline = msg.get("deadline_s")
        try:
            if deadline is not None and (
                not isinstance(deadline, (int, float))
                or isinstance(deadline, bool)
            ):
                raise ProtocolError(
                    "'deadline_s' must be a number"
                )
            request = request_from_wire(msg.get("request"))
        except ProtocolError as err:
            _BAD_REQUESTS.inc()
            await self._send(
                conn,
                error_message(
                    "bad-request", str(err), msg_id=msg_id
                ),
            )
            return
        if deadline is not None:
            # Deadline propagation: what arrives is the caller's
            # *remaining* budget; the service clamps every attempt and
            # retry decision to it.
            request.budget_s = float(deadline)
        conn.inflight.add(msg_id)
        self._inflight_total += 1
        loop = self._loop

        def on_response(response, _conn=conn, _mid=msg_id) -> None:
            # Fires on the shard pump thread; hop back to the loop.
            loop.call_soon_threadsafe(
                self._on_service_response, _conn, _mid, response
            )

        try:
            self.router.submit(request, on_response)
        except RuntimeError as err:
            conn.inflight.discard(msg_id)
            self._inflight_total -= 1
            await self._send(
                conn,
                error_message(
                    "unavailable", str(err), msg_id=msg_id,
                    retryable=True,
                ),
            )
            return
        _NET_REQUESTS.inc()

    def _on_service_response(
        self, conn: _Connection, msg_id: str, response
    ) -> None:
        self._inflight_total -= 1
        conn.inflight.discard(msg_id)
        if conn.closed:
            # The client vanished mid-request.  The service already
            # counted this response on its ledger; the wire just has
            # nobody left to tell.
            _RESPONSES_ORPHANED.inc()
            return
        asyncio.ensure_future(
            self._send_response(conn, msg_id, response)
        )

    async def _send_response(
        self, conn: _Connection, msg_id: str, response
    ) -> None:
        if await self._send(
            conn, response_message(msg_id, response.to_dict())
        ):
            _RESPONSES_SENT.inc()
        else:
            _RESPONSES_ORPHANED.inc()

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def request_drain(self, deadline_s: float) -> None:
        """Begin the structured shutdown (callable from a signal
        handler registered on this loop): stop accepting, announce
        ``draining`` on every connection, drain the shards, close.
        Idempotent."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        self.router.begin_drain(deadline_s)
        notices = [
            asyncio.ensure_future(
                self._send(conn, draining_message("draining"))
            )
            for conn in list(self._conns)
        ]
        asyncio.ensure_future(self._drain_watch(deadline_s, notices))

    async def _drain_watch(
        self, deadline_s: float, notices: Sequence = ()
    ) -> None:
        """Wait for every admitted request to resolve (the shards shed
        stragglers at their drain deadline, so this terminates), then
        close the remaining connections."""
        assert self._loop is not None and self._drained is not None
        if notices:
            # The draining goodbyes must reach the wire before the
            # connections are torn down — without this, a drain with
            # no in-flight work races the close and the peer sees a
            # bare EOF instead of the structured frame.
            await asyncio.gather(*notices, return_exceptions=True)
        hard_stop = self._loop.time() + deadline_s + 5.0
        while (
            self._inflight_total > 0
            and self._loop.time() < hard_stop
        ):
            await asyncio.sleep(0.02)
        if self._inflight_total > 0:  # pragma: no cover - safety net
            print(
                "miniclang-serve: warning: "
                f"{self._inflight_total} request(s) still unanswered "
                "past the drain deadline",
                file=sys.stderr,
            )
        for conn in list(self._conns):
            self._close_connection(conn)
        if self._server is not None:
            try:
                await self._server.wait_closed()
            except (OSError, RuntimeError):  # pragma: no cover
                pass
        self._drained.set()


class NetServerThread:
    """Host router + server + asyncio loop on a background thread.

    The in-process harness for tests, the chaos ``--net`` campaign, and
    the TCP transport of ``tools/service_bench.py``::

        host = NetServerThread([ServiceConfig(), ServiceConfig()])
        host.start()
        ... NetClient(host.address) ...
        host.stop()
    """

    def __init__(
        self,
        configs: Sequence[ServiceConfig],
        net_config: Optional[NetServerConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.router = ShardRouter(configs, metrics)
        self.net_config = net_config or NetServerConfig()
        self.server: Optional[NetServer] = None
        self.address: Optional[tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="miniclang-netserver", daemon=True
        )
        self._startup_error: Optional[BaseException] = None
        self._stopped = False

    def start(self) -> tuple[str, int]:
        self.router.start()
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("network server failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"network server failed to start: {self._startup_error}"
            )
        assert self.address is not None
        return self.address

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as err:  # noqa: BLE001 - surface later
            if not self._ready.is_set():
                self._startup_error = err
                self._ready.set()
            else:
                print(
                    f"miniclang-serve: error: server loop died: {err!r}",
                    file=sys.stderr,
                )

    async def _main(self) -> None:
        self.server = NetServer(self.router, self.net_config)
        self._loop = asyncio.get_running_loop()
        self.address = await self.server.start()
        self._ready.set()
        await self.server.serve_until_drained()

    def stop(self, drain_deadline_s: float = 5.0) -> None:
        """Drain, stop the loop, and shut the router down."""
        if self._stopped:
            return
        self._stopped = True
        if self._loop is not None and self.server is not None:
            try:
                self._loop.call_soon_threadsafe(
                    self.server.request_drain, drain_deadline_s
                )
            except RuntimeError:
                pass  # loop already gone
        self._thread.join(timeout=drain_deadline_s + 30.0)
        self.router.shutdown()

    def __enter__(self) -> "NetServerThread":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
