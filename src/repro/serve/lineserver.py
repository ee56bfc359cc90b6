"""The newline-JSON line server both TCP nodes are built on.

:class:`LineServer` owns everything a serve node and a fabric front-end
do identically: the (optionally TLS) listener, the pipelined
per-connection read loop, the write path with its encode guard, and the
request envelope — decode, field checks, the HMAC gate, inline
``ping``/``_stats``, and the mapping of exceptions onto error replies.
A subclass supplies only :meth:`LineServer.dispatch` (what a valid,
authenticated request does) and :meth:`LineServer.stats_snapshot`.

:class:`LoopHandle` runs any such node's event loop on a daemon thread
behind a blocking ``start()``/``stop()`` API.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from dataclasses import asdict, dataclass

from repro.fabric.auth import verify_message
from repro.fabric.tls import default_tls
from repro.serve.protocol import MAX_LINE_BYTES, ProtocolError, decode_message, encode_message


@dataclass
class LineStats:
    """Envelope counters every line server keeps (subclassed per node)."""

    requests: int = 0
    errors: int = 0
    auth_rejected: int = 0

    def snapshot(self) -> dict:
        """Plain-dict copy of every counter, for the wire."""
        return asdict(self)


class LineServer:
    """Accept, TLS, HMAC and pipelining for one newline-JSON node.

    Every connection is handled concurrently and each request line
    spawns its own task, so one slow request never blocks the lines
    queued behind it on the same connection; replies carry the request
    ``id`` and may go out of order.

    Args:
        config: any config with ``host``, ``port``, ``tls`` and
            ``auth_secret`` fields (``ServeConfig``, ``FrontendConfig``).
        stats: the node's counters; a :class:`LineStats` subclass.

    Use :meth:`start` + :meth:`serve_forever` from an event loop, or a
    :class:`LoopHandle` to run the whole loop on a background thread.
    """

    def __init__(self, config, stats: LineStats):
        self.config = config
        self.stats = stats
        self.port: int | None = None
        self._server: asyncio.base_events.Server | None = None
        self._conn_tasks: set[asyncio.Task] = set()

    # -- subclass hooks --------------------------------------------------

    async def dispatch(self, rid, name: str, kwargs: dict, message: dict,
                       started: float) -> dict:
        """Answer one decoded, authenticated request (not ping/_stats)."""
        raise NotImplementedError

    def stats_snapshot(self) -> dict:
        """The node's counters as a plain dict (the ``_stats`` reply)."""
        raise NotImplementedError

    def _ok(self, rid, value, started: float) -> dict:
        return {
            "id": rid, "ok": True, "value": value,
            "elapsed_ms": (time.perf_counter() - started) * 1000.0,
        }

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (TLS when configured); fills in :attr:`port`."""
        tls = default_tls(self.config.tls)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=MAX_LINE_BYTES,
            ssl=tls.server_context() if tls is not None else None)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Accept connections until cancelled (call :meth:`start` first)."""
        assert self._server is not None, "call start() before serve_forever()"
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting and drop every open connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    # -- connection plumbing ---------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        conn_task = asyncio.current_task()
        if conn_task is not None:
            self._conn_tasks.add(conn_task)
            conn_task.add_done_callback(self._conn_tasks.discard)
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._write(writer, write_lock, {
                        "id": -1, "ok": False, "error": "request line too long"})
                    break
                if not line:
                    break
                task = asyncio.ensure_future(self._serve_line(line, writer, write_lock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except asyncio.CancelledError:
            pass  # shutdown: close the connection and exit cleanly
        finally:
            if tasks:
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _serve_line(self, line: bytes, writer: asyncio.StreamWriter,
                          write_lock: asyncio.Lock) -> None:
        response = await self._handle_request(line)
        await self._write(writer, write_lock, response)

    async def _write(self, writer: asyncio.StreamWriter, lock: asyncio.Lock,
                     payload: dict) -> None:
        try:
            data = encode_message(payload)
        except (TypeError, ValueError):
            # A reply json can't encode (a custom endpoint's return
            # value); the client must still get *a* response for this id.
            self.stats.errors += 1
            data = encode_message({
                "id": payload.get("id", -1), "ok": False,
                "error": "endpoint returned a value that is not JSON-serializable"})
        async with lock:
            writer.write(data)
            with contextlib.suppress(ConnectionError):
                await writer.drain()

    async def _handle_request(self, line: bytes) -> dict:
        started = time.perf_counter()
        self.stats.requests += 1
        rid = -1
        try:
            message = decode_message(line)
            rid = message.get("id", -1)
            name = message.get("endpoint")
            kwargs = message.get("kwargs") or {}
            if not isinstance(name, str):
                raise ProtocolError("missing 'endpoint'")
            if not isinstance(kwargs, dict):
                raise ProtocolError("'kwargs' must be an object")
            if self.config.auth_secret is not None and not verify_message(
                    self.config.auth_secret, message):
                # Before anything else runs — no endpoint resolution,
                # cache, membership or admission: an unauthenticated
                # caller gets one refusal line and nothing else.
                self.stats.auth_rejected += 1
                return {"id": rid, "ok": False, "status": 401,
                        "error": "unauthenticated: missing or bad 'auth' signature"}
            if name == "ping":
                # Liveness probe, answered inline: it reflects event-loop
                # health alone and never waits on a cache or a worker.
                return self._ok(rid, {"pong": kwargs.get("payload")}, started)
            if name == "_stats":
                return self._ok(rid, self.stats_snapshot(), started)
            return await self.dispatch(rid, name, kwargs, message, started)
        except (ProtocolError, KeyError, TypeError, ValueError) as exc:
            self.stats.errors += 1
            return {"id": rid, "ok": False,
                    "error": str(exc.args[0]) if exc.args else repr(exc)}
        except Exception as exc:  # the request raised: report, don't crash the loop
            self.stats.errors += 1
            return {"id": rid, "ok": False, "error": f"{type(exc).__name__}: {exc}"}


class LoopHandle:
    """Runs a :class:`LineServer` event loop on a daemon thread.

    Args:
        node: the line server to run.

    Attributes:
        port: the bound port, available once :meth:`start` returns.
    """

    def __init__(self, node: LineServer):
        self.node = node
        self.port: int | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._startup_error: BaseException | None = None

    def start(self):
        """Start the loop thread; blocks until the socket is bound.

        Raises:
            RuntimeError: if already started.
            OSError: if the bind fails (re-raised from the loop thread).
        """
        kind = type(self.node).__name__.lower()
        if self._thread is not None:
            raise RuntimeError(f"{kind} already started")
        self._thread = threading.Thread(target=self._run, name=f"repro-{kind}", daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    def stop(self) -> None:
        """Signal shutdown and join the loop thread (idempotent)."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join()
        self._thread = None

    def stats(self) -> dict:
        """Snapshot of the node's counters (thread-safe read)."""
        return self.node.stats_snapshot()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.node.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.port = self.node.port
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await self.node.aclose()
