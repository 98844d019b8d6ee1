"""The asyncio socket server: many connections, one loop, one fleet.

:class:`IngestServer` is the ingestion front door: it accepts frame-
protocol connections (:mod:`repro.aio.frames`), turns every ``submit``
frame into one :func:`repro.aio.bridge.submit_async` call, and writes
the reply when the fleet resolves — the connection count is bounded by
the loop, not by threads, which is the whole point of the plane.

Request handling is FIFO per connection (a reply is written before the
next frame is read) and concurrent across connections.  Saturation
therefore behaves per client: a submitter on a full shard awaits
admission without stalling anyone else's connection.

Frame vocabulary (all JSON objects; ``id`` is echoed when present):

``{"op": "submit", "key": K, "symbols": [...], "session": S?}``
    → ``{"ok": true, "outputs": [...]}`` or
    ``{"ok": false, "error": TYPE, "message": MSG}``.  Fleet-level
    failures (overload in ``reject`` mode, alphabet errors) come back
    in-band; the connection survives.
``{"op": "health"}``
    → ``{"ok": true, "health": <healthz payload>}``.
``{"op": "ping"}``
    → ``{"ok": true, "pong": true}``.

An optional :class:`~repro.aio.obs.AsyncObsServer` rides the same loop
when ``obs_port`` is given, so ``/metrics`` and ``/healthz`` stay
responsive exactly while ingestion does.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional

from ..obs import health as _health
from ..obs import instruments as _instruments
from .bridge import submit_async
from .frames import FrameError, read_frame, write_frame
from .obs import AsyncObsServer

__all__ = ["IngestServer"]


class IngestServer:
    """Frame-protocol ingestion in front of one fleet (see module doc)."""

    def __init__(
        self,
        fleet,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        ingest: str = "wait",
        obs_port: Optional[int] = None,
    ):
        self.fleet = fleet
        self.ingest = ingest
        self._host = host
        self._port = port
        self._obs_port = obs_port
        self._server: Optional[asyncio.base_events.Server] = None
        self.obs: Optional[AsyncObsServer] = None

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> "IngestServer":
        """Bind the ingestion socket (and the obs endpoint when asked).

        Bind failures propagate as ``OSError`` — the CLI maps them to
        exit status 2.  A failed obs bind closes the already-bound
        ingestion socket before re-raising, so a partially started
        server never leaks.
        """
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port
        )
        if self._obs_port is not None:
            try:
                self.obs = await AsyncObsServer(
                    fleet=self.fleet, host=self._host, port=self._obs_port
                ).start()
            except BaseException:
                self._server.close()
                await self._server.wait_closed()
                self._server = None
                raise
        return self

    @property
    def port(self) -> int:
        assert self._server is not None, "start() first"
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> "tuple[str, int]":
        return (self._host, self.port)

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    async def close(self) -> None:
        if self.obs is not None:
            await self.obs.close()
            self.obs = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "IngestServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- connection handling --------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    frame = await read_frame(reader)
                except (FrameError, asyncio.IncompleteReadError):
                    break  # protocol violation or dropped peer
                if frame is None:
                    break
                reply = await self._dispatch(frame)
                if isinstance(frame, dict) and "id" in frame:
                    reply["id"] = frame["id"]
                try:
                    await write_frame(writer, reply)
                except (ConnectionError, FrameError):
                    break
        except asyncio.CancelledError:
            # Loop shutdown cancelled this connection mid-read: the
            # peer is gone as far as serving is concerned, and letting
            # the cancellation escape only feeds the asyncio streams
            # done-callback a CancelledError it logs as an error.
            pass
        finally:
            writer.close()

    async def _dispatch(self, frame: Any) -> Dict[str, Any]:
        if not isinstance(frame, dict):
            return {
                "ok": False,
                "error": "FrameError",
                "message": "frame must be a JSON object",
            }
        op = frame.get("op")
        _instruments.AIO_FRAMES.inc(op=str(op))
        if op == "submit":
            return await self._submit(frame)
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "health":
            report = _health.check(fleet=self.fleet)
            return {"ok": True, "health": report.to_dict()}
        return {
            "ok": False,
            "error": "FrameError",
            "message": f"unknown op {op!r}",
        }

    async def _submit(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        key = frame.get("key")
        symbols = frame.get("symbols")
        if key is None or not isinstance(symbols, list) or not symbols:
            return {
                "ok": False,
                "error": "FrameError",
                "message": "submit needs 'key' and a non-empty 'symbols'",
            }
        try:
            outputs = await submit_async(
                self.fleet,
                key,
                tuple(symbols),
                session=frame.get("session"),
                ingest=frame.get("ingest", self.ingest),
                admission_timeout_s=frame.get("admission_timeout_s"),
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # In-band failure: overload (reject mode), admission
            # timeout, alphabet errors, a closed fleet — the connection
            # keeps serving.  Saturation errors carry the shard id so
            # the client can back off or re-key without parsing the
            # message text.
            payload = {
                "ok": False,
                "error": type(exc).__name__,
                "message": str(exc),
            }
            shard = getattr(exc, "shard", None)
            if shard is not None:
                payload["shard"] = shard
            return payload
        return {"ok": True, "outputs": list(outputs)}
