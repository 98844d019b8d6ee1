"""The ingestion socket server and its frame protocol.

Covers the wire layer (:mod:`repro.aio.frames`: length-prefixed JSON,
size bound, clean EOF), the server's frame vocabulary (submit / ping /
health, in-band errors, ``id`` echo), and the asyncio obs endpoint
riding the same loop.
"""

import asyncio
import json
import struct

import pytest

from repro.aio import (
    FrameError,
    IngestServer,
    MAX_FRAME,
    decode_frame,
    encode_frame,
)
from repro.aio.frames import read_frame, write_frame
from repro.fleet import FSMFleet
from repro.workloads.library import ones_detector

MODES = ("thread", "process")


class TestFrameCodec:
    def test_round_trip(self):
        frame = {"op": "submit", "key": 7, "symbols": ["1", "0"]}
        assert decode_frame(encode_frame(frame)[4:]) == frame

    def test_length_prefix_is_big_endian_u32(self):
        raw = encode_frame({"a": 1})
        (length,) = struct.unpack(">I", raw[:4])
        assert length == len(raw) - 4

    def test_oversized_frame_refused_on_encode(self):
        with pytest.raises(FrameError):
            encode_frame({"blob": "x" * MAX_FRAME})

    def test_stream_round_trip_and_clean_eof(self):
        frames = [{"op": "ping"}, {"op": "submit", "id": 1}]

        async def run():
            reader = asyncio.StreamReader()
            for frame in frames:
                reader.feed_data(encode_frame(frame))
            reader.feed_eof()
            got = []
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                got.append(frame)
            return got

        assert asyncio.run(run()) == frames

    def test_truncated_frame_raises_incomplete(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"op": "ping"})[:-2])
            reader.feed_eof()
            with pytest.raises(asyncio.IncompleteReadError):
                await read_frame(reader)

        asyncio.run(run())

    def test_oversized_length_prefix_raises_frame_error(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">I", MAX_FRAME + 1))
            with pytest.raises(FrameError):
                await read_frame(reader)

        asyncio.run(run())


async def _roundtrip(host, port, *frames):
    """Send ``frames`` on one connection; returns the replies."""
    reader, writer = await asyncio.open_connection(host, port)
    replies = []
    try:
        for frame in frames:
            await write_frame(writer, frame)
            replies.append(await read_frame(reader))
    finally:
        writer.close()
    return replies


class TestIngestServer:
    @pytest.mark.parametrize("mode", MODES)
    def test_submit_round_trips_both_modes(self, mode):
        machine = ones_detector()
        word = ["0", "1", "1", "0"]

        async def run(fleet):
            async with IngestServer(fleet) as server:
                (reply,) = await _roundtrip(
                    *server.address,
                    {"op": "submit", "id": 42, "key": "c", "symbols": word},
                )
            return reply

        with FSMFleet(machine, fleet_mode=mode, n_workers=2) as fleet:
            reply = asyncio.run(run(fleet))
        assert reply == {
            "ok": True, "outputs": machine.run(word), "id": 42,
        }

    def test_connection_survives_in_band_errors(self):
        async def run(fleet):
            async with IngestServer(fleet) as server:
                return await _roundtrip(
                    *server.address,
                    {"op": "submit", "key": "c", "symbols": ["x"]},
                    {"op": "submit", "key": "c"},
                    {"op": "bogus", "id": 9},
                    {"op": "ping"},
                )

        with FSMFleet(ones_detector(), n_workers=1) as fleet:
            alphabet, missing, bogus, ping = asyncio.run(run(fleet))
        assert alphabet["ok"] is False
        assert alphabet["error"] == "ValueError"
        assert missing["ok"] is False
        assert missing["error"] == "FrameError"
        assert bogus == {
            "ok": False, "error": "FrameError",
            "message": "unknown op 'bogus'", "id": 9,
        }
        assert ping == {"ok": True, "pong": True}

    def test_health_op_reports_the_fleet(self):
        async def run(fleet):
            async with IngestServer(fleet) as server:
                (reply,) = await _roundtrip(
                    *server.address, {"op": "health"}
                )
            return reply

        with FSMFleet(ones_detector(), n_workers=1) as fleet:
            reply = asyncio.run(run(fleet))
        assert reply["ok"] is True
        assert reply["health"]["status"] in ("ok", "degraded", "critical")

    def test_many_connections_one_loop(self):
        machine = ones_detector()
        word = ["1", "0", "1", "1"]

        async def run(fleet):
            async with IngestServer(fleet) as server:
                replies = await asyncio.gather(*[
                    _roundtrip(
                        *server.address,
                        {"op": "submit", "key": f"conn-{i}",
                         "symbols": word, "session": f"s-{i}"},
                    )
                    for i in range(16)
                ])
            return [r for (r,) in replies]

        with FSMFleet(machine, n_workers=2) as fleet:
            replies = asyncio.run(run(fleet))
        # Independent sessions all start at reset: identical runs.
        for reply in replies:
            assert reply == {"ok": True, "outputs": machine.run(word)}

    def test_reject_ingest_surfaces_overload_in_band(self):
        async def run(fleet):
            server = IngestServer(fleet, ingest="reject")
            async with server:
                replies = await asyncio.gather(*[
                    _roundtrip(
                        *server.address,
                        {"op": "submit", "key": "k",
                         "symbols": ["1"] * 4},
                    )
                    for i in range(32)
                ])
            return [r for (r,) in replies]

        with FSMFleet(
            ones_detector(), n_workers=1, queue_depth=1,
            link_latency_s=0.005,
        ) as fleet:
            replies = asyncio.run(run(fleet))
        outcomes = {r["ok"] for r in replies}
        for reply in replies:
            if not reply["ok"]:
                assert reply["error"] == "FleetOverloaded"
        # With a depth-1 queue and latency per batch, 32 concurrent
        # submitters cannot all be admitted instantly.
        assert False in outcomes


class TestAsyncObsEndpoint:
    def test_obs_rides_the_ingestion_loop(self):
        async def run(fleet):
            server = IngestServer(fleet, obs_port=0)
            async with server:
                obs_host, obs_port = "127.0.0.1", server.obs.port
                reader, writer = await asyncio.open_connection(
                    obs_host, obs_port
                )
                writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
                raw = await reader.read()
                writer.close()
                # Ingestion still answers on the same loop.
                (pong,) = await _roundtrip(
                    *server.address, {"op": "ping"}
                )
            return raw, pong

        with FSMFleet(ones_detector(), n_workers=1) as fleet:
            raw, pong = asyncio.run(run(fleet))
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert b"Content-Type: application/json" in head
        payload = json.loads(body)
        assert payload["status"] in ("ok", "degraded", "critical")
        assert pong == {"ok": True, "pong": True}

    def test_routes_match_the_threaded_server(self):
        from repro import obs

        async def fetch(port, target):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            writer.write(
                f"GET {target} HTTP/1.1\r\n\r\n".encode()
            )
            raw = await reader.read()
            writer.close()
            return raw

        async def run(fleet):
            server = IngestServer(fleet, obs_port=0)
            async with server:
                port = server.obs.port
                # One served frame so the registry has aio counters.
                await _roundtrip(*server.address, {"op": "ping"})
                metrics = await fetch(port, "/metrics")
                journal = await fetch(port, "/journal?limit=5")
                missing = await fetch(port, "/nope")
            return metrics, journal, missing

        obs.configure(metrics=True, journal=True)
        try:
            with FSMFleet(ones_detector(), n_workers=1) as fleet:
                metrics, journal, missing = asyncio.run(run(fleet))
        finally:
            obs.configure()
        assert metrics.startswith(b"HTTP/1.1 200")
        # The one ping is the only frame this server has seen.
        assert b'repro_aio_frames_total{op="ping"} 1\n' in metrics
        assert journal.startswith(b"HTTP/1.1 200")
        assert b"events" in journal
        assert missing.startswith(b"HTTP/1.1 404")

    def test_non_get_is_405(self):
        async def run(fleet):
            server = IngestServer(fleet, obs_port=0)
            async with server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.obs.port
                )
                writer.write(b"POST /metrics HTTP/1.1\r\n\r\n")
                raw = await reader.read()
                writer.close()
            return raw

        with FSMFleet(ones_detector(), n_workers=1) as fleet:
            raw = asyncio.run(run(fleet))
        assert raw.startswith(b"HTTP/1.1 405")

    def test_failed_obs_bind_closes_the_ingestion_socket(self):
        async def run(fleet):
            blocker = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            taken = blocker.sockets[0].getsockname()[1]
            server = IngestServer(fleet, obs_port=taken)
            try:
                with pytest.raises(OSError):
                    await server.start()
                assert server._server is None  # nothing half-started
            finally:
                blocker.close()
                await blocker.wait_closed()

        with FSMFleet(ones_detector(), n_workers=1) as fleet:
            asyncio.run(run(fleet))
