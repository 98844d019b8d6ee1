"""The shared-memory frame ring replacing pipe+pickle on the hot path.

Three layers under test:

* the **lane protocol** — Vyukov slot stamping: publish-then-stamp
  ordering, wrap-around reuse, full-lane refusal, oversized refusal;
* the **wait discipline** — :class:`RingTimeout` past the deadline,
  :class:`RingClosed` the moment the liveness probe says the peer died
  (both map onto the session's existing crash path);
* the **session integration** — small ``serve`` frames ride the ring,
  oversized and non-serve frames fall back to the pipe, the
  ``REPRO_DISABLE_RING`` kill switch forces pipe-only, and whatever
  happens the parent unlinks every ``rr*`` segment it created.
"""

import os
import signal

import pytest

from repro.procfleet import ControlBlock, FrameRing, WorkerCrashed, ring_enabled
from repro.procfleet.ring import (
    DEFAULT_SLOT_SIZE,
    DEFAULT_SLOTS,
    RingClosed,
    RingTimeout,
)
from repro.procfleet.session import WorkerSession
from repro.workloads.library import ones_detector

shm_fs = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="no /dev/shm to observe segment lifecycle on",
)


@pytest.fixture
def ring():
    r = FrameRing.create()
    yield r
    r.close()


class TestLaneProtocol:
    def test_request_reply_round_trip(self, ring):
        worker = FrameRing.attach(ring.name)
        try:
            assert ring.send_request(b"ping")
            assert worker.try_recv_request() == b"ping"
            assert worker.send_reply(b"pong")
            assert ring.recv_reply(1.0) == b"pong"
        finally:
            worker.close()

    def test_empty_lane_pops_nothing(self, ring):
        assert ring.try_recv_request() is None

    def test_wrap_around_reuses_slots(self, ring):
        # Many times more frames than slots: positions wrap and every
        # payload still arrives intact and in order.
        worker = FrameRing.attach(ring.name)
        try:
            for i in range(DEFAULT_SLOTS * 6):
                payload = f"frame-{i}".encode() * (i % 7 + 1)
                assert ring.send_request(payload)
                assert worker.try_recv_request() == payload
                assert worker.send_reply(payload[::-1])
                assert ring.recv_reply(1.0) == payload[::-1]
        finally:
            worker.close()

    def test_full_lane_refuses_instead_of_blocking(self, ring):
        for i in range(DEFAULT_SLOTS):
            assert ring.send_request(b"x")
        assert not ring.send_request(b"overflow")  # full: caller pipes

    def test_oversized_payload_refused(self, ring):
        assert ring.capacity == DEFAULT_SLOT_SIZE - 12
        assert not ring.send_request(b"x" * (ring.capacity + 1))
        assert ring.send_request(b"x" * ring.capacity)

    def test_attach_rejects_foreign_segments(self):
        from repro.procfleet.segments import _new_name
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(
            name=_new_name("rr"), create=True, size=64
        )
        try:
            with pytest.raises(ValueError, match="not a repro frame ring"):
                FrameRing.attach(shm.name)
        finally:
            shm.close()
            shm.unlink()


class TestWaitDiscipline:
    def test_recv_reply_times_out(self, ring):
        with pytest.raises(RingTimeout):
            ring.recv_reply(0.05)

    def test_recv_reply_raises_closed_when_peer_dies(self, ring):
        with pytest.raises(RingClosed):
            ring.recv_reply(30.0, alive=lambda: False)

    def test_reply_beats_the_deadline(self, ring):
        worker = FrameRing.attach(ring.name)
        try:
            worker.send_reply(b"ready")
            assert ring.recv_reply(0.05) == b"ready"
        finally:
            worker.close()


@shm_fs
class TestSegmentHygiene:
    def test_owner_close_unlinks(self):
        ring = FrameRing.create()
        name = ring.name
        assert os.path.exists(f"/dev/shm/{name}")
        ring.close()
        assert not os.path.exists(f"/dev/shm/{name}")

    def test_attached_close_does_not_unlink(self):
        ring = FrameRing.create()
        worker = FrameRing.attach(ring.name)
        worker.close()
        assert os.path.exists(f"/dev/shm/{ring.name}")
        ring.close()


@pytest.fixture
def session():
    ctl = ControlBlock.create(1)
    sess = WorkerSession(ctl, slot=0, label="t")
    yield sess
    sess.close()
    ctl.close()


@pytest.fixture
def ring_on(monkeypatch):
    """Force the ring transport on, whatever the suite's environment
    (the fleet-aio CI job runs everything under REPRO_DISABLE_RING=1)."""
    monkeypatch.delenv("REPRO_DISABLE_RING", raising=False)


class TestSessionIntegration:
    def test_small_serve_frames_ride_the_ring(self, ring_on, session):
        from repro.procfleet import ShmTableBackend

        machine = ones_detector()
        backend = ShmTableBackend(machine, session)
        word = list("0110")
        assert backend.run_batch(word).outputs == machine.run(word)
        assert session.ring_requests >= 1

    def test_stream_frames_ride_the_ring(self, ring_on, session):
        from repro.procfleet import ShmTableBackend

        machine = ones_detector()
        backend = ShmTableBackend(machine, session)
        words = [list("0110"), list("11"), list("1011")]
        runs = backend.run_streams(words)
        assert [run.outputs for run in runs] == [
            machine.run(word) for word in words
        ]
        # One 3-lane serve frame, one ring round-trip, no pipe frame.
        assert (session.ring_requests, session.pipe_requests) == (1, 0)

    def test_kill_switch_forces_pipe(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_RING", "1")
        assert not ring_enabled()
        ctl = ControlBlock.create(1)
        sess = WorkerSession(ctl, slot=0, label="t")
        try:
            from repro.procfleet import ShmTableBackend

            machine = ones_detector()
            backend = ShmTableBackend(machine, sess)
            word = list("1011")
            assert backend.run_batch(word).outputs == machine.run(word)
            assert sess.ring_requests == 0
            assert sess.pipe_requests >= 1
        finally:
            sess.close()
            ctl.close()

    def test_oversized_reply_overflows_to_pipe(self, ring_on, session):
        from repro.procfleet import ShmTableBackend

        machine = ones_detector()
        backend = ShmTableBackend(machine, session)
        # A batch whose pickled reply outgrows one 16 KiB slot: the
        # worker publishes the overflow marker on the ring and ships
        # the real reply on the pipe.
        word = ["1", "0"] * 12000
        assert backend.run_batch(word).outputs == machine.run(word)

    def test_ring_death_maps_to_worker_crashed(self, ring_on, session):
        from repro.procfleet import ShmTableBackend

        machine = ones_detector()
        backend = ShmTableBackend(machine, session)
        backend.run_batch(["1"])  # warm: worker live, ring in use
        os.kill(session.pid, signal.SIGKILL)
        with pytest.raises(WorkerCrashed):
            backend.run_batch(["1", "0"])
        assert session.restarts == 1
        # The replacement process serves on a fresh ring (state carried
        # over the reseed, so only the shape is asserted here).
        assert len(backend.run_batch(["0"]).outputs) == 1
        assert session.ring_requests >= 2

    @shm_fs
    def test_no_ring_segments_leak_across_restarts(self, ring_on, session):
        from repro.procfleet import ShmTableBackend

        # Only rings created by *this* session count: the registry's
        # standalone table-shm session legitimately keeps one alive
        # until atexit when other tests in the process have used it.
        def _rings():
            return {n for n in os.listdir("/dev/shm") if n.startswith("rr")}

        preexisting = _rings()
        machine = ones_detector()
        backend = ShmTableBackend(machine, session)
        backend.run_batch(["1"])
        os.kill(session.pid, signal.SIGKILL)
        with pytest.raises(WorkerCrashed):
            backend.run_batch(["1"])
        backend.run_batch(["0"])  # reseeded worker, fresh ring
        assert _rings() - preexisting  # the respawn's ring is live...
        session.close()
        assert _rings() - preexisting == set()  # ...and close unlinks it
