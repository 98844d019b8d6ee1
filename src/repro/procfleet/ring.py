"""A fixed-slot shared-memory ring for small request/reply frames.

Pipe+pickle framing is the process fleet's per-request floor: one
``Connection.send``/``recv`` round-trip costs ~100-200µs of syscalls and
copies before the worker steps a single symbol.  This module replaces
that framing for *small* frames with two single-producer/single-consumer
rings living in one ``multiprocessing.shared_memory`` segment — one lane
parent→worker (requests), one worker→parent (replies) — so a round-trip
is two userspace copies plus a bounded spin.

Layout (one segment)::

    header   magic "RRNG", format, n_slots, slot_size
    lane A   n_slots request slots
    lane B   n_slots reply slots

Each slot is ``[seq: u64][length: u32][payload bytes]`` and carries a
Vyukov-style sequence stamp: slot ``i`` starts at ``seq == i``; the
producer of position ``pos`` waits for ``seq == pos``, writes the
payload, then stamps ``seq = pos + 1``; the consumer waits for
``seq == pos + 1``, reads, and stamps ``seq = pos + n_slots`` (the
producer's expectation one lap later).  The stamp is written *after*
the payload, so a reader that observes it observes the payload too —
the same publish-then-stamp discipline as the control block's seqlock.

Scope and honesty:

* rings move **small frames only** — every ``serve`` frame (one lane
  or many) whose payload fits a slot; a payload that does not fit falls
  back to the pipe, as do control frames (``stop``/``ping``), so the
  pipe remains the transport of record for everything the ring does not
  accelerate;
* the ring is **per worker process**: a respawn after a crash gets a
  fresh ring (positions restart at zero), which keeps crash semantics
  exactly the pipe path's — a dead or wedged worker is detected by the
  waiting parent and surfaces as ``WorkerCrashed`` → cycle replay →
  reseed, no future lost;
* waits are adaptive: a short busy spin (the latency win), then
  escalating sleeps (the CPU bound), with an optional liveness check so
  a parent never spins on a corpse.

``REPRO_DISABLE_RING`` disables ring creation process-wide (sessions
then speak pure pipe), mirroring ``REPRO_DISABLE_SHM`` / numpy.
"""

from __future__ import annotations

import os
import struct
import time
from typing import Callable, Optional

from multiprocessing import shared_memory

from ..exec import killswitch as _killswitch
from .segments import attach_segment

__all__ = [
    "FrameRing",
    "RingClosed",
    "RingTimeout",
    "ring_enabled",
]

_MAGIC = b"RRNG"
_FORMAT = 1
_HEADER = struct.Struct("<4sHHII")  # magic, format, flags, n_slots, slot_size
_SLOT_HDR = struct.Struct("<QI")  # sequence stamp, payload length

#: Defaults sized for serve frames (symbols + trace carrier): 8 slots
#: of 16 KiB per lane keeps the whole segment at ~256 KiB while leaving
#: room for coalesced batches of a few thousand symbols.
DEFAULT_SLOTS = 8
DEFAULT_SLOT_SIZE = 16 * 1024

#: Adaptive wait schedule: pure spins, then yields, then short sleeps.
_SPIN_ROUNDS = 400
_YIELD_ROUNDS = 4000
_SLEEP_S = 0.0002
#: How often (in wait iterations) an ``alive`` callback is consulted.
_ALIVE_EVERY = 2048


def ring_enabled() -> bool:
    """Whether sessions should create rings (env kill-switch honoured)."""
    return not _killswitch.RING.disabled()


class RingTimeout(Exception):
    """No frame arrived within the deadline (the peer is wedged)."""


class RingClosed(Exception):
    """The peer is gone (liveness check failed mid-wait)."""


class _Lane:
    """One SPSC ring of fixed-size slots inside a shared buffer.

    A lane has exactly one producer and one consumer process; each side
    tracks its own monotonic position locally (positions never cross
    the boundary — only sequence stamps do), so a lane object is bound
    to *one role* and must not be shared across threads.
    """

    __slots__ = ("_buf", "_base", "_n_slots", "_slot_size", "_pos")

    def __init__(self, buf, base: int, n_slots: int, slot_size: int):
        self._buf = buf
        self._base = base
        self._n_slots = n_slots
        self._slot_size = slot_size
        self._pos = 0

    def _offset(self, pos: int) -> int:
        return self._base + (pos % self._n_slots) * self._slot_size

    def _seq(self, off: int) -> int:
        (seq,) = struct.unpack_from("<Q", self._buf, off)
        return seq

    # -- producer side -------------------------------------------------
    def try_push(self, payload: bytes) -> bool:
        """Publish one frame; ``False`` when the slot is still unread
        (ring full — with one outstanding request this cannot happen)."""
        pos = self._pos
        off = self._offset(pos)
        if self._seq(off) != pos:
            return False
        start = off + _SLOT_HDR.size
        self._buf[start:start + len(payload)] = payload
        # Publish-then-stamp, in two stores: the length must land
        # before the stamp, because a consumer that observes the stamp
        # reads whatever length is there — one combined 12-byte write
        # would copy the stamp bytes first and open a window where the
        # new seq is visible with the previous lap's length.  The stamp
        # itself is one aligned 8-byte store (slot offsets are 16-byte
        # aligned), so it is never observed torn.
        struct.pack_into("<I", self._buf, off + 8, len(payload))
        struct.pack_into("<Q", self._buf, off, pos + 1)
        self._pos = pos + 1
        return True

    # -- consumer side -------------------------------------------------
    def try_pop(self) -> Optional[bytes]:
        """The next frame, or ``None`` when nothing is published yet."""
        pos = self._pos
        off = self._offset(pos)
        # Read the stamp on its own before the length: once the stamp
        # matches, the producer's length store (sequenced before it)
        # is complete, whereas one combined 12-byte read could pair the
        # new stamp with a torn length.
        if self._seq(off) != pos + 1:
            return None
        (length,) = struct.unpack_from("<I", self._buf, off + 8)
        start = off + _SLOT_HDR.size
        payload = bytes(self._buf[start:start + length])
        # Return the slot to the producer's next lap.
        struct.pack_into("<Q", self._buf, off, pos + self._n_slots)
        self._pos = pos + 1
        return payload


def _wait(
    poll: Callable[[], Optional[bytes]],
    timeout_s: Optional[float],
    alive: Optional[Callable[[], bool]],
) -> bytes:
    """Adaptive spin-then-sleep wait around a non-blocking ``poll``."""
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    spins = 0
    while True:
        payload = poll()
        if payload is not None:
            return payload
        spins += 1
        if spins < _SPIN_ROUNDS:
            continue
        if spins < _YIELD_ROUNDS:
            time.sleep(0)
        else:
            time.sleep(_SLEEP_S)
        if alive is not None and spins % _ALIVE_EVERY == 0 and not alive():
            raise RingClosed("ring peer process is gone")
        if deadline is not None and time.monotonic() > deadline:
            raise RingTimeout(f"no ring frame within {timeout_s}s")


class FrameRing:
    """Two SPSC lanes (requests out, replies back) in one shm segment.

    The parent creates (and owns/unlinks) the segment; the worker
    attaches by name with the resource tracker suppressed, exactly like
    table segments.  Which lane a process produces into is fixed by the
    ``role`` it opened the ring with.
    """

    def __init__(self, shm, n_slots: int, slot_size: int, owner: bool):
        self._shm = shm
        self.name = shm.name
        self.n_slots = n_slots
        self.slot_size = slot_size
        self._owner = owner
        self._pid = os.getpid()
        self._closed = False
        lane_bytes = n_slots * slot_size
        base = _HEADER.size
        self._request = _Lane(shm.buf, base, n_slots, slot_size)
        self._reply = _Lane(shm.buf, base + lane_bytes, n_slots, slot_size)

    # -- construction --------------------------------------------------
    @classmethod
    def create(
        cls,
        n_slots: int = DEFAULT_SLOTS,
        slot_size: int = DEFAULT_SLOT_SIZE,
        prefix: str = "rr",
    ) -> "FrameRing":
        from .segments import _new_name

        size = _HEADER.size + 2 * n_slots * slot_size
        shm = shared_memory.SharedMemory(
            name=_new_name(prefix), create=True, size=size
        )
        shm.buf[:size] = b"\x00" * size
        _HEADER.pack_into(shm.buf, 0, _MAGIC, _FORMAT, 0, n_slots, slot_size)
        ring = cls(shm, n_slots, slot_size, owner=True)
        ring._init_slots()
        return ring

    @classmethod
    def attach(cls, name: str) -> "FrameRing":
        shm = attach_segment(name)
        magic, fmt, _flags, n_slots, slot_size = _HEADER.unpack_from(
            shm.buf, 0
        )
        if magic != _MAGIC or fmt != _FORMAT:
            shm.close()
            raise ValueError(f"{name}: not a repro frame ring")
        return cls(shm, n_slots, slot_size, owner=False)

    def _init_slots(self) -> None:
        # Slot i starts at seq == i: "writable by the producer of
        # position i" in the Vyukov stamping scheme.
        for lane_base in (
            _HEADER.size,
            _HEADER.size + self.n_slots * self.slot_size,
        ):
            for i in range(self.n_slots):
                struct.pack_into(
                    "<Q", self._shm.buf, lane_base + i * self.slot_size, i
                )

    @property
    def capacity(self) -> int:
        """Largest payload one slot can carry."""
        return self.slot_size - _SLOT_HDR.size

    def fits(self, payload: bytes) -> bool:
        return len(payload) <= self.capacity

    # -- parent role ---------------------------------------------------
    def send_request(self, payload: bytes) -> bool:
        """Publish one request frame (``False``: lane full, use pipe)."""
        if len(payload) > self.capacity:
            return False
        return self._request.try_push(payload)

    def recv_reply(
        self,
        timeout_s: Optional[float],
        alive: Optional[Callable[[], bool]] = None,
    ) -> bytes:
        """Wait for the matching reply (spin → yield → sleep).

        Raises :class:`RingTimeout` past the deadline and
        :class:`RingClosed` as soon as ``alive`` reports the worker
        gone — both map to the session's crash path.
        """
        return _wait(self._reply.try_pop, timeout_s, alive)

    # -- worker role ---------------------------------------------------
    def try_recv_request(self) -> Optional[bytes]:
        return self._request.try_pop()

    def send_reply(self, payload: bytes) -> bool:
        if len(payload) > self.capacity:
            return False
        return self._reply.try_push(payload)

    # -- teardown ------------------------------------------------------
    def close(self) -> None:
        """Detach; the owning parent also unlinks (pid-guarded)."""
        if self._closed:
            return
        self._closed = True
        self._shm.close()
        if self._owner and os.getpid() == self._pid:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass

    def __repr__(self) -> str:
        return (
            f"FrameRing(name={self.name!r}, slots={self.n_slots}, "
            f"slot_size={self.slot_size})"
        )
