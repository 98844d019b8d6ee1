"""Parent-side lifetime of one worker process: publish, request, heal.

A :class:`WorkerSession` owns exactly one worker process, one duplex
pipe and one control-block slot.  The request path is synchronous — one
frame out, one reply back, under a lock — which is what makes per-shard
FIFO trivial when the fleet's shard pump thread drives it, and what
makes crash detection unambiguous: a broken pipe or a reply timeout
*is* a dead worker.

Crash protocol: the dead process is reaped, the incident is journaled
(``procfleet.worker.crash`` / ``procfleet.worker.spawn``), a fresh
worker is spawned immediately (workers are stateless, so there is
nothing to rebuild but the process), and :class:`WorkerCrashed` — a
:class:`~repro.exec.TableMiss` — is raised so the caller replays the
in-flight batch cycle-accurately in the parent.  No future is ever
lost to a SIGKILL.

Publication protocol: ``publish()`` encodes the compiled tables into a
fresh segment, bumps the slot epoch past whatever is currently
published, then retires the previous segment.  Workers that already
mapped the old segment notice the epoch bump on their next serve and
re-attach; a worker that lost the attach race misses and the parent
republishes — staleness is always resolved toward the newest tables,
never by serving old ones.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
from typing import Callable, Optional

from ..exec.protocol import TableMiss
from ..obs import instruments as _instruments
from ..obs import journal as _journal
from .ring import FrameRing, RingClosed, RingTimeout, ring_enabled
from .segments import ControlBlock, SegmentOwner, encode_segment
from .worker import worker_main

#: Ring reply marker: the real reply was too large for a slot and
#: follows on the pipe.
_PIPE_OVERFLOW = ("pipe-overflow",)

__all__ = ["WorkerCrashed", "WorkerSession", "default_start_method"]

#: Environment override for the process start method (testing aid).
ENV_START_METHOD = "REPRO_PROC_START"

#: Ceiling on one request round-trip before the worker is declared
#: wedged and replaced; generous because it only bounds pathology.
REQUEST_TIMEOUT_S = 60.0

#: Serialises spawns: a worker forked by another shard thread mid-spawn
#: inherits this spawn's child-side fds, so this worker's exit sentinel
#: stays unreadable until that one exits and ``join`` waits it out.
_SPAWN_LOCK = threading.Lock()


class WorkerCrashed(TableMiss):
    """The worker died (or wedged) mid-request; replay cycle-accurately.

    Subclasses :class:`~repro.exec.TableMiss` deliberately: the shm run
    committed nothing, so the standard miss path — replay the identical
    symbols on the parent's netlist from the identical state — is the
    correct recovery, and every existing caller already implements it.
    """


def default_start_method() -> str:
    """``fork`` where available (fast spawn for stateless workers),
    else ``spawn``; overridable via ``REPRO_PROC_START``."""
    forced = os.environ.get(ENV_START_METHOD, "").strip()
    if forced:
        return forced
    return (
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )


class WorkerSession:
    """One worker process + its pipe + its control-block slot."""

    def __init__(
        self,
        ctl: ControlBlock,
        slot: int,
        label: str = "0",
        start_method: Optional[str] = None,
        on_incident: Optional[Callable[[BaseException], None]] = None,
        request_timeout_s: float = REQUEST_TIMEOUT_S,
    ):
        self.ctl = ctl
        self.slot = slot
        self.label = label
        self.on_incident = on_incident
        self.request_timeout_s = request_timeout_s
        self.start_method = start_method or default_start_method()
        self.owner = SegmentOwner()
        self.restarts = 0
        self._mp = multiprocessing.get_context(self.start_method)
        self._lock = threading.RLock()
        self._proc = None
        self._conn = None
        self._ring: Optional[FrameRing] = None
        self._segment: Optional[str] = None
        self._closed = False
        self.ring_requests = 0
        self.pipe_requests = 0

    # -- lifecycle ------------------------------------------------------
    @property
    def pid(self) -> Optional[int]:
        proc = self._proc
        return proc.pid if proc is not None else None

    def alive(self) -> bool:
        proc = self._proc
        return proc is not None and proc.is_alive()

    def start(self) -> None:
        """Spawn the worker process (idempotent while alive).

        A process that died since it was spawned is reaped and counted
        as a crash first, as :meth:`request` would count it.
        """
        with self._lock, _SPAWN_LOCK:
            if self.alive():
                return
            if self._proc is not None:
                self._reap(WorkerCrashed(
                    f"worker process of shard {self.label} died between "
                    "requests"
                ))
            parent_conn, child_conn = self._mp.Pipe(duplex=True)
            # A fresh ring per spawn: positions restart at zero on both
            # sides, so a respawned worker can never observe a stamp
            # left by its predecessor mid-crash.
            if self._ring is not None:
                self._ring.close()
                self._ring = None
            if ring_enabled():
                self._ring = FrameRing.create()
            ring_name = self._ring.name if self._ring is not None else None
            proc = self._mp.Process(
                target=worker_main,
                args=(child_conn, self.ctl.name, self.slot, self.label,
                      ring_name),
                name=f"procfleet-worker-{self.label}",
                daemon=True,
            )
            proc.start()
            # Drop the parent's handle on the child end so a dead
            # worker reads as EOF instead of a silent hang.
            child_conn.close()
            self._proc = proc
            self._conn = parent_conn
            _journal.JOURNAL.record(
                _journal.PROCFLEET_WORKER_SPAWN,
                shard=self.label,
                pid=proc.pid,
                start_method=self.start_method,
            )

    # -- publication ----------------------------------------------------
    @property
    def segment(self) -> Optional[str]:
        return self._segment

    def publish(self, compiled) -> int:
        """Publish ``compiled``'s tables as a new segment; returns the
        new epoch (always past whatever the slot currently carries)."""
        payload = encode_segment(compiled)
        with self._lock:
            current_epoch, _current = self.ctl.read_slot(self.slot)
            epoch = current_epoch + 1
            name = self.owner.create(payload)
            self.ctl.write_slot(self.slot, epoch, name)
            previous, self._segment = self._segment, name
            self.owner.retire(previous)
        _instruments.PROCFLEET_PUBLISHES.inc(shard=self.label)
        _journal.JOURNAL.record(
            _journal.PROCFLEET_PUBLISH,
            shard=self.label,
            segment=name,
            epoch=epoch,
            table_version=compiled.source_version,
        )
        return epoch

    def retire(self) -> None:
        """Unlink the currently published segment (e.g. invalidation)."""
        with self._lock:
            segment, self._segment = self._segment, None
            self.owner.retire(segment)

    # -- request/reply --------------------------------------------------
    def request(self, frame: tuple) -> tuple:
        """One synchronous round-trip; :class:`WorkerCrashed` on death.

        A timeout counts as a wedged worker: it is killed and replaced
        exactly like a crash, so a pending future can resolve through
        the parent-side replay instead of hanging.
        """
        with self._lock:
            if self._closed:
                raise WorkerCrashed(
                    f"worker session {self.label} is closed"
                )
            if self._proc is None:
                self.start()
            # A worker that died since the last request is *not*
            # silently replaced here: the send/recv below surfaces the
            # death as a crash, so the restart is counted, journaled
            # and reported before the respawn.
            conn = self._conn
            try:
                reply = self._ring_request(frame)
                if reply is not None:
                    return reply
                self.pipe_requests += 1
                conn.send(frame)
                if not conn.poll(self.request_timeout_s):
                    raise EOFError(
                        f"no reply within {self.request_timeout_s}s"
                    )
                return conn.recv()
            except (EOFError, BrokenPipeError, ConnectionResetError,
                    OSError, RingClosed, RingTimeout) as exc:
                self._handle_crash(exc)
                raise WorkerCrashed(
                    f"worker process of shard {self.label} died "
                    f"mid-request ({type(exc).__name__}: {exc}); batch "
                    "replays cycle-accurately in the parent"
                ) from exc

    def _ring_request(self, frame: tuple) -> Optional[tuple]:
        """Attempt the round-trip on the shm ring; ``None`` = use pipe.

        Every ``serve`` frame whose pickled form fits a slot rides the
        ring — a 1-lane datapath word and a multi-session stream batch
        alike.  Oversized frames and control frames keep the pipe.  A
        worker death or wedge mid-wait raises
        :class:`RingClosed`/:class:`RingTimeout`, which the caller maps
        onto the exact pipe-era crash path.
        """
        ring = self._ring
        if ring is None or frame[0] != "serve":
            return None
        payload = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
        if not ring.send_request(payload):
            return None  # oversized (or lane jammed): pipe fallback
        self.ring_requests += 1
        proc = self._proc
        raw = ring.recv_reply(
            self.request_timeout_s,
            alive=(proc.is_alive if proc is not None else None),
        )
        reply = pickle.loads(raw)
        if reply == _PIPE_OVERFLOW:
            # Reply outgrew its slot; the worker shipped it on the pipe.
            if not self._conn.poll(self.request_timeout_s):
                raise EOFError(
                    f"no overflow reply within {self.request_timeout_s}s"
                )
            reply = self._conn.recv()
        return reply

    def _handle_crash(self, exc: BaseException) -> None:
        self._reap(exc)
        if not self._closed:
            self.start()  # reseed: a fresh stateless process

    def _reap(self, exc: BaseException) -> None:
        """Put down and count a dead or wedged worker: close its pipe end
        and ring, join the process, journal one crash, report the
        incident."""
        proc, self._proc = self._proc, None
        conn, self._conn = self._conn, None
        ring, self._ring = self._ring, None
        pid = proc.pid if proc is not None else None
        if conn is not None:
            conn.close()
        if ring is not None:
            ring.close()
        if proc is not None:
            if proc.is_alive():  # wedged, not dead: put it down
                proc.kill()
            proc.join(timeout=10.0)
        self.restarts += 1
        _journal.JOURNAL.record(
            _journal.PROCFLEET_WORKER_CRASH,
            shard=self.label,
            pid=pid,
            error=f"{type(exc).__name__}: {exc}",
        )
        if self.on_incident is not None:
            self.on_incident(exc)

    # -- teardown -------------------------------------------------------
    def close(self) -> None:
        """Stop the worker and unlink everything owned (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            proc, self._proc = self._proc, None
            conn, self._conn = self._conn, None
            ring, self._ring = self._ring, None
        if conn is not None:
            try:
                conn.send(("stop",))
                if conn.poll(2.0):
                    conn.recv()
            except (BrokenPipeError, OSError, EOFError):
                pass
            conn.close()
        if proc is not None:
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - stop not honoured
                proc.kill()
                proc.join(timeout=10.0)
        if ring is not None:
            ring.close()
        self._segment = None
        self.owner.close()

    def __repr__(self) -> str:
        return (
            f"WorkerSession(label={self.label!r}, pid={self.pid}, "
            f"segment={self._segment!r})"
        )
