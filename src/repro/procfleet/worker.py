"""The worker-process serve loop: a stateless shared-memory table server.

One worker owns one pipe and one control-block slot.  Per ``serve``
frame it (1) reads its slot, re-attaching the published table segment
whenever the epoch moved, (2) refuses epoch-skewed requests with a miss
instead of serving a stale table, (3) runs each of the frame's
``(start, word)`` lanes through a locally rebuilt
:class:`~repro.engine.CompiledFSM`, and (4) replies with one
``(outputs, final state, state visits)`` result per lane, in submission
order, plus the worker-side observability records.  A shard's own
datapath word is simply a 1-lane frame; a coalesced multi-session fleet
batch is one frame, one round-trip, however many sessions it carries.

The worker holds **no architectural state** between requests — the
start states travel in every frame and the parent commits results to
its canonical datapath — so a crashed worker loses nothing and respawn
is just ``fork``/``spawn`` again.

Observability crosses the boundary explicitly: the frame carries the
parent's trace context in the string-carrier form of
:mod:`repro.obs.context` (decoded here with ``remote=True``, so the
foreign span index is never dereferenced), and the reply ships the
journal events and spans recorded while serving — each stamped with
this worker's pid — for the parent to absorb into its own recorders.
"""

from __future__ import annotations

import os
import pickle
from typing import Any, Optional, Tuple

from ..obs import context as _context
from ..obs import journal as _journal
from ..obs import tracing as _tracing
from .ring import FrameRing
from .segments import ControlBlock, attach_segment, decode_segment

__all__ = ["worker_main"]

#: Sent on the ring when the real reply outgrew a slot and follows on
#: the pipe (must match the parent session's marker).
_PIPE_OVERFLOW = ("pipe-overflow",)

#: Idle escalation for the multiplexed (ring + pipe) wait: busy polls,
#: then pipe-polls with a growing timeout.  The cap bounds both worker
#: idle CPU and the worst-case pickup latency of a ring frame arriving
#: after a long lull.
_IDLE_SPINS = 2000
_IDLE_POLL_S = 0.0002
_IDLE_POLL_MAX_S = 0.001


class _AttachedView:
    """One attached segment and the compiled view rebuilt from it."""

    __slots__ = ("epoch", "segment", "shm", "compiled")

    def __init__(self, epoch: int, segment: str, shm, compiled):
        self.epoch = epoch
        self.segment = segment
        self.shm = shm
        self.compiled = compiled

    def close(self) -> None:
        self.shm.close()


def _rebuild(shm) -> Any:
    # Deferred import: under the spawn start method this module is
    # imported during bootstrap, before any table is attached.
    from ..engine.compiled import CompiledFSM

    pieces = decode_segment(shm.buf)
    return CompiledFSM(
        pieces["inputs"],
        pieces["states"],
        pieces["outputs"],
        pieces["next_table"],
        pieces["out_table"],
        pieces["reset_state"],
        source_version=pieces["table_version"],
    )


def _attach(
    ctl: ControlBlock,
    slot: int,
    view: Optional[_AttachedView],
    label: str,
) -> Tuple[Optional[_AttachedView], Optional[str]]:
    """``(current view, miss reason)`` for the slot's published epoch."""
    epoch, segment = ctl.read_slot(slot)
    if segment is None:
        return view, "no table segment published yet"
    if view is not None and view.epoch == epoch and view.segment == segment:
        return view, None
    try:
        shm = attach_segment(segment)
        compiled = _rebuild(shm)
    except (FileNotFoundError, ValueError) as exc:
        # Published then retired before we attached (a republish race):
        # report a miss; the parent republishes and retries.
        return view, f"segment {segment} unavailable: {exc}"
    if view is not None:
        view.close()
    view = _AttachedView(epoch, segment, shm, compiled)
    _journal.JOURNAL.record(
        _journal.PROCFLEET_ATTACH,
        shard=label,
        segment=segment,
        epoch=epoch,
        pid=os.getpid(),
    )
    return view, None


def _serve(
    ctl: ControlBlock,
    slot: int,
    view: Optional[_AttachedView],
    label: str,
    frame: tuple,
) -> Tuple[Optional[_AttachedView], tuple]:
    """One ``serve`` frame: independent ``(start, word)`` lanes served
    from the same attached table snapshot in one round-trip.

    The whole frame succeeds or misses atomically — a worker serves no
    architectural state, so a partial result would only push the
    which-lane-failed bookkeeping onto the parent; a whole-frame miss
    lets it replay per-batch on its own datapath instead.
    """
    from ..engine.compiled import EngineError

    (_, expect_epoch, starts, words, carrier, want_journal,
     want_spans) = frame
    pid = os.getpid()
    journal = _journal.JOURNAL
    tracer = _tracing.TRACER
    journal.enabled = bool(want_journal)
    tracer.enabled = bool(want_spans)
    ctx = _context.extract(carrier) if carrier else None
    token = _context.attach(ctx) if ctx is not None else None
    n_symbols = sum(len(word) for word in words)
    runs = None
    try:
        with _tracing.span(
            "procfleet.worker.serve",
            pid=pid,
            streams=len(words),
            symbols=n_symbols,
        ):
            view, miss = _attach(ctl, slot, view, label)
            if miss is None and expect_epoch is not None:
                if view is not None and view.epoch != expect_epoch:
                    journal.record(
                        _journal.PROCFLEET_EPOCH_SKEW,
                        shard=label,
                        expected=expect_epoch,
                        published=view.epoch,
                        pid=pid,
                    )
                    miss = (
                        f"epoch skew: parent expects {expect_epoch}, "
                        f"slot publishes {view.epoch}"
                    )
            if miss is None:
                try:
                    runs = view.compiled.run_streams(
                        words, starts=starts, kernel="python"
                    ).word_runs()
                except EngineError as exc:
                    miss = str(exc)
            if miss is None:
                journal.record(
                    _journal.PROCFLEET_WORKER_BATCH,
                    shard=label,
                    pid=pid,
                    epoch=view.epoch,
                    symbols=n_symbols,
                    streams=len(words),
                )
    finally:
        if token is not None:
            _context.detach(token)
    events = [e.to_dict() for e in journal.events()] if want_journal else []
    spans = [s.to_dict() for s in tracer.spans] if want_spans else []
    journal.clear()
    with tracer._lock:
        tracer.spans.clear()
    journal.enabled = False
    tracer.enabled = False
    if miss is not None:
        return view, ("miss", miss, events, spans, pid)
    results = [
        (run.outputs, run.final_state, run.visits) for run in runs
    ]
    return view, ("ok", results, view.epoch, events, spans, pid)


def _fingerprint(
    ctl: ControlBlock,
    slot: int,
    view: Optional[_AttachedView],
    label: str,
) -> Tuple[Optional[_AttachedView], tuple]:
    """Answer a divergence probe: the CRC of this worker's *local*
    decoded tables (attaching the published segment first, so a fresh
    replica's probe doubles as its snapshot catch-up)."""
    from ..replica.fingerprint import table_fingerprint

    view, miss = _attach(ctl, slot, view, label)
    if miss is not None or view is None:
        return view, ("fingerprint", None, 0, os.getpid())
    return view, (
        "fingerprint",
        table_fingerprint(view.compiled),
        view.epoch,
        os.getpid(),
    )


def _corrupt(
    ctl: ControlBlock,
    slot: int,
    view: Optional[_AttachedView],
    label: str,
    frame: tuple,
) -> Tuple[Optional[_AttachedView], tuple]:
    """Fault-injection hook for the replica fault suite: flip one entry
    of this worker's local table copy.  The shared segment is untouched
    — this is the single-replica upset that fingerprint sweeps exist to
    detect and a republish heals."""
    view, miss = _attach(ctl, slot, view, label)
    if miss is not None or view is None:
        return view, ("err", miss or "nothing attached", os.getpid())
    table = view.compiled.next_table
    index = frame[1] % len(table)
    # Stay in range so the corrupted replica still *serves* (wrongly):
    # silent wrong answers, not crashes, are what divergence detection
    # is for.
    table[index] = (table[index] + 1) % max(
        1, view.compiled.n_states
    )
    return view, ("corrupted", index, os.getpid())


def _next_frame(conn, ring) -> Tuple[Optional[tuple], bool]:
    """``(frame, arrived_via_ring)``; ``(None, False)`` on pipe EOF.

    Without a ring this is the classic blocking ``conn.recv()``.  With
    one, both transports are multiplexed: a busy-poll phase keeps
    back-to-back ring round-trips at memory latency, then the wait
    degrades into ``conn.poll`` with a growing timeout — the worker
    sleeps *in* the pipe wait, so pipe frames still wake it instantly
    and only a post-lull ring frame pays the (bounded) poll interval.
    """
    if ring is None:
        try:
            return conn.recv(), False
        except (EOFError, OSError):
            return None, False
    idle = 0
    poll_s = 0.0
    while True:
        raw = ring.try_recv_request()
        if raw is not None:
            return pickle.loads(raw), True
        try:
            if conn.poll(poll_s):
                return conn.recv(), False
        except (EOFError, OSError):
            return None, False
        idle += 1
        if idle >= _IDLE_SPINS:
            poll_s = _IDLE_POLL_S if poll_s == 0.0 else min(
                poll_s * 2, _IDLE_POLL_MAX_S
            )


def _send_reply(conn, ring, via_ring: bool, reply: tuple) -> bool:
    """Ship ``reply`` on the transport the request arrived on.

    A ring reply that outgrows its slot is replaced by the overflow
    marker and shipped whole on the pipe — the parent is already
    waiting on the ring, sees the marker, and turns to the pipe.
    Returns ``False`` when the parent is gone (time to exit).
    """
    if via_ring:
        raw = pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
        if ring.send_reply(raw):
            return True
        ring.send_reply(
            pickle.dumps(_PIPE_OVERFLOW, protocol=pickle.HIGHEST_PROTOCOL)
        )
    try:
        conn.send(reply)
        return True
    except (BrokenPipeError, OSError):
        return False


def worker_main(
    conn, ctl_name: str, slot: int, label: str,
    ring_name: Optional[str] = None,
) -> None:
    """Entry point of one worker process (runs until stop/EOF)."""
    # Reset any observability state inherited across a fork: the
    # worker's recorders collect per-request deltas shipped back in the
    # reply, never a copy of the parent's buffers.
    _journal.JOURNAL.enabled = False
    _journal.JOURNAL.clear()
    _tracing.TRACER.enabled = False
    with _tracing.TRACER._lock:
        _tracing.TRACER.spans.clear()
    ctl = ControlBlock.attach(ctl_name)
    ring = FrameRing.attach(ring_name) if ring_name else None
    view: Optional[_AttachedView] = None
    try:
        while True:
            frame, via_ring = _next_frame(conn, ring)
            if frame is None:
                break
            kind = frame[0]
            if kind == "stop":
                try:
                    conn.send(("bye", os.getpid()))
                except (BrokenPipeError, OSError):
                    pass
                break
            try:
                if kind == "ping":
                    reply = ("pong", os.getpid())
                elif kind == "serve":
                    view, reply = _serve(ctl, slot, view, label, frame)
                elif kind == "fingerprint":
                    view, reply = _fingerprint(ctl, slot, view, label)
                elif kind == "corrupt":
                    view, reply = _corrupt(ctl, slot, view, label, frame)
                else:
                    reply = ("err", f"unknown frame kind {kind!r}",
                             os.getpid())
            except Exception as exc:  # never let one request kill us
                reply = ("err", f"{type(exc).__name__}: {exc}", os.getpid())
            if not _send_reply(conn, ring, via_ring, reply):
                break
    finally:
        if view is not None:
            view.close()
        if ring is not None:
            ring.close()
        ctl.close()
        conn.close()
