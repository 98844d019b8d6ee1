"""``table-shm``: the shared-memory process backend behind the one
:class:`~repro.exec.ExecutionBackend` protocol.

The parent side of the split brain.  A :class:`ShmTableBackend` compiles
the bound machine's tables (pure-Python kernel — the segment format is
kernel-agnostic), publishes them through its
:class:`~repro.procfleet.session.WorkerSession`, and serves every call
— ``run_streams``, and ``run_batch`` as its 1-lane case — by one
synchronous ``serve`` round-trip (ring, or pipe).  Everything the
in-process :class:`~repro.exec.TableBackend` promises holds here too:

* committed runs fast-forward the parent's canonical datapath through
  ``commit_engine_run`` — the worker never owns architectural state;
* a miss (unconfigured entry, epoch skew that a republish cannot cure,
  a crashed worker) raises :class:`~repro.exec.TableMiss` *before* the
  hardware is touched, so the caller replays cycle-accurately from the
  identical state;
* staleness is the same ``table_version`` contract — ``is_stale``
  answers from the compiled snapshot, and the dispatcher reacts by
  building a fresh backend, which here means *publish a new segment and
  bump the epoch*: the in-process invalidation generalised across the
  process boundary.

Epoch-skew self-healing: when several backends share one worker slot
(the standalone session does), a serve may find the slot
epoch moved past the backend's publication.  The worker refuses to
serve the stale expectation (miss), and the backend republishes its own
tables once and retries — convergence toward the newest tables, never
silent service from old ones.

:func:`standalone_backend` binds a machine to one lazily created
single-worker session shared process-wide: the dispatcher's
``table-shm`` build when its caller brings no session of its own.
Availability (the ``REPRO_DISABLE_SHM`` kill-switch) is answered by
:func:`repro.exec.registry.unavailable_reason`.
"""

from __future__ import annotations

import atexit
import threading
from typing import Optional, Sequence

from ..core.fsm import FSM, Input, State
from ..engine.compiled import CompiledFSM, WordRun
from ..exec.protocol import TableMiss
from ..hw.machine import HardwareFSM
from ..obs import context as _context
from ..obs import journal as _journal
from ..obs import tracing as _tracing
from ..obs.tracing import span as _span
from .segments import ControlBlock
from .session import WorkerSession

__all__ = ["ShmTableBackend", "standalone_backend"]


class ShmTableBackend:
    """Dense tables in shared memory, served by a worker process."""

    name = "table-shm"

    def __init__(self, machine, session: WorkerSession):
        if isinstance(machine, HardwareFSM):
            self.hardware: Optional[HardwareFSM] = machine
            self.compiled = CompiledFSM.from_hardware(machine)
        elif isinstance(machine, FSM):
            self.hardware = None
            self.compiled = CompiledFSM.from_fsm(machine)
        else:
            raise TypeError(
                f"ShmTableBackend expects an FSM or HardwareFSM, not "
                f"{type(machine).__name__}"
            )
        self.session = session
        session.start()
        self.epoch = session.publish(self.compiled)

    # -- protocol ------------------------------------------------------
    def run_batch(
        self,
        symbols: Sequence[Input],
        start: Optional[State] = None,
        commit: bool = True,
    ) -> WordRun:
        """One stream: a 1-lane :meth:`run_streams` from ``start``
        (default: the bound datapath's live state), committed back to
        the datapath unless ``commit`` is false."""
        hw = self.hardware
        if start is None and hw is not None:
            start = hw.state
        with _span(
            "engine.run_batch", backend=self.name, symbols=len(symbols)
        ):
            run = self.run_streams([symbols], starts=[start])[0]
            if commit and hw is not None:
                hw.commit_engine_run(run.final_state, len(run), run.visits)
            return run

    def run_streams(
        self,
        words: Sequence[Sequence[Input]],
        starts: Optional[Sequence[Optional[State]]] = None,
    ) -> Sequence[WordRun]:
        """Serve independent streams in one ``serve`` round-trip.

        The parent resolves ``None`` start entries to the compiled
        reset state before the frame crosses the boundary (the worker
        never guesses), then ships every ``(start, word)`` lane in a
        single frame.  Same contract as the in-process backends:
        submission order, never commits, and any unserveable lane is a
        :class:`TableMiss` for the whole call.  Epoch skew (another
        backend moved the shared slot on) republishes this backend's
        tables and retries once.
        """
        reset = self.compiled.reset_state
        if starts is None:
            resolved = [reset] * len(words)
        else:
            if len(starts) != len(words):
                raise ValueError(
                    f"{len(starts)} start states for {len(words)} streams"
                )
            # A list, so the worker never mistakes the per-lane starts
            # for one tuple-valued state.
            resolved = [
                reset if start is None else start for start in starts
            ]
        carrier: Optional[dict] = _context.inject({}) or None
        want_journal = _journal.JOURNAL.enabled
        want_spans = _tracing.TRACER.enabled
        with _span(
            "engine.run_streams", backend=self.name, streams=len(words)
        ):
            reply = None
            for attempt in (0, 1):
                reply = self.session.request((
                    "serve",
                    self.epoch,
                    resolved,
                    tuple(tuple(word) for word in words),
                    carrier,
                    want_journal,
                    want_spans,
                ))
                if reply[0] != "miss":
                    break
                self._absorb(reply[2], reply[3])
                if attempt == 0 and "epoch" in reply[1]:
                    self.epoch = self.session.publish(self.compiled)
                    continue
                raise TableMiss(f"shm worker miss: {reply[1]}")
            if reply[0] == "err":
                raise TableMiss(f"shm worker failed: {reply[1]}")
            _, results, _epoch, events, spans, _pid = reply
            self._absorb(events, spans)
            return [
                WordRun(
                    outputs=list(outputs),
                    final_state=final_state,
                    visits=dict(visits),
                )
                for outputs, final_state, visits in results
            ]

    def _absorb(self, events, spans) -> None:
        """Merge the worker-side observability records into the
        parent's recorders (worker spans re-root locally)."""
        if events:
            _journal.JOURNAL.absorb(events)
        if spans:
            _tracing.TRACER.absorb(spans)

    def invalidate(self) -> None:
        """Drop the compiled view; the published segment is retired so
        no late-attaching worker can serve the dead tables."""
        self.compiled.invalidate()
        if self.session.segment is not None:
            self.session.retire()

    def is_stale(self, hw: Optional[HardwareFSM] = None) -> bool:
        return self.compiled.is_stale(
            hw if hw is not None else self.hardware
        )

    def __repr__(self) -> str:
        return (
            f"ShmTableBackend(epoch={self.epoch}, "
            f"session={self.session!r})"
        )


# -- the standalone session --------------------------------------------
#: One lazily created single-worker session shared by every
#: :func:`standalone_backend` in this process (the fleet builds one
#: session per shard instead; see ``procfleet.pool``).
_STANDALONE_LOCK = threading.Lock()
_STANDALONE: Optional[WorkerSession] = None
_STANDALONE_CTL: Optional[ControlBlock] = None


def standalone_session() -> WorkerSession:
    """The process-wide shared session (created on first use)."""
    global _STANDALONE, _STANDALONE_CTL
    with _STANDALONE_LOCK:
        if _STANDALONE is None:
            ctl = ControlBlock.create(1)
            session = WorkerSession(ctl, slot=0, label="shm")
            session.start()
            _STANDALONE_CTL = ctl
            _STANDALONE = session
            atexit.register(_close_standalone)
        return _STANDALONE


def _close_standalone() -> None:
    global _STANDALONE, _STANDALONE_CTL
    with _STANDALONE_LOCK:
        session, _STANDALONE = _STANDALONE, None
        ctl, _STANDALONE_CTL = _STANDALONE_CTL, None
    if session is not None:
        session.close()
    if ctl is not None:
        ctl.close()


def standalone_backend(machine) -> ShmTableBackend:
    """Bind ``machine`` to the shared single-worker session."""
    return ShmTableBackend(machine, standalone_session())
