"""Multi-process serving fleet with shared-memory dense tables.

The thread fleet (:mod:`repro.fleet`) cannot scale pure-Python table
serving past one core: at ``link_latency_s=0`` the GIL serialises every
shard's kernel loop (the ``gil_bound_reference`` rows in
``BENCH_fleet_throughput.json`` record ~1x at 4 workers).  This package
breaks that ceiling with worker *processes*:

* :mod:`~repro.procfleet.segments` — the dense next-state/output tables
  of a :class:`~repro.engine.CompiledFSM` serialised into a
  ``multiprocessing.shared_memory`` segment (immutable once published),
  plus a small shared *control block* whose per-shard slots carry the
  current ``(epoch, segment name)`` under a seqlock;
* :mod:`~repro.procfleet.worker` — the stateless worker-process loop:
  each request frame carries ``(start state, symbols, expected epoch)``,
  the worker attaches the published segment (re-attaching whenever the
  epoch moved) and replies with outputs, final state and the worker-side
  journal/span records;
* :mod:`~repro.procfleet.session` — the parent-side lifetime of one
  worker process: publish/retire segments, synchronous request/reply
  over a pipe, crash detection + respawn;
* :mod:`~repro.procfleet.ring` — a fixed-slot shared-memory ring
  (seqlock-stamped request/reply slots) that carries small ``serve``
  frames without the ~100-200µs pipe+pickle syscall floor; oversized,
  stream and control frames fall back to the pipe, and crash/wedge
  detection is unchanged (``REPRO_DISABLE_RING`` reverts to pure pipe);
* :mod:`~repro.procfleet.backend` — :class:`ShmTableBackend`, the
  ``table-shm`` :class:`~repro.exec.ExecutionBackend`: the parent keeps
  the canonical datapath and commits worker results back through
  ``commit_engine_run`` exactly like the in-process table backends, so
  the Dispatcher's staleness / miss policy applies unchanged;
* :mod:`~repro.procfleet.pool` — :class:`ProcessFleet`, the
  ``fleet_mode="process"`` front-end preserving the full
  :class:`~repro.fleet.FSMFleet` contract (FIFO, backpressure,
  quarantine, rolling migration with the journal's zero-downtime proof).

Design rule: workers are **stateless table servers**.  All architectural
state (ST-REG, cycle/visit counters) stays in the parent's
``HardwareFSM``; a SIGKILLed worker loses nothing — the pending batch
replays cycle-accurately in the parent and a fresh process is spawned.
"""

from .backend import ShmTableBackend
from .pool import ProcessFleet
from .ring import FrameRing, ring_enabled
from .segments import ControlBlock, SegmentOwner, encode_segment
from .session import WorkerCrashed, WorkerSession

__all__ = [
    "ControlBlock",
    "FrameRing",
    "ProcessFleet",
    "SegmentOwner",
    "ShmTableBackend",
    "WorkerCrashed",
    "WorkerSession",
    "encode_segment",
    "ring_enabled",
]
