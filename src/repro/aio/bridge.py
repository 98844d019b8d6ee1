"""The completion-callback seam: fleet futures → event-loop futures.

``submit_async`` is the one awaitable entry point in front of
:meth:`repro.fleet.FSMFleet.submit`.  Three things distinguish it from
"call submit() and wrap the future":

**Loop-aware completion.**  The shard worker resolves its
``concurrent.futures.Future`` on the worker thread; a done-callback
trampolines the result onto the submitting loop with
``call_soon_threadsafe``.  No thread ever blocks in ``result()`` —
ten thousand in-flight requests cost ten thousand pending asyncio
futures, not ten thousand parked threads.

**Cancellation propagates to the queue slot.**  Cancelling the
awaitable cancels the underlying future; the shard worker locks every
future into RUNNING before serving (``set_running_or_notify_cancel``),
so a batch cancelled while still queued is *skipped* — its slot drains
without a symbol stepping — while a batch already being served runs to
completion and the late cancel is a no-op.  Either way nothing leaks
and nothing double-resolves.

**Admission is awaited, not raised.**  The sync contract on a full
shard queue is an immediate :class:`~repro.fleet.FleetOverloaded` —
correct for a caller with its own retry loop, hostile inside a
coroutine (the idiomatic response is try/sleep/retry, which burns the
loop).  ``ingest="wait"`` parks the submitter on a per-fleet-per-loop
wakeup that completion callbacks pulse (with a short poll fallback so
a wakeup lost to a non-completion drain path cannot strand anyone) and
resubmits when a slot frees.  ``ingest="reject"`` restores the sync
semantics; ``admission_timeout_s`` bounds the wait with
:class:`AdmissionTimeout`.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Future as _CFuture
from typing import Dict, Hashable, Optional, Sequence

__all__ = ["AdmissionTimeout", "submit_async"]

#: Fallback poll interval while awaiting admission: waiters are pulsed
#: by completion callbacks, the poll only covers slots freed through
#: paths that complete no future (e.g. a drained control item).
ADMISSION_POLL_S = 0.02

#: Ingestion policies (mirrored by ``Options.ingest``).
INGEST_MODES = ("wait", "reject")


class AdmissionTimeout(TimeoutError):
    """``admission_timeout_s`` elapsed while awaiting a queue slot."""

    def __init__(self, shard: int, waited_s: float):
        super().__init__(
            f"no queue slot on shard {shard} within {waited_s:.3f}s"
        )
        self.shard = shard
        self.waited_s = waited_s


class _AdmissionGate:
    """One loop's wakeup for submitters awaiting a saturated fleet.

    Completion callbacks (running on shard worker threads) pulse the
    gate through ``call_soon_threadsafe``; waiters re-check admission
    on every pulse.  A single event per (fleet, loop) is deliberately
    coarse — a freed slot on *any* shard wakes everyone, and the ones
    still saturated simply park again — because precision here buys
    nothing: resubmission is the cheap part.
    """

    __slots__ = ("_loop", "_event", "waiters")

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop
        self._event = asyncio.Event()
        self.waiters = 0

    def pulse_threadsafe(self) -> None:
        """Wake current waiters (callable from any thread)."""
        self._loop.call_soon_threadsafe(self._event.set)

    async def wait(self, timeout_s: float) -> None:
        self.waiters += 1
        try:
            try:
                await asyncio.wait_for(self._event.wait(), timeout_s)
            except asyncio.TimeoutError:
                pass
            self._event.clear()
        finally:
            self.waiters -= 1


def _gate(fleet, loop: asyncio.AbstractEventLoop) -> _AdmissionGate:
    """The fleet's admission gate for ``loop`` (created on first use).

    Gates live on the fleet instance, keyed by loop: they hold loop
    primitives, so a fleet shared between two loops needs one each.
    Only coroutines running *on* ``loop`` touch its gate, so creation
    needs no lock.
    """
    gates: Dict[asyncio.AbstractEventLoop, _AdmissionGate]
    gates = fleet.__dict__.setdefault("_aio_admission_gates", {})
    gate = gates.get(loop)
    if gate is None:
        gate = gates[loop] = _AdmissionGate(loop)
    return gate


def _bridge(cf: _CFuture, loop: asyncio.AbstractEventLoop) -> asyncio.Future:
    """An asyncio future completed by ``cf``'s done-callback.

    Completion crosses threads via ``call_soon_threadsafe``;
    cancellation crosses the other way synchronously (``cf.cancel()``
    on the loop thread).  Both directions tolerate the race where each
    side settled first.
    """
    af = loop.create_future()

    def _copy(done: _CFuture) -> None:
        if af.cancelled():
            # The awaitable side was cancelled but the worker had
            # already locked the batch RUNNING: the serve completed,
            # the result is simply unobserved.
            return
        if done.cancelled():
            af.cancel()
        else:
            exc = done.exception()
            if exc is not None:
                af.set_exception(exc)
            else:
                af.set_result(done.result())

    cf.add_done_callback(
        lambda done: loop.call_soon_threadsafe(_copy, done)
    )

    def _propagate_cancel(done: asyncio.Future) -> None:
        if done.cancelled():
            cf.cancel()

    af.add_done_callback(_propagate_cancel)
    return af


async def submit_async(
    fleet,
    shard_key: Hashable,
    symbols: Sequence,
    session: Optional[Hashable] = None,
    *,
    ingest: str = "wait",
    admission_timeout_s: Optional[float] = None,
):
    """Submit one batch from a coroutine; resolves to the output word.

    Everything :meth:`~repro.fleet.FSMFleet.submit` validates and
    raises (empty batches, out-of-alphabet symbols, ``FleetClosed``)
    behaves identically here — only the waiting is different (see the
    module docstring).
    """
    from ..fleet.pool import FleetOverloaded

    if ingest not in INGEST_MODES:
        raise ValueError(
            f"unknown ingest mode {ingest!r}; expected one of "
            f"{INGEST_MODES}"
        )
    loop = asyncio.get_running_loop()
    gate = _gate(fleet, loop)
    deadline = (
        loop.time() + admission_timeout_s
        if admission_timeout_s is not None
        else None
    )
    while True:
        try:
            cf = fleet.submit(shard_key, symbols, session=session)
            break
        except FleetOverloaded as exc:
            if ingest == "reject":
                raise
            if deadline is not None and loop.time() >= deadline:
                raise AdmissionTimeout(
                    exc.shard, admission_timeout_s
                ) from exc
            timeout = ADMISSION_POLL_S
            if deadline is not None:
                timeout = min(timeout, max(deadline - loop.time(), 0.0))
            await gate.wait(timeout)
    if gate.waiters:
        # Someone is parked on admission: pulse the gate when this
        # batch completes (completion == a queue slot drained).
        cf.add_done_callback(lambda _done: gate.pulse_threadsafe())
    return await _bridge(cf, loop)
