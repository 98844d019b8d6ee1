"""The execution-backend protocol: one contract, many substrates.

The paper's Fig. 5 datapath is one *substrate* for running a
reconfigurable FSM.  The batch engine added dense tables (in process,
or in shared memory behind worker processes), and related work runs
the same semantics on replicated services and ReRAM crossbars.  This
module pins down the contract every substrate implements so the
serving stack above (:mod:`repro.fleet`, :mod:`repro.api`, the CLI)
never needs to know which one it is talking to:

* :class:`ExecutionBackend` — ``step`` / ``run_batch`` / ``snapshot`` /
  ``restore`` / ``invalidate``;
* :class:`Capabilities` — declared, static flags the dispatcher's
  policy reads (*can* this backend batch?  is it cycle-accurate?);
* :class:`ExecSnapshot` — the architectural state a backend can be
  restored to: the ST-REG contents plus the RAM ``table_version`` the
  state was captured against (a restore against mutated tables raises
  :class:`StaleSnapshot` instead of silently resuming on wrong words).

Error taxonomy: every exec-layer error subclasses
:class:`repro.engine.EngineError`, so callers that predate this layer
(``except EngineError``) keep working unchanged.  :class:`TableMiss` is
the one the fleet hot path routes on — "this table backend cannot serve
the batch; replay it on the cycle-accurate substrate".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Protocol, Sequence, runtime_checkable

from ..core.fsm import Input, Output, State
from ..engine.compiled import EngineError, WordRun

__all__ = [
    "BackendUnavailable",
    "Capabilities",
    "ExecError",
    "ExecSnapshot",
    "ExecutionBackend",
    "StaleSnapshot",
    "TableMiss",
]


class ExecError(EngineError):
    """Base class for execution-layer errors.

    Subclasses :class:`repro.engine.EngineError` so pre-exec callers
    (``except EngineError``) observe the same failure surface.
    """


class BackendUnavailable(ExecError):
    """A concretely requested backend cannot run right now.

    Raised by the shared resolver when a backend is *forced* — by name,
    by ``backend=`` option or by ``REPRO_BACKEND`` — but its
    prerequisites are missing (e.g. ``table-shm`` with
    ``REPRO_DISABLE_SHM`` set).  Auto selection never raises
    this: it only considers available backends.
    """


class TableMiss(ExecError):
    """A table backend hit an entry it cannot serve.

    Wraps the engine's :class:`~repro.engine.UnconfiguredEntry` /
    out-of-alphabet errors at the dispatch boundary.  The table run
    never mutates the hardware, so the caller replays the same symbols
    on the cycle-accurate backend and reproduces the exact hardware
    behaviour (including a real fault raising out of the datapath).
    """


class StaleSnapshot(ExecError):
    """A snapshot was restored against mutated tables.

    The snapshot's ``table_version`` no longer matches the live
    hardware: resuming would run the checkpointed state on words it was
    never captured against.
    """


@dataclass(frozen=True)
class Capabilities:
    """Static capability flags a backend declares at registration.

    The dispatcher's policy branches on these — never on backend
    *types* — so a new substrate slots in by declaring what it can do.
    """

    #: Can serve a whole coalesced run — every lane of it, the
    #: datapath's included — in one ``run_streams`` call (the fleet
    #: batches only through backends that say yes).
    batchable: bool = False
    #: Clocks the real netlist: per-cycle traces, probe counters and
    #: exact fault behaviour (``UninitialisedRead``, decoder errors).
    cycle_accurate: bool = False

    def flags(self) -> Dict[str, bool]:
        """The flags as a dict, in declaration order (CLI listing)."""
        return {
            "batchable": self.batchable,
            "cycle_accurate": self.cycle_accurate,
        }


@dataclass(frozen=True)
class ExecSnapshot:
    """Restorable architectural state of a backend.

    ``state`` is the decoded ST-REG contents; ``table_version`` is the
    :attr:`~repro.hw.machine.HardwareFSM.table_version` the state was
    captured against (``None`` for a backend not bound to live
    hardware, e.g. tables lowered straight from a behavioural FSM).
    """

    state: State
    table_version: Optional[int] = None


@runtime_checkable
class ExecutionBackend(Protocol):
    """What every execution substrate implements.

    ``name`` and ``capabilities`` are static identity; the five methods
    are the whole runtime contract.  Outputs, final states and visit
    counts must be bit-identical across backends for any symbol stream
    both can serve — the differential suite in ``tests/exec`` enforces
    this across every *registered* backend, not a hand-picked pair.
    """

    name: str
    capabilities: Capabilities

    def step(self, symbol: Input) -> Optional[Output]:
        """Serve one symbol, advancing the backend's state."""
        ...

    def run_batch(
        self,
        symbols: Sequence[Input],
        start: Optional[State] = None,
        commit: bool = True,
    ) -> WordRun:
        """Serve a symbol stream from ``start`` (default: live state).

        With ``commit`` the architectural state (ST-REG, cycle and
        visit counters) advances as if the symbols had been stepped;
        without it the pre-call state is restored, making the run a
        pure query.
        """
        ...

    def run_streams(
        self,
        words: Sequence[Sequence[Input]],
        starts: Optional[Sequence[Optional[State]]] = None,
    ) -> Sequence[WordRun]:
        """Serve many *independent* streams, never committing state.

        Stream ``i`` runs ``words[i]`` from ``starts[i]`` (``None``
        entries — or ``starts=None`` — mean the backend's reset state).
        Results are in submission order and bit-identical to a loop of
        ``run_batch(words[i], start=starts[i], commit=False)``; any
        stream the backend cannot serve raises :class:`TableMiss` for
        the whole call (the caller replays per-stream to isolate it).
        Batchable backends amortize the call across streams; the
        netlist serves it as exactly that loop.
        """
        ...

    def snapshot(self) -> ExecSnapshot:
        """Capture the restorable architectural state."""
        ...

    def restore(self, snap: ExecSnapshot) -> None:
        """Restore a snapshot; :class:`StaleSnapshot` on version skew."""
        ...

    def invalidate(self) -> None:
        """Drop any cached view of the source tables (no-op when the
        backend reads the live tables directly)."""
        ...
