"""The execution-backend contract and the exec-layer error taxonomy.

The paper's Fig. 5 datapath is one *substrate* for running a
reconfigurable FSM; the batch engine added dense tables, in process or
in shared memory behind worker processes.  :class:`ExecutionBackend`
pins down what the serving stack above (:mod:`repro.fleet`,
:mod:`repro.api`, the CLI) uses of all three: ``name``, ``run_batch``,
``run_streams``, ``invalidate`` and ``is_stale``.

Error taxonomy: every exec-layer error subclasses
:class:`repro.engine.EngineError`, so callers that predate this layer
(``except EngineError``) keep working unchanged.  :class:`TableMiss` is
the one the fleet hot path routes on — "this table backend cannot serve
the batch; replay it on the cycle-accurate substrate".
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence, runtime_checkable

from ..core.fsm import Input, State
from ..engine.compiled import EngineError, WordRun
from ..hw.machine import HardwareFSM

__all__ = [
    "BackendUnavailable",
    "ExecError",
    "ExecutionBackend",
    "TableMiss",
]


class ExecError(EngineError):
    """Base class for execution-layer errors.

    Subclasses :class:`repro.engine.EngineError` so pre-exec callers
    (``except EngineError``) observe the same failure surface.
    """


class BackendUnavailable(ExecError):
    """A concretely requested backend cannot run right now.

    Raised by the shared resolver when a backend is *forced* — by name
    or by ``REPRO_BACKEND`` — but its
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


@runtime_checkable
class ExecutionBackend(Protocol):
    """What every execution substrate implements.

    ``name`` is static identity; the four methods are the whole runtime
    contract.  Outputs, final states and visit counts must be
    bit-identical across backends for any symbol stream both can serve
    — the differential suite in ``tests/exec`` enforces this across
    every available backend, not a hand-picked pair.
    """

    name: str

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
        The table backends amortize the call across streams; the
        netlist serves it as exactly that loop.
        """
        ...

    def invalidate(self) -> None:
        """Drop any cached view of the source tables (no-op when the
        backend reads the live tables directly)."""
        ...

    def is_stale(self, hw: Optional[HardwareFSM] = None) -> bool:
        """Whether this backend can no longer serve ``hw`` (default: the
        bound hardware) without being rebuilt."""
        ...
