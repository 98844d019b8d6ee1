"""Policy-driven backend dispatch: every "can X serve this now?" rule.

The :class:`Dispatcher` answers every "which backend serves this run?"
question in one tested place, and the same rule holds before, during
and after a live migration:

* a mode of ``cycle`` (alias ``off``) always serves on the netlist;
* a cached table view is reused only while it is fresh — any RAM
  write, erase, fault injection, retarget or wholesale hardware
  replacement (quarantine) invalidates and recompiles transparently.
  The view serves every stream width (the engine picks the kernel per
  call), so a shard alternating between single-session and wide
  stream batches compiles once per ``table_version``;
* a live migration needs no rule of its own: chunks run only between
  runs, and :mod:`repro.core.incremental`'s blend invariant makes the
  table between two chunks a well-defined machine (every entry M's or
  M''s), so the first run after a chunk gap finds the view stale and
  recompiles it (in process mode: republishes the segment);
* a table miss (:class:`~repro.exec.protocol.TableMiss`) replays on
  the netlist from the exact same state — the table run mutated
  nothing;
* a *forced* backend that is unavailable fails fast at construction
  (:class:`~repro.exec.protocol.BackendUnavailable`), but one that
  becomes unavailable mid-serve (``REPRO_DISABLE_SHM`` flipped in a
  live process) degrades to the netlist instead of failing traffic.

Every decision is journaled as ``dispatch.decision``; degradations
additionally record ``exec.fallback`` with their reason (the health
detectors read it).  The batch-coalescing bound rides along
(``coalesce_limit``) because it is the same policy question: how much
work may one backend decision cover?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..engine.compiled import EngineError
from ..hw.machine import HardwareFSM
from ..obs import journal as _journal
from ..obs.tracing import span as _span
from .backends import CycleBackend, TableBackend
from .protocol import BackendUnavailable, ExecutionBackend
from .registry import canonical, resolve

__all__ = ["Decision", "Dispatcher"]

#: Default bound on batches coalesced into one backend run; bounds both
#: the latency of the first coalesced future and the size of one commit.
DEFAULT_COALESCE = 32


@dataclass(frozen=True)
class Decision:
    """One dispatch decision: which backend, and why.

    ``degraded`` is true when policy forced a *less capable* backend
    than the mode asked for (table miss, compile error, backend became
    unavailable) — the caller's fallback statistics key off it without
    re-deriving the policy.
    """

    backend: ExecutionBackend
    name: str
    reason: str
    degraded: bool = False


class Dispatcher:
    """Backend selection policy for one serving context (one shard).

    ``mode`` is any accepted backend spelling (``auto``, ``cycle`` /
    ``off``, ``table``, ``table-shm`` / ``shm``).
    Construction validates it and fails fast when a forced backend is
    unavailable — a fleet must refuse to start on an impossible
    request, not discover it batch by batch.
    """

    def __init__(
        self,
        mode: str = "auto",
        coalesce_limit: int = DEFAULT_COALESCE,
        shard: Optional[str] = None,
        factory: Optional[Callable] = None,
    ):
        self.mode = canonical(mode)
        resolve(self.mode)  # fail fast on an impossible request
        self.coalesce_limit = coalesce_limit
        self.shard = shard
        #: Optional ``hw -> backend`` hook building the ``table-shm``
        #: backends: a caller that owns per-shard resources (the process
        #: fleet's worker session) binds them through it.  Without one,
        #: ``table-shm`` binds to the process-wide standalone session.
        self._factory = factory
        #: The most recent :class:`Decision` (health-surface vitals).
        self.last_decision: Optional[Decision] = None
        #: Table-serving backends by name, each over the shard's one
        #: compiled view (rebuilt when the view goes stale).
        self._tables: Dict[str, object] = {}
        #: The last table backend a decision served with (the one a
        #: subsequent :meth:`miss` is about).
        self._table: Optional[TableBackend] = None
        self._cycle: Optional[CycleBackend] = None

    # ------------------------------------------------------------------
    def cycle_backend(self, hw: HardwareFSM) -> CycleBackend:
        """The netlist backend for ``hw`` (re-bound after quarantine
        replaces the datapath wholesale)."""
        if self._cycle is None or self._cycle.hardware is not hw:
            self._cycle = CycleBackend(hw)
        return self._cycle

    def select(self, hw: HardwareFSM, streams: int = 1) -> Decision:
        """The backend to serve ``hw``'s next run with, per policy.

        ``streams`` is how many independent streams the caller is about
        to serve in one job; it is recorded on the decision (the table
        backend picks its kernel from the count it is handed per call).
        """
        with _span("exec.dispatch", mode=self.mode) as sp:
            decision = self._select(hw, streams)
            sp.attrs["backend"] = decision.name
            sp.attrs["reason"] = decision.reason
            return decision

    def _select(self, hw: HardwareFSM, streams: int = 1) -> Decision:
        try:
            want = resolve(self.mode)
        except BackendUnavailable:
            # The forced backend vanished mid-serve (environment flip):
            # degrade to the always-available netlist over failing
            # traffic.  Construction-time validation catches the
            # misconfiguration case loudly.
            self._fallback("unavailable", str(self.mode))
            return self._decide(
                self.cycle_backend(hw), "unavailable",
                degraded=True, streams=streams,
            )
        if want == "cycle":
            return self._decide(
                self.cycle_backend(hw), "policy", streams=streams
            )
        try:
            table, reason = self._table_backend(want, hw)
        except EngineError:
            self._fallback("error", want)
            return self._decide(
                self.cycle_backend(hw), "compile-error",
                degraded=True, streams=streams,
            )
        self._table = table
        return self._decide(table, reason, streams=streams)

    def _table_backend(self, want: str, hw: HardwareFSM):
        """``(backend, reason)`` for a table-serving backend, rebuilt
        only when its compiled view has gone stale.

        ``table`` compiles the live RAMs in process; ``table-shm``
        builds through the caller's factory if there is one.
        """
        table = self._tables.get(want)
        if table is not None and not table.is_stale(hw):
            return table, "cached"
        if table is not None:
            table.invalidate()
            del self._tables[want]
        if want == "table":
            table = TableBackend.from_hardware(hw)
        elif self._factory is not None:
            table = self._factory(hw)
        else:
            from ..procfleet.backend import standalone_backend

            table = standalone_backend(hw)
        self._tables[want] = table
        return table, "compiled"

    def miss(self, hw: HardwareFSM) -> Decision:
        """Policy for a :class:`TableMiss`: replay on the netlist.

        The table run mutated nothing, so the netlist replays the
        identical symbols from the identical state — an injected fault
        still raises out of the datapath and still quarantines.
        """
        backend = self._table
        name = backend.name if backend is not None else "table"
        self._fallback("unconfigured", name)
        return self._decide(
            self.cycle_backend(hw), "unconfigured", degraded=True
        )

    def invalidate(self) -> None:
        """Drop every cached backend (quarantine replaced the
        hardware; the next :meth:`select` re-binds and recompiles)."""
        for table in self._tables.values():
            table.invalidate()
        self._tables.clear()
        self._table = None
        self._cycle = None

    # ------------------------------------------------------------------
    def _fallback(self, reason: str, backend_name: str) -> None:
        """Journal one displacement with its reason."""
        _journal.JOURNAL.record(
            _journal.EXEC_FALLBACK,
            shard=self.shard,
            backend=backend_name,
            reason=reason,
        )

    def _decide(
        self,
        backend: ExecutionBackend,
        reason: str,
        degraded: bool = False,
        streams: int = 1,
    ) -> Decision:
        decision = Decision(
            backend=backend,
            name=backend.name,
            reason=reason,
            degraded=degraded,
        )
        self.last_decision = decision
        journal = _journal.JOURNAL
        if journal.enabled:
            journal.record(
                _journal.DISPATCH_DECISION,
                shard=self.shard,
                backend=backend.name,
                reason=reason,
                degraded=degraded,
                streams=streams,
            )
        return decision

    def __repr__(self) -> str:
        return f"Dispatcher(mode={self.mode!r})"
