"""The built-in execution backends: the netlist and the table kernels.

Both implement :class:`~repro.exec.protocol.ExecutionBackend`; the
dispatcher and the fleet hot path only ever see that contract.

* :class:`CycleBackend` wraps a live
  :class:`~repro.hw.machine.HardwareFSM`: every symbol is a real clocked
  cycle (traces, probe counters, exact fault behaviour), read from the
  live RAMs.
* :class:`TableBackend` wraps a :class:`~repro.engine.CompiledFSM`
  snapshot of the tables; each stream call takes its kernel (the
  pure-Python loop or the numpy lane kernel) from the engine's
  lane-count policy, :func:`~repro.engine.streams.stream_kernel`.  Batched
  runs commit their architectural effect back to the source hardware
  through ``commit_engine_run``; anything the tables cannot serve raises
  :class:`~repro.exec.protocol.TableMiss` *before* the hardware is
  touched, so the caller can replay cycle-accurately from the exact
  same state.

:func:`compile_tables` is the one compilation entry point
(``api.compile_fsm`` delegates here): it owns the FSM-vs-hardware
dispatch and the "compiling with the engine off is a contradiction"
rejection that used to live in ``api.py``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.fsm import FSM, Input, State
from ..engine.compiled import CompiledFSM, EngineError, WordRun
from ..engine.streams import StreamBatch, stream_kernel
from ..hw.machine import HardwareFSM
from ..obs.tracing import span as _span
from .protocol import TableMiss
from .registry import canonical, resolve

__all__ = [
    "CycleBackend",
    "TableBackend",
    "compile_tables",
]


class CycleBackend:
    """The Fig. 5 netlist as an execution backend.

    Stateless beyond the hardware it wraps: the datapath *is* the
    state.  Never stale (it reads the live RAMs); every symbol is a real
    clocked cycle, so hardware faults raise out unwrapped (an injected
    SRAM erasure must quarantine, not fall back).
    """

    name = "cycle"

    def __init__(self, hardware: HardwareFSM):
        self.hardware = hardware

    def run_batch(
        self,
        symbols: Sequence[Input],
        start: Optional[State] = None,
        commit: bool = True,
    ) -> WordRun:
        hw = self.hardware
        before = None if commit else hw.state
        with _span("engine.run_batch", backend=self.name, symbols=len(symbols)):
            if start is not None and start != hw.state:
                hw.restore_state(start)
            outputs = []
            visits: Dict[State, int] = {}
            try:
                for symbol in symbols:
                    outputs.append(hw.step(symbol))
                    state = hw.state
                    visits[state] = visits.get(state, 0) + 1
                final = hw.state
            finally:
                # A pure query must not leave the machine mid-word, even
                # when a symbol raised; cycle/visit probe counters keep
                # the work that really happened.
                if not commit:
                    hw.restore_state(before)
            return WordRun(outputs=outputs, final_state=final, visits=visits)

    def run_streams(
        self,
        words: Sequence[Sequence[Input]],
        starts: Optional[Sequence[Optional[State]]] = None,
    ):
        """A per-stream loop of pure-query :meth:`run_batch` calls: the
        netlist has no lane parallelism, but the contract holds —
        identical results, no commit.
        """
        reset = self.hardware.reset_state
        if starts is None:
            starts = [reset] * len(words)
        return [
            self.run_batch(
                word, start=reset if start is None else start, commit=False
            )
            for word, start in zip(words, starts)
        ]

    def invalidate(self) -> None:
        """No-op: the netlist reads the live tables, nothing is cached."""

    def is_stale(self, hw: Optional[HardwareFSM] = None) -> bool:
        return hw is not None and hw is not self.hardware

    def __repr__(self) -> str:
        return f"CycleBackend({self.hardware.name!r})"


class TableBackend:
    """A dense-table snapshot (``repro.engine``) as an execution backend.

    A single stream (:meth:`run_batch`) is the ``run_word`` loop; many
    streams (:meth:`run_streams`) run on the kernel
    :func:`~repro.engine.streams.stream_kernel` picks for their count.
    When bound to live hardware, committed runs fast-forward the
    datapath's architectural state; when lowered straight from a
    behavioural FSM (``hardware is None``) the backend is a pure
    function of ``(start, symbols)``.
    """

    name = "table"

    def __init__(
        self, compiled: CompiledFSM, hardware: Optional[HardwareFSM] = None
    ):
        self.compiled = compiled
        self.hardware = hardware

    # -- construction --------------------------------------------------
    @classmethod
    def from_hardware(cls, hw: HardwareFSM) -> "TableBackend":
        """Snapshot a live datapath's RAMs (version-stamped)."""
        return cls(CompiledFSM.from_hardware(hw), hw)

    @classmethod
    def from_fsm(cls, fsm: FSM) -> "TableBackend":
        """Lower a behavioural machine (no hardware binding)."""
        return cls(CompiledFSM.from_fsm(fsm))

    # -- protocol ------------------------------------------------------
    def run_batch(
        self,
        symbols: Sequence[Input],
        start: Optional[State] = None,
        commit: bool = True,
    ) -> WordRun:
        hw = self.hardware
        if start is None:
            start = hw.state if hw is not None else None
        with _span("engine.run_batch", backend=self.name, symbols=len(symbols)):
            try:
                run = self.compiled.run_word(symbols, start=start)
            except EngineError as exc:
                # The table run mutated nothing: the caller may replay
                # the identical symbols cycle-accurately from the same
                # state.
                raise TableMiss(str(exc)) from exc
            if commit and hw is not None:
                hw.commit_engine_run(run.final_state, len(run), run.visits)
            return run

    def run_streams(
        self,
        words: Sequence[Sequence[Input]],
        starts: Optional[Sequence[Optional[State]]] = None,
    ):
        """Serve many independent streams through the stream plane.

        Per-stream start states (``None`` entries mean reset), never
        commits, results in submission order.  On the numpy kernel the
        whole call is a handful of packed-table gathers
        (:meth:`repro.engine.CompiledFSM.run_stream_batch`); the python
        kernel serves the identical contract as a ``run_word`` loop.
        The kernel is picked once per call and named on the span.
        Anything any stream cannot serve raises :class:`TableMiss` for
        the whole call — the table run mutated nothing, so the caller
        replays per-stream to isolate and reproduce the exact failure.
        ``words`` may be a pre-encoded
        :class:`~repro.engine.StreamBatch` — encoded once, replayed
        against every compiled view that shares the input alphabet (the
        EA scores whole populations this way).
        """
        batched = isinstance(words, StreamBatch)
        n = words.n if batched else len(words)
        kernel = stream_kernel(n)
        with _span(
            "engine.run_streams", backend=self.name, streams=n, kernel=kernel
        ):
            try:
                if batched:
                    run = self.compiled.run_stream_batch(
                        words, starts=starts, kernel=kernel
                    )
                else:
                    run = self.compiled.run_streams(
                        words, starts=starts, kernel=kernel
                    )
                return run.word_runs()
            except EngineError as exc:
                raise TableMiss(str(exc)) from exc

    def run_stream_plane(
        self,
        batch: StreamBatch,
        starts: Optional[Sequence[Optional[State]]] = None,
    ):
        """Run a pre-encoded batch and return the *un-materialised*
        :class:`~repro.engine.StreamRun`.

        For vectorized consumers — the EA's population scorer — that
        read final states or :meth:`~repro.engine.StreamRun.match_counts`
        straight off the packed matrices and must not pay the
        per-symbol ``WordRun`` materialisation that
        :meth:`run_streams` performs.
        """
        kernel = stream_kernel(batch.n)
        with _span(
            "engine.run_streams",
            backend=self.name,
            streams=batch.n,
            kernel=kernel,
        ):
            try:
                return self.compiled.run_stream_batch(
                    batch, starts=starts, kernel=kernel
                )
            except EngineError as exc:
                raise TableMiss(str(exc)) from exc

    def invalidate(self) -> None:
        self.compiled.invalidate()

    def is_stale(self, hw: Optional[HardwareFSM] = None) -> bool:
        """Staleness against ``hw`` (default: the bound hardware)."""
        return self.compiled.is_stale(
            hw if hw is not None else self.hardware
        )

    def __repr__(self) -> str:
        return f"TableBackend({self.compiled!r})"


def compile_tables(machine, preference: str = "auto") -> CompiledFSM:
    """Lower ``machine`` into dense tables (``api.compile_fsm`` core).

    Accepts a behavioural :class:`FSM` or a live :class:`HardwareFSM`;
    ``preference`` takes any :func:`~repro.exec.registry.spellings`
    entry.  The compiled view holds tables only (its stream kernel is
    picked per call), so the preference is validated, not stored: ``"off"`` /
    ``"cycle"`` is rejected — compiling with the engine off is a
    contradiction — and a forced-unavailable backend raises
    :class:`~repro.exec.protocol.BackendUnavailable` at this boundary,
    not deep inside a kernel.
    """
    name = canonical(preference)
    if name == "cycle":
        raise EngineError("cannot compile with engine mode 'off'")
    if name != "auto":
        resolve(name)
    if isinstance(machine, FSM):
        return CompiledFSM.from_fsm(machine)
    if isinstance(machine, HardwareFSM):
        return CompiledFSM.from_hardware(machine)
    raise TypeError(
        f"compile_fsm expects an FSM or HardwareFSM, not "
        f"{type(machine).__name__}"
    )
