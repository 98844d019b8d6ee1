"""Dense-table batch execution of FSMs: the serving fast path.

The paper's Fig. 5 datapath is a table-lookup machine — the encoded
input concatenated with the encoded state addresses F-RAM and G-RAM.
That shape vectorizes: :class:`CompiledFSM` lowers an :class:`~repro.core.fsm.FSM`
(or a live :class:`~repro.hw.machine.HardwareFSM` RAM snapshot) into two
flat integer arrays indexed by ``input_code * n_states + state_code``
and steps whole symbol batches through them, instead of paying one
Python ``cycle()`` call — single-driver guard, RAM port model, trace
row, probe bookkeeping — per symbol.

A compiled view holds tables only; which kernel walks them is chosen
per call.  :meth:`CompiledFSM.run_word` is a tight pure-Python loop
over plain lists (one sequential stream, always available, already an
order of magnitude faster than the cycle-accurate netlist), and
:meth:`CompiledFSM.run_streams` steps many independent streams either
through that loop or through numpy lane gathers
(``kernel="python"`` / ``"numpy"``; ``None`` picks by lane count, see
:func:`repro.engine.streams.stream_kernel`).  numpy is optional
(``pip install repro[fast]``), auto-detected, never required.

Staleness is impossible by construction: a compiled view remembers the
``table_version`` of the hardware it was lowered from (bumped by every
committed RAM write, bulk download, fault injection and RST-MUX
retarget) and callers recompile on mismatch; :meth:`CompiledFSM.watch`
additionally hooks ``Reconfigurator.store`` so a view dies the moment a
new program lands in the sequence ROM.  Encodings mirror the datapath's
semantics exactly: an unconfigured F-RAM word raises
:class:`UnconfiguredEntry` (the engine analogue of
``UninitialisedRead``), an unconfigured G-RAM word yields ``None``
output, and a garbage code that the datapath would refuse to decode
raises as well — so a caller can always fall back to the cycle-accurate
netlist and reproduce the exact failure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..core.alphabet import Alphabet
from ..core.fsm import FSM, Input, Output, State
from ..hw.signals import SymbolEncoder
from ..obs import instruments as _instruments

__all__ = [
    "CompiledFSM",
    "EngineError",
    "UnconfiguredEntry",
    "WordRun",
    "numpy_available",
]

#: Sentinel for "no configured word at this address" (F- and G-table).
_UNSET = -1
#: Sentinel for "a committed word holds a garbage code the datapath's
#: decoder would refuse" (G-table only; in the F-table garbage and unset
#: both raise on traversal, so they share ``_UNSET``).
_GARBAGE = -2


class EngineError(RuntimeError):
    """Base class for batch-engine errors."""


class UnconfiguredEntry(EngineError):
    """A traversal hit a table entry the compiled view cannot serve.

    Either the F-RAM word was never written (the datapath would raise
    :class:`~repro.hw.memory.UninitialisedRead`) or a committed word
    holds a code outside its alphabet (the datapath's decoder would
    raise ``ValueError``).  Callers replay the batch on the
    cycle-accurate netlist to reproduce the exact hardware failure.
    """


_numpy_module: Any = None  # cache: None = not probed, False = absent


def _numpy():
    """The numpy module, or ``None`` when absent or explicitly disabled.

    ``REPRO_DISABLE_NUMPY`` is honoured at every call (not just import
    time) so tests and the CI "without numpy" leg can exercise the
    pure-Python path inside a process that has numpy installed.
    """
    if os.environ.get("REPRO_DISABLE_NUMPY"):
        return None
    global _numpy_module
    if _numpy_module is None:
        try:
            import numpy  # noqa: PLC0415 - optional fast path

            _numpy_module = numpy
        except ImportError:  # pragma: no cover - numpy present in CI dev env
            _numpy_module = False
    return _numpy_module or None


def numpy_available() -> bool:
    """True when the numpy fast path can be used right now."""
    return _numpy() is not None


_streams_module: Any = None  # cache: repro.engine.streams once imported


def _streams():
    """The stream-plane module, imported on first use (it imports this
    module, so the import cannot sit at the top) and then cached: a
    per-call ``from .streams import ...`` costs microseconds, which a
    fleet pays on every 1-lane serve."""
    global _streams_module
    if _streams_module is None:
        from . import streams

        _streams_module = streams
    return _streams_module


@dataclass
class WordRun:
    """Result of one sequential engine run over an input word."""

    outputs: List[Optional[Output]]
    final_state: State
    #: Post-transition state occupancy, same semantics as the datapath's
    #: ``state_visits`` probe counter (one count per cycle, keyed by the
    #: state ST-REG latches).
    visits: Dict[State, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.outputs)


class CompiledFSM:
    """An FSM lowered to dense next-state/output tables.

    Flat layout, one integer per entry: address
    ``input_code * n_states + state_code`` — exactly the Fig. 5 RAM
    address split into its two fields.  Codes are the
    :class:`~repro.hw.signals.SymbolEncoder` codes (= alphabet indices),
    so a table compiled from live RAM words needs no per-entry decode.

    Build with :meth:`from_fsm` or :meth:`from_hardware`; execute with
    :meth:`run_word` (one sequential stream) or :meth:`run_streams` /
    :meth:`run_stream_batch` (many independent streams, kernel chosen
    per call).
    """

    def __init__(
        self,
        inputs: Sequence[Input],
        states: Sequence[State],
        outputs: Sequence[Output],
        next_table: List[int],
        out_table: List[int],
        reset_state: State,
        source: object = None,
        source_version: Optional[int] = None,
    ):
        self.inputs = tuple(inputs)
        self.states = tuple(states)
        self.outputs = tuple(outputs)
        self.n_inputs = len(self.inputs)
        self.n_states = len(self.states)
        if len(next_table) != self.n_inputs * self.n_states:
            raise ValueError("next_table size mismatch")
        if len(out_table) != self.n_inputs * self.n_states:
            raise ValueError("out_table size mismatch")
        self.next_table = next_table
        self.out_table = out_table
        self.reset_state = reset_state
        self.source = source
        self.source_version = source_version
        self._invalidated = False
        self._input_code = {sym: i for i, sym in enumerate(self.inputs)}
        self._state_code = {sym: i for i, sym in enumerate(self.states)}
        self._stream_tables = None
        _instruments.ENGINE_COMPILES.inc(
            origin="hardware" if source_version is not None else "fsm",
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_fsm(cls, fsm: FSM) -> "CompiledFSM":
        """Lower a behavioural machine's transition table directly."""
        input_enc = SymbolEncoder(Alphabet(fsm.inputs))
        state_enc = SymbolEncoder(Alphabet(fsm.states))
        output_enc = SymbolEncoder(Alphabet(fsm.outputs))
        n_states = len(fsm.states)
        size = len(fsm.inputs) * n_states
        next_table = [_UNSET] * size
        out_table = [_UNSET] * size
        for trans in fsm.transitions():
            addr = (
                input_enc.encode(trans.input).value * n_states
                + state_enc.encode(trans.source).value
            )
            next_table[addr] = state_enc.encode(trans.target).value
            out_table[addr] = output_enc.encode(trans.output).value
        return cls(
            fsm.inputs,
            fsm.states,
            fsm.outputs,
            next_table,
            out_table,
            fsm.reset_state,
            source=fsm,
        )

    @classmethod
    def from_hardware(cls, hw) -> "CompiledFSM":
        """Snapshot a live datapath's committed RAM words into tables.

        The RAM word values *are* the superset-alphabet indices (the
        :class:`~repro.hw.signals.SymbolEncoder` encoding), so the
        snapshot is a straight copy plus range checks.  Remembers
        ``hw.table_version`` so :meth:`is_stale` detects any later RAM
        mutation — reconfiguration writes, fault injection, erasure —
        as well as RST-MUX retargets.
        """
        inputs = hw.input_enc.alphabet.symbols
        states = hw.state_enc.alphabet.symbols
        outputs = hw.output_enc.alphabet.symbols
        n_states = len(states)
        n_outputs = len(outputs)
        size = len(inputs) * n_states
        next_table = [_UNSET] * size
        out_table = [_UNSET] * size
        version = hw.table_version
        f_words, g_words = hw.f_ram.dump(), hw.g_ram.dump()
        width = hw.state_enc.width
        for i_code in range(len(inputs)):
            for s_code in range(n_states):
                ram_addr = (i_code << width) | s_code  # input @ state
                f_word = f_words.get(ram_addr)
                g_word = g_words.get(ram_addr)
                addr = i_code * n_states + s_code
                if f_word is not None and f_word < n_states:
                    next_table[addr] = f_word
                # f garbage (>= n_states) stays _UNSET: both unwritten and
                # undecodable words make the datapath raise on traversal.
                if g_word is not None:
                    out_table[addr] = g_word if g_word < n_outputs else _GARBAGE
        return cls(
            inputs,
            states,
            outputs,
            next_table,
            out_table,
            hw.reset_state,
            source=hw,
            source_version=version,
        )

    # ------------------------------------------------------------------
    # Invalidation lifecycle
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Mark the view stale; the next :meth:`is_stale` returns True."""
        self._invalidated = True

    def is_stale(self, hw=None) -> bool:
        """Whether this view may no longer reflect its source.

        With ``hw`` given, also checks object identity (a quarantined
        fleet shard rebuilds its datapath wholesale) and the live
        ``table_version`` against the compile-time snapshot.
        """
        if self._invalidated:
            return True
        if hw is not None:
            if hw is not self.source:
                return True
            if self.source_version is not None:
                return hw.table_version != self.source_version
        return False

    def watch(self, reconfigurator) -> "CompiledFSM":
        """Self-invalidate when a program is stored in the sequence ROM."""
        reconfigurator.add_store_hook(
            lambda _name, _program: self.invalidate()
        )
        return self

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _in_code(self, symbol: Input) -> int:
        try:
            return self._input_code[symbol]
        except KeyError:
            raise EngineError(
                f"input symbol {symbol!r} not in the compiled alphabet"
            ) from None

    def _st_code(self, state: State) -> int:
        try:
            return self._state_code[state]
        except KeyError:
            raise EngineError(
                f"state {state!r} not in the compiled state set"
            ) from None

    def run_word(
        self, symbols: Sequence[Input], start: Optional[State] = None
    ) -> "WordRun":
        """Sequential run of one stream; the fleet serving hot loop.

        A single stateful stream cannot be lane-parallelised (each step
        needs the previous step's state), so this is always the tight
        Python loop — already ~an order of magnitude faster than
        clocking the netlist symbol by symbol.
        """
        state_code = self._st_code(
            self.reset_state if start is None else start
        )
        nxt = self.next_table
        out = self.out_table
        n_states = self.n_states
        in_code = self._input_code
        out_syms = self.outputs
        outputs: List[Optional[Output]] = []
        append = outputs.append
        visit_counts = [0] * n_states
        for symbol in symbols:
            try:
                addr = in_code[symbol] * n_states + state_code
            except KeyError:
                raise EngineError(
                    f"input symbol {symbol!r} not in the compiled alphabet"
                ) from None
            ns = nxt[addr]
            oc = out[addr]
            if ns < 0 or oc < _UNSET:
                raise UnconfiguredEntry(
                    f"entry ({symbol!r}, {self.states[state_code]!r}) is "
                    "not serveable by the compiled view"
                )
            append(out_syms[oc] if oc >= 0 else None)
            state_code = ns
            visit_counts[ns] += 1
        visits = {
            self.states[code]: count
            for code, count in enumerate(visit_counts)
            if count
        }
        return WordRun(
            outputs=outputs,
            final_state=self.states[state_code],
            visits=visits,
        )

    # ------------------------------------------------------------------
    # Stream plane (see repro.engine.streams)
    # ------------------------------------------------------------------
    def stream_tables(self):
        """The packed stream-plane tables for this view (built lazily,
        cached — the pack cost is one Python sweep of the table)."""
        if self._stream_tables is None:
            self._stream_tables = _streams().StreamTables(self)
        return self._stream_tables

    def encode_streams(self, words: Sequence[Sequence[Input]]):
        """Encode many input words into a reusable :class:`StreamBatch`.

        Encoding is the per-symbol Python cost of the stream plane; a
        batch encodes once and replays against any compiled view that
        shares this view's input alphabet (EA candidates, new table
        epochs after migration).
        """
        return _streams().StreamBatch.encode(self.inputs, words)

    def run_stream_batch(self, batch, starts=None, kernel=None):
        """Run a pre-encoded :class:`StreamBatch`; the multi-stream
        fast path.

        ``starts`` is ``None`` (every stream from reset), one state
        (every stream from it), or a per-stream sequence where ``None``
        entries mean reset.  ``kernel`` is ``"python"`` (a
        :meth:`run_word` loop), ``"numpy"`` (the lane-gather kernel) or
        ``None`` (pick by lane count,
        :func:`~repro.engine.streams.stream_kernel`).  Returns a lazy
        :class:`StreamRun`; per-stream results are bit-identical to
        :meth:`run_word` on either kernel, and any stream that would
        make :meth:`run_word` raise makes this raise (replay per-stream
        to find which).
        """
        return _streams().run_stream_batch(self, batch, starts, kernel)

    def run_streams(
        self, words: Sequence[Sequence[Input]], starts=None, kernel=None
    ):
        """Run raw input words (see :meth:`run_stream_batch`).

        The pure-Python kernel runs each word through :meth:`run_word`
        directly, so a lane's symbols are looked up once; only the numpy
        kernel encodes a :class:`StreamBatch` first.
        """
        return _streams().run_streams(self, words, starts, kernel)

    # ------------------------------------------------------------------
    def realises(self, fsm: FSM) -> bool:
        """True when the tables hold ``fsm``'s behaviour on its domain."""
        for trans in fsm.transitions():
            if trans.input not in self._input_code:
                return False
            if trans.source not in self._state_code:
                return False
            addr = (
                self._input_code[trans.input] * self.n_states
                + self._state_code[trans.source]
            )
            ns = self.next_table[addr]
            oc = self.out_table[addr]
            if ns < 0 or oc < 0:
                return False
            if self.states[ns] != trans.target:
                return False
            if self.outputs[oc] != trans.output:
                return False
        return True

    def __repr__(self) -> str:
        return (
            f"CompiledFSM({self.n_inputs} inputs x {self.n_states} states)"
        )
