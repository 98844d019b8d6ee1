"""Cycle-accurate model of the Fig. 5 reconfigurable-FSM datapath.

The netlist consists of (paper Sec. 3):

* **F-RAM** / **G-RAM** — lookup memories holding the transition and
  output functions, addressed by the concatenation of the internal input
  ``i'`` and the current state ``s``;
* **ST-REG** — the state register, loaded on every rising clock edge;
* **RST-MUX** — forces the next state to the reset state when the reset
  signal is asserted, "no matter what current state the machine is in";
* **IN-MUX** — selects the external input ``i`` in normal mode and the
  reconfigurator-generated ``ir`` in reconfiguration mode;
* the **Reconfigurator** (see :mod:`repro.hw.reconfigurator`) — drives
  ``ir``, the new values ``H_f`` / ``H_g``, the RAM write enable and the
  mode select.

:class:`HardwareFSM` wires the first four together and exposes one
:meth:`cycle` per clock edge; the symbolic ↔ binary boundary is handled
by the :class:`~repro.hw.signals.SymbolEncoder` instances built from the
superset alphabets, so migrating into a machine with more states only
requires having sized the register and RAMs for the superset up front
(the paper's Def. 4.1 supersets).  Inside a cycle the datapath works on
the encoders' int codes end to end — the RAM address is
``(in_code << state_width) | state_code`` — and decodes only at its
ports (the returned output, the probe counters and the trace row).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from ..core.alphabet import Alphabet
from ..core.fsm import FSM, Input, Output, State
from ..core.program import Program, SequenceRow, Step
from ..obs.tracing import span as _span
from .memory import SyncRAM, UninitialisedRead
from .register import Register
from .signals import SymbolEncoder, address_code
from .trace import TraceRecorder


class ConcurrentUseError(RuntimeError):
    """Two threads drove the same datapath at once.

    A :class:`HardwareFSM` models *one* physical netlist: interleaved
    ``cycle()`` calls from several threads would corrupt ST-REG and the
    RAM write port in ways no real single-clock design can exhibit.  The
    guard turns that silent corruption into this error; give each thread
    its own instance (e.g. one fleet shard per worker) or serialise
    access externally.
    """


@dataclass(frozen=True)
class ReconCommand:
    """The Reconfigurator's outputs for one reconfiguration cycle.

    ``ir`` is the forced internal input, ``hf``/``hg`` the new next-state
    and output values, ``write`` the RAM write enable.  Symbols, not
    bits — the datapath encodes them.
    """

    ir: Input
    hf: State
    hg: Output
    write: bool = True


def _codes(encoder: SymbolEncoder) -> Dict[object, int]:
    """Symbol -> int code of one encoder's alphabet."""
    return {sym: code for code, sym in enumerate(encoder.alphabet.symbols)}


class HardwareFSM:
    """Executable netlist of the Fig. 5 implementation.

    Parameters
    ----------
    fsm:
        The machine whose table is downloaded into F-RAM/G-RAM at build
        time (the compile-time configuration).
    extra_inputs, extra_outputs, extra_states:
        Superset headroom for future migrations; the RAM geometry and
        state-register width are derived from the supersets.
    trace_max_entries:
        When given, bound the cycle trace to a ring buffer of this many
        entries (see :class:`~repro.hw.trace.TraceRecorder`); evicted
        entries are counted in ``trace.dropped``.
    """

    def __init__(
        self,
        fsm: FSM,
        extra_inputs: Iterable[Input] = (),
        extra_outputs: Iterable[Output] = (),
        extra_states: Iterable[State] = (),
        name: Optional[str] = None,
        trace_max_entries: Optional[int] = None,
    ):
        self.name = name or f"hw_{fsm.name}"
        self.input_enc = SymbolEncoder(
            Alphabet(fsm.inputs).union(Alphabet(list(extra_inputs) or fsm.inputs))
        )
        self.output_enc = SymbolEncoder(
            Alphabet(fsm.outputs).union(Alphabet(list(extra_outputs) or fsm.outputs))
        )
        self.state_enc = SymbolEncoder(
            Alphabet(fsm.states).union(Alphabet(list(extra_states) or fsm.states))
        )

        # Int-code views of the superset alphabets: symbol -> code for
        # the ports that encode, code -> symbol for the ones that decode.
        self._input_code = _codes(self.input_enc)
        self._state_code = _codes(self.state_enc)
        self._output_code = _codes(self.output_enc)
        self._states = self.state_enc.alphabet.symbols
        self._outputs = self.output_enc.alphabet.symbols
        self._state_width = self.state_enc.width

        addr_width = self.input_enc.width + self.state_enc.width
        self.f_ram = SyncRAM(addr_width, self.state_enc.width, name="F-RAM")
        self.g_ram = SyncRAM(addr_width, self.output_enc.width, name="G-RAM")
        self.st_reg = Register(
            self.state_enc.width, self.state_enc.encode(fsm.reset_state), name="ST-REG"
        )
        self._reset_code = self._state_code[fsm.reset_state]
        self._retargets = 0
        self.trace = TraceRecorder(max_entries=trace_max_entries)
        self.cycles = 0
        # Probe counters a real implementation could keep in a handful
        # of extra registers (read back by repro.obs.probes).
        self.mode_cycles: Dict[str, int] = {
            "normal": 0, "reconf": 0, "reset": 0,
        }
        self.state_visits: Dict[State, int] = {}
        self.uninitialised_reads = 0
        # Single-driver guard: one non-blocking lock acquire per cycle
        # (cheap) detects overlapping cycle() calls from other threads.
        self._cycle_guard = threading.Lock()
        self._driver: Optional[int] = None
        self._download(fsm)

    @classmethod
    def for_migration(cls, source: FSM, target: FSM) -> "HardwareFSM":
        """A datapath holding ``source``, sized for migrating to ``target``."""
        return cls(
            source,
            extra_inputs=target.inputs,
            extra_outputs=target.outputs,
            extra_states=target.states,
            name=f"hw_{source.name}_to_{target.name}",
        )

    def _download(self, fsm: FSM) -> None:
        f_words: Dict[int, int] = {}
        g_words: Dict[int, int] = {}
        for trans in fsm.transitions():
            addr = self._address(trans.input, trans.source)
            f_words[addr] = self._state_code[trans.target]
            g_words[addr] = self._output_code[trans.output]
        self.f_ram.load(f_words)
        self.g_ram.load(g_words)

    def _address(self, i: Input, s: State) -> int:
        """The RAM address of table entry ``(i, s)``."""
        return address_code(
            self._input_code[i], self._state_code[s], self._state_width
        )

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    @property
    def state(self) -> State:
        """The decoded current state (ST-REG contents)."""
        code = self.st_reg.code
        if code >= len(self._states):
            raise ValueError(f"code {code} names no symbol")
        return self._states[code]

    @property
    def reset_state(self) -> State:
        """The state the RST-MUX currently forces."""
        return self._states[self._reset_code]

    def retarget_reset(self, state: State) -> None:
        """Re-wire the RST-MUX constant (needed when ``S0' ≠ S0``)."""
        self._reset_code = self._state_code[state]
        self._retargets += 1

    @property
    def table_version(self) -> int:
        """Monotonic generation of the machine's lookup configuration.

        Changes whenever the committed F-RAM/G-RAM contents change (any
        reconfiguration write, bulk download, fault-injected upset or
        erasure) or the RST-MUX is retargeted.  The batch engine
        (:mod:`repro.engine`) snapshots this when compiling the RAMs into
        dense tables and recompiles on any mismatch, so a compiled view
        can never serve a stale table.
        """
        return self.f_ram.version + self.g_ram.version + self._retargets

    def table_entry(self, i: Input, s: State) -> Optional[Tuple[State, Output]]:
        """Decode one (F-RAM, G-RAM) entry; ``None`` when unconfigured or
        when a word holds a code that names no symbol (an upset)."""
        addr = self._address(i, s)
        f_word = self.f_ram.peek(addr)
        g_word = self.g_ram.peek(addr)
        if f_word is None or g_word is None:
            return None
        states, outputs = self._states, self._outputs
        if f_word >= len(states) or g_word >= len(outputs):
            return None
        return states[f_word], outputs[g_word]

    def realises(self, fsm: FSM) -> bool:
        """True when the RAMs hold ``fsm``'s table on its whole domain
        (compared as int codes: a garbage word is a mismatch)."""
        f_words, g_words = self.f_ram.dump(), self.g_ram.dump()
        st_code, out_code = self._state_code, self._output_code
        for t in fsm.transitions():
            addr = self._address(t.input, t.source)
            if (f_words.get(addr), g_words.get(addr)) != (
                st_code[t.target], out_code[t.output]
            ):
                return False
        return True

    # ------------------------------------------------------------------
    # Clocking
    # ------------------------------------------------------------------
    def cycle(
        self,
        i: Optional[Input] = None,
        reset: bool = False,
        recon: Optional[ReconCommand] = None,
    ) -> Optional[Output]:
        """One rising clock edge; returns the cycle's decoded output.

        Exactly one of normal operation (``i`` given), reset (``reset``)
        or reconfiguration (``recon`` given) drives the datapath; reset
        composes with either (RST-MUX wins for the next state).
        """
        if recon is not None and i is not None:
            raise ValueError("external input is ignored in reconfiguration mode")
        if recon is None and i is None and not reset:
            raise ValueError("cycle needs an input, a reset, or a recon command")
        if recon is None:
            return self._clock(
                "reset" if reset else "normal", i, i, reset, False, None, None
            )
        return self._clock(
            "reconf", None, recon.ir, reset, bool(recon.write), recon.hf,
            recon.hg,
        )

    def _busy(self, what: str) -> ConcurrentUseError:
        return ConcurrentUseError(
            f"{self.name}: {what} called while thread "
            f"{self._driver} is mid-cycle; HardwareFSM is "
            "single-driver — serialise access or shard per thread"
        )

    def _clock(
        self,
        mode: str,
        external: Optional[Input],
        internal: Optional[Input],
        reset: bool,
        write: bool,
        hf: Optional[State],
        hg: Optional[Output],
    ) -> Optional[Output]:
        """One rising edge on int codes, under the single-driver guard.

        ``internal`` is the IN-MUX output (``ir`` in reconfiguration
        mode, the external input otherwise; ``None`` for a bare reset,
        the one cycle that addresses no RAM word); with ``write`` the
        Reconfigurator drives ``hf``/``hg`` onto the RAM data ports.
        """
        if not self._cycle_guard.acquire(blocking=False):
            raise self._busy("cycle()")
        self._driver = threading.get_ident()
        try:
            states = self._states
            state_code = self.st_reg.code
            if state_code >= len(states):
                raise ValueError(f"code {state_code} names no symbol")
            state_before = states[state_code]
            f_ram, g_ram = self.f_ram, self.g_ram

            output: Optional[Output] = None
            next_code = self._reset_code
            addr: Optional[int] = None
            if internal is not None or mode == "reconf":
                addr = address_code(
                    self._input_code[internal], state_code, self._state_width
                )
                if write:
                    f_word = self._state_code[hf]
                    g_word = self._output_code[hg]
                    f_ram.write_at(addr, f_word)
                    g_ram.write_at(addr, g_word)
                # Combinational RAM read (write-first during a write cycle).
                f_read = f_ram.read_at(addr)
                g_read = g_ram.read_at(addr)
                if g_read is not None:
                    outputs = self._outputs
                    if g_read >= len(outputs):
                        raise ValueError(f"code {g_read} names no symbol")
                    output = outputs[g_read]
                if f_read is not None:
                    # RST-MUX: reset overrides the F-RAM next state.
                    if not reset:
                        next_code = f_read
                elif not reset:
                    self.uninitialised_reads += 1
                    raise UninitialisedRead(
                        f"{self.name}: F-RAM entry ({internal!r}, "
                        f"{state_before!r}) read while unconfigured"
                    )

            self.st_reg.drive_code(next_code)
            f_ram.clock()
            g_ram.clock()
            self.st_reg.clock()
            self.cycles += 1
            self.mode_cycles[mode] += 1
            if next_code >= len(states):
                raise ValueError(f"code {next_code} names no symbol")
            state_after = states[next_code]
            visits = self.state_visits
            visits[state_after] = visits.get(state_after, 0) + 1
            if reset:
                output = None
            self.trace.record_row((
                self.cycles - 1, mode, external, internal, state_before,
                state_after, output, write, addr,
            ))
            return output
        finally:
            self._driver = None
            self._cycle_guard.release()

    def commit_engine_run(
        self,
        final_state: State,
        n_cycles: int,
        state_visits: Optional[Dict[State, int]] = None,
    ) -> None:
        """Fast-forward the architectural state after a batch-engine run.

        The batch engine (:mod:`repro.engine`) executes normal-mode
        symbols against a compiled snapshot of the RAM tables instead of
        clocking the netlist; this commits the *architectural* effect of
        those cycles back into the datapath: ST-REG latches the final
        state and the cycle / mode-occupancy / state-visit probe counters
        advance as if the symbols had been stepped.  Per-cycle trace
        entries are intentionally not synthesised (the engine is the
        fast path; drop to :meth:`step` when waveforms matter).

        Holds the single-driver guard: committing concurrently with a
        ``cycle()`` from another thread raises ``ConcurrentUseError``
        exactly like overlapping clocking would.
        """
        if n_cycles < 0:
            raise ValueError("n_cycles must be non-negative")
        if not self._cycle_guard.acquire(blocking=False):
            raise self._busy("commit_engine_run()")
        self._driver = threading.get_ident()
        try:
            self.st_reg.drive_code(self._state_code[final_state])
            self.st_reg.clock()
            self.cycles += n_cycles
            self.mode_cycles["normal"] += n_cycles
            for state, count in (state_visits or {}).items():
                self.state_visits[state] = (
                    self.state_visits.get(state, 0) + count
                )
        finally:
            self._driver = None
            self._cycle_guard.release()

    def restore_state(self, state: State) -> None:
        """Latch ``state`` into ST-REG without a service cycle.

        The netlist backend (:mod:`repro.exec`) uses it to start a run
        from a given state and to put the pre-call state back after a
        pure-query run: the architectural state moves, but no cycle is
        clocked — cycle, mode-occupancy and state-visit probe counters
        are untouched, because repositioning ST-REG is not service.
        Holds the single-driver guard like any other ST-REG mutation.
        """
        code = self._state_code[state]
        if not self._cycle_guard.acquire(blocking=False):
            raise self._busy("restore_state()")
        self._driver = threading.get_ident()
        try:
            self.st_reg.drive_code(code)
            self.st_reg.clock()
        finally:
            self._driver = None
            self._cycle_guard.release()

    def step(self, i: Input) -> Output:
        """Normal-mode cycle under external input ``i``."""
        return self.cycle(i=i)

    def run(self, inputs: Iterable[Input]) -> list:
        """Normal-mode run over an input word."""
        return [self.step(i) for i in inputs]

    def apply_row(self, row: SequenceRow) -> Optional[Output]:
        """Execute one Table-1-style reconfiguration sequence row."""
        if row.reset:
            return self.cycle(reset=True)
        return self._clock(
            "reconf", None, row.hi, False, bool(row.write), row.hf, row.hg
        )

    def apply_steps(self, steps: Iterable[Step]) -> None:
        """Clock reconfiguration-program steps, one cycle each.

        Each step runs as its :meth:`~repro.core.program.Program.to_sequence`
        row would under :meth:`apply_row` — a reset step asserts the
        reset, any other forces its transition's input and drives its
        target/output with the write enable of its kind — without
        building the rows.
        """
        clock = self._clock
        for step in steps:
            trans = step.transition
            if trans is None:  # a reset step
                clock("reset", None, None, True, False, None, None)
            else:
                clock(
                    "reconf", None, trans.input, False, step.kind.writes,
                    trans.target, trans.output,
                )

    def run_program(self, program: Program) -> None:
        """Replay a reconfiguration program cycle-accurately.

        Re-wires the RST-MUX to the target's reset state first, then
        drives the derived reconfiguration sequence row by row.  After
        the call the RAMs realise the program's target machine (verified
        by the integration tests, not assumed).
        """
        with _span(
            "hw.run_program",
            machine=self.name,
            method=program.method,
            length=len(program),
        ):
            self.retarget_reset(program.target.reset_state)
            self.apply_steps(program.steps)

    def __repr__(self) -> str:
        return (
            f"HardwareFSM(name={self.name!r}, state={self.state!r}, "
            f"cycles={self.cycles})"
        )
