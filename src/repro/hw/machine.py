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
(the paper's Def. 4.1 supersets).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from ..core.alphabet import Alphabet
from ..core.fsm import FSM, Input, Output, State
from ..core.program import Program, SequenceRow
from ..obs.tracing import span as _span
from .memory import SyncRAM, UninitialisedRead
from .register import Register, mux2
from .signals import BitVector, SymbolEncoder, ram_address
from .trace import TraceEntry, TraceRecorder


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

        addr_width = self.input_enc.width + self.state_enc.width
        self.f_ram = SyncRAM(addr_width, self.state_enc.width, name="F-RAM")
        self.g_ram = SyncRAM(addr_width, self.output_enc.width, name="G-RAM")
        self.st_reg = Register(
            self.state_enc.width, self.state_enc.encode(fsm.reset_state), name="ST-REG"
        )
        self._reset_code = self.state_enc.encode(fsm.reset_state)
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
            addr = self._address(trans.input, trans.source).value
            f_words[addr] = self.state_enc.encode(trans.target).value
            g_words[addr] = self.output_enc.encode(trans.output).value
        self.f_ram.load(f_words)
        self.g_ram.load(g_words)

    def _address(self, i: Input, s: State) -> BitVector:
        return ram_address(self.input_enc.encode(i), self.state_enc.encode(s))

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    @property
    def state(self) -> State:
        """The decoded current state (ST-REG contents)."""
        return self.state_enc.decode(self.st_reg.q)

    @property
    def reset_state(self) -> State:
        """The state the RST-MUX currently forces."""
        return self.state_enc.decode(self._reset_code)

    def retarget_reset(self, state: State) -> None:
        """Re-wire the RST-MUX constant (needed when ``S0' ≠ S0``)."""
        self._reset_code = self.state_enc.encode(state)
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
        addr = self._address(i, s).value
        f_word = self.f_ram.peek(addr)
        g_word = self.g_ram.peek(addr)
        if f_word is None or g_word is None:
            return None
        states = self.state_enc.alphabet.symbols
        outputs = self.output_enc.alphabet.symbols
        if f_word >= len(states) or g_word >= len(outputs):
            return None
        return states[f_word], outputs[g_word]

    def realises(self, fsm: FSM) -> bool:
        """True when the RAMs hold ``fsm``'s table on its whole domain
        (compared as int codes: a garbage word is a mismatch)."""
        f_words, g_words = self.f_ram.dump(), self.g_ram.dump()
        in_code = self.input_enc.alphabet.index
        st_code = self.state_enc.alphabet.index
        out_code = self.output_enc.alphabet.index
        width = self.state_enc.width
        for t in fsm.transitions():
            addr = (in_code(t.input) << width) | st_code(t.source)
            if (f_words.get(addr), g_words.get(addr)) != (
                st_code(t.target), out_code(t.output)
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

        if not self._cycle_guard.acquire(blocking=False):
            raise ConcurrentUseError(
                f"{self.name}: cycle() called while thread "
                f"{self._driver} is mid-cycle; HardwareFSM is "
                "single-driver — serialise access or shard per thread"
            )
        self._driver = threading.get_ident()
        try:
            return self._guarded_cycle(i=i, reset=reset, recon=recon)
        finally:
            self._driver = None
            self._cycle_guard.release()

    def _guarded_cycle(
        self,
        i: Optional[Input],
        reset: bool,
        recon: Optional[ReconCommand],
    ) -> Optional[Output]:
        mode = "reconf" if recon is not None else ("reset" if reset else "normal")
        state_before = self.state

        if recon is not None:
            internal = recon.ir
            addr = self._address(internal, state_before)
            if recon.write:
                f_word = self.state_enc.encode(recon.hf)
                g_word = self.output_enc.encode(recon.hg)
                self.f_ram.write(addr, f_word)
                self.g_ram.write(addr, g_word)
        else:
            internal = i
            addr = self._address(internal, state_before) if i is not None else None

        # Combinational RAM read (write-first during a write cycle).
        output: Optional[Output] = None
        next_code: Optional[BitVector] = None
        if addr is not None:
            f_read = self.f_ram.read(addr)
            g_read = self.g_ram.read(addr)
            if g_read is not None:
                output = self.output_enc.decode(
                    BitVector(g_read, self.output_enc.width)
                )
            if f_read is not None:
                next_code = BitVector(f_read, self.state_enc.width)
            elif not reset:
                self.uninitialised_reads += 1
                raise UninitialisedRead(
                    f"{self.name}: F-RAM entry ({internal!r}, {state_before!r}) "
                    "read while unconfigured"
                )

        # RST-MUX: reset overrides the F-RAM next state.
        if reset or next_code is None:
            self.st_reg.drive(self._reset_code)
        else:
            self.st_reg.drive(mux2(reset, self._reset_code, next_code))

        self.f_ram.clock()
        self.g_ram.clock()
        self.st_reg.clock()
        self.cycles += 1
        self.mode_cycles[mode] += 1
        state_after = self.state
        self.state_visits[state_after] = (
            self.state_visits.get(state_after, 0) + 1
        )

        self.trace.record(
            TraceEntry(
                cycle=self.cycles - 1,
                mode=mode,
                external_input=i,
                internal_input=internal if recon is not None else i,
                state_before=state_before,
                state_after=state_after,
                output=output if not reset else None,
                write=bool(recon and recon.write),
                address=None if addr is None else addr.value,
            )
        )
        return None if reset else output

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
            raise ConcurrentUseError(
                f"{self.name}: commit_engine_run() called while thread "
                f"{self._driver} is mid-cycle; HardwareFSM is "
                "single-driver — serialise access or shard per thread"
            )
        self._driver = threading.get_ident()
        try:
            self.st_reg.drive(self.state_enc.encode(final_state))
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

        The restore half of the execution layer's snapshot/restore
        protocol (:mod:`repro.exec`): the architectural state moves,
        but no cycle is clocked — cycle, mode-occupancy and state-visit
        probe counters are untouched, because restoring a checkpoint is
        not service.  Holds the single-driver guard like any other
        ST-REG mutation.
        """
        code = self.state_enc.encode(state)
        if not self._cycle_guard.acquire(blocking=False):
            raise ConcurrentUseError(
                f"{self.name}: restore_state() called while thread "
                f"{self._driver} is mid-cycle; HardwareFSM is "
                "single-driver — serialise access or shard per thread"
            )
        self._driver = threading.get_ident()
        try:
            self.st_reg.drive(code)
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
        return self.cycle(
            recon=ReconCommand(ir=row.hi, hf=row.hf, hg=row.hg, write=row.write)
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
            for row in program.to_sequence():
                self.apply_row(row)

    def __repr__(self) -> str:
        return (
            f"HardwareFSM(name={self.name!r}, state={self.state!r}, "
            f"cycles={self.cycles})"
        )
