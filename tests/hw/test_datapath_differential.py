"""Differential test: the int-code datapath against its BitVector oracle.

:class:`HardwareFSM` clocks on int codes: RAM words are read and writes
scheduled by int address, ST-REG latches a code, the trace keeps one
tuple per cycle, and program replay drives steps straight into the
cycle.  The oracle below is the datapath as written before that:
``BitVector`` addresses and data words, a ``BitVector`` ST-REG, a
:class:`TraceEntry` built per cycle, and replay through
``Program.to_sequence`` rows and a ``ReconCommand`` per step.  Copied
verbatim, less docstrings.  Driven side by side over random machines,
both must agree after every operation on outputs, raised exceptions,
RAM words (committed and pending), ST-REG, every probe counter,
``table_version`` and the trace rows, ``dropped`` included.
"""

from typing import Dict, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ea import EAConfig, ea_program
from repro.core.incremental import IncrementalMigrator
from repro.core.jsr import jsr_program
from repro.core.program import Program
from repro.fleet.plancache import PlanCache
from repro.hw.faults import erase_entry, inject_upset
from repro.hw.machine import HardwareFSM, ReconCommand
from repro.hw.memory import SyncRAM, UninitialisedRead
from repro.hw.register import mux2
from repro.hw.signals import BitVector, address_code, ram_address
from repro.hw.trace import TraceEntry
from repro.obs import instruments as _instruments
from repro.obs.probes import probe_hardware
from repro.workloads.mutate import grow_target, mutate_target
from repro.workloads.random_fsm import random_fsm

# -- oracle ----------------------------------------------------------------


class _OldSyncRAM(SyncRAM):
    def read(self, address: BitVector) -> Optional[int]:
        self._check_width(address)
        word = self._words.get(address.value)
        if (
            self.write_first
            and self._pending is not None
            and self._pending[0] == address.value
        ):
            return self._pending[1]
        return word

    def write(self, address: BitVector, data: BitVector) -> None:
        self._check_width(address)
        if data.width != self.data_width:
            raise ValueError(
                f"{self.name}: data width {data.width} != {self.data_width}"
            )
        if self._pending is not None:
            raise RuntimeError(
                f"{self.name}: second write scheduled in the same cycle"
            )
        self._pending = (address.value, data.value)


class _OldRegister:
    def __init__(self, width: int, initial: BitVector, name: str = "reg"):
        if initial.width != width:
            raise ValueError("initial value width mismatch")
        self.width = width
        self.name = name
        self._q = initial
        self._d: Optional[BitVector] = None

    @property
    def q(self) -> BitVector:
        return self._q

    def drive(self, value: BitVector) -> None:
        if value.width != self.width:
            raise ValueError(f"{self.name}: D width {value.width} != {self.width}")
        self._d = value

    def clock(self) -> None:
        if self._d is None:
            raise RuntimeError(f"{self.name}: clocked with undriven D input")
        self._q = self._d
        self._d = None


class _OldTraceRecorder:
    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive (or None)")
        self.max_entries = max_entries
        self.entries: List[TraceEntry] = []
        self.dropped = 0

    def record(self, entry: TraceEntry) -> None:
        if (
            self.max_entries is not None
            and len(self.entries) >= self.max_entries
        ):
            del self.entries[0]
            self.dropped += 1
            _instruments.HW_TRACE_DROPPED.inc()
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)


class _OracleHardwareFSM(HardwareFSM):
    """The pre-int-code netlist: the same construction, with the old
    RAMs, ST-REG and trace swapped in and the old clocking paths."""

    def __init__(self, fsm, trace_max_entries=None, **kwargs):
        super().__init__(fsm, trace_max_entries=trace_max_entries, **kwargs)
        for attr in ("f_ram", "g_ram"):
            new = getattr(self, attr)
            old = _OldSyncRAM(new.address_width, new.data_width, name=new.name)
            old.load(new.dump())
            setattr(self, attr, old)
        self._reset_code = self.state_enc.encode(fsm.reset_state)
        self.st_reg = _OldRegister(
            self.state_enc.width, self._reset_code, name="ST-REG"
        )
        self.trace = _OldTraceRecorder(max_entries=trace_max_entries)

    def _bv_address(self, i, s) -> BitVector:
        return ram_address(self.input_enc.encode(i), self.state_enc.encode(s))

    @property
    def state(self):
        return self.state_enc.decode(self.st_reg.q)

    @property
    def reset_state(self):
        return self.state_enc.decode(self._reset_code)

    def retarget_reset(self, state) -> None:
        self._reset_code = self.state_enc.encode(state)
        self._retargets += 1

    def cycle(self, i=None, reset=False, recon=None):
        if recon is not None and i is not None:
            raise ValueError("external input is ignored in reconfiguration mode")
        if recon is None and i is None and not reset:
            raise ValueError("cycle needs an input, a reset, or a recon command")
        if not self._cycle_guard.acquire(blocking=False):
            raise AssertionError("the oracle is single-threaded")
        try:
            return self._guarded_cycle(i=i, reset=reset, recon=recon)
        finally:
            self._cycle_guard.release()

    def _guarded_cycle(self, i, reset, recon):
        mode = "reconf" if recon is not None else ("reset" if reset else "normal")
        state_before = self.state

        if recon is not None:
            internal = recon.ir
            addr = self._bv_address(internal, state_before)
            if recon.write:
                f_word = self.state_enc.encode(recon.hf)
                g_word = self.output_enc.encode(recon.hg)
                self.f_ram.write(addr, f_word)
                self.g_ram.write(addr, g_word)
        else:
            internal = i
            addr = self._bv_address(internal, state_before) if i is not None else None

        output = None
        next_code = None
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

    def apply_row(self, row):
        if row.reset:
            return self.cycle(reset=True)
        return self.cycle(
            recon=ReconCommand(ir=row.hi, hf=row.hf, hg=row.hg, write=row.write)
        )

    def run_program(self, program) -> None:
        self.retarget_reset(program.target.reset_state)
        for row in program.to_sequence():
            self.apply_row(row)


def _old_stall(migrator: IncrementalMigrator, budget_cycles: int) -> int:
    used = 0
    while not migrator.done:
        cost = migrator.next_chunk_cost()
        if cost is None or used + cost > budget_cycles:
            break
        chunk = migrator.chunks[migrator.progress.chunks_done]
        sub = Program(
            chunk.steps, migrator.source, migrator.target, method="chunk"
        )
        for row in sub.to_sequence():
            migrator.hardware.apply_row(row)
        used += cost
        migrator.progress.chunks_done += 1
        migrator.progress.cycles_spent += cost
        migrator.progress.max_single_stall = max(
            migrator.progress.max_single_stall, cost
        )
    return used


# -- driving both ----------------------------------------------------------


def _outcome(fn):
    try:
        return ("ok", fn())
    except Exception as exc:  # the exception is the outcome
        return ("raised", type(exc), str(exc))


def _observe(hw: HardwareFSM) -> Dict[str, object]:
    """Everything observable about a datapath after an operation."""
    return {
        "f_words": hw.f_ram.dump(),
        "g_words": hw.g_ram.dump(),
        "pending": (hw.f_ram._pending, hw.g_ram._pending),
        "st_reg": hw.st_reg.q,
        "probes": probe_hardware(hw),
        "write_counts": (hw.f_ram.write_count, hw.g_ram.write_count),
        "versions": (hw.f_ram.version, hw.g_ram.version, hw.table_version),
        "trace_rows": list(hw.trace.entries),
        "trace_dropped": hw.trace.dropped,
        "trace_len": len(hw.trace),
    }


class _Pair:
    """The new datapath and the oracle, built alike, driven alike."""

    def __init__(self, source, target, trace_max: Optional[int]):
        self.source, self.target = source, target
        self.new, self.old = (
            cls(
                source,
                extra_inputs=target.inputs,
                extra_outputs=target.outputs,
                extra_states=target.states,
                trace_max_entries=trace_max,
            )
            for cls in (HardwareFSM, _OracleHardwareFSM)
        )
        self.migrators = None
        self.inputs = list(self.new.input_enc.alphabet.symbols)
        self.states = list(self.new.state_enc.alphabet.symbols)
        self.outputs = list(self.new.output_enc.alphabet.symbols)
        self.check()

    def both(self, fn_new, fn_old) -> None:
        assert _outcome(fn_new) == _outcome(fn_old)
        self.check()

    def check(self) -> None:
        assert _observe(self.new) == _observe(self.old)

    def pick(self, pool: list, raw: int):
        return pool[raw % len(pool)]

    def run(self, op) -> None:
        kind, a, b, c, raw_word = op
        if kind == "word":
            for i in [self.pick(self.inputs, raw) for raw in raw_word]:
                self.both(lambda: self.new.step(i), lambda: self.old.step(i))
        elif kind == "reset":
            i = None if a % 3 == 0 else self.pick(self.inputs, a)
            self.both(
                lambda: self.new.cycle(i=i, reset=True),
                lambda: self.old.cycle(i=i, reset=True),
            )
        elif kind == "recon":
            cmd = ReconCommand(
                ir=self.pick(self.inputs, a),
                hf=self.pick(self.states, b),
                hg=self.pick(self.outputs, c),
                write=bool(a % 2),
            )
            reset = c % 5 == 0
            self.both(
                lambda: self.new.cycle(recon=cmd, reset=reset),
                lambda: self.old.cycle(recon=cmd, reset=reset),
            )
        elif kind == "stray_write":
            # A write scheduled outside any cycle: the next write cycle
            # must refuse a second one, reads forward it, a clock commits.
            ram = "f_ram" if a % 2 else "g_ram"
            new_ram = getattr(self.new, ram)
            addr = BitVector(b % new_ram.depth, new_ram.address_width)
            data = BitVector(c % (1 << new_ram.data_width), new_ram.data_width)
            self.both(
                lambda: new_ram.write(addr, data),
                lambda: getattr(self.old, ram).write(addr, data),
            )
        elif kind == "garbage":
            # A code that names no symbol, planted on an entry of the
            # current state: the next traversal of it must refuse it.
            ram = "f_ram" if b % 2 else "g_ram"
            size = len(self.states if ram == "f_ram" else self.outputs)
            new_ram = getattr(self.new, ram)
            if size < 1 << new_ram.data_width:
                addr = address_code(
                    self.inputs.index(self.pick(self.inputs, a)),
                    self.new.st_reg.q.value,
                    self.new.state_enc.width,
                )
                for hw in (self.new, self.old):
                    getattr(hw, ram).load({addr: size})
                self.check()
        elif kind == "foreign":
            # A symbol outside the input alphabet, or none at all, as the
            # external input or as the forced ``ir``.
            symbol = None if a % 3 == 0 else ("foreign", a)
            if b % 2:
                self.both(
                    lambda: self.new.step(symbol),
                    lambda: self.old.step(symbol),
                )
            else:
                cmd = ReconCommand(
                    ir=symbol,
                    hf=self.pick(self.states, b),
                    hg=self.pick(self.outputs, c),
                    write=bool(c % 2),
                )
                self.both(
                    lambda: self.new.cycle(recon=cmd),
                    lambda: self.old.cycle(recon=cmd),
                )
        elif kind == "erase":
            self.both(
                lambda: erase_entry(self.new, seed=a),
                lambda: erase_entry(self.old, seed=a),
            )
        elif kind == "upset":
            ram = "F" if b % 2 else "G"
            self.both(
                lambda: inject_upset(self.new, seed=a, ram=ram),
                lambda: inject_upset(self.old, seed=a, ram=ram),
            )
        elif kind == "stall":
            if self.migrators is None:
                chunks = PlanCache(opt_level="O2" if b % 2 else None).chunks(
                    self.source, self.target
                )
                self.migrators = tuple(
                    IncrementalMigrator(hw, self.source, self.target, chunks=chunks)
                    for hw in (self.new, self.old)
                )
                self.check()
            new_mig, old_mig = self.migrators
            budget = 1 + a % 40
            self.both(
                lambda: new_mig.stall(budget),
                lambda: _old_stall(old_mig, budget),
            )
            assert new_mig.progress == old_mig.progress
        elif kind == "program":
            if a % 2:
                program = jsr_program(self.source, self.target)
            else:
                program = ea_program(
                    self.source,
                    self.target,
                    EAConfig(population_size=6, generations=3, seed=b),
                )
            self.both(
                lambda: self.new.run_program(program),
                lambda: self.old.run_program(program),
            )
        else:  # pragma: no cover - the strategies draw only the kinds above
            raise AssertionError(kind)


# -- strategies --------------------------------------------------------------


@st.composite
def pairs(draw):
    source = random_fsm(
        n_states=draw(st.integers(2, 9)),
        n_inputs=draw(st.integers(1, 3)),
        n_outputs=draw(st.integers(2, 4)),
        seed=draw(st.integers(0, 5_000)),
    )
    capacity = len(source.inputs) * len(source.states)
    target = mutate_target(
        source,
        draw(st.integers(0, min(8, capacity))),
        seed=draw(st.integers(0, 5_000)),
    )
    if draw(st.booleans()):
        target = grow_target(target, 1, seed=draw(st.integers(0, 5_000)))
    return source, target


_RAW = st.integers(0, 1_000)
_TRACE = st.one_of(st.none(), st.integers(1, 12))


def _ops(kinds):
    """Operations ``(kind, a, b, c, word)``: ``a``-``c`` pick symbols,
    seeds and budgets; ``word`` (normal-mode inputs) is read by
    ``"word"`` ops only."""
    return st.lists(
        st.tuples(
            st.sampled_from(kinds), _RAW, _RAW, _RAW,
            st.lists(_RAW, max_size=12),
        ),
        min_size=1,
        max_size=12,
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    pairs(),
    _TRACE,
    _ops(("stall", "stall", "word", "erase", "upset", "garbage")),
)
def test_chunk_replay_matches_oracle(pair, trace_max, ops):
    """Incremental chunk plans replayed by ``IncrementalMigrator.stall``
    between normal-mode words, with faults injected along the way."""
    driver = _Pair(*pair, trace_max)
    for op in ops:
        driver.run(op)
    # Finish the replay; a fault or an over-budget chunk stops it, and
    # both sides must agree on that too.
    for _ in range(64):
        driver.run(("stall", 39, 1, 0, []))
        if driver.migrators[0].done:
            break


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    pairs(),
    _TRACE,
    _ops(("program", "word", "reset", "erase", "upset", "garbage")),
)
def test_program_replay_matches_oracle(pair, trace_max, ops):
    """``run_program`` of jsr and ea programs, normal-mode words, resets
    and faults."""
    driver = _Pair(*pair, trace_max)
    for op in ops:
        driver.run(op)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    pairs(),
    _TRACE,
    _ops((
        "recon", "word", "reset", "stray_write", "erase", "upset",
        "garbage", "foreign",
    )),
)
def test_raw_cycles_match_oracle(pair, trace_max, ops):
    """Single cycles from any command: forced writes and traverses with
    and without reset, stray writes (the second-write refusal and
    write-first forwarding), garbage codes, unknown inputs and
    unconfigured reads."""
    driver = _Pair(*pair, trace_max)
    for op in ops:
        driver.run(op)
