"""Fault injection and scrubbing: SRAM upsets repaired by reconfiguration.

SRAM-based FPGAs are susceptible to single-event upsets (SEUs) flipping
configuration bits.  In the paper's architecture the FSM's behaviour
*is* RAM content, so an upset silently corrupts a transition or an
output.  Gradual reconfiguration doubles as a repair mechanism: the
corrupted entries are just delta transitions between the corrupted
machine and the intended one, and a reconfiguration program writes them
back — *scrubbing* without stopping the clock.

This module injects controlled upsets into a live datapath and builds
the repair program; the fault-injection tests drive detection through
conformance testing (:mod:`repro.core.verify`) so the whole
detect-locate-repair loop works through the machine's ports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.decode import decode_order
from ..core.fsm import FSM, Input, State, Transition
from ..core.program import Program
from .machine import HardwareFSM


@dataclass(frozen=True)
class Upset:
    """One injected configuration upset.

    ``ram`` is ``"F"`` or ``"G"``; ``bit`` indexes into the word (LSB =
    0).  ``entry`` locates the affected table entry symbolically.
    """

    ram: str
    entry: Tuple[Input, State]
    address: int
    bit: int

    def __str__(self) -> str:
        return f"{self.ram}-RAM[{self.address}] bit {self.bit} @ {self.entry}"


def inject_upset(
    hw: HardwareFSM,
    seed: int = 0,
    ram: Optional[str] = None,
    entry: Optional[Tuple[Input, State]] = None,
) -> Upset:
    """Flip one configuration bit of a written RAM word.

    By default the location is drawn from a seeded RNG over all written
    words; ``ram`` and ``entry`` pin it down for directed tests.  The
    flip happens outside the one-write-per-cycle port, as a radiation
    event would.
    """
    rng = random.Random(f"seu/{seed}")
    choices = []
    for label, block, data_width in (
        ("F", hw.f_ram, hw.f_ram.data_width),
        ("G", hw.g_ram, hw.g_ram.data_width),
    ):
        if ram is not None and label != ram:
            continue
        for address, _word in sorted(block.dump().items()):
            for bit in range(data_width):
                choices.append((label, address, bit))
    if entry is not None:
        addr = hw._address(*entry)
        choices = [c for c in choices if c[1] == addr]
    if not choices:
        raise ValueError("no written RAM words match the constraints")

    label, address, bit = rng.choice(choices)
    block = hw.f_ram if label == "F" else hw.g_ram
    corrupted = block.dump()[address] ^ (1 << bit)
    block.load({address: corrupted})

    symbol_entry = _entry_of_address(hw, address)
    return Upset(ram=label, entry=symbol_entry, address=address, bit=bit)


def erase_entry(
    hw: HardwareFSM,
    entry: Optional[Tuple[Input, State]] = None,
    seed: int = 0,
) -> Upset:
    """Erase one written F-RAM word (a *detectable* fault).

    A bit-flip upset can still decode to a valid (wrong) symbol; an
    erasure models the harsher failure mode of an unreadable cell — the
    next traversal of the entry raises
    :class:`~repro.hw.memory.UninitialisedRead` deterministically, which
    is exactly what the fleet quarantine path needs to trigger on.  The
    entry is drawn from a seeded RNG over written words unless pinned.
    """
    if entry is None:
        rng = random.Random(f"erase/{seed}")
        written = sorted(hw.f_ram.dump())
        if not written:
            raise ValueError("no written F-RAM words to erase")
        address = rng.choice(written)
    else:
        address = hw._address(*entry)
        if hw.f_ram.peek(address) is None:
            raise ValueError(f"entry {entry!r} is not written")
    hw.f_ram.erase(address)
    return Upset(
        ram="F",
        entry=_entry_of_address(hw, address),
        address=address,
        bit=-1,  # erasure: the whole word is gone, not one bit
    )


def _entry_of_address(hw: HardwareFSM, address: int) -> Tuple[Input, State]:
    s_width = hw.state_enc.width
    state_code = address & ((1 << s_width) - 1)
    input_code = address >> s_width
    return (
        hw.input_enc.alphabet.symbol(input_code),
        hw.state_enc.alphabet.symbol(state_code),
    )


def corrupted_entries(hw: HardwareFSM, intended: FSM) -> List[Transition]:
    """The intended transitions whose RAM entries are currently wrong.

    Exactly the delta set between the machine-in-the-RAMs and the
    intended machine — upsets turn into ordinary migration work.
    """
    wrong = []
    for trans in intended.transitions():
        if hw.table_entry(trans.input, trans.source) != (
            trans.target,
            trans.output,
        ):
            wrong.append(trans)
    return wrong


def scrub_program(hw: HardwareFSM, intended: FSM) -> Program:
    """A reconfiguration program restoring the intended machine.

    Decoding runs against the *corrupted* table (a snapshot FSM cannot be
    built — the machine may be inconsistent), so the source machine
    passed to the decoder is a faithful corruption image over the
    superset domain.
    """
    table = {}
    states = list(hw.state_enc.alphabet.symbols)
    inputs = list(hw.input_enc.alphabet.symbols)
    outputs = list(hw.output_enc.alphabet.symbols)
    for i in inputs:
        for s in states:
            current = hw.table_entry(i, s)
            if current is None:
                # Unconfigured rows — and rows whose stored code an upset
                # pushed outside the alphabet — are absent from the
                # corruption image: unusable for travel, rewritable.
                continue
            table[(i, s)] = current
    corrupted = _PartialImage(inputs, outputs, states, hw.reset_state, table)
    deltas = corrupted_entries(hw, intended)
    return decode_order(
        corrupted, intended, order=deltas, method="scrub"
    )


class _PartialImage:
    """A minimal FSM-like view over a possibly partial corrupted table.

    Quacks like :class:`~repro.core.fsm.FSM` for everything the decoder
    touches (``inputs``, ``states``, ``reset_state``, ``table``,
    ``transitions``, ``next_state``, ``output``); unconfigured rows are
    simply absent from the table.
    """

    def __init__(self, inputs, outputs, states, reset_state, table):
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self.states = tuple(states)
        self.reset_state = reset_state
        self._table = dict(table)
        self.name = "corrupted_image"

    @property
    def table(self):
        return dict(self._table)

    def transitions(self):
        return [
            Transition(i, s, *self._table[(i, s)])
            for i in self.inputs
            for s in self.states
            if (i, s) in self._table
        ]

    def next_state(self, i, s):
        entry = self._table.get((i, s))
        return None if entry is None else entry[0]

    def output(self, i, s):
        entry = self._table.get((i, s))
        return None if entry is None else entry[1]


def scrub(hw: HardwareFSM, intended: FSM) -> Program:
    """Repair the datapath in place; returns the program that did it."""
    program = scrub_program(hw, intended)
    hw.retarget_reset(intended.reset_state)
    hw.apply_steps(program.steps)
    return program
