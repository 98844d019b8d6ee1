"""Unit tests for SEU injection and reconfiguration-based scrubbing."""

import pytest

from repro.core.jsr import jsr_program
from repro.core.verify import verify_hardware
from repro.hw.faults import (
    Upset,
    corrupted_entries,
    inject_upset,
    scrub,
    scrub_program,
)
from repro.hw.machine import HardwareFSM
from repro.hw.memory import UninitialisedRead
from repro.workloads.library import fig6_m, fig6_m_prime, ones_detector
from repro.workloads.random_fsm import random_fsm


class TestInjectUpset:
    def test_flips_exactly_one_entry(self, detector):
        hw = HardwareFSM(detector)
        upset = inject_upset(hw, seed=1)
        wrong = corrupted_entries(hw, detector)
        assert len(wrong) == 1
        assert wrong[0].entry == upset.entry

    def test_deterministic_per_seed(self, detector):
        hw1, hw2 = HardwareFSM(detector), HardwareFSM(detector)
        assert inject_upset(hw1, seed=9) == inject_upset(hw2, seed=9)

    def test_directed_injection(self, detector):
        hw = HardwareFSM(detector)
        upset = inject_upset(hw, seed=0, ram="G", entry=("1", "S1"))
        assert upset.ram == "G"
        assert upset.entry == ("1", "S1")
        # a G-RAM flip corrupts only the output
        entry = hw.table_entry("1", "S1")
        assert entry[0] == "S1"  # next state intact
        assert entry[1] != "1"

    def test_f_ram_flip_corrupts_next_state(self, detector):
        hw = HardwareFSM(detector)
        inject_upset(hw, seed=0, ram="F", entry=("1", "S0"))
        entry = hw.table_entry("1", "S0")
        assert entry[0] != "S1"

    def test_no_matching_words_rejected(self, fig6_pair):
        m, mp = fig6_pair
        hw = HardwareFSM.for_migration(m, mp)
        with pytest.raises(ValueError, match="no written RAM words"):
            inject_upset(hw, entry=("0", "S3"))  # unconfigured row

    def test_str(self, detector):
        hw = HardwareFSM(detector)
        text = str(inject_upset(hw, seed=2))
        assert "RAM[" in text and "bit" in text


class TestRealisesOnGarbage:
    def test_garbage_state_code_is_a_mismatch_not_an_error(self):
        # fig6_m has 3 states in 2 bits: flipping bit 1 of F-RAM[1]
        # (entry ('0', 'S1'), code 1) leaves code 3, which names no
        # state.  realises must answer False, not fail to decode.
        machine = fig6_m()
        hw = HardwareFSM(machine)
        upset = inject_upset(hw, seed=0, ram="F", entry=("0", "S1"))
        assert (upset.address, upset.bit) == (1, 1)
        assert hw.f_ram.peek(upset.address) == 3
        assert hw.realises(machine) is False
        assert hw.table_entry("0", "S1") is None  # unusable, not an error

    def test_garbage_output_code_is_a_mismatch(self):
        machine = fig6_m()
        hw = HardwareFSM(machine, extra_outputs=("0", "1", "x"))
        hw.g_ram.load({0: 3})  # 3 outputs in 2 bits: code 3 is garbage
        assert hw.realises(machine) is False


class TestDetection:
    def test_conformance_testing_detects_upsets(self, detector):
        for seed in range(6):
            hw = HardwareFSM(detector)
            inject_upset(hw, seed=seed)
            try:
                detected = not verify_hardware(hw, detector).passed
            except (UninitialisedRead, ValueError):
                detected = True  # garbage code read — also a detection
            assert detected


class TestScrub:
    def test_repairs_single_upset(self, detector):
        hw = HardwareFSM(detector)
        inject_upset(hw, seed=3)
        program = scrub(hw, detector)
        assert hw.realises(detector)
        assert program.method == "scrub"
        assert len(program) >= 1

    def test_repairs_multiple_upsets(self, detector):
        hw = HardwareFSM(detector)
        for seed in range(3):
            inject_upset(hw, seed=seed)
        scrub(hw, detector)
        assert hw.realises(detector)
        assert verify_hardware(hw, detector).passed

    def test_scrub_on_migrated_machine(self, fig6_pair):
        m, mp = fig6_pair
        hw = HardwareFSM.for_migration(m, mp)
        hw.run_program(jsr_program(m, mp))
        inject_upset(hw, seed=7)
        scrub(hw, mp)
        assert hw.realises(mp)

    def test_scrub_cost_scales_with_corruption(self):
        machine = random_fsm(n_states=8, seed=11)
        hw_one = HardwareFSM(machine)
        inject_upset(hw_one, seed=0)
        cost_one = len(scrub_program(hw_one, machine))

        hw_many = HardwareFSM(machine)
        seeds = 0
        while len(corrupted_entries(hw_many, machine)) < 5:
            inject_upset(hw_many, seed=seeds)
            seeds += 1
        cost_many = len(scrub_program(hw_many, machine))
        assert cost_many > cost_one

    def test_clean_machine_scrub_is_cheap(self, detector):
        hw = HardwareFSM(detector)
        program = scrub(hw, detector)
        assert hw.realises(detector)
        assert len(program) <= 1  # nothing to repair

    def test_scrub_never_stops_the_clock(self, detector):
        """Every scrub cycle is an ordinary datapath cycle."""
        hw = HardwareFSM(detector)
        inject_upset(hw, seed=4)
        before = hw.cycles
        program = scrub(hw, detector)
        assert hw.cycles == before + len(program)


class TestEraseEntry:
    def test_erased_entry_raises_on_traversal(self, detector):
        from repro.hw.faults import erase_entry

        machine = ones_detector()
        hw = HardwareFSM(machine)
        entry = (machine.inputs[0], machine.reset_state)
        upset = erase_entry(hw, entry=entry)
        assert upset.ram == "F"
        assert upset.bit == -1  # the whole word is gone
        assert upset.entry == entry
        with pytest.raises(UninitialisedRead):
            hw.step(machine.inputs[0])

    def test_seeded_erase_is_deterministic(self):
        machine = ones_detector()
        from repro.hw.faults import erase_entry

        first = erase_entry(HardwareFSM(machine), seed=3)
        second = erase_entry(HardwareFSM(machine), seed=3)
        assert first == second

    def test_unwritten_entry_rejected(self):
        from repro.hw.faults import erase_entry

        m, mp = fig6_m(), fig6_m_prime()
        hw = HardwareFSM.for_migration(m, mp)
        new_state = next(s for s in mp.states if s not in m.states)
        with pytest.raises(ValueError, match="not written"):
            erase_entry(hw, entry=(m.inputs[0], new_state))

    def test_reconfiguration_repairs_erasure(self):
        from repro.hw.faults import erase_entry

        machine = ones_detector()
        hw = HardwareFSM(machine)
        upset = erase_entry(hw, seed=1)
        program = scrub_program(hw, machine)
        hw.run_program(program)
        assert hw.realises(machine)
        assert hw.f_ram.peek(upset.address) is not None
