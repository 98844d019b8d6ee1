"""Segment encode/decode, the control-block seqlock, and owner hygiene."""

import os

import pytest

from repro.engine.compiled import CompiledFSM
from repro.procfleet.segments import (
    ControlBlock,
    SegmentOwner,
    attach_segment,
    decode_segment,
    encode_segment,
)
from repro.workloads.library import fig6_m, ones_detector


def _exists(name):
    return os.path.exists(f"/dev/shm/{name}")


shm_fs = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="no /dev/shm to observe segment lifecycle on",
)


class TestSegmentCodec:
    @pytest.mark.parametrize("machine", [ones_detector, fig6_m])
    def test_roundtrip_preserves_tables(self, machine):
        compiled = CompiledFSM.from_fsm(machine())
        pieces = decode_segment(memoryview(encode_segment(compiled)))
        assert pieces["inputs"] == tuple(compiled.inputs)
        assert pieces["states"] == tuple(compiled.states)
        assert pieces["outputs"] == tuple(compiled.outputs)
        assert pieces["reset_state"] == compiled.reset_state
        assert pieces["next_table"] == list(compiled.next_table)
        assert pieces["out_table"] == list(compiled.out_table)
        assert pieces["table_version"] == compiled.source_version

    def test_rebuilt_view_runs_identically(self):
        machine = ones_detector()
        compiled = CompiledFSM.from_fsm(machine)
        pieces = decode_segment(memoryview(encode_segment(compiled)))
        clone = CompiledFSM(
            pieces["inputs"],
            pieces["states"],
            pieces["outputs"],
            pieces["next_table"],
            pieces["out_table"],
            pieces["reset_state"],
            source_version=pieces["table_version"],
        )
        word = list("011011101")
        assert clone.run_word(word).outputs == machine.run(word)

    def test_bad_magic_rejected(self):
        compiled = CompiledFSM.from_fsm(ones_detector())
        buf = bytearray(encode_segment(compiled))
        buf[:4] = b"XXXX"
        with pytest.raises(ValueError, match="bad magic"):
            decode_segment(memoryview(buf))

    def test_geometry_mismatch_rejected(self):
        compiled = CompiledFSM.from_fsm(ones_detector())
        buf = bytearray(encode_segment(compiled))
        # Corrupt the n_states field (offset: 4s + H + H + q + I).
        import struct

        struct.pack_into("<I", buf, 4 + 2 + 2 + 8 + 4, 99)
        with pytest.raises(ValueError, match="geometry"):
            decode_segment(memoryview(buf))


@shm_fs
class TestSegmentOwner:
    def test_create_attach_retire(self):
        owner = SegmentOwner()
        name = owner.create(b"payload-bytes")
        assert _exists(name)
        shm = attach_segment(name)
        assert bytes(shm.buf[:13]) == b"payload-bytes"
        shm.close()
        owner.retire(name)
        assert not _exists(name)
        assert name not in owner.owned()

    def test_retire_unknown_is_noop(self):
        owner = SegmentOwner()
        owner.retire(None)
        owner.retire("rp-never-created")

    def test_close_unlinks_everything_owned(self):
        owner = SegmentOwner()
        names = [owner.create(b"x") for _ in range(3)]
        owner.close()
        assert owner.owned() == ()
        assert not any(_exists(name) for name in names)

    def test_names_carry_pid_for_leak_audits(self):
        owner = SegmentOwner()
        name = owner.create(b"x")
        try:
            assert name.startswith(f"rp{os.getpid():x}n")
        finally:
            owner.close()


@shm_fs
class TestControlBlock:
    def test_empty_slot_reads_unpublished(self):
        ctl = ControlBlock.create(2)
        try:
            assert ctl.read_slot(0) == (0, None)
            assert ctl.read_slot(1) == (0, None)
        finally:
            ctl.close()

    def test_write_then_read_roundtrip(self):
        ctl = ControlBlock.create(1)
        try:
            ctl.write_slot(0, 7, "rp-some-segment")
            assert ctl.read_slot(0) == (7, "rp-some-segment")
            ctl.write_slot(0, 8, "rp-another")
            assert ctl.read_slot(0) == (8, "rp-another")
        finally:
            ctl.close()

    def test_attach_sees_owner_writes(self):
        ctl = ControlBlock.create(1)
        try:
            reader = ControlBlock.attach(ctl.name)
            ctl.write_slot(0, 3, "rp-abc")
            assert reader.read_slot(0) == (3, "rp-abc")
            reader.close()
            # A reader's close never unlinks the owner's block.
            assert _exists(ctl.name)
        finally:
            ctl.close()
        assert not _exists(ctl.name)

    def test_slot_bounds_checked(self):
        ctl = ControlBlock.create(1)
        try:
            with pytest.raises(IndexError):
                ctl.read_slot(1)
            with pytest.raises(IndexError):
                ctl.write_slot(-1, 1, "rp-x")
        finally:
            ctl.close()

    def test_attach_rejects_foreign_segment(self):
        owner = SegmentOwner()
        name = owner.create(b"not a control block at all")
        try:
            with pytest.raises(ValueError, match="not a repro control"):
                ControlBlock.attach(name)
        finally:
            owner.close()

    def test_close_idempotent(self):
        ctl = ControlBlock.create(1)
        ctl.close()
        ctl.close()
