"""Configuration-bitstream model: the context-swapping alternative.

The approaches the paper contrasts itself against (Sec. 1) reconfigure by
overwriting *configuration bitstreams* — presynthesised at compile time
and downloaded over the configuration port, full-chip or column/frame at
a time.  This module models that mechanism concretely so the comparison
benchmarks rest on an executable artifact rather than datasheet
arithmetic alone:

* :func:`snapshot` serialises a datapath's F-RAM/G-RAM contents into a
  frame-structured :class:`Bitstream`;
* :func:`frame_diff` computes which frames a migration actually touches
  (the partial-reconfiguration granularity);
* :class:`DownloadPort` turns frame counts into download cycles/seconds;
* :func:`context_swap` performs the swap on a live datapath — an atomic
  bulk overwrite that, unlike gradual reconfiguration, stalls the
  machine for the whole download and loses its state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.fsm import FSM
from .machine import HardwareFSM


@dataclass(frozen=True)
class Bitstream:
    """A frame-structured configuration image.

    ``frames`` is a tuple of byte tuples; all frames have equal length
    (the device's reconfiguration granularity).
    """

    frames: Tuple[Tuple[int, ...], ...]
    frame_bytes: int

    @property
    def total_bits(self) -> int:
        return len(self.frames) * self.frame_bytes * 8

    def __len__(self) -> int:
        return len(self.frames)


def _ram_words(hw: HardwareFSM) -> List[int]:
    """All RAM words of the datapath in address order (0 for unwritten)."""
    words: List[int] = []
    for ram in (hw.f_ram, hw.g_ram):
        contents = ram.dump()
        words.extend(contents.get(addr, 0) for addr in range(ram.depth))
    return words


def snapshot(hw: HardwareFSM, frame_bytes: int = 4) -> Bitstream:
    """Serialise the datapath's table memories into a bitstream.

    Each RAM word becomes one byte (word widths here are ≤ 8 bits);
    words are packed into ``frame_bytes``-sized frames, zero-padded at
    the tail — mirroring how FPGA configuration frames cover fixed
    column slices regardless of how much of them a design uses.
    """
    if frame_bytes < 1:
        raise ValueError("frame size must be positive")
    words = _ram_words(hw)
    n_frames = math.ceil(len(words) / frame_bytes) or 1
    padded = words + [0] * (n_frames * frame_bytes - len(words))
    frames = tuple(
        tuple(padded[k * frame_bytes : (k + 1) * frame_bytes])
        for k in range(n_frames)
    )
    return Bitstream(frames=frames, frame_bytes=frame_bytes)


def target_bitstream(
    hw: HardwareFSM, target: FSM, frame_bytes: int = 4
) -> Bitstream:
    """The bitstream a compile-time flow would presynthesise for ``target``.

    Built by snapshotting a scratch copy of the datapath loaded with the
    target's table (same geometry/encoders as ``hw``, so the images are
    frame-comparable).
    """
    scratch = HardwareFSM(
        target,
        extra_inputs=hw.input_enc.alphabet.symbols,
        extra_outputs=hw.output_enc.alphabet.symbols,
        extra_states=hw.state_enc.alphabet.symbols,
        name=f"presynth_{target.name}",
    )
    # Keep unconfigured rows identical to the live datapath's zeros.
    return snapshot(scratch, frame_bytes=frame_bytes)


def frame_diff(before: Bitstream, after: Bitstream) -> List[int]:
    """Indices of frames that differ between two images."""
    if before.frame_bytes != after.frame_bytes or len(before) != len(after):
        raise ValueError("bitstreams have different geometry")
    return [
        idx
        for idx, (a, b) in enumerate(zip(before.frames, after.frames))
        if a != b
    ]


@dataclass(frozen=True)
class DownloadPort:
    """A SelectMAP-style configuration port.

    ``bus_bits`` bits enter per ``clock_hz`` cycle; each frame carries a
    fixed ``overhead_bytes`` of addressing/CRC on top of its payload
    (real partial reconfiguration pays per-frame command overhead).
    """

    bus_bits: int = 8
    clock_hz: float = 50e6
    overhead_bytes: int = 3

    def cycles_for_frames(self, n_frames: int, frame_bytes: int) -> int:
        """Download cycles for ``n_frames`` frames of the given size."""
        total_bytes = n_frames * (frame_bytes + self.overhead_bytes)
        return math.ceil(total_bytes * 8 / self.bus_bits)

    def seconds_for_frames(self, n_frames: int, frame_bytes: int) -> float:
        return self.cycles_for_frames(n_frames, frame_bytes) / self.clock_hz


@dataclass
class SwapReport:
    """Outcome of a context swap on a live datapath."""

    frames_total: int
    frames_written: int
    download_cycles: int
    download_seconds: float
    state_lost: bool


def context_swap(
    hw: HardwareFSM,
    target: FSM,
    port: Optional[DownloadPort] = None,
    frame_bytes: int = 4,
    partial: bool = True,
) -> SwapReport:
    """Replace the datapath's configuration by bitstream download.

    With ``partial`` only the differing frames are downloaded (optimistic
    partial reconfiguration); otherwise the full image is.  The swap is
    the paper's contrast case: the machine is held in reset for the
    entire download (``download_cycles`` of dead time) and resumes from
    the target's reset state — any in-flight state is lost.  Compare
    with :meth:`HardwareFSM.run_program`, which keeps the machine
    clocking and rewrites one entry per cycle.
    """
    port = port or DownloadPort()
    before = snapshot(hw, frame_bytes=frame_bytes)
    after = target_bitstream(hw, target, frame_bytes=frame_bytes)
    changed = frame_diff(before, after)
    n_frames = len(changed) if partial else len(after)

    # Apply: bulk-overwrite the RAMs (bypassing the one-write-per-cycle
    # port — that is exactly what a configuration download does).
    for trans in target.transitions():
        addr = hw._address(trans.input, trans.source)
        hw.f_ram.load({addr: hw.state_enc.alphabet.index(trans.target)})
        hw.g_ram.load({addr: hw.output_enc.alphabet.index(trans.output)})
    hw.retarget_reset(target.reset_state)
    hw.cycle(reset=True)

    return SwapReport(
        frames_total=len(after),
        frames_written=n_frames,
        download_cycles=port.cycles_for_frames(n_frames, frame_bytes),
        download_seconds=port.seconds_for_frames(n_frames, frame_bytes),
        state_lost=True,
    )
