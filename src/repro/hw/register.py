"""Clocked register and multiplexer primitives of the Fig. 5 datapath."""

from __future__ import annotations

from typing import Optional

from .signals import BitVector


class Register:
    """Edge-triggered D register bank (the paper's ST-REG).

    The D input is driven combinationally during the cycle; the Q output
    changes only on :meth:`clock`.  Construction fixes the width and the
    power-up value.  The bank holds an int code; :attr:`q` and
    :meth:`drive` are its :class:`BitVector` view, :attr:`code` and
    :meth:`drive_code` the int one the datapath clocks.
    """

    def __init__(self, width: int, initial: BitVector, name: str = "reg"):
        if initial.width != width:
            raise ValueError("initial value width mismatch")
        self.width = width
        self.name = name
        self._q = initial.value
        self._d: Optional[int] = None

    @property
    def q(self) -> BitVector:
        """The registered output (stable within a cycle)."""
        return BitVector(self._q, self.width)

    @property
    def code(self) -> int:
        """The registered output as an int code."""
        return self._q

    def drive(self, value: BitVector) -> None:
        """Drive the D input for this cycle."""
        if value.width != self.width:
            raise ValueError(f"{self.name}: D width {value.width} != {self.width}")
        self._d = value.value

    def drive_code(self, code: int) -> None:
        """Drive the D input with an int code that fits :attr:`width`
        (the caller's contract: the datapath drives RAM words and
        encoder codes of this width)."""
        self._d = code

    def clock(self) -> None:
        """Rising edge: latch D into Q.  D must have been driven."""
        if self._d is None:
            raise RuntimeError(f"{self.name}: clocked with undriven D input")
        self._q = self._d
        self._d = None

    def __repr__(self) -> str:
        return f"Register(name={self.name!r}, q={self.q})"


def mux2(select: bool, when_true: BitVector, when_false: BitVector) -> BitVector:
    """2:1 multiplexer (IN-MUX / RST-MUX of Fig. 5).

    ``select`` chooses ``when_true``; widths must agree.
    """
    if when_true.width != when_false.width:
        raise ValueError("mux input widths differ")
    return when_true if select else when_false
