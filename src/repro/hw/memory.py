"""Synchronous RAM blocks modelling the F-RAM and G-RAM of Fig. 5.

The paper realises the reconfigurable transition and output functions in
embedded FPGA memory blocks (Block RAM on the Virtex XCV300).  The model
here is a single-port RAM with asynchronous (combinational) read — the
read word feeds the state register's D input within the same cycle — and
one synchronous write port, which is precisely what limits gradual
reconfiguration to *one table entry per clock cycle*.
"""

from __future__ import annotations

from typing import Dict, Optional

from .signals import BitVector


class UninitialisedRead(RuntimeError):
    """A never-written RAM word was read in a context that forbids it.

    Physically the read would return whatever the SRAM powered up with;
    the simulator treats that as an error so that bugs where the machine
    latches garbage are caught instead of silently producing nonsense.
    """


class SyncRAM:
    """Word-addressable RAM: asynchronous read, one synchronous write/cycle.

    Parameters
    ----------
    address_width, data_width:
        Geometry in bits; the RAM holds ``2**address_width`` words.
    name:
        Used in error messages and traces ("F-RAM" / "G-RAM").
    write_first:
        Read-during-write behaviour.  ``True`` (default) returns the
        freshly written word when reading the address being written this
        cycle — the behaviour the paper's reconfiguration semantics
        requires, since the newly written transition is *taken* in the
        same cycle it is written.
    """

    def __init__(
        self,
        address_width: int,
        data_width: int,
        name: str = "ram",
        write_first: bool = True,
    ):
        if address_width < 1 or data_width < 1:
            raise ValueError("RAM geometry must be positive")
        self.address_width = address_width
        self.data_width = data_width
        self.name = name
        self.write_first = write_first
        self._depth = 1 << address_width
        self._data_limit = 1 << data_width
        self._words: Dict[int, int] = {}
        self._pending: Optional[tuple] = None
        self.write_count = 0
        # Monotonic generation counter: bumped by every mutation of the
        # committed contents (bulk load, committed write, erase).  The
        # batch engine (repro.engine) snapshots it when compiling a RAM
        # into a dense table and treats any change as invalidation, so a
        # compiled view can never serve stale words.
        self.version = 0

    @property
    def depth(self) -> int:
        """Number of addressable words."""
        return self._depth

    @property
    def bits(self) -> int:
        """Total capacity in bits."""
        return self.depth * self.data_width

    def load(self, contents: Dict[int, int]) -> None:
        """Bulk-initialise words (the compile-time configuration download)."""
        for addr, data in contents.items():
            self._check_addr(addr)
            self._check_data(data)
            self._words[addr] = data
        if contents:
            self.version += 1

    def peek(self, address: int) -> Optional[int]:
        """Debug read without modelling semantics; ``None`` if unwritten."""
        self._check_addr(address)
        return self._words.get(address)

    def erase(self, address: int) -> bool:
        """Drop one word back to the uninitialised state.

        Models a stuck-open / readback-parity-failed SRAM cell for fault
        injection: the next :meth:`read` of the address returns ``None``
        (and the datapath raises :class:`UninitialisedRead` when that
        feeds ST-REG).  Returns whether the word had been written.
        """
        self._check_addr(address)
        erased = self._words.pop(address, None) is not None
        if erased:
            self.version += 1
        return erased

    def read(self, address: BitVector) -> Optional[int]:
        """Combinational read; ``None`` models uninitialised contents."""
        self._check_width(address)
        return self.read_at(address.value)

    def read_at(self, address: int) -> Optional[int]:
        """:meth:`read` by int address — the path the datapath clocks."""
        if not 0 <= address < self._depth:
            raise ValueError(f"{self.name}: address {address} out of range")
        pending = self._pending
        if self.write_first and pending is not None and pending[0] == address:
            return pending[1]
        return self._words.get(address)

    def write(self, address: BitVector, data: BitVector) -> None:
        """Schedule a synchronous write for the next clock edge (see
        :meth:`write_at`)."""
        self._check_width(address)
        if data.width != self.data_width:
            raise ValueError(
                f"{self.name}: data width {data.width} != {self.data_width}"
            )
        self.write_at(address.value, data.value)

    def write_at(self, address: int, data: int) -> None:
        """Schedule a synchronous write of ``data`` to int ``address``.

        A second write in the same cycle raises — the physical port
        constraint that bounds reconfiguration to one entry per cycle
        (and underpins the ``|T_d|`` lower bound, Thm. 4.3).
        """
        if not 0 <= address < self._depth:
            raise ValueError(f"{self.name}: address {address} out of range")
        if not 0 <= data < self._data_limit:
            raise ValueError(f"{self.name}: data {data} out of range")
        if self._pending is not None:
            raise RuntimeError(
                f"{self.name}: second write scheduled in the same cycle"
            )
        self._pending = (address, data)

    def clock(self) -> None:
        """Rising clock edge: commit the pending write, if any."""
        if self._pending is not None:
            addr, data = self._pending
            self._words[addr] = data
            self._pending = None
            self.write_count += 1
            self.version += 1

    def dump(self) -> Dict[int, int]:
        """Copy of the current contents (committed words only)."""
        return dict(self._words)

    def _check_addr(self, address: int) -> None:
        if not 0 <= address < self._depth:
            raise ValueError(f"{self.name}: address {address} out of range")

    def _check_data(self, data: int) -> None:
        if not 0 <= data < self._data_limit:
            raise ValueError(f"{self.name}: data {data} out of range")

    def _check_width(self, address: BitVector) -> None:
        if address.width != self.address_width:
            raise ValueError(
                f"{self.name}: address width {address.width} != "
                f"{self.address_width}"
            )

    def __repr__(self) -> str:
        return (
            f"SyncRAM(name={self.name!r}, {self.depth}x{self.data_width}, "
            f"{len(self._words)} words written)"
        )
