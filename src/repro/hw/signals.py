"""Bit-level signal values and symbol encoders for the hardware model.

The Fig. 5 datapath works on binary words: the F-RAM/G-RAM address is the
concatenation of the encoded input and the encoded current state, and the
data words are encoded next-state/output values.  :class:`BitVector` is a
fixed-width two's-free unsigned word with slicing and concatenation, and
:class:`SymbolEncoder` binds the symbolic FSM view to the binary one via
:class:`~repro.core.alphabet.Alphabet` codes.
"""

from __future__ import annotations

from typing import Iterable, Tuple, Union

from ..core.alphabet import Alphabet, Symbol


class BitVector:
    """Immutable fixed-width unsigned binary word (MSB-first rendering).

    >>> BitVector(5, width=4)
    BitVector('0101')
    >>> (BitVector(2, 2) @ BitVector(1, 1)).value
    5
    >>> BitVector(6, 3)[0]
    1
    """

    __slots__ = ("_value", "_width")

    def __init__(self, value: int, width: int):
        if width < 1:
            raise ValueError("width must be positive")
        if not 0 <= value < (1 << width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._value = value
        self._width = width

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        """Build from an MSB-first bit iterable."""
        bits = tuple(bits)
        value = 0
        for bit in bits:
            if bit not in (0, 1):
                raise ValueError(f"non-binary bit {bit!r}")
            value = (value << 1) | bit
        return cls(value, len(bits))

    @property
    def value(self) -> int:
        """The word interpreted as an unsigned integer."""
        return self._value

    @property
    def width(self) -> int:
        """The word width in bits."""
        return self._width

    @property
    def bits(self) -> Tuple[int, ...]:
        """MSB-first tuple of bits."""
        return tuple(
            (self._value >> shift) & 1
            for shift in range(self._width - 1, -1, -1)
        )

    def __matmul__(self, other: "BitVector") -> "BitVector":
        """Concatenation: ``self`` becomes the high bits."""
        return BitVector(
            (self._value << other._width) | other._value,
            self._width + other._width,
        )

    def __getitem__(self, index: Union[int, slice]) -> Union[int, "BitVector"]:
        bits = self.bits
        if isinstance(index, slice):
            return BitVector.from_bits(bits[index])
        return bits[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return (self._value, self._width) == (other._value, other._width)

    def __hash__(self) -> int:
        return hash((self._value, self._width))

    def __str__(self) -> str:
        return format(self._value, f"0{self._width}b")

    def __repr__(self) -> str:
        return f"BitVector('{self}')"


class SymbolEncoder:
    """Bidirectional symbol ↔ :class:`BitVector` mapping for one alphabet."""

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet

    @property
    def width(self) -> int:
        """Code width in bits."""
        return self.alphabet.width

    def encode(self, symbol: Symbol) -> BitVector:
        """Encode a symbol as its canonical code word."""
        return BitVector(self.alphabet.index(symbol), self.alphabet.width)

    def decode(self, word: BitVector) -> Symbol:
        """Decode a code word; raises ``ValueError`` on garbage codes."""
        if word.width != self.alphabet.width:
            raise ValueError(
                f"word width {word.width} != alphabet width {self.alphabet.width}"
            )
        if word.value >= len(self.alphabet):
            raise ValueError(f"code {word.value} names no symbol")
        return self.alphabet.symbol(word.value)


def address_code(input_code: int, state_code: int, state_width: int) -> int:
    """The F-RAM/G-RAM address ``{i', s}`` as an int: the input code in
    the high bits, the state code in the low ``state_width`` bits.

    Matches Fig. 5, where "the address of the memory blocks F-RAM and
    G-RAM depend on the external input i and the current state s".

    >>> address_code(1, 0b10, 2)
    6
    """
    return (input_code << state_width) | state_code


def ram_address(input_word: BitVector, state_word: BitVector) -> BitVector:
    """The F-RAM/G-RAM address as a word: encoded input concatenated
    with state (:func:`address_code` at the words' widths)."""
    return BitVector(
        address_code(input_word.value, state_word.value, state_word.width),
        input_word.width + state_word.width,
    )
