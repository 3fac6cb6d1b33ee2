"""Classical bit-string substrate.

``BitString`` stores bits packed eight-to-a-byte (``numpy.packbits``
layout) so that megabit Monte Carlo keys stay cheap to hold and XOR.
Values are immutable: every operation returns a new instance.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


class BitString:
    """Immutable ordered sequence of {0,1} with GF(2) arithmetic."""

    __slots__ = ("_packed", "_length")

    def __init__(self, bits: Iterable[int] | np.ndarray):
        arr = np.asarray(list(bits) if not isinstance(bits, np.ndarray) else bits,
                         dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if arr.size and not np.all((arr == 0) | (arr == 1)):
            raise ValueError("bits must be 0 or 1")
        self._packed = np.packbits(arr)
        self._length = int(arr.size)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_packed(cls, packed: np.ndarray, length: int) -> "BitString":
        obj = cls.__new__(cls)
        obj._packed = packed
        obj._length = length
        return obj

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "BitString":
        """Build from a uint8 0/1 array without python-level iteration."""
        arr = np.asarray(arr, dtype=np.uint8)
        return cls._from_packed(np.packbits(arr), int(arr.size))

    # -- views -------------------------------------------------------------

    def to_array(self) -> np.ndarray:
        """Unpacked uint8 0/1 array of length ``len(self)``."""
        if self._length == 0:
            return np.zeros(0, dtype=np.uint8)
        return np.unpackbits(self._packed)[: self._length]

    def to_binary(self) -> str:
        return "".join("1" if b else "0" for b in self.to_array())

    def to_hex(self) -> str:
        """Hex encoding, zero-padded to whole bytes (big-endian bit order)."""
        return self._packed.tobytes().hex()

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i):
        if isinstance(i, slice):
            return BitString.from_array(self.to_array()[i])
        i = int(i)
        if i < 0:
            i += self._length
        if not 0 <= i < self._length:
            raise IndexError("bit index out of range")
        return int((self._packed[i >> 3] >> (7 - (i & 7))) & 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._length == other._length and np.array_equal(self._packed, other._packed)

    def __hash__(self) -> int:
        return hash((self._length, self._packed.tobytes()))

    def __repr__(self) -> str:
        body = self.to_binary() if self._length <= 32 else self.to_binary()[:29] + "..."
        return f"BitString({body!r}, length={self._length})"

    # -- GF(2) operations ----------------------------------------------------

    def __xor__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        if self._length != other._length:
            raise ValueError(
                f"length mismatch: {self._length} != {other._length}")
        return BitString._from_packed(self._packed ^ other._packed, self._length)

    def hamming_weight(self) -> int:
        return int(self.to_array().sum())

    def hamming_distance(self, other: "BitString") -> int:
        return (self ^ other).hamming_weight()


def random_packed(n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent uniform bits from the given generator, packed.

    The bits are drawn as packed bytes, eight to a byte of the stream; the
    pad bits of the last byte are zeroed, as ``packbits`` leaves them.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    packed = rng.integers(0, 256, -(-n // 8), dtype=np.uint8)
    packed[-1:] &= (0xFF << (-n % 8)) & 0xFF
    return packed


def random_bits(n: int, rng: np.random.Generator) -> BitString:
    """n independent uniform bits from the given generator, drawn by
    ``random_packed``."""
    return BitString._from_packed(random_packed(n, rng), n)


def random_index(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform int8 indices into range(k); one packed bit each if k = 2."""
    if k == 2:
        return np.unpackbits(random_packed(n, rng), count=n).view(np.int8)
    return rng.integers(0, k, size=n, dtype=np.int8)
