"""Classical bit-string substrate.

``BitString`` stores bits packed eight-to-a-byte (``numpy.packbits``
layout) so that megabit Monte Carlo keys stay cheap to hold and XOR.
Values are immutable: every operation returns a new instance.
"""

from __future__ import annotations

from typing import Iterable, Sequence

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

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls.from_array(np.zeros(n, dtype=np.uint8))

    @classmethod
    def from_binary_string(cls, text: str) -> "BitString":
        return cls.from_array(np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0"))

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
            start, stop, step = i.indices(self._length)
            if step != 1:
                return BitString.from_array(self.to_array()[i])
            lo = start >> 3   # unpack only the bytes the slice covers
            bits = np.unpackbits(self._packed[lo:(stop + 7) >> 3])
            return BitString.from_array(bits[start - 8 * lo: stop - 8 * lo])
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

    def parity(self, positions: Sequence[int] | np.ndarray | None = None) -> int:
        """Mod-2 sum of the selected bits (all bits when positions is None)."""
        bits = self.to_array()
        if positions is None:
            return int(bits.sum() & 1)
        idx = np.asarray(positions, dtype=np.intp)
        if idx.size == 0:
            return 0
        if idx.min() < 0 or idx.max() >= self._length:
            raise IndexError("parity position out of range")
        return int(bits[idx].sum() & 1)

    def permute(self, perm: Sequence[int] | np.ndarray) -> "BitString":
        """Return t with t[perm[i]] = self[i]; perm must be a bijection."""
        perm = np.asarray(perm, dtype=np.intp)
        if perm.size != self._length:
            raise ValueError("permutation length mismatch")
        out = np.empty(self._length, dtype=np.uint8)
        counts = np.zeros(self._length, dtype=np.uint8)
        if self._length:
            if perm.min() < 0 or perm.max() >= self._length:
                raise ValueError("permutation image out of range")
            np.add.at(counts, perm, 1)
            if counts.max() > 1:
                raise ValueError("mapping is not a bijection")
        out[perm] = self.to_array()
        return BitString.from_array(out)

    def hamming_weight(self) -> int:
        return int(self.to_array().sum())

    def hamming_distance(self, other: "BitString") -> int:
        return (self ^ other).hamming_weight()


def xor(a: BitString, b: BitString) -> BitString:
    return a ^ b


def vernam_encrypt(message: BitString, key: BitString) -> BitString:
    """One-time-pad encryption: bitwise addition modulo 2."""
    return message ^ key


def vernam_decrypt(cipher: BitString, key: BitString) -> BitString:
    """Identical to encryption; double modulo-2 addition is the identity."""
    return cipher ^ key


def random_bits(n: int, rng: np.random.Generator) -> BitString:
    """n independent uniform bits from the given generator."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return BitString.from_array(rng.integers(0, 2, size=n, dtype=np.uint8))
