import numpy as np
import pytest
from hypothesis import given, strategies as st

from qkdsim.bits import BitString, random_bits
from qkdsim.rng import derive_rng

bit_lists = st.lists(st.integers(0, 1), min_size=0, max_size=200)
nonempty_bits = st.lists(st.integers(0, 1), min_size=1, max_size=200)


def test_roundtrip_array():
    arr = np.array([1, 0, 1, 1, 0, 0, 0, 1, 1], dtype=np.uint8)
    assert np.array_equal(BitString.from_array(arr).to_array(), arr)


def test_roundtrip_binary_string():
    s = "110100101"
    assert BitString([int(c) for c in s]).to_binary() == s


def test_hex_encoding():
    assert BitString([1, 1, 1, 1, 0, 0, 0, 0]).to_hex() == "f0"


@given(bit_lists, st.integers(-210, 210), st.integers(-210, 210),
       st.sampled_from([None, 1, 2, -1, 3]))
def test_slice_matches_array_slice(bits, start, stop, step):
    arr = np.array(bits, dtype=np.uint8)
    got = BitString.from_array(arr)[start:stop:step]
    assert np.array_equal(got.to_array(), arr[start:stop:step])


def test_zeros():
    z = BitString.from_array(np.zeros(13))
    assert len(z) == 13 and z.hamming_weight() == 0


@given(bit_lists)
def test_pack_unpack_roundtrip(bits):
    assert BitString(bits).to_array().tolist() == bits


@given(nonempty_bits, nonempty_bits)
def test_xor_matches_elementwise(a_bits, b_bits):
    n = min(len(a_bits), len(b_bits))
    a, b = BitString(a_bits[:n]), BitString(b_bits[:n])
    expect = [x ^ y for x, y in zip(a_bits[:n], b_bits[:n])]
    assert (a ^ b).to_array().tolist() == expect


@given(nonempty_bits)
def test_xor_self_is_zero(bits):
    a = BitString(bits)
    assert (a ^ a).hamming_weight() == 0


def test_xor_length_mismatch_raises():
    with pytest.raises(ValueError):
        BitString([1, 0]) ^ BitString([1, 0, 1])


def test_hamming():
    a = BitString([1, 0, 1, 1])
    b = BitString([1, 1, 1, 0])
    assert a.hamming_weight() == 3
    assert a.hamming_distance(b) == 2


@given(nonempty_bits, st.integers(0, 2 ** 31))
def test_vernam_roundtrip(bits, seed):
    m = BitString(bits)
    k = random_bits(len(bits), derive_rng(seed))
    assert (m ^ k) ^ k == m


def test_random_bits_balanced():
    n = 100000
    bits = random_bits(n, derive_rng(5))
    assert abs(bits.hamming_weight() / n - 0.5) < 5 * (0.25 / n) ** 0.5


@pytest.mark.parametrize("n", [*range(18), 2 ** 16 + 3])
def test_random_bits_pad_bits_are_zero(n):
    # equality, hashing and to_hex read the packed bytes, pad bits included
    bits = random_bits(n, derive_rng(n))
    assert len(bits) == n
    assert bits == BitString.from_array(bits.to_array())


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 1000, 2 ** 16 + 3])
def test_random_bits_draws_a_byte_per_eight_bits(n):
    rng, ref = derive_rng(4, n), derive_rng(4, n)
    bits = random_bits(n, rng)
    packed = ref.integers(0, 256, -(-n // 8), dtype=np.uint8)
    assert np.array_equal(bits.to_array(), np.unpackbits(packed)[:n])
    assert np.array_equal(rng.random(4), ref.random(4))
