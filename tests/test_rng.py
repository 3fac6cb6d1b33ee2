import numpy as np

from qkdsim.rng import derive_rng


def test_same_seed_same_stream():
    a = derive_rng(123).random(100)
    b = derive_rng(123).random(100)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(derive_rng(1).random(10),
                              derive_rng(2).random(10))


def test_derived_streams_deterministic():
    a = derive_rng(9, 3, 1).random(50)
    b = derive_rng(9, 3, 1).random(50)
    assert np.array_equal(a, b)


def test_derived_streams_independent_of_sibling_use():
    first = derive_rng(9, 0)
    first.random(1000)            # consuming one stream
    a = derive_rng(9, 1).random(20)
    b = derive_rng(9, 1).random(20)
    assert np.array_equal(a, b)


def test_derived_indices_distinguish():
    assert not np.array_equal(derive_rng(9, 0).random(10),
                              derive_rng(9, 1).random(10))
