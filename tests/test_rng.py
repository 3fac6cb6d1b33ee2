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


def test_an_index_path_and_its_zero_padded_extensions_differ():
    # SeedSequence pads short entropy with zero words, so an index path
    # hashed as entropy equals itself with zeros appended; as a spawn key
    # it does not
    paths = [(), (0,), (0, 0), (0, 0, 0), (1,), (1, 0), (0, 1), (3,), (3, 0)]
    firsts = {tuple(derive_rng(seed, *path).bit_generator.random_raw(2))
              for seed in (0, 1, 2) for path in paths}
    assert len(firsts) == 3 * len(paths)


def test_derive_rng_draws_the_numpy_spawn_tree_on_pcg64dxsm():
    for seed, path in [(0, ()), (7, (0,)), (9, (3, 1)), (2 ** 40, (5, 0, 2))]:
        seq = np.random.SeedSequence(seed)
        for i in path:
            seq = seq.spawn(i + 1)[i]
        expect = np.random.PCG64DXSM(seq).random_raw(8)
        rng = derive_rng(seed, *path)
        assert type(rng.bit_generator) is np.random.PCG64DXSM
        assert np.array_equal(rng.bit_generator.random_raw(8), expect)


def test_engine_output_is_pinned():
    # a change of engine or of numpy's seeding moves every seeded digest;
    # this names the cause
    assert derive_rng(0, 1).bit_generator.random_raw(2).tolist() == [
        16653638966392292, 272611748175674375]
