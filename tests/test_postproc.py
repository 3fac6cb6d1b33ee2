import collections
import dataclasses
import itertools
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qkdsim import postproc
from qkdsim.bits import BitString, random_bits
from qkdsim.postproc import (PRODUCTION_PRIME, AuthConfig, NoSecureKey,
                             OtpPoolExhausted, PipelineParams,
                             PublicChannelLog, advantage_distill,
                             authenticate, bbbss_correct, estimate_qber,
                             privacy_amplify, remove_positions,
                             run_pipeline_on_keys, toeplitz_hash, verify)
from qkdsim.rates import binary_entropy
from qkdsim.rng import derive_rng
from reference import parity_knowledge


def flip_fraction(bits, eps, rng):
    flips = (rng.random(len(bits)) < eps).astype(np.uint8)
    return BitString.from_array(bits.to_array() ^ flips)


# ---------------------------------------------------------------------------
# error estimation
# ---------------------------------------------------------------------------

def test_estimate_identical_strings():
    rng = derive_rng(1)
    a = random_bits(1000, rng)
    eps, pos = estimate_qber(a, a, 0.2, rng)
    assert eps == 0.0
    assert len(pos) == 200


def test_estimate_quarter_flips():
    rng = derive_rng(2)
    n = 100000
    a = random_bits(n, rng)
    b_arr = a.to_array().copy()
    b_arr[::4] ^= 1
    eps, _ = estimate_qber(a, BitString.from_array(b_arr), 0.5, rng)
    assert eps == pytest.approx(0.25, abs=0.01)


def test_estimate_full_census_exact():
    rng = derive_rng(3)
    a = random_bits(1000, rng)
    b = flip_fraction(a, 0.1, rng)
    true_eps = a.hamming_distance(b) / 1000
    eps, pos = estimate_qber(a, b, 1.0, rng)
    assert eps == pytest.approx(true_eps)
    assert len(pos) == 1000


def test_estimate_validations():
    rng = derive_rng(4)
    with pytest.raises(ValueError):
        estimate_qber(BitString([1]), BitString([1, 0]), 0.5, rng)
    with pytest.raises(ValueError):
        estimate_qber(BitString([1]), BitString([1]), 0.0, rng)


def test_remove_positions():
    a = BitString([1, 0, 1, 1, 0])
    out = remove_positions(a, np.array([0, 3]))
    assert out.to_array().tolist() == [0, 1, 0]


# ---------------------------------------------------------------------------
# reconciliation
# ---------------------------------------------------------------------------

def test_bbbss_zero_errors_is_identity():
    rng = derive_rng(5)
    a = random_bits(2000, rng)
    rec = bbbss_correct(a, a, 0.03, rng)
    assert rec.corrected_alice == a and rec.corrected_bob == a
    assert rec.leaked_bits > 0      # verification parities still disclosed


def test_bbbss_corrects_three_percent():
    rng = derive_rng(6)
    a = random_bits(10000, rng)
    b = flip_fraction(a, 0.03, rng)
    rec = bbbss_correct(a, b, 0.03, rng)
    assert rec.corrected_alice == rec.corrected_bob
    assert rec.corrected_alice == a        # Bob is corrected toward Alice


def test_bbbss_even_error_block_caught_by_later_pass():
    # two errors inside what pass 1 sees as one block (of 100 bits: the
    # estimate 0.0073 sets it) cancel in its parity;
    # the later permuted passes and the subset phase must still catch them
    rng = derive_rng(7)
    n = 400
    a = BitString.from_array(np.zeros(n))
    b_arr = a.to_array().copy()
    b_arr[10] ^= 1
    b_arr[11] ^= 1
    rec = bbbss_correct(a, BitString.from_array(b_arr), 0.0073, rng)
    assert rec.corrected_alice == rec.corrected_bob


def test_bbbss_counts_every_parity_in_log():
    rng = derive_rng(8)
    a = random_bits(3000, rng)
    b = flip_fraction(a, 0.02, rng)
    log = PublicChannelLog()
    rec = bbbss_correct(a, b, 0.02, rng, log=log)
    assert log.leaked_parity_count == rec.leaked_bits


def test_bbbss_leaked_bits_counts_only_its_own_parities():
    data_rng = derive_rng(10)
    a = random_bits(3000, data_rng)
    b = flip_fraction(a, 0.02, data_rng)
    alone = bbbss_correct(a, b, 0.02, derive_rng(11))      # private log
    log = PublicChannelLog()
    log.post("both", "qber_sample", {"positions": 300})
    first = bbbss_correct(a, b, 0.02, derive_rng(11), log=log)
    second = bbbss_correct(a, b, 0.02, derive_rng(11), log=log)
    assert alone.leaked_bits == first.leaked_bits == second.leaked_bits > 0
    assert log.leaked_parity_count == 2 * alone.leaked_bits


def test_bbbss_validations():
    rng = derive_rng(9)
    with pytest.raises(ValueError):
        bbbss_correct(BitString([1]), BitString([1, 0]), 0.03, rng)
    with pytest.raises(ValueError):
        bbbss_correct(BitString([1, 0]), BitString([1, 0]), 0.7, rng)


def _reference_bisect(a, b, bits, log):
    """Bisect the bits `bits` (key indices, in search order), whose
    parities differ, one half at a time; flip Bob's bit found."""
    leaked, lo, hi = 0, 0, len(bits)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        leaked += 1
        log.post("alice->bob", "parity", {"range": (lo, mid)})
        if a[bits[lo:mid]].sum() % 2 != b[bits[lo:mid]].sum() % 2:
            hi = mid
        else:
            lo = mid
    b[bits[lo]] ^= 1
    return leaked


def affine_slots(n, rng):
    """The slot of each bit under one pass's public map i -> (a i + b) mod n:
    a drawn until it is a unit mod n, then b."""
    a = int(rng.integers(n))
    while math.gcd(a, n) != 1:
        a = int(rng.integers(n))
    b = int(rng.integers(n))
    return np.array([(a * i + b) % n for i in range(n)])


def reference_cascade(alice, bob, eps_est, rng, log):
    """Scalar reference Cascade: one bisection at a time, block by block.

    Blocks of 0.73/eps_est bits double each pass, up to n/2; the passes
    stop after four, or after the first whose blocks are n/2.  Each pass's
    blocks hold the bits in slot order (bit i sits in slot (a i + b) mod n
    of the pass's map).  When the queue of blocks runs dry, the parities of
    every block of every pass so far are compared afresh, and the queue
    refills with the differing blocks of the newest pass that has any.  Returns the keys, parities disclosed, rounds, whether the
    subset phase ended, and the (newest pass, pass bisected) of each refill.
    """
    a = alice.to_array().astype(np.int64)
    b = bob.to_array().astype(np.int64)
    n = a.size
    leaked = rounds = 0
    cap = max(2, n // 2)
    sizes = [min(max(2, int(0.73 / eps_est)), cap)]
    while len(sizes) < 4 and sizes[-1] < cap:
        sizes.append(min(2 * sizes[-1], cap))
    passes, refills = [], []
    for p, size in enumerate(sizes):
        rounds += 1
        in_slot = np.argsort(affine_slots(n, rng))
        passes.append([in_slot[s:s + size] for s in range(0, n, size)])
        leaked += len(passes[p])
        log.post("alice->bob", "parity",
                 {"pass_block_parities": len(passes[p])})
        queue = collections.deque()
        while True:
            if not queue:
                differing = [[blk for blk in blocks
                              if a[blk].sum() % 2 != b[blk].sum() % 2]
                             for blocks in passes]
                pending = [q for q in range(p + 1) if differing[q]]
                if not pending:
                    break
                refills.append((p, pending[-1]))
                queue.extend(differing[pending[-1]])
            leaked += _reference_bisect(a, b, queue.popleft(), log)
    clean = subset_rounds = 0
    while clean < 20 and subset_rounds < 1200:
        subset_rounds += 1
        rounds += 1
        mask_bytes = rng.integers(0, 256, -(-n // 8), dtype=np.uint8)
        mask = np.unpackbits(mask_bytes)[:n].astype(bool)
        leaked += 1
        log.post("alice->bob", "parity", {"subset_size": int(mask.sum())})
        if a[mask].sum() % 2 == b[mask].sum() % 2:
            clean += 1
            continue
        clean = 0
        idxs = np.flatnonzero(mask)
        rng.shuffle(idxs)
        leaked += _reference_bisect(a, b, idxs, log)
    return (BitString.from_array(a), BitString.from_array(b), leaked, rounds,
            clean >= 20), refills


def backtracking_keys(n, eps_est, seed):
    """Keys that differ in four bits x, y, w and v, placed with the first
    two slot maps derive_rng(seed) draws: pass 1 holds x with y and w with
    v, two blocks of even parity; pass 2 holds x alone, v alone and y with
    w.  Pass 2 fixes x and v, which leaves pass 1's two blocks odd, so only
    a re-bisection of pass 1 (backtracking) fixes y and w."""
    rng = derive_rng(seed)
    k = int(0.73 / eps_est)
    blk1, blk2 = affine_slots(n, rng) // k, affine_slots(n, rng) // (2 * k)
    y = 0
    w = np.flatnonzero((blk2 == blk2[y]) & (blk1 != blk1[y]))[0]
    x = np.flatnonzero((blk1 == blk1[y]) & (blk2 != blk2[y]))[0]
    v = np.flatnonzero((blk1 == blk1[w]) & (blk2 != blk2[y])
                       & (blk2 != blk2[x]))[0]
    a = random_bits(n, rng)
    b = a.to_array().copy()
    b[[x, y, w, v]] ^= 1
    return a, BitString.from_array(b)


def assert_matches_reference(a, b, eps_est, seed, passes):
    """bbbss_correct and reference_cascade agree on the keys, the counts
    and every log payload, and run `passes` passes; returns the
    reference's refills."""
    log, ref_events = PublicChannelLog(), []
    rec = bbbss_correct(a, b, eps_est, derive_rng(seed), log=log)
    ref, refills = reference_cascade(
        a, b, eps_est, derive_rng(seed),
        SimpleNamespace(post=lambda *msg: ref_events.append(msg[2])))
    assert (rec.corrected_alice, rec.corrected_bob, rec.leaked_bits,
            rec.rounds, True) == ref
    # one message per pass or subset round: its header event and a count of
    # the range events after it; repr also pins key order and Python ints
    groups = []
    for payload in ref_events:
        if "range" in payload:
            groups[-1]["bisect_parities"] += 1
        else:
            groups.append({**payload, "bisect_parities": 0})
    assert repr([m["payload"] for m in log.messages]) == repr(groups)
    assert {(m["direction"], m["purpose"]) for m in log.messages} == {
        ("alice->bob", "parity")}
    assert log.leaked_parity_count == rec.leaked_bits
    assert sum("pass_block_parities" in m["payload"]
               for m in log.messages) == passes
    return refills


@pytest.mark.parametrize("n, eps, eps_est, seed", [   # eps_est None: eps
    (5000, 0.03, None, 40),
    (997, 0.08, None, 41),      # blocks of 9, the last one of 7
    (301, 0.10, 0.3, 43),       # blocks of 2, the last one of 1
    (302, 0.10, 0.2, 44),       # blocks of 3, the last one of 2
    (7, 0.20, None, 45),        # blocks of 3, 3 and 1: one pass, at n/2
    (100, 0.03, None, 53),      # three passes: blocks of 24, 48 and 50
    (100, 0.05, 0.02, 54),      # two passes: blocks of 36 and 50
    (20000, 0.02, None, 46),
    (4000, 0.05, 0.0073, 47),   # blocks of 100, five errors in each on average
    (1000, None, 0.0145, 51),   # eps None: backtracking_keys, blocks of 50
])
def test_bbbss_lockstep_matches_scalar_reference(n, eps, eps_est, seed):
    if eps is None:
        a, b = backtracking_keys(n, eps_est, seed + 1000)
    else:
        data_rng = derive_rng(seed)
        a = random_bits(n, data_rng)
        b = flip_fraction(a, eps, data_rng)
    eps_est = eps if eps_est is None else eps_est
    refills = assert_matches_reference(a, b, eps_est, seed + 1000,
                                       {45: 1, 53: 3, 54: 2}.get(seed, 4))
    if eps is None:     # pass 2 (index 1) sends the search back to pass 1
        assert (1, 0) in refills


def test_bbbss_subset_phase_matches_scalar_reference():
    # an estimate 40 times too low starts the blocks at n/2: one pass of two
    # blocks leaves errors, which the subset rounds bisect one at a time
    data_rng = derive_rng(52)
    a = random_bits(2000, data_rng)
    assert_matches_reference(a, flip_fraction(a, 0.02, data_rng), 0.0005,
                             1052, 1)


def test_bbbss_passes_double_blocks_up_to_half_the_key():
    # blocks start at 24 (0.73 / 0.03) and double up to n/2; at most four
    # passes run, fewer when the blocks reach n/2 sooner

    def pass_blocks(n):
        rng = derive_rng(48)
        a = random_bits(n, rng)
        b = flip_fraction(a, 0.03, rng)
        log = PublicChannelLog()
        bbbss_correct(a, b, 0.03, derive_rng(49), log=log)
        return [m["payload"]["pass_block_parities"] for m in log.messages
                if "pass_block_parities" in m["payload"]]

    n = 10000                           # nine passes would reach n/2
    assert pass_blocks(n) == [math.ceil(n / (24 << i)) for i in range(4)]
    assert pass_blocks(100) == [5, 3, 2]        # blocks 24, 48, 50
    assert pass_blocks(40) == [2]               # blocks 20: already n/2


def test_bbbss_single_pass_leaves_many_errors_and_still_converges():
    # an estimate of 1e-5 against 10% errors starts the blocks at n/2, so
    # one pass of two blocks leaves ~2000 errors; the subset phase corrects
    # one per disagreeing round, so it runs some 4000 rounds, with no cap
    rng = derive_rng(64)
    a = random_bits(20000, rng)
    b = flip_fraction(a, 0.10, rng)
    log = PublicChannelLog()
    rec = bbbss_correct(a, b, 1e-5, rng, log=log)
    assert rec.corrected_alice == rec.corrected_bob == a
    assert sum("pass_block_parities" in m["payload"]
               for m in log.messages) == 1
    assert rec.rounds > 1200


def test_pipeline_with_one_pass_distills_a_key():
    # a 4-bit sample finds none of the 1% errors, so reconciliation runs at
    # the estimate floor 1/n: one pass, then the subset phase fixes the rest
    rng = derive_rng(67)
    a = random_bits(40000, rng)
    b = flip_fraction(a, 0.01, rng)
    res = run_pipeline_on_keys(a, b, PipelineParams(sample_fraction=1e-4),
                               rng)
    assert res.qber_estimate == 0.0
    assert sum("pass_block_parities" in m["payload"]
               for m in res.log.messages) == 1
    assert not res.aborted and res.final_length > 0


def test_bbbss_converges_at_a_million_bits():
    # four passes at any n, disclosing at most 1.2 times the Shannon limit;
    # residual errors would leave the subset phase finding them one per two
    # O(n) rounds
    n, eps = 1_000_000, 0.02
    rng = derive_rng(50)
    a = random_bits(n, rng)
    b = flip_fraction(a, eps, rng)
    errors = a.hamming_distance(b)
    log = PublicChannelLog()
    rec = bbbss_correct(a, b, eps, rng, log=log)
    passes = sum("pass_block_parities" in m["payload"] for m in log.messages)
    assert rec.corrected_alice == rec.corrected_bob == a
    assert passes == 4
    assert rec.rounds - passes <= 20 + 10
    assert rec.leaked_bits <= 1.2 * n * binary_entropy(errors / n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 997, 1000, 30030, 2**16,
                               2**16 + 1])
def test_slot_map_is_a_bijection_with_a_unit_multiplier(n):
    # n = 1 and n = 2 have one unit each, so the draw loop must end there too
    rng = derive_rng(n)
    for _ in range(3):
        a, b = postproc._interleaver(n, rng)
        assert 0 <= a < n and 0 <= b < n and math.gcd(a, n) == 1
        slots = postproc._slots(np.arange(n, dtype=np.uint64), a, b, n)
        assert np.array_equal(np.sort(slots), np.arange(n))


def test_slot_arithmetic_is_exact_at_two_to_the_32_bits():
    n = 2**32
    a, b = n - 3, n - 1
    bits = np.array([0, 1, n // 2 + 1, n - 2, n - 1], dtype=np.uint64)
    assert postproc._slots(bits, a, b, n).tolist() == [
        (a * int(i) + b) % n for i in bits]


def test_bbbss_refuses_keys_longer_than_two_to_the_32_bits():
    big = BitString._from_packed(np.zeros(1, np.uint8), 2**32 + 1)
    with pytest.raises(ValueError, match=r"longer than 2\^32 bits"):
        bbbss_correct(big, big, 0.02, derive_rng(1))


def test_bbbss_traced_peak_stays_below_four_bytes_per_bit():
    # no n-length array per pass: four stored permutations took 24 B per bit
    n, eps = 1_000_000, 0.02
    rng = derive_rng(50)
    a = random_bits(n, rng)
    b = flip_fraction(a, eps, rng)
    tracemalloc.start()
    try:
        rec = bbbss_correct(a, b, eps, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.corrected_bob == a
    assert peak < 4 * n


# ---------------------------------------------------------------------------
# privacy amplification
# ---------------------------------------------------------------------------

@given(st.integers(1, 300), st.integers(1, 300), st.integers(0, 2**32 - 1))
@example(n=40, r=12, bits_seed=10)
@example(n=1, r=1, bits_seed=0)
@example(n=150, r=108, bits_seed=1)      # n + r - 1 = 257, prime
@example(n=1, r=293, bits_seed=2)        # 293, prime
@example(n=283, r=1, bits_seed=3)        # 283, prime
@example(n=300, r=300, bits_seed=4)      # 599, prime
def test_toeplitz_matches_explicit_matrix(n, r, bits_seed):
    rng = np.random.default_rng(bits_seed)
    key = rng.integers(0, 2, n)
    seed = rng.integers(0, 2, n + r - 1)
    out = toeplitz_hash(key, seed, r)
    T = seed[np.arange(r)[:, None] + n - 1 - np.arange(n)[None, :]]
    assert out.dtype == np.uint8
    assert np.array_equal(out, (T @ key) % 2)


def test_toeplitz_seed_length_validation():
    with pytest.raises(ValueError):
        toeplitz_hash(np.zeros(10), np.zeros(10), 5)
    with pytest.raises(ValueError):
        toeplitz_hash(np.ones(6), np.ones(3), -2)


def test_toeplitz_hash_is_linear():
    rng = derive_rng(14)
    for n, r in [(1, 1), (17, 5), (1000, 700), (4097, 2000)]:
        a = rng.integers(0, 2, n, dtype=np.uint8)
        b = rng.integers(0, 2, n, dtype=np.uint8)
        seed = rng.integers(0, 2, n + r - 1, dtype=np.uint8)
        assert np.array_equal(toeplitz_hash(a ^ b, seed, r),
                              toeplitz_hash(a, seed, r)
                              ^ toeplitz_hash(b, seed, r))


def test_toeplitz_hash_matches_scipy_convolve_at_2e5_bits():
    from scipy.signal import convolve
    rng = derive_rng(15)
    n, r = 200_000, 120_000
    key = rng.integers(0, 2, n, dtype=np.uint8)
    seed = rng.integers(0, 2, n + r - 1, dtype=np.uint8)
    conv = convolve(seed.astype(np.float64), key.astype(np.float64))
    expected = np.rint(conv[n - 1: n - 1 + r]).astype(np.int64) & 1
    assert np.array_equal(toeplitz_hash(key, seed, r), expected)


def test_toeplitz_hash_raises_instead_of_rounding_an_inexact_product(
        monkeypatch):
    rng = derive_rng(16)
    n, r = 500, 300
    key = rng.integers(0, 2, n, dtype=np.uint8)
    seed = rng.integers(0, 2, n + r - 1, dtype=np.uint8)
    exact = toeplitz_hash(key, seed, r)
    real_irfft, noise = np.fft.irfft, np.random.default_rng(0)

    def noisy_irfft(amplitude):
        def irfft(a, n=None, *args, **kwargs):
            out = real_irfft(a, n, *args, **kwargs)
            return out + amplitude * noise.uniform(-1.0, 1.0, out.size)
        return irfft

    monkeypatch.setattr(np.fft, "irfft", noisy_irfft(0.2))
    assert np.array_equal(toeplitz_hash(key, seed, r), exact)
    monkeypatch.setattr(np.fft, "irfft", noisy_irfft(0.5))
    with pytest.raises(FloatingPointError):
        toeplitz_hash(key, seed, r)


def test_toeplitz_hash_of_empty_key_or_output():
    assert toeplitz_hash(np.zeros(0), np.ones(4), 5).tolist() == [0] * 5
    assert toeplitz_hash(np.ones(6), np.ones(5), 0).size == 0


@pytest.mark.parametrize("keys_differ", [False, True])
def test_pipeline_hashes_once_and_checks_bob_key_with_the_tag(monkeypatch,
                                                              keys_differ):
    seen = {}
    real_bbbss, real_hash = postproc.bbbss_correct, postproc.toeplitz_hash

    def bbbss(*args, **kwargs):
        rec = real_bbbss(*args, **kwargs)
        if keys_differ:
            bob = rec.corrected_bob.to_array().copy()
            bob[[3, 40]] ^= 1
            rec = dataclasses.replace(
                rec, corrected_bob=BitString.from_array(bob))
        seen["rec"] = rec
        return rec

    def spy_hash(key, seed, r):
        out = real_hash(key, seed, r)
        seen.setdefault("hashed", []).append((np.array(key), out))
        return out

    monkeypatch.setattr(postproc, "bbbss_correct", bbbss)
    monkeypatch.setattr(postproc, "toeplitz_hash", spy_hash)
    rng = derive_rng(64)
    a = random_bits(6000, rng)
    res = run_pipeline_on_keys(a, flip_fraction(a, 0.02, rng),
                               PipelineParams(), rng)
    # one Toeplitz product, of the tail of Alice's corrected key past the
    # final length, whether or not the keys agree: Bob's final key is
    # never computed
    [(hashed_key, product)] = seen["hashed"]
    corrected = seen["rec"].corrected_alice.to_array()
    r = product.size
    assert np.array_equal(hashed_key, corrected[r:])
    assert res.log.messages[-1] == {
        "direction": "alice->bob", "purpose": "key_verification",
        "payload": {"final_length": r}}
    if not keys_differ:
        assert not res.aborted
        assert np.array_equal(res.final_key.to_array(),
                              corrected[:r] ^ product)
        return
    assert (res.abort_stage, res.abort_reason) == ("verification",
                                                   "corrected keys differ")
    assert res.final_key is None


def test_key_verification_checks_bob_corrected_key(monkeypatch):
    seen, checked = {}, []
    real_bbbss, real_verify = postproc.bbbss_correct, postproc.verify

    def bbbss(*args, **kwargs):
        seen["rec"] = real_bbbss(*args, **kwargs)
        return seen["rec"]

    def spy_verify(message, tag, cfg):
        checked.append(message)
        return real_verify(message, tag, cfg)

    monkeypatch.setattr(postproc, "bbbss_correct", bbbss)
    monkeypatch.setattr(postproc, "verify", spy_verify)
    rng = derive_rng(65)
    a = random_bits(6000, rng)
    res = run_pipeline_on_keys(a, flip_fraction(a, 0.02, rng),
                               PipelineParams(), rng)
    # the one tag, checked against Bob's own corrected key
    assert not res.aborted and len(checked) == 1
    assert checked[0] is seen["rec"].corrected_bob


@pytest.mark.parametrize("seed", range(1, 11))
def test_residual_errors_abort_at_key_verification(monkeypatch, seed):
    # reconciliation leaves one error in Bob's key, at a position drawn per
    # seed; the real tag check refuses it
    real_bbbss = postproc.bbbss_correct

    def one_error_left(*args, **kwargs):
        rec = real_bbbss(*args, **kwargs)
        bob = rec.corrected_bob.to_array().copy()
        bob[derive_rng(seed, 1).integers(bob.size)] ^= 1
        return dataclasses.replace(
            rec, corrected_bob=BitString.from_array(bob))

    monkeypatch.setattr(postproc, "bbbss_correct", one_error_left)
    rng = derive_rng(seed)
    a = random_bits(20000, rng)
    res = run_pipeline_on_keys(a, flip_fraction(a, 0.05, rng),
                               PipelineParams(), rng)
    assert (res.abort_stage, res.abort_reason) == ("verification",
                                                   "corrected keys differ")
    assert res.log.messages[-1]["purpose"] == "key_verification"


@pytest.mark.parametrize("n0", [2, 3])
def test_pipeline_on_tiny_keys_ends_in_a_clean_abort(n0):
    # the QBER sample leaves 1 or 2 bits; the reconciliation estimate
    # floor 1/max(3, n) stays below 1/2
    rng = derive_rng(66)
    a = random_bits(n0, rng)
    res = run_pipeline_on_keys(a, a, PipelineParams(), rng)
    assert res.abort_stage == "privacy_amplification"
    assert res.final_key is None


def test_privacy_amplify_identical_inputs_agree():
    rng = derive_rng(11)
    key = random_bits(5000, rng)
    out, seed = privacy_amplify(key, 2000, 30, rng)
    r = 5000 - 2000 - 30
    assert len(out) == r and len(seed) == 5000 - 1
    bits = key.to_array()
    again = bits[:r] ^ toeplitz_hash(bits[r:], seed.to_array(), r)
    assert np.array_equal(out.to_array(), again)


@pytest.mark.parametrize("n, r", [(17, 5), (64, 40), (300, 299), (301, 1)])
def test_privacy_amplify_is_identity_beside_toeplitz_by_brute_force(n, r):
    # H_S = (I_r | T_S), T_S[i, j] = S[i + n - r - 1 - j] of the (n - 1)-bit
    # seed, built densely and multiplied mod 2
    rng = derive_rng(14, n)
    key = random_bits(n, rng)
    out, seed = privacy_amplify(key, n - r, 0, rng)
    s = seed.to_array().astype(np.int64)
    T = s[np.arange(r)[:, None] + n - r - 1 - np.arange(n - r)[None, :]]
    H = np.concatenate([np.eye(r, dtype=np.int64), T], axis=1)
    assert np.array_equal(out.to_array(), H @ key.to_array() % 2)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_privacy_amplify_family_is_universal(r):
    # P[H_S x = 0] = 2^-r over the seed for every x = (x1, x2) != 0:
    # within 5 sigma for an x2 != 0 beside x1 = 0 and beside x1 != 0, and
    # never for x2 = 0
    n, trials = 12, 3000
    rng = derive_rng(15, r)
    p = 2.0 ** -r
    tail = np.eye(1, n - r, 4, dtype=np.uint8)[0]
    for x1, x2, prob in ((np.zeros(r, np.uint8), tail, p),
                         (np.ones(r, np.uint8), tail, p),
                         (np.ones(r, np.uint8), 0 * tail, 0.0)):
        x = BitString.from_array(np.concatenate([x1, x2]))
        zeros = sum(privacy_amplify(x, n - r, 0, rng)[0].hamming_weight() == 0
                    for _ in range(trials))
        assert abs(zeros / trials - prob) <= 5 * math.sqrt(
            prob * (1 - prob) / trials)


def test_privacy_amplify_decorrelates_single_bit_difference():
    rng = derive_rng(12)
    n, r = 200, 50
    key_a = random_bits(n, rng)
    arr_b = key_a.to_array().copy()
    arr_b[77] ^= 1
    agree = 0
    trials = 1000
    for _ in range(trials):
        seed = random_bits(n + r - 1, rng)
        out_a = toeplitz_hash(key_a.to_array(), seed.to_array(), r)
        out_b = toeplitz_hash(arr_b, seed.to_array(), r)
        agree += (out_a == out_b).mean()
    assert agree / trials == pytest.approx(0.5, abs=0.05)


def test_privacy_amplify_aborts_when_nothing_left():
    rng = derive_rng(13)
    key = random_bits(100, rng)
    with pytest.raises(NoSecureKey):
        privacy_amplify(key, 90, 30, rng)


def test_parity_knowledge_enumeration():
    # enumerate every right/wrong pattern of per-bit guesses and sum the
    # probability of the patterns with an even number of wrong guesses
    for eps in (0.2, 0.5):
        p = (1 + eps) / 2
        for n in (2, 3, 5):
            total = 0.0
            for pattern in itertools.product((0, 1), repeat=n):
                wrong = sum(pattern)
                if wrong % 2 == 0:
                    total += (1 - p) ** wrong * p ** (n - wrong)
            assert parity_knowledge(p, n) == pytest.approx(total, abs=1e-12)
            assert parity_knowledge(p, n) == pytest.approx(
                (1 + eps ** n) / 2, abs=1e-12)
    assert parity_knowledge(0.75, 2) == pytest.approx(0.625)


# ---------------------------------------------------------------------------
# advantage distillation
# ---------------------------------------------------------------------------

def test_distill_error_free_accepts_everything():
    rng = derive_rng(14)
    a = random_bits(999, rng)
    new_a, new_b, accepted = advantage_distill(a, a, 3, rng)
    assert accepted.all()
    assert new_a == new_b
    assert len(new_a) == 333


def test_distill_matches_enumeration():
    rng = derive_rng(15)
    eps, N = 0.25, 3
    nblocks = 100000
    a = random_bits(nblocks * N, rng)
    b = flip_fraction(a, eps, rng)
    new_a, new_b, accepted = advantage_distill(a, b, N, rng)
    p_acc = eps ** N + (1 - eps) ** N
    cond_err = eps ** N / p_acc
    assert accepted.mean() == pytest.approx(p_acc, abs=0.01)
    errs = (new_a.to_array() != new_b.to_array()).mean()
    assert errs == pytest.approx(cond_err, abs=0.01)


def test_distill_validations():
    rng = derive_rng(16)
    with pytest.raises(ValueError):
        advantage_distill(BitString([1, 0]), BitString([1, 0]), 1, rng)


# ---------------------------------------------------------------------------
# authentication
# ---------------------------------------------------------------------------

def test_authenticate_roundtrip():
    rng = derive_rng(17)
    cfg = AuthConfig.fresh(rng)
    for _ in range(20):
        m = random_bits(300, rng)
        assert verify(m, authenticate(m, cfg), cfg)


def test_tampered_message_rejected():
    rng = derive_rng(18)
    rejected = 0
    trials = 2000
    for _ in range(trials):
        cfg = AuthConfig.fresh(rng)
        m = random_bits(120, rng)
        tag = authenticate(m, cfg)
        arr = m.to_array().copy()
        arr[int(rng.integers(0, len(arr)))] ^= 1
        if not verify(BitString.from_array(arr), tag, cfg):
            rejected += 1
    assert rejected == trials     # 2^61 - 1 makes collisions unobservable


def test_forged_tags_accept_at_inverse_prime():
    from qkdsim.postproc import AuthTag
    rng = derive_rng(19)
    p = 251
    trials = 100000
    accepts = 0
    cfg = AuthConfig.fresh(rng, prime=p, degree=8, pool_tags=1)
    m = random_bits(40, rng)
    real = authenticate(m, cfg)
    for _ in range(trials):
        forged = AuthTag(value=int(rng.integers(0, p)), segment=real.segment)
        accepts += verify(m, forged, cfg)
    expect = 1.0 / p
    sigma = math.sqrt(expect * (1 - expect) / trials)
    assert accepts / trials <= expect + 3 * sigma


def test_otp_pool_exhaustion_signals_refill():
    rng = derive_rng(20)
    cfg = AuthConfig.fresh(rng, pool_tags=2)
    m = random_bits(64, rng)
    authenticate(m, cfg)
    authenticate(m, cfg)
    with pytest.raises(OtpPoolExhausted):
        authenticate(m, cfg)


def test_message_cardinality_bound_enforced():
    rng = derive_rng(21)
    cfg = AuthConfig.fresh(rng, degree=2)
    with pytest.raises(ValueError):
        authenticate(random_bits(200, rng), cfg)
    # 300 bits fit in 44 of the 63 digits, but the length digit must stay
    # below the prime
    cfg = AuthConfig.fresh(rng, prime=251, degree=64)
    with pytest.raises(ValueError, match="bits, the prime is 251"):
        authenticate(random_bits(300, rng), cfg)


def test_tag_does_not_verify_a_message_with_the_same_chunks():
    rng = derive_rng(23)
    cfg = AuthConfig.fresh(rng)
    w = cfg.tag_bits - 1
    zeros = lambda k: BitString.from_array(np.zeros(k, dtype=np.uint8))
    # leading zeros of a chunk, and trailing all-zero chunks, used to vanish
    for m, other in ((BitString([1]), BitString([0, 1])),
                     (zeros(w), zeros(2 * w)),
                     (BitString([]), zeros(w))):
        assert not verify(other, authenticate(m, cfg), cfg)
        assert verify(m, authenticate(m, cfg), cfg)


def _string_int(bits) -> int:
    """Reference: the per-bit string conversion the codec replaced."""
    return int("".join(map(str, bits)), 2) if len(bits) else 0


@pytest.mark.parametrize("n", [0, 1, 59, 60, 61, 1000])
def test_message_digits_match_string_conversion(n):
    rng = derive_rng(40 + n)
    cfg = AuthConfig.fresh(rng)
    bits = random_bits(n, rng).to_array()
    w = cfg.tag_bits - 1
    expect = [n] + [_string_int(bits[i: i + w]) for i in range(0, n, w)]
    assert postproc._message_digits(BitString.from_array(bits), cfg) == expect


def test_field_elements_and_pads_match_string_conversion():
    for prime in (PRODUCTION_PRIME, 251):
        cfg = AuthConfig.fresh(derive_rng(41), prime=prime, pool_tags=9)
        w = cfg.tag_bits
        # the same draws as fresh: two key elements, then the pads
        rng = derive_rng(41)
        password = random_bits(2 * w, rng).to_array()
        pool = random_bits(9 * w, rng).to_array()
        assert cfg.key == (_string_int(password[:w]) % prime,
                           _string_int(password[w: 2 * w]) % prime)
        assert cfg.pads == tuple(
            _string_int(pool[segment * w: (segment + 1) * w]) % prime
            for segment in range(9))


@pytest.mark.parametrize("n0", [60, 2047, 2048, 1 << 20])
def test_key_verification_tag_fits_the_pipeline_degree(monkeypatch, n0):
    # degree = max(64, n0 // 32) must cover the 1 + ceil(n / 60) digits of
    # a corrected key of n < n0 bits; the margin is least at the switch
    # from 64 to n0 // 32, and at this seed no shorter key gets a tag
    real_authenticate = postproc.authenticate
    tagged = []

    def record(message, cfg):
        tagged.append((len(message), cfg.degree))
        return real_authenticate(message, cfg)

    monkeypatch.setattr(postproc, "authenticate", record)
    rng = derive_rng(67)
    a = random_bits(n0, rng)
    res = run_pipeline_on_keys(a, a, PipelineParams(), rng)
    assert not res.aborted
    assert tagged == [(n0 - math.ceil(0.1 * n0), max(64, n0 // 32))]


def test_prime_must_fit_the_64_bit_digit_product():
    with pytest.raises(ValueError, match=r"prime must lie below 2\^64"):
        AuthConfig.fresh(derive_rng(24), prime=(1 << 89) - 1)


def test_deception_probability_field():
    rng = derive_rng(22)
    # two distinct messages of at most degree - 1 digits collide on at most
    # degree - 1 of the p hash keys
    assert AuthConfig.fresh(rng, prime=251).deception_probability == \
        pytest.approx(63 / 251)
    assert AuthConfig.fresh(rng, prime=251, degree=8) \
        .deception_probability == pytest.approx(7 / 251)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def test_pipeline_distills_key_at_two_percent():
    rng = derive_rng(23)
    n = 100000
    a = random_bits(n, rng)
    b = flip_fraction(a, 0.02, rng)
    res = run_pipeline_on_keys(a, b, PipelineParams(), rng)
    assert not res.aborted
    assert res.final_length > 0
    assert res.final_key is not None
    assert res.log.leaked_parity_count == res.leaked_bits
    payloads = [m["payload"] for m in res.log.messages]
    passes = sum("pass_block_parities" in p for p in payloads)
    subset_rounds = sum("subset_size" in p for p in payloads)
    rounds = next(p["rounds"] for p in payloads if "rounds" in p)
    assert passes + subset_rounds == rounds
    # plus the QBER sample, the summary, the PA seed and the key check
    assert len(payloads) == passes + subset_rounds + 4


def test_pipeline_aborts_at_high_qber():
    rng = derive_rng(24)
    n = 20000
    a = random_bits(n, rng)
    b = flip_fraction(a, 0.25, rng)
    res = run_pipeline_on_keys(a, b, PipelineParams(), rng)
    assert res.aborted and res.abort_stage == "estimation"
    assert res.final_key is None
    assert res.qber_estimate == pytest.approx(0.25, abs=0.02)


def test_pipeline_aborts_at_an_estimate_of_one_half():
    # 0.5 passes a threshold of 0.5, but no key is distilled at that rate
    a = BitString([0, 1, 0, 1])
    b = BitString([0, 1, 1, 0])
    params = PipelineParams(sample_fraction=1.0, qber_abort_threshold=0.5)
    res = run_pipeline_on_keys(a, b, params, derive_rng(26))
    assert res.qber_estimate == 0.5
    assert res.abort_stage == "estimation"
    assert res.abort_reason == "error rate 0.5000 is not below 0.5"


def test_pipeline_aborts_when_eve_bound_eats_key():
    rng = derive_rng(25)
    n = 200
    a = random_bits(n, rng)
    b = flip_fraction(a, 0.10, rng)
    res = run_pipeline_on_keys(a, b, PipelineParams(), rng)
    assert res.aborted
    assert res.abort_stage == "privacy_amplification"


@pytest.mark.parametrize("n, eps, seed", [
    (5000, 0.0, 29), (5000, 0.02, 30), (20000, 0.05, 31), (100000, 0.08, 32),
])
def test_privacy_amplification_charges_leaked_plus_n_h_eps(n, eps, seed):
    rng = derive_rng(seed)
    a = random_bits(n, rng)
    res = run_pipeline_on_keys(a, flip_fraction(a, eps, rng),
                               PipelineParams(), rng)
    assert not res.aborted
    m = n - math.ceil(0.1 * n)      # the reconciled length
    assert res.eve_bound_bits == res.leaked_bits + math.ceil(
        m * binary_entropy(res.qber_estimate))
    assert res.final_length == m - res.eve_bound_bits - 30


@pytest.mark.parametrize("field, bad, message", [
    ("sample_fraction", 0.0, "sample_fraction must lie in (0, 1]"),
    ("sample_fraction", 1.5, "sample_fraction must lie in (0, 1]"),
    ("qber_abort_threshold", -0.01,
     "qber_abort_threshold must lie in [0, 0.5]"),
    ("qber_abort_threshold", 0.51,
     "qber_abort_threshold must lie in [0, 0.5]"),
    ("safety_bits", -1, "safety_bits must be >= 0"),
    ("safety_bits", 20.5, "safety_bits must be an integer, got 20.5"),
    ("safety_bits", 30.0, "safety_bits must be an integer, got 30.0"),
    ("safety_bits", True, "safety_bits must be an integer, got True"),
    ("sample_fraction", True, "sample_fraction must be a number, got True"),
    ("sample_fraction", "0.1", "sample_fraction must be a number, got '0.1'"),
    ("qber_abort_threshold", False,
     "qber_abort_threshold must be a number, got False"),
    ("qber_abort_threshold", None,
     "qber_abort_threshold must be a number, got None"),
])
def test_pipeline_params_rejects_out_of_range(field, bad, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PipelineParams(**{field: bad})


# case -> (n, eps, seed, params, (abort_stage, abort_reason, qber_estimate,
# leaked_bits, eve_bound_bits, final_length, messages)), recorded before
# the abort paths were funnelled into one exit; eve_bound_bits follows the
# leaked + ceil(n h(eps)) rule
ABORT_CASES = {
    "empty": (0, 0.0, 60, PipelineParams(),
              ("estimation", "empty sifted key", None, 0, 0, 0, 0)),
    "qber": (3000, 0.2, 61, PipelineParams(),
             ("estimation", "error rate 0.1700 above threshold 0.11", 0.17,
              0, 0, 0, 1)),
    "sampling": (50, 0.02, 62, PipelineParams(sample_fraction=1.0),
                 ("estimation", "nothing left after sampling", 0.0,
                  0, 0, 0, 1)),
    "privacy_amplification": (
        200, 0.10, 25, PipelineParams(),
        ("privacy_amplification",
         "no secure key extractable: n=180, k=203, s=30",
         0.1, 118, 203, 0, 26)),
    "verification": (3000, 0.02, 63, PipelineParams(),
                     ("verification", "corrected keys differ",
                      0.006666666666666667, 454, 611, 0, 28)),
}


@pytest.mark.parametrize("case", sorted(ABORT_CASES))
def test_pipeline_abort_results(monkeypatch, case):
    n, eps, seed, params, expected = ABORT_CASES[case]
    if case == "verification":      # reconciliation leaves one bit wrong
        real_bbbss = postproc.bbbss_correct

        def one_bit_off(*args, **kwargs):
            rec = real_bbbss(*args, **kwargs)
            bob = rec.corrected_bob.to_array().copy()
            bob[0] ^= 1
            return dataclasses.replace(
                rec, corrected_bob=BitString.from_array(bob))

        monkeypatch.setattr(postproc, "bbbss_correct", one_bit_off)
    rng = derive_rng(seed)
    a = random_bits(n, rng)
    b = flip_fraction(a, eps, rng)
    res = run_pipeline_on_keys(a, b, params, rng)
    assert (res.abort_stage, res.abort_reason, res.qber_estimate,
            res.leaked_bits, res.eve_bound_bits, res.final_length,
            len(res.log.messages)) == expected
    assert res.final_key is None


@pytest.mark.parametrize("case, calls", [("qber", 0), ("sampling", 0),
                                         ("key", 2)])
def test_estimation_aborts_before_the_sample_is_dropped(monkeypatch, case,
                                                        calls):
    counted = []
    real_remove = postproc.remove_positions

    def counting_remove(key, positions):
        counted.append(len(key))
        return real_remove(key, positions)

    monkeypatch.setattr(postproc, "remove_positions", counting_remove)
    n, eps, seed, params, _ = ABORT_CASES.get(
        case, (3000, 0.02, 64, PipelineParams(), None))
    rng = derive_rng(seed)
    a = random_bits(n, rng)
    res = run_pipeline_on_keys(a, flip_fraction(a, eps, rng), params, rng)
    assert (res.abort_stage, len(counted)) == (
        "estimation" if calls == 0 else None, calls)


# purpose -> (abort_stage, abort_reason, qber_estimate, leaked_bits,
# eve_bound_bits, messages)
TAG_FAILURES = {
    "key_verification": ("verification", "corrected keys differ",
                         0.0135, 2774, 4632, 28)}


@pytest.mark.parametrize("failing_call, purpose", [
    (1, "key_verification"),
])
def test_pipeline_aborts_when_a_tag_fails_verification(monkeypatch,
                                                       failing_call, purpose):
    calls = []
    real_verify = postproc.verify

    def failing_verify(message, tag, cfg):
        calls.append(tag)
        return len(calls) != failing_call and real_verify(message, tag, cfg)

    monkeypatch.setattr(postproc, "verify", failing_verify)
    rng = derive_rng(27)
    a = random_bits(20000, rng)
    b = flip_fraction(a, 0.02, rng)
    res = run_pipeline_on_keys(a, b, PipelineParams(), rng)
    assert res.final_key is None and res.final_length == 0
    assert res.log.messages[-1]["purpose"] == purpose
    assert len(calls) == failing_call
    assert (res.abort_stage, res.abort_reason, res.qber_estimate,
            res.leaked_bits, res.eve_bound_bits,
            len(res.log.messages)) == TAG_FAILURES[purpose]
