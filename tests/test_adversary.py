import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from qkdsim.adversary import (HELD, NO_EVE, NOTHING, EveStrategy,
                              attack_batch, resend_batch, resolve_known_bits)
from qkdsim.bits import random_index
from qkdsim.protocols import (_SARG_PAIRS, ProtocolConfig, _readout,
                              b92_table, bb84_table, e91_table, run_session,
                              six_state_table)
from qkdsim.quantum import (NO_CLICK, ChannelModel, DetectorModel,
                            SourceModel, click_law, measure_batch,
                            photon_pmf, sample_photon_number)
from qkdsim.rng import derive_rng

BB84 = bb84_table()     # states H, V, A, D; bases rectilinear, diagonal
B92 = b92_table(2 ** -0.5)
BASIS_READOUT = _readout(BB84, np.array([[0, 1], [2, 3]]))  # by Alice's basis
BASIS_OVERLAP = np.zeros(2)     # a basis's two states are orthogonal
SARG_OVERLAP = BB84.overlap[_SARG_PAIRS[:, 0], _SARG_PAIRS[:, 1]]


def seen(basis, outcome):
    """Eve's record of a measurement: its flat readout index."""
    return 3 * np.asarray(basis) + outcome + 1


def attack(eve, n, idx, ch=ChannelModel(), rng=None, table=BB84):
    """Both parts of an attack on every pulse, as if Bob detected each one:
    each pulse's photon part drawn from ``attack_batch``'s law given its
    count (nothing is drawn where one cell holds that count's mass), then
    the forwarded states, the line and Eve's record."""
    rng = rng if rng is not None else derive_rng(0)
    n = np.asarray(n, dtype=np.int64)
    law = attack_batch(eve, np.arange(n.max() + 1), np.ones(n.max() + 1),
                       table, ch)
    fwd, held = np.empty_like(n), np.empty_like(n)
    for count in np.unique(n):
        at = np.flatnonzero(n == count)
        cells = np.flatnonzero(law.cell == count)
        pick = cells[sample_photon_number(law.prob[cells], rng, at.size)]
        fwd[at], held[at] = law.n[pick], law.eve_seen[pick]
    state, eve_seen = resend_batch(eve, n, fwd, held,
                                   np.asarray(idx, dtype=np.int64), table, rng)
    return SimpleNamespace(n=fwd, state_idx=state, eve_seen=eve_seen,
                           transmittance=law.transmittance)


def test_strategy_validation():
    with pytest.raises(ValueError):
        EveStrategy("everything")
    with pytest.raises(ValueError):
        EveStrategy("beam_split", tap_ratio=1.5)
    with pytest.raises(ValueError, match="fixed_basis must be >= 0"):
        EveStrategy("intercept_resend", fixed_basis=-1)
    # each parameter is read by one kind, and every other kind refuses it
    for kind, fields, unused in (
            ("pns", {"tap_ratio": 0.3, "fixed_basis": 1}, "fixed_basis"),
            ("none", {"block_single_prob": 0.5}, "block_single_prob"),
            ("beam_split", {"fixed_basis": 0}, "fixed_basis"),
            ("intercept_resend", {"tap_ratio": 0.3}, "tap_ratio"),
            ("usd_b92", {"block_single_prob": 1.0}, "block_single_prob"),
            ("usd_b92", {"tap_ratio": 0.3}, "tap_ratio"),
            ("beam_split", {"tap_ratio": 0.3, "block_single_prob": 0.1},
             "block_single_prob")):
        with pytest.raises(ValueError, match=re.escape(
                f"{unused} is not used by {kind}")):
            EveStrategy(kind, **fields)
    for kind in ("none", "intercept_resend", "beam_split", "usd_b92"):
        assert EveStrategy(kind, block_single_prob=0.0) == EveStrategy(kind)
    # a bool or a non-number in a float field, a non-int in an int field
    for kind, field, bad, noun in (
            ("pns", "block_single_prob", True, "a number"),
            ("pns", "block_single_prob", "0.5", "a number"),
            ("beam_split", "tap_ratio", False, "a number"),
            ("beam_split", "tap_ratio", "0.3", "a number"),
            ("intercept_resend", "fixed_basis", 1.5, "an integer"),
            ("intercept_resend", "fixed_basis", True, "an integer"),
            ("intercept_resend", "fixed_basis", "1", "an integer")):
        with pytest.raises(ValueError, match=re.escape(
                f"{field} must be {noun}, got {bad!r}")):
            EveStrategy(kind, **{field: bad})


def test_intercept_resend_same_basis_is_transparent():
    eve = EveStrategy("intercept_resend", fixed_basis=0)
    atk = attack(eve, np.ones(50), np.zeros(50), rng=derive_rng(1))
    assert (atk.eve_seen == seen(0, 0)).all()
    # Eve reads bit 0 every time and resends H
    assert (atk.n == 1).all() and (atk.state_idx == 0).all()


def test_intercept_resend_wrong_basis_randomizes():
    eve = EveStrategy("intercept_resend", fixed_basis=1)
    atk = attack(eve, np.ones(20000), np.zeros(20000), rng=derive_rng(2))
    # the resent photon is the diagonal eigenstate Eve observed (A or D),
    # each half the time
    assert np.isin(atk.state_idx, [2, 3]).all()
    assert np.array_equal(atk.eve_seen, seen(1, atk.state_idx - 2))
    assert abs((atk.state_idx - 2).mean() - 0.5) < 0.02


def test_intercept_resend_vacuum_passthrough():
    eve = EveStrategy("intercept_resend")
    atk = attack(eve, [0, 0, 1], [3, 1, 0], rng=derive_rng(3))
    assert atk.n.tolist() == [0, 0, 1]
    assert atk.state_idx[:2].tolist() == [3, 1]
    # a vacuum pulse's record is a no-click entry
    assert (atk.eve_seen[:2] % 3 == 0).all()


def test_intercept_resend_learns_nothing_from_a_vacuum_pulse():
    # Eve's basis matches Alice's on both pulses, but the first one is
    # empty: a dark count at Bob can sift its bit, and Eve never saw it
    eve = EveStrategy("intercept_resend", fixed_basis=0)
    atk = attack(eve, [0, 1], [1, 1], rng=derive_rng(16))
    alice_basis = np.zeros(2, dtype=np.int8)
    known = resolve_known_bits(atk.eve_seen, alice_basis, BASIS_READOUT,
                               BASIS_OVERLAP, derive_rng(17))
    assert known.tolist() == [False, True]


def test_intercept_resend_holds_a_conclusive_b92_result():
    # in basis 0 (phi1-perp, phi1) outcome 0 rules out phi1: Eve knows the
    # bit of that pulse, resent as phi1-perp (state 3); outcome 1 fits
    # both states Alice sends and tells her nothing
    table = b92_table(2 ** -0.5)
    eve = EveStrategy("intercept_resend", fixed_basis=0)
    atk = attack(eve, np.ones(20000), np.zeros(20000), rng=derive_rng(18),
                 table=table)
    known = resolve_known_bits(atk.eve_seen, np.zeros(20000, dtype=np.int8),
                               _readout(table, np.array([[0, 1]])),
                               table.overlap[[0], [1]], derive_rng(0))
    assert np.array_equal(known, atk.state_idx == 3)
    assert np.array_equal(atk.eve_seen, seen(0, np.where(known, 0, 1)))
    assert (atk.state_idx[~known] == 1).all()
    assert known.mean() == pytest.approx(0.5, abs=0.02)
    # no BB84 outcome rules out a state of the other basis
    bb84 = attack(eve, np.ones(200), np.arange(200) % 4, rng=derive_rng(19))
    assert not resolve_known_bits(bb84.eve_seen, np.ones(200, dtype=np.int8),
                                  BASIS_READOUT, BASIS_OVERLAP,
                                  derive_rng(0)).any()


@pytest.mark.parametrize("table", [bb84_table(), six_state_table(),
                                   b92_table(2 ** -0.5), e91_table()],
                         ids=["bb84", "six_state", "b92", "e91"])
def test_intercept_resend_forwards_the_observed_eigenstate(table):
    # a laser at mu = 0.5 sends vacuum, single- and multi-photon pulses;
    # the reference replays Eve's two draws and reads eigen_idx[basis, bit]
    N = 20000
    n = sample_photon_number(photon_pmf(SourceModel.laser(0.5)),
                             derive_rng(20), N)
    sent = derive_rng(21).integers(0, np.count_nonzero(table.bit >= 0), N)
    atk = attack(EveStrategy("intercept_resend"), n, sent, rng=derive_rng(22),
                 table=table)
    rng = derive_rng(22)
    eb = random_index(N, len(table.bases), rng)
    law = click_law(table.p_one, None, 1.0, 0.0, 0.0, int(n.max()))
    bit = measure_batch(n, sent, eb, law, rng.random(N))
    clicked = bit != NO_CLICK
    assert (n == 0).any() and (n > 1).any()
    assert np.array_equal(clicked, n > 0) and np.array_equal(atk.n, clicked)
    assert np.array_equal(atk.state_idx, np.where(
        clicked, table.eigen_idx[eb, np.maximum(bit, 0)], sent))
    assert np.array_equal(atk.eve_seen, seen(eb, bit))


def test_beam_split_preserves_bob_rate():
    # tap = channel loss, forward over a lossless line: Bob sees the honest
    # statistics
    ch = ChannelModel(length_km=30.0, attenuation_db_per_km=0.2)  # T ~ 0.25
    eve = EveStrategy("beam_split")
    trials = 100000
    atk = attack(eve, np.ones(trials), np.zeros(trials), ch, derive_rng(4))
    assert atk.transmittance == pytest.approx(1.0)
    assert atk.n.mean() == pytest.approx(ch.transmittance, abs=0.005)
    # a smaller tap leaves Bob's photons a lossy line of eta / (1 - tap)
    partial = attack(EveStrategy("beam_split", tap_ratio=0.5), np.ones(trials),
                     np.zeros(trials), ch, derive_rng(4))
    assert partial.transmittance == 2 * ch.transmittance
    assert partial.n.mean() * partial.transmittance == pytest.approx(
        ch.transmittance, abs=0.005)
    # a single photon reaches either Bob or Eve's store, never both
    held = atk.eve_seen == HELD
    assert not (held & (atk.n > 0)).any()
    assert held.mean() == pytest.approx(1.0 - ch.transmittance, abs=0.005)
    assert (atk.eve_seen[~held] == NOTHING).all()


def test_beam_split_records_the_photons_it_holds():
    # k photons held are recorded as HELD + 1 - k; every photon Eve does
    # not hold goes on, and the line draws its loss
    ch = ChannelModel(length_km=30.0, attenuation_db_per_km=0.2)
    pmf = photon_pmf(SourceModel.laser(2.0))
    law = attack_batch(EveStrategy("beam_split"),
                       np.arange(pmf.size, dtype=np.int8), pmf, BB84, ch)
    # the records keep the narrow type of the cells they were given
    assert law.cell.dtype == law.n.dtype == law.eve_seen.dtype == np.int8
    k = law.cell - law.n
    assert (k >= 3).any() and law.transmittance == 1.0
    assert np.array_equal(law.eve_seen, np.where(k >= 1, HELD + 1 - k,
                                                 NOTHING))


def _strategy_cases():
    lossy = ChannelModel(length_km=30.0, attenuation_db_per_km=0.2)
    for src in (SourceModel.laser(0.5), SourceModel.laser(3.0),
                SourceModel.heralded(0.6, 0.05)):
        for eve, table in ((NO_EVE, BB84), (EveStrategy("intercept_resend"),
                                            BB84),
                           (EveStrategy("beam_split"), BB84),
                           (EveStrategy("beam_split", tap_ratio=0.5), BB84),
                           (EveStrategy("pns"), BB84),
                           (EveStrategy("pns", block_single_prob=0.3), BB84),
                           (EveStrategy("usd_b92"), B92)):
            yield pytest.param(eve, table, src, lossy,
                               id=f"{eve.kind}-{src.kind}-{src.mu}")


@pytest.mark.parametrize("eve, table, src, ch", list(_strategy_cases()))
def test_attack_law_sums_back_to_the_source_pmf(eve, table, src, ch):
    pmf = photon_pmf(src)
    law = attack_batch(eve, np.arange(pmf.size, dtype=np.int8), pmf, table,
                       ch)
    assert law.cell.dtype == law.n.dtype == law.eve_seen.dtype == np.int8
    assert (law.prob > 0).all()
    np.testing.assert_allclose(np.bincount(law.cell, law.prob, pmf.size),
                               pmf, rtol=0, atol=1e-12)
    # photons are forwarded or held, never made
    held = np.where(law.eve_seen <= HELD, HELD + 1 - law.eve_seen, 0)
    assert (law.n + held <= law.cell).all() and (law.n >= 0).all()


@pytest.mark.parametrize("tap", [None, 0.3])
def test_beam_split_holds_a_binomial_count(tap):
    ch = ChannelModel(length_km=30.0, attenuation_db_per_km=0.2)
    t = tap if tap is not None else 1.0 - ch.transmittance
    pmf = photon_pmf(SourceModel.laser(3.0))
    law = attack_batch(EveStrategy("beam_split", tap_ratio=tap),
                       np.arange(pmf.size), pmf, BB84, ch)
    for m in range(pmf.size):
        row = law.cell == m
        got = np.zeros(m + 1)
        got[law.cell[row] - law.n[row]] = law.prob[row] / pmf[m]
        binomial = [math.comb(m, k) * t ** k * (1 - t) ** (m - k)
                    for k in range(m + 1)]
        np.testing.assert_allclose(got, binomial, rtol=0, atol=1e-12)


def test_beam_split_table_stays_small_at_the_largest_counts():
    # at mu = 1000 the full (n, k) table would hold ~8e5 cells; each held
    # count's tails below 2^-53 are folded, so a row spans at most ~16.5 sd
    # and the table grows as n_max^1.5, not n_max^2
    ch = ChannelModel(length_km=15.0, attenuation_db_per_km=0.2)
    pmf = photon_pmf(SourceModel.laser(1000.0))
    tap = 1.0 - ch.transmittance
    law = attack_batch(EveStrategy("beam_split"), np.arange(pmf.size), pmf,
                       BB84, ch)
    rows = np.bincount(law.cell)
    sd = np.sqrt(np.arange(rows.size) * tap * (1 - tap))
    assert (rows <= 17 * sd + 3).all()
    assert law.prob.size < pmf.size * (pmf.size + 1) // 2 // 3
    np.testing.assert_allclose(np.bincount(law.cell, law.prob, pmf.size),
                               pmf, rtol=0, atol=1e-12)


def test_beam_split_law_at_the_largest_mu_stays_bounded():
    # mu = 9000 is near the 10^4 counts photon_pmf accepts.  It folds the
    # source's left tail below 2^-53 too, so the rows span 16.4 sd of the
    # source, not the 44 sd down to where p(n) underflows, and building
    # the law peaks at ~52 bytes per joint cell (without the fold, and
    # with every row and both halves in int64: 3.0e6 cells, 361 MiB)
    ch = ChannelModel(length_km=15.0, attenuation_db_per_km=0.2)
    pmf = photon_pmf(SourceModel.laser(9000.0))
    cells = np.arange(pmf.size, dtype=np.min_scalar_type(-pmf.size))
    tracemalloc.start()
    try:
        law = attack_batch(EveStrategy("beam_split"), cells, pmf, BB84, ch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.unique(law.cell).size <= 18 * math.sqrt(9000.0)
    assert peak < 64 * law.prob.size
    np.testing.assert_allclose(np.bincount(law.cell, law.prob, pmf.size),
                               pmf, rtol=0, atol=1e-12)


def test_pns_and_usd_laws_match_their_docstrings():
    pmf = photon_pmf(SourceModel.laser(1.0))
    cells = np.arange(pmf.size)
    # pns: one photon of every n >= 2 held, singles blocked with b
    pns = attack_batch(EveStrategy("pns", block_single_prob=0.3), cells, pmf,
                       BB84, ChannelModel(length_km=20.0,
                                          attenuation_db_per_km=0.2))
    assert pns.transmittance == 1.0
    expect = {(0, 0, NOTHING): pmf[0], (1, 1, NOTHING): 0.7 * pmf[1],
              (1, 0, NOTHING): 0.3 * pmf[1]}
    expect.update({(m, m - 1, HELD): pmf[m] for m in range(2, pmf.size)})
    assert dict(zip(zip(pns.cell.tolist(), pns.n.tolist(),
                        pns.eve_seen.tolist()), pns.prob.tolist())) == expect
    # usd: a non-vacuum pulse forwards one photon with 1 - overlap
    ch = ChannelModel(length_km=10.0, attenuation_db_per_km=0.7)
    usd = attack_batch(EveStrategy("usd_b92"), cells, pmf, B92, ch)
    p = 1.0 - B92.overlap[0, 1]
    assert usd.transmittance == ch.transmittance / p
    assert (usd.eve_seen == NOTHING).all()
    fwd = np.bincount(usd.cell, usd.prob * usd.n, pmf.size)
    np.testing.assert_allclose(fwd, np.where(cells > 0, p * pmf, 0.0),
                               rtol=1e-15, atol=0)
    assert set(usd.n.tolist()) == {0, 1}


@pytest.mark.parametrize("src", [SourceModel.laser(0.5),
                                 SourceModel.heralded(0.6, 0.05)],
                         ids=["laser", "heralded"])
@pytest.mark.parametrize("eve, table, loss", [
    (EveStrategy("beam_split", tap_ratio=0.5), BB84, 0.5),
    (EveStrategy("usd_b92"), B92, B92.overlap[0, 1])],
    ids=["beam_split", "usd_b92"])
def test_click_law_draws_the_loss_of_the_line_an_attack_hands_on(
        eve, table, loss, src):
    # the line keeps Bob's rate: f = eta / (1 - tap) for beam splitting,
    # eta / P_succ = eta / (1 - overlap) for USD
    ch = ChannelModel(length_km=30.0, attenuation_db_per_km=0.2,
                      misalignment_error_prob=0.03)
    f = attack(eve, [1], [0], ch, table=table).transmittance
    assert f == ch.transmittance / (1.0 - loss) < 1.0
    # m photons thinned by f and detected at efficiency e click as m photons
    # detected at f e: the Bin(m, f) mixture of the law at e is the law at
    # f e, misalignment and dark counts included, for every m <= n_max
    e, n_max = 0.8, len(photon_pmf(src)) - 1
    args = (ch.misalignment_error_prob, 1e-3, n_max)
    direct = click_law(table.p_one, table.flip, f * e, *args)
    per_photon = click_law(table.p_one, table.flip, e, *args)
    assert n_max >= 2
    for m in range(n_max + 1):
        mixture = sum(math.comb(m, j) * f ** j * (1.0 - f) ** (m - j)
                      * per_photon[:, j] for j in range(m + 1))
        np.testing.assert_allclose(direct[:, m], mixture, rtol=0, atol=1e-12)


def test_beam_split_rejects_excess_tap():
    ch = ChannelModel()  # lossless: no tap budget at all
    eve = EveStrategy("beam_split", tap_ratio=0.3)
    with pytest.raises(ValueError):
        attack(eve, [1], [0], ch, derive_rng(5))


def test_pns_keeps_one_of_multi():
    atk = attack(EveStrategy("pns"), [3, 1, 2, 0], [0, 1, 2, 3],
                 rng=derive_rng(6))
    assert atk.n.tolist() == [2, 1, 1, 0]
    assert atk.eve_seen.tolist() == [HELD, NOTHING, HELD, NOTHING]
    assert atk.state_idx.tolist() == [0, 1, 2, 3]
    assert atk.transmittance == 1.0     # the rest cross a lossless line


def test_pns_blocks_singles():
    eve = EveStrategy("pns", block_single_prob=1.0)
    atk = attack(eve, [1, 1, 2], [0, 0, 0], rng=derive_rng(7))
    assert atk.n.tolist() == [0, 0, 1]


def test_usd_success_prob():
    # unambiguous discrimination succeeds with 1 - |<phi0|phi1>|, read
    # from the state table
    for ov in (2 ** -0.5, 0.5, 0.9):
        assert b92_table(ov).overlap[0, 1] == pytest.approx(ov)


def test_usd_forwards_perfect_copies_at_honest_rate():
    table = b92_table(2 ** -0.5)
    ch = ChannelModel(length_km=10.0, attenuation_db_per_km=0.7)  # T ~ 0.2
    trials = 100000
    atk = attack(EveStrategy("usd_b92"), np.ones(trials), np.zeros(trials),
                 ch, derive_rng(8), table=table)
    fwd = atk.n > 0
    # every success goes on, over a line that keeps Bob's honest rate
    p_succ = 1.0 - table.overlap[0, 1]
    assert atk.transmittance == ch.transmittance / p_succ
    assert fwd.mean() * atk.transmittance == pytest.approx(ch.transmittance,
                                                           abs=0.005)
    assert (atk.n[fwd] == 1).all() and (atk.state_idx[fwd] == 0).all()
    # every forwarded copy comes from a conclusive discrimination, recorded
    # as outcome 0 of Bob's test basis for bit 0
    conclusive = atk.eve_seen >= 0
    assert np.array_equal(conclusive, fwd)
    assert (atk.eve_seen[conclusive] == seen(0, 0)).all()
    assert (atk.eve_seen[~conclusive] == NOTHING).all()
    assert conclusive.mean() == pytest.approx(1.0 - table.overlap[0, 1],
                                              abs=0.005)


def test_usd_rejects_foreign_state():
    # BB84 states lie outside any B92 pair: the attack does not apply
    with pytest.raises(ValueError, match="B92 state pair"):
        run_session(ProtocolConfig("bb84", 10), SourceModel.ideal(),
                    ChannelModel(), DetectorModel(), EveStrategy("usd_b92"),
                    derive_rng(9))


def test_batch_none_is_identity():
    table = bb84_table()
    n = np.ones(100, dtype=np.int64)
    idx = np.zeros(100, dtype=np.int64)
    atk = attack(NO_EVE, n, idx, rng=derive_rng(10), table=table)
    assert np.array_equal(atk.n, n) and atk.transmittance == 1.0
    assert np.array_equal(atk.state_idx, idx)
    lossy = ChannelModel(length_km=30.0, attenuation_db_per_km=0.2)
    assert attack_batch(NO_EVE, np.arange(2), np.array([0.0, 1.0]), table,
                        lossy).transmittance == lossy.transmittance
    assert (atk.eve_seen == NOTHING).all()


def test_batch_intercept_matches_scalar_statistics():
    table = bb84_table()
    rng = derive_rng(11)
    N = 200000
    n = np.ones(N, dtype=np.int64)
    idx = np.zeros(N, dtype=np.int64)      # all H
    eve = EveStrategy("intercept_resend")
    atk = attack(eve, n, idx, rng=rng, table=table)
    wrong_basis = atk.eve_seen // 3 == 1
    assert abs(wrong_basis.mean() - 0.5) < 0.005
    # diagonal resends (A = 2, D = 3) carry a random bit, rectilinear ones H
    assert abs((atk.state_idx[wrong_basis] - 2).mean() - 0.5) < 0.01
    assert (atk.state_idx[~wrong_basis] == 0).all()


def test_resolve_known_bits_intercept():
    eve_seen = np.array([seen(0, 0), seen(1, 0), seen(0, 1), seen(1, 1),
                         HELD, NOTHING], dtype=np.int8)
    alice_basis = np.array([0, 0, 1, 1, 0, 1], dtype=np.int8)
    before = eve_seen.copy()
    known = resolve_known_bits(eve_seen, alice_basis, BASIS_READOUT,
                               BASIS_OVERLAP, derive_rng(12))
    assert known.tolist() == [True, False, False, True, True, False]
    assert np.array_equal(eve_seen, before)     # the record is not written


def test_resolve_known_bits_pair_announcement_throttles():
    N = 100000
    sent = np.zeros(N, dtype=np.int8)       # H, announced with A
    readout = _readout(BB84, _SARG_PAIRS)
    known = resolve_known_bits(np.full(N, HELD, dtype=np.int8), sent,
                               readout, SARG_OVERLAP, derive_rng(13))
    assert known.mean() == pytest.approx(1.0 - 2 ** -0.5, abs=0.005)
    # D rules out A: a measurement that reveals the bit is not throttled
    measured = resolve_known_bits(np.full(N, seen(1, 1), dtype=np.int8),
                                  sent, readout, SARG_OVERLAP, derive_rng(13))
    assert measured.all()


@pytest.mark.parametrize("ov", [2 ** -0.5, 0.5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_resolve_known_bits_held_photons_yield_one_minus_overlap_to_the_k(
        ov, k):
    # unambiguous discrimination on k copies of one of two states with
    # overlap ov succeeds with 1 - ov^k (B92's one row)
    N = 100000
    table = b92_table(ov)
    known = resolve_known_bits(
        np.full(N, HELD + 1 - k, dtype=np.int8), np.zeros(N, dtype=np.int8),
        _readout(table, np.array([[0, 1]])), table.overlap[[0], [1]],
        derive_rng(25))
    p = 1.0 - ov ** k
    assert abs(known.mean() - p) <= 5 * math.sqrt(p * (1 - p) / N)


def test_resolve_known_bits_basis_announcement_draws_nothing():
    # a held photon of an announced basis gives the bit, with no uniform
    rng = derive_rng(26)
    eve_seen = np.array([HELD, HELD - 1, NOTHING, HELD - 3], dtype=np.int8)
    known = resolve_known_bits(eve_seen, np.array([0, 1, 0, 1], np.int8),
                               BASIS_READOUT, BASIS_OVERLAP, rng)
    assert known.tolist() == [True, True, False, True]
    assert rng.random() == derive_rng(26).random()
