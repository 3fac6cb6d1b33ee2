import numpy as np
import pytest

from qkdsim.adversary import (HELD, NO_EVE, NOTHING, EveStrategy,
                              attack_batch, resolve_known_bits,
                              usd_success_prob)
from qkdsim.protocols import (_SARG_PAIRS, ProtocolConfig, _readout,
                              b92_states, b92_table, bb84_table, e91_table,
                              run_session, six_state_table)
from qkdsim.quantum import (NO_CLICK, ChannelModel, DetectorModel,
                            SourceModel, click_law, measure_batch,
                            photon_pmf, sample_photon_number)
from qkdsim.rng import make_rng

BB84 = bb84_table()     # states H, V, A, D; bases rectilinear, diagonal
BASIS_READOUT = _readout(BB84, np.array([[0, 1], [2, 3]]))  # by Alice's basis


def seen(basis, outcome):
    """Eve's record of a measurement: its flat readout index."""
    return 3 * np.asarray(basis) + outcome + 1


def attack(eve, n, idx, ch=ChannelModel(), rng=None, table=BB84):
    return attack_batch(eve, np.asarray(n, dtype=np.int64),
                        np.asarray(idx, dtype=np.int64), table, ch,
                        rng if rng is not None else make_rng(0))


def test_strategy_validation():
    with pytest.raises(ValueError):
        EveStrategy("everything")
    with pytest.raises(ValueError):
        EveStrategy("beam_split", tap_ratio=1.5)
    with pytest.raises(ValueError, match="fixed_basis must be >= 0"):
        EveStrategy("intercept_resend", fixed_basis=-1)


def test_intercept_resend_same_basis_is_transparent():
    eve = EveStrategy("intercept_resend", fixed_basis=0)
    atk = attack(eve, np.ones(50), np.zeros(50), rng=make_rng(1))
    assert (atk.eve_seen == seen(0, 0)).all()
    # Eve reads bit 0 every time and resends H
    assert (atk.n == 1).all() and (atk.state_idx == 0).all()


def test_intercept_resend_wrong_basis_randomizes():
    eve = EveStrategy("intercept_resend", fixed_basis=1)
    atk = attack(eve, np.ones(20000), np.zeros(20000), rng=make_rng(2))
    # the resent photon is the diagonal eigenstate Eve observed (A or D),
    # each half the time
    assert np.isin(atk.state_idx, [2, 3]).all()
    assert np.array_equal(atk.eve_seen, seen(1, atk.state_idx - 2))
    assert abs((atk.state_idx - 2).mean() - 0.5) < 0.02


def test_intercept_resend_vacuum_passthrough():
    eve = EveStrategy("intercept_resend")
    atk = attack(eve, [0, 0, 1], [3, 1, 0], rng=make_rng(3))
    assert atk.n.tolist() == [0, 0, 1]
    assert atk.state_idx[:2].tolist() == [3, 1]
    # a vacuum pulse's record is a no-click entry
    assert (atk.eve_seen[:2] % 3 == 0).all()


def test_intercept_resend_learns_nothing_from_a_vacuum_pulse():
    # Eve's basis matches Alice's on both pulses, but the first one is
    # empty: a dark count at Bob can sift its bit, and Eve never saw it
    eve = EveStrategy("intercept_resend", fixed_basis=0)
    atk = attack(eve, [0, 1], [1, 1], rng=make_rng(16))
    alice_basis = np.zeros(2, dtype=np.int8)
    known = resolve_known_bits(atk.eve_seen, alice_basis, BASIS_READOUT,
                               False, make_rng(17))
    assert known.tolist() == [False, True]


def test_intercept_resend_holds_a_conclusive_b92_result():
    # in basis 0 (phi1-perp, phi1) outcome 0 rules out phi1: Eve knows the
    # bit of that pulse, resent as phi1-perp (state 3); outcome 1 fits
    # both states Alice sends and tells her nothing
    table = b92_table(2 ** -0.5)
    eve = EveStrategy("intercept_resend", fixed_basis=0)
    atk = attack(eve, np.ones(20000), np.zeros(20000), rng=make_rng(18),
                 table=table)
    known = resolve_known_bits(atk.eve_seen, np.zeros(20000, dtype=np.int8),
                               _readout(table, np.array([[0, 1]])), False,
                               make_rng(0))
    assert np.array_equal(known, atk.state_idx == 3)
    assert np.array_equal(atk.eve_seen, seen(0, np.where(known, 0, 1)))
    assert (atk.state_idx[~known] == 1).all()
    assert known.mean() == pytest.approx(0.5, abs=0.02)
    # no BB84 outcome rules out a state of the other basis
    bb84 = attack(eve, np.ones(200), np.arange(200) % 4, rng=make_rng(19))
    assert not resolve_known_bits(bb84.eve_seen, np.ones(200, dtype=np.int8),
                                  BASIS_READOUT, False, make_rng(0)).any()


@pytest.mark.parametrize("table", [bb84_table(), six_state_table(),
                                   b92_table(2 ** -0.5), e91_table()],
                         ids=["bb84", "six_state", "b92", "e91"])
def test_intercept_resend_forwards_the_observed_eigenstate(table):
    # a laser at mu = 0.5 sends vacuum, single- and multi-photon pulses;
    # the reference replays Eve's two draws and reads eigen_idx[basis, bit]
    N = 20000
    n = sample_photon_number(photon_pmf(SourceModel.laser(0.5)),
                             make_rng(20), N)
    sent = make_rng(21).integers(0, np.count_nonzero(table.bit >= 0), N)
    atk = attack(EveStrategy("intercept_resend"), n, sent, rng=make_rng(22),
                 table=table)
    rng = make_rng(22)
    eb = rng.integers(0, len(table.bases), size=N, dtype=np.int8)
    law = click_law(table.p_one, None, 1.0, 0.0, 0.0, int(n.max()))
    bit = measure_batch(n, sent, eb, law, rng)
    clicked = bit != NO_CLICK
    assert (n == 0).any() and (n > 1).any()
    assert np.array_equal(clicked, n > 0) and np.array_equal(atk.n, clicked)
    assert np.array_equal(atk.state_idx, np.where(
        clicked, table.eigen_idx[eb, np.maximum(bit, 0)], sent))
    assert np.array_equal(atk.eve_seen, seen(eb, bit))


def test_beam_split_preserves_bob_rate():
    # tap = channel loss, forward losslessly: Bob sees the honest statistics
    ch = ChannelModel(length_km=30.0, attenuation_db_per_km=0.2)  # T ~ 0.25
    eve = EveStrategy("beam_split")
    trials = 100000
    atk = attack(eve, np.ones(trials), np.zeros(trials), ch, make_rng(4))
    assert atk.channel_consumed
    assert atk.n.mean() == pytest.approx(ch.transmittance, abs=0.005)
    # a single photon reaches either Bob or Eve's store, never both
    held = atk.eve_seen == HELD
    assert not (held & (atk.n > 0)).any()
    assert held.mean() == pytest.approx(1.0 - ch.transmittance, abs=0.005)
    assert (atk.eve_seen[~held] == NOTHING).all()


def test_beam_split_rejects_excess_tap():
    ch = ChannelModel()  # lossless: no tap budget at all
    eve = EveStrategy("beam_split", tap_ratio=0.3)
    with pytest.raises(ValueError):
        attack(eve, [1], [0], ch, make_rng(5))


def test_pns_keeps_one_of_multi():
    atk = attack(EveStrategy("pns"), [3, 1, 2, 0], [0, 1, 2, 3],
                 rng=make_rng(6))
    assert atk.n.tolist() == [2, 1, 1, 0]
    assert atk.eve_seen.tolist() == [HELD, NOTHING, HELD, NOTHING]
    assert atk.state_idx.tolist() == [0, 1, 2, 3] and atk.channel_consumed


def test_pns_blocks_singles():
    eve = EveStrategy("pns", block_single_prob=1.0)
    atk = attack(eve, [1, 1, 2], [0, 0, 0], rng=make_rng(7))
    assert atk.n.tolist() == [0, 0, 1]


def test_usd_success_prob():
    phi0, phi1 = b92_states(2 ** -0.5)
    assert usd_success_prob(phi0, phi1) == pytest.approx(1.0 - 2 ** -0.5)


def test_usd_forwards_perfect_copies_at_honest_rate():
    table = b92_table(2 ** -0.5)
    ch = ChannelModel(length_km=10.0, attenuation_db_per_km=0.7)  # T ~ 0.2
    trials = 100000
    atk = attack(EveStrategy("usd_b92"), np.ones(trials), np.zeros(trials),
                 ch, make_rng(8), table=table)
    fwd = atk.n > 0
    assert fwd.mean() == pytest.approx(ch.transmittance, abs=0.005)
    assert (atk.n[fwd] == 1).all() and (atk.state_idx[fwd] == 0).all()
    # every forwarded copy comes from a conclusive discrimination Eve holds
    conclusive = atk.eve_seen == HELD
    assert conclusive[fwd].all()
    assert conclusive.mean() == pytest.approx(
        usd_success_prob(*table.states[:2]), abs=0.005)


def test_usd_rejects_foreign_state():
    # BB84 states lie outside any B92 pair: the attack does not apply
    with pytest.raises(ValueError, match="B92 state pair"):
        run_session(ProtocolConfig("bb84", 10), SourceModel.ideal(),
                    ChannelModel(), DetectorModel(), EveStrategy("usd_b92"),
                    make_rng(9))


def test_batch_none_is_identity():
    table = bb84_table()
    n = np.ones(100, dtype=np.int64)
    idx = np.zeros(100, dtype=np.int64)
    atk = attack_batch(NO_EVE, n, idx, table, ChannelModel(), make_rng(10))
    assert np.array_equal(atk.n, n) and not atk.channel_consumed
    assert (atk.eve_seen == NOTHING).all()


def test_batch_intercept_matches_scalar_statistics():
    table = bb84_table()
    rng = make_rng(11)
    N = 200000
    n = np.ones(N, dtype=np.int64)
    idx = np.zeros(N, dtype=np.int64)      # all H
    eve = EveStrategy("intercept_resend")
    atk = attack_batch(eve, n, idx, table, ChannelModel(), rng)
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
    known = resolve_known_bits(eve_seen, alice_basis, BASIS_READOUT, False,
                               make_rng(12))
    assert known.tolist() == [True, False, False, True, True, False]
    assert np.array_equal(eve_seen, before)     # the record is not written


def test_resolve_known_bits_pair_announcement_throttles():
    N = 100000
    sent = np.zeros(N, dtype=np.int8)       # H, announced with A
    readout = _readout(BB84, _SARG_PAIRS)
    known = resolve_known_bits(np.full(N, HELD, dtype=np.int8), sent,
                               readout, True, make_rng(13))
    assert known.mean() == pytest.approx(1.0 - 2 ** -0.5, abs=0.005)
    # D rules out A: a measurement that reveals the bit is not throttled
    measured = resolve_known_bits(np.full(N, seen(1, 1), dtype=np.int8),
                                  sent, readout, True, make_rng(13))
    assert measured.all()
