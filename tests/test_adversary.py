import numpy as np
import pytest

from qkdsim.adversary import (EveStrategy, NO_EVE, attack_batch,
                              resolve_known_bits, usd_success_prob)
from qkdsim.protocols import (ProtocolConfig, b92_states, b92_table,
                              bb84_table, run_session)
from qkdsim.quantum import ChannelModel, DetectorModel, SourceModel
from qkdsim.rng import make_rng

BB84 = bb84_table()     # states H, V, A, D; bases rectilinear, diagonal


def attack(eve, n, idx, ch=ChannelModel(), rng=None, table=BB84, **kw):
    return attack_batch(eve, np.asarray(n, dtype=np.int64),
                        np.asarray(idx, dtype=np.int64), table.p_one,
                        table.eigen_idx, len(table.bases), ch,
                        rng if rng is not None else make_rng(0), **kw)


def test_strategy_validation():
    with pytest.raises(ValueError):
        EveStrategy("everything")
    with pytest.raises(ValueError):
        EveStrategy("beam_split", tap_ratio=1.5)


def test_intercept_resend_same_basis_is_transparent():
    eve = EveStrategy("intercept_resend", basis_policy="fixed_basis",
                      fixed_basis=0)
    atk = attack(eve, np.ones(50), np.zeros(50), rng=make_rng(1))
    assert (atk.record.measured_bit == 0).all()
    assert (atk.n == 1).all() and (atk.state_idx == 0).all()    # H resent


def test_intercept_resend_wrong_basis_randomizes():
    eve = EveStrategy("intercept_resend", basis_policy="fixed_basis",
                      fixed_basis=1)
    atk = attack(eve, np.ones(20000), np.zeros(20000), rng=make_rng(2))
    assert abs(atk.record.measured_bit.mean() - 0.5) < 0.02
    # the resent photon is the diagonal eigenstate Eve observed
    assert (atk.state_idx == 2 + atk.record.measured_bit).all()


def test_intercept_resend_vacuum_passthrough():
    eve = EveStrategy("intercept_resend")
    atk = attack(eve, [0, 0, 1], [3, 1, 0], rng=make_rng(3))
    assert atk.n.tolist() == [0, 0, 1]
    assert atk.record.measured_bit[:2].tolist() == [-1, -1]
    assert atk.state_idx[:2].tolist() == [3, 1]


def test_beam_split_preserves_bob_rate():
    # tap = channel loss, forward losslessly: Bob sees the honest statistics
    ch = ChannelModel(length_km=30.0, attenuation_db_per_km=0.2)  # T ~ 0.25
    eve = EveStrategy("beam_split")
    trials = 100000
    atk = attack(eve, np.ones(trials), np.zeros(trials), ch, make_rng(4))
    assert atk.channel_consumed
    assert atk.n.mean() == pytest.approx(ch.transmittance, abs=0.005)
    # a single photon reaches either Bob or Eve's store, never both
    assert not (atk.record.stored_photon & (atk.n > 0)).any()


def test_beam_split_rejects_excess_tap():
    ch = ChannelModel()  # lossless: no tap budget at all
    eve = EveStrategy("beam_split", tap_ratio=0.3)
    with pytest.raises(ValueError):
        attack(eve, [1], [0], ch, make_rng(5))


def test_pns_keeps_one_of_multi():
    atk = attack(EveStrategy("pns"), [3, 1, 2, 0], [0, 1, 2, 3],
                 rng=make_rng(6))
    assert atk.n.tolist() == [2, 1, 1, 0]
    assert atk.record.stored_photon.tolist() == [True, False, True, False]
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
                 ch, make_rng(8), table=table, b92_states=table.states[:2])
    fwd = atk.n > 0
    assert fwd.mean() == pytest.approx(ch.transmittance, abs=0.005)
    assert (atk.n[fwd] == 1).all() and (atk.state_idx[fwd] == 0).all()
    assert atk.record.conclusive[fwd].all()
    assert (atk.record.measured_bit[fwd] == 0).all()


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
    atk = attack_batch(NO_EVE, n, idx, table.p_one, table.eigen_idx, 2,
                       ChannelModel(), make_rng(10))
    assert np.array_equal(atk.n, n) and not atk.channel_consumed


def test_batch_intercept_matches_scalar_statistics():
    table = bb84_table()
    rng = make_rng(11)
    N = 200000
    n = np.ones(N, dtype=np.int64)
    idx = np.zeros(N, dtype=np.int64)      # all H
    eve = EveStrategy("intercept_resend")
    atk = attack_batch(eve, n, idx, table.p_one, table.eigen_idx, 2,
                       ChannelModel(), rng)
    wrong_basis = atk.record.measured_basis == 1
    assert abs(wrong_basis.mean() - 0.5) < 0.005
    assert abs(atk.record.measured_bit[wrong_basis].mean() - 0.5) < 0.01
    assert (atk.record.measured_bit[~wrong_basis] == 0).all()


def test_resolve_known_bits_intercept():
    rec_basis = np.array([0, 1, 0, 1], dtype=np.int8)
    alice_basis = np.array([0, 0, 1, 1], dtype=np.int8)
    bits = np.array([1, 0, 1, 0], dtype=np.int8)
    eve = EveStrategy("intercept_resend")
    from qkdsim.adversary import EveRecord
    rec = EveRecord(pulse_count=4, measured_basis=rec_basis)
    known = resolve_known_bits(eve, rec, alice_basis, bits, "basis",
                               make_rng(12))
    assert known.tolist() == [True, False, False, True]
    assert rec.known_bit.tolist() == [1, -1, -1, 0]


def test_resolve_known_bits_pair_announcement_throttles():
    from qkdsim.adversary import EveRecord
    N = 100000
    eve = EveStrategy("pns")
    rec = EveRecord(pulse_count=N, stored_photon=np.ones(N, dtype=bool))
    known = resolve_known_bits(eve, rec, np.zeros(N, dtype=np.int8),
                               np.zeros(N, dtype=np.int8), "pair",
                               make_rng(13))
    assert known.mean() == pytest.approx(1.0 - 2 ** -0.5, abs=0.005)
