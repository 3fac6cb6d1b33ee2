import json

import numpy as np
import pytest

from qkdsim.adversary import EveStrategy, NO_EVE
from qkdsim.protocols import (ProtocolConfig, b92_states, run_session)
from qkdsim.quantum import ChannelModel, DetectorModel, SourceModel
from qkdsim.rng import derive_rng

IDEAL = SourceModel.ideal()
CLEAN = ChannelModel()
PERFECT = DetectorModel()


def run(protocol, pulses, seed, *, src=IDEAL, ch=CLEAN, det=PERFECT,
        eve=NO_EVE, **cfg_kwargs):
    cfg = ProtocolConfig(protocol, pulses, **cfg_kwargs)
    return run_session(cfg, src, ch, det, eve, derive_rng(seed, 0))


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig("bb85", 10)
    with pytest.raises(ValueError):
        ProtocolConfig("bb84", -1)
    with pytest.raises(ValueError):
        ProtocolConfig("b92", 10, b92_overlap=1.5)
    with pytest.raises(ValueError):
        ProtocolConfig("decoy_bb84", 10, signal_mu=0.5, decoy_mu=0.5)
    for protocol in ("b92", "e91"):     # choices always uniform
        with pytest.raises(ValueError, match="basis_bias is not used"):
            ProtocolConfig(protocol, 10, basis_bias=0.7)


def test_bb84_honest_statistics():
    t = run("bb84", 100000, 1)
    assert t.qber == 0.0
    assert t.sifted_fraction == pytest.approx(0.5, abs=0.01)
    assert t.detection_count == t.pulse_count


def test_bb84_misalignment_sets_qber():
    t = run("bb84", 100000, 2,
            ch=ChannelModel(misalignment_error_prob=0.03))
    assert t.qber == pytest.approx(0.03, abs=0.005)


def test_bb84_intercept_resend_qber_quarter():
    t = run("bb84", 200000, 3, eve=EveStrategy("intercept_resend"))
    assert t.qber == pytest.approx(0.25, abs=0.01)
    assert t.eve_known_fraction == pytest.approx(0.5, abs=0.01)


def test_bb84_fixed_basis_eve_half_known():
    t = run("bb84", 100000, 4,
            eve=EveStrategy("intercept_resend", basis_policy="fixed_basis"))
    # errors only in the half of the sifted key sent in the other basis
    assert t.qber == pytest.approx(0.25, abs=0.01)


def test_six_state_honest():
    t = run("six_state", 300000, 5)
    assert t.sifted_fraction == pytest.approx(1 / 3, abs=0.005)
    assert t.qber == 0.0


def test_six_state_intercept_resend():
    t = run("six_state", 300000, 6, eve=EveStrategy("intercept_resend"))
    assert t.qber == pytest.approx(1 / 3, abs=0.01)


def test_b92_honest_conclusive_fraction():
    # conclusive prob = (1 - overlap^2) / 2
    for ov, seed in ((2 ** -0.5, 7), (0.5, 8)):
        t = run("b92", 200000, seed, b92_overlap=ov)
        assert t.sifted_fraction == pytest.approx((1 - ov ** 2) / 2, abs=0.01)
        assert t.qber == 0.0


def test_b92_states_overlap():
    phi0, phi1 = b92_states(0.6)
    assert abs(phi0.overlap(phi1)) == pytest.approx(0.6)


def test_b92_intercept_resend_introduces_errors():
    t = run("b92", 200000, 9, eve=EveStrategy("intercept_resend"))
    assert t.qber > 0.1


def test_sarg_honest():
    t = run("sarg", 200000, 10)
    assert t.sifted_fraction == pytest.approx(0.25, abs=0.01)
    assert t.qber == 0.0


def test_sarg_pns_knows_less_than_bb84():
    src = SourceModel.laser(0.8)
    ch = ChannelModel(length_km=20.0, attenuation_db_per_km=0.2)
    eve = EveStrategy("pns", block_single_prob=0.2)
    t_bb = run("bb84", 200000, 11, src=src, ch=ch, eve=eve)
    t_sg = run("sarg", 200000, 11, src=src, ch=ch, eve=eve)
    assert t_sg.eve_known_fraction < t_bb.eve_known_fraction


def test_decoy_bb84_gains_match_intensities():
    src = SourceModel.laser(0.5)
    ch = ChannelModel(length_km=50.0, attenuation_db_per_km=0.2)
    t = run("decoy_bb84", 500000, 12, src=src, ch=ch,
            signal_mu=0.5, decoy_mu=0.05, decoy_fraction=0.3)
    st = t.intensity_stats
    q_s_expect = 1 - np.exp(-0.5 * ch.transmittance)
    q_d_expect = 1 - np.exp(-0.05 * ch.transmittance)
    assert st["signal"]["gain"] == pytest.approx(q_s_expect, rel=0.05)
    assert st["decoy"]["gain"] == pytest.approx(q_d_expect, rel=0.10)


def test_decoy_requires_laser():
    with pytest.raises(ValueError):
        run("decoy_bb84", 100, 13, src=IDEAL)


def test_bbm92_honest_and_attacked():
    t = run("bbm92", 100000, 14)
    assert t.qber == 0.0
    assert t.sifted_fraction == pytest.approx(0.5, abs=0.01)
    t = run("bbm92", 100000, 15, eve=EveStrategy("intercept_resend"))
    assert t.qber == pytest.approx(0.25, abs=0.01)


def test_e91_collects_chsh_samples():
    t = run("e91", 90000, 16)
    assert set(t.chsh_samples) == {("n1", "n2"), ("n1p", "n2"),
                                   ("n1", "n2p"), ("n1p", "n2p")}
    for vals in t.chsh_samples.values():
        assert vals.size == pytest.approx(10000, rel=0.1)
    assert t.qber == 0.0
    assert t.sifted_fraction == pytest.approx(2 / 9, abs=0.01)


def test_channel_loss_reduces_detections():
    for ch, abs_tol in (
            (ChannelModel(length_km=50.0, attenuation_db_per_km=0.2), 0.005),
            (ChannelModel(length_km=10.0, attenuation_db_per_km=3.0), 5e-4)):
        t = run("bb84", 100000, 17, ch=ch)     # T = 0.1, then T = 0.001
        assert t.detection_count / t.pulse_count == \
            pytest.approx(ch.transmittance, abs=abs_tol)


def test_dark_counts_register_on_lost_pulses():
    ch = ChannelModel(length_km=100.0, attenuation_db_per_km=0.5)  # T = 1e-5
    det = DetectorModel(dark_prob=1e-3)
    t = run("bb84", 200000, 18, ch=ch, det=det)
    rate = t.detection_count / t.pulse_count
    assert rate == pytest.approx(1 - (1 - 1e-3) ** 2, rel=0.2)
    # dark-count keys are random: QBER near one half
    assert t.qber == pytest.approx(0.5, abs=0.05)


def test_transcript_roundtrips_to_json(tmp_path):
    t = run("bb84", 2000, 19)
    path = tmp_path / "session.json"
    t.save(path)
    loaded = json.loads(path.read_text())
    assert loaded["protocol"] == "bb84"
    assert loaded["sifted_length"] == len(t.sifted_alice)
    assert loaded["sifted_alice_hex"] == t.sifted_alice.to_hex()


def test_determinism_same_seed():
    t1 = run("bb84", 50000, 20, eve=EveStrategy("intercept_resend"))
    t2 = run("bb84", 50000, 20, eve=EveStrategy("intercept_resend"))
    assert t1.sifted_alice == t2.sifted_alice
    assert t1.sifted_bob == t2.sifted_bob
    assert np.array_equal(t1.bob_outcomes, t2.bob_outcomes)
