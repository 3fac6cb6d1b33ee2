import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from qkdsim.adversary import EveStrategy, NO_EVE
from qkdsim.bell import MAXIMAL_SETTINGS, chsh_estimate
from qkdsim.protocols import (_PREPARE_MEASURE, _SARG_PAIRS, PROTOCOLS,
                              ProtocolConfig, _decoy_photons, _readout,
                              b92_states, run_session)
from qkdsim.quantum import (CHUNK, ChannelModel, DetectorModel, SourceModel,
                            channel_preset, detector_preset, photon_pmf,
                            sample_photon_number)
from qkdsim.rates import gain_Qmu
from qkdsim.rng import derive_rng
from reference import per_pulse_session

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
    for bad in (1e4, 2.5, "10", True):
        with pytest.raises(ValueError, match="num_pulses must be an integer"):
            ProtocolConfig("bb84", bad)
    with pytest.raises(ValueError):
        ProtocolConfig("b92", 10, b92_overlap=1.5)
    with pytest.raises(ValueError):
        ProtocolConfig("decoy_bb84", 10, signal_mu=0.5, decoy_mu=0.5)
    for protocol in ("b92", "e91"):     # choices always uniform
        with pytest.raises(ValueError, match="basis_bias is not used"):
            ProtocolConfig(protocol, 10, basis_bias=0.7)
    # each protocol-keyed field is read by its protocols alone
    for protocol, fields, unused in (
            ("bb84", {"decoy_mu": 0.3, "b92_overlap": 0.2}, "b92_overlap"),
            ("bb84", {"decoy_mu": 0.3}, "decoy_mu"),
            ("b92", {"signal_mu": 0.5}, "signal_mu"),
            ("sarg", {"decoy_fraction": 0.3}, "decoy_fraction"),
            ("decoy_bb84", {"b92_overlap": 0.5}, "b92_overlap")):
        with pytest.raises(ValueError, match=re.escape(
                f"{unused} is not used by {protocol}")):
            ProtocolConfig(protocol, 10, **fields)
    # a field left at its default passes, whoever reads it
    assert ProtocolConfig("bb84", 10, b92_overlap=2 ** -0.5, signal_mu=0.8,
                          decoy_mu=0.12) == ProtocolConfig("bb84", 10)
    for field in ("signal_mu", "decoy_mu", "decoy_fraction", "b92_overlap",
                  "basis_bias"):
        for bad in (True, False, "0.8", None):
            if field == "basis_bias" and bad is None:
                continue     # None: the protocol's default, uniform
            with pytest.raises(ValueError, match=re.escape(
                    f"{field} must be a number, got {bad!r}")):
                ProtocolConfig("decoy_bb84", 10, **{field: bad})


@pytest.mark.parametrize("field, value", [
    ("signal_mu", -0.5), ("signal_mu", 0.0), ("signal_mu", math.nan),
    ("signal_mu", math.inf), ("decoy_mu", -0.1), ("decoy_mu", math.nan),
    ("decoy_mu", math.inf)])
def test_intensities_out_of_range_name_the_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        ProtocolConfig("decoy_bb84", 10, **{field: value})


def test_vacuum_decoy_is_accepted():
    assert ProtocolConfig("decoy_bb84", 10, decoy_mu=0.0).decoy_mu == 0.0


def test_session_working_set_is_narrow():
    # tracemalloc peak of one session: the arrays of one slice of CHUNK
    # pulses plus the sifted key, well under a full-length float64 or int64
    # array.  Lossy, misaligned and noisy, so that every sampler runs.
    N = 500_000
    ch = ChannelModel(10.0, 0.2, 0.03)
    det = DetectorModel(0.5, 1e-3)
    sources = (IDEAL, SourceModel.laser(0.5), SourceModel.heralded(0.6, 0.05))
    peaks = {}
    tracemalloc.start()
    try:
        for protocol in PROTOCOLS:
            for src in sources:
                for eve in (NO_EVE, EveStrategy("intercept_resend")):
                    cfg = ProtocolConfig(protocol, N)
                    rng = derive_rng(3, 0)
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
                    try:
                        run_session(cfg, src, ch, det, eve, rng)
                    except ValueError:      # a cell the session refuses
                        continue
                    peak = tracemalloc.get_traced_memory()[1] - base
                    peaks[protocol, src.kind, eve.kind] = peak / N
    finally:
        tracemalloc.stop()
    assert len(peaks) == 2 * (4 * 3 + 1 + 2)
    assert max(peaks.values()) <= 32, peaks


def test_session_memory_is_flat_in_the_pulse_count():
    # A session holds one slice of CHUNK clicks at a time, plus the kept
    # arrays: Alice's and Bob's sifted bits and Eve's known mask, 3 B per
    # sifted bit.  BB84 over 100 km of fiber, sized to 4 and to 32 slices
    # of clicks: with the kept arrays taken off, 32 slices peak within
    # 1.25x of 4, where arrays spanning the clicks would peak 8x.
    ch = channel_preset("fiber_1550", length_km=100.0)
    src = SourceModel.laser(0.5)
    p_click = 1.0 - math.exp(-0.5 * ch.transmittance)
    peaks = []
    tracemalloc.start()
    try:
        for slices in (4, 32):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            t = run("bb84", int((slices - 0.5) * CHUNK / p_click), 8,
                    src=src, ch=ch)
            peak = tracemalloc.get_traced_memory()[1] - base
            assert -(-t.detection_count // CHUNK) == slices
            peaks.append(peak - 3 * len(t.sifted_alice))
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


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
            eve=EveStrategy("intercept_resend", fixed_basis=0))
    # errors only in the half of the sifted key sent in the other basis
    assert t.qber == pytest.approx(0.25, abs=0.01)
    assert t.eve_known_fraction == pytest.approx(0.5, abs=0.01)


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


@pytest.mark.parametrize("fixed_basis", [None, 0, 1])
def test_b92_intercept_resend_knowledge_is_the_conclusive_half(fixed_basis):
    # Eve knows a bit only from a conclusive result, whichever basis she
    # measures in: half the sifted bits, at QBER 1/3
    eve = EveStrategy("intercept_resend", fixed_basis=fixed_basis)
    t = run("b92", 200000, 19, eve=eve)
    n = len(t.sifted_alice)
    for value, p in ((t.eve_known_fraction, 1 / 2), (t.qber, 1 / 3)):
        assert abs(value - p) <= 5 * math.sqrt(p * (1 - p) / n), (value, p)


def _table(protocol):
    return _PREPARE_MEASURE[protocol].table(ProtocolConfig(protocol, 1))


@pytest.mark.parametrize("protocol, fitting", [
    ("bb84", [0, 1]), ("six_state", [0, 1, 2]), ("sarg", [0, 1]),
    ("decoy_bb84", [0, 1]), ("bbm92", [0, 1]),
    ("e91", [3, 0, 1]),     # Bob has no 0 degrees
    ("b92", [2])])          # no basis of Bob's has phi0, phi1 as eigenstates
def test_bob_basis_fitting_each_of_alices_is_read_from_the_table(protocol,
                                                                 fitting):
    # Bob's basis fits Alice's i when, her pair (2i, 2i+1) announced, each
    # of its outcomes reads as its own bit
    table = _table(protocol)
    readout = _readout(table, np.arange(2 * len(fitting)).reshape(-1, 2))
    fits = (readout[:, :, 1:] == [0, 1]).all(axis=-1)    # [Alice's, Bob's]
    assert [int(row.argmax()) if row.any() else len(table.bases)
            for row in fits] == fitting


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_readout_matches_a_brute_force_over_every_candidate_pair(protocol):
    # independently of p_one: a candidate can give an outcome when its
    # state overlaps the outcome's eigenstate
    table = _table(protocol)
    sent = np.flatnonzero(table.bit >= 0)
    for pair in itertools.permutations(sent, 2):
        got = _readout(table, np.array([pair]))[0]
        for m, basis in enumerate(table.bases):
            assert got[m, 0] == -1                  # no click
            for o in (0, 1):
                eigen = (basis.v0, basis.v1)[o]
                can = [abs(eigen.overlap(table.states[k])) ** 2 > 1e-9
                       for k in pair]
                want = -1 if sum(can) != 1 else table.bit[
                    pair[can.index(True)]]
                assert got[m, 1 + o] == want, (pair, m, o)


def _deleted_sift_rule(protocol, table, a, m, o):
    """Bob's bit under the per-protocol sift rules the readout replaced,
    or -1 where they discard: announcement a is Alice's basis (SARG: her
    state), m Bob's basis, o his outcome."""
    if protocol == "b92":               # outcome 0 on test basis c: bit c
        return m if o == 0 else -1
    if protocol == "sarg":              # measured state orthogonal to one
        measured = table.eigen_idx[m, o]        # of the announced pair
        partner = _SARG_PAIRS[a, 1]
        if measured == table.flip[a]:
            return table.bit[partner]
        return table.bit[a] if measured == table.flip[partner] else -1
    # Bob's basis holds Alice's pair: his outcome is her bit
    return o if table.eigen_idx[m].tolist() == [2 * a, 2 * a + 1] else -1


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_readout_reproduces_the_sift_rules_it_replaced(protocol):
    table, pairs = _table(protocol), _PREPARE_MEASURE[protocol].pairs
    if pairs is None:
        pairs = np.arange(np.count_nonzero(table.bit >= 0)).reshape(-1, 2)
    readout = _readout(table, pairs)
    for a, m, o in itertools.product(range(len(pairs)),
                                     range(len(table.bases)), (0, 1)):
        assert readout[a, m, 1 + o] == _deleted_sift_rule(
            protocol, table, a, m, o), (a, m, o)


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


@pytest.mark.parametrize("protocol, ov", [
    ("b92", 2 ** -0.5), ("b92", 0.5), ("sarg", 2 ** -0.5)])
def test_full_pns_knowledge_is_one_minus_the_overlap(protocol, ov):
    # every single photon is blocked, so every sifted pulse carried a photon
    # that Eve holds; it yields the bit only when unambiguous discrimination
    # of the two announced candidates succeeds
    cfg = {"b92_overlap": ov} if protocol == "b92" else {}
    t = run(protocol, 200000, 27, src=SourceModel.laser(0.5),
            eve=EveStrategy("pns", block_single_prob=1.0), **cfg)
    n, p = len(t.sifted_alice), 1.0 - ov
    assert n > 2000
    assert abs(t.eve_known_fraction - p) <= 5 * math.sqrt(p * (1 - p) / n)


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


@pytest.mark.parametrize("decoy_mu", [0.12, 0.0])
def test_decoy_draw_matches_the_mixture(decoy_mu):
    cfg = ProtocolConfig("decoy_bb84", 1, signal_mu=0.8, decoy_mu=decoy_mu,
                         decoy_fraction=0.12)
    pmf, first_decoy = _decoy_photons(cfg, SourceModel.laser(0.8))
    n_max = max(first_decoy, len(pmf) - first_decoy) - 1
    N = 400000
    cells = sample_photon_number(pmf, derive_rng(17, 0), N)
    decoy = cells >= first_decoy
    n = cells - first_decoy * decoy
    assert n.max() <= n_max == len(photon_pmf(SourceModel.laser(0.8))) - 1

    def within_5_sigma(hits, total, p):
        return abs(hits / total - p) <= 5 * math.sqrt(p * (1 - p) / total)

    assert within_5_sigma(int(decoy.sum()), N, 0.12)
    for mu, mask in ((0.8, ~decoy), (decoy_mu, decoy)):
        for k in range(4):
            p = math.exp(-mu) * mu ** k / math.factorial(k)
            hits = int((n[mask] == k).sum())
            if p in (0.0, 1.0):         # a vacuum decoy emits nothing
                assert hits == p * mask.sum(), (mu, k)
            else:
                assert within_5_sigma(hits, int(mask.sum()), p), (mu, k)


@pytest.mark.parametrize("N, km", [(10 ** 10, 200.0), (10 ** 6, 0.0)],
                         ids=["1e10-200km", "1e6-0km"])
def test_decoy_session_costs_what_it_detects(N, km):
    # 1e10 pulses over 200 km of fiber click ~3e5 times: the session draws
    # how many click and samples only those, so it runs in a few slices.
    # Every pulse is counted as sent at one intensity, and each
    # intensity's detections are Binomial(sent, Q_mu); at 0 km, where 7%
    # of pulses click, the pulses that did not click split by each
    # intensity's share of the no-click mass, not of all pulses.
    ch = channel_preset("fiber_1550", length_km=km)
    det = detector_preset("ingaas_peltier")
    t = run("decoy_bb84", N, 21, src=SourceModel.laser(0.8), ch=ch, det=det)
    st = t.intensity_stats
    assert st["signal"]["sent"] + st["decoy"]["sent"] == N
    assert (st["signal"]["detected"] + st["decoy"]["detected"]
            == t.detection_count > 5 * 10 ** 4)
    assert abs(st["decoy"]["sent"] - 0.12 * N) < 5 * math.sqrt(
        N * 0.12 * 0.88)
    for stats in st.values():
        q = gain_Qmu(stats["mu"], ch.transmittance * det.efficiency,
                     det.dark_prob)
        sent = stats["sent"]
        assert abs(stats["detected"] - sent * q) < 5 * math.sqrt(
            sent * q * (1 - q)), stats


def test_a_decoy_session_where_every_pulse_clicks_counts_each_sent():
    # intensities so high that no pulse is empty, over a lossless line to
    # ideal detectors: every pulse clicks, so none is left to split
    t = run("decoy_bb84", 5000, 23, src=SourceModel.laser(0.8),
            signal_mu=1000.0, decoy_mu=900.0)
    st = t.intensity_stats
    assert t.detection_count == 5000
    assert st["signal"]["sent"] + st["decoy"]["sent"] == 5000
    assert all(s["sent"] == s["detected"] > 0 for s in st.values())


@pytest.mark.parametrize("protocol", ["decoy_bb84", "e91"])
def test_a_session_where_nothing_clicks_ends_cleanly(protocol):
    # no light reaches Bob and his detectors have no dark counts: empty
    # keys, an empty CHSH tally per setting pair, and every pulse counted
    # as sent at one intensity
    t = run(protocol, 5000, 22, src=SourceModel.laser(0.5)
            if protocol == "decoy_bb84" else IDEAL,
            det=DetectorModel(efficiency=0.0))
    assert t.detection_count == 0 and len(t.sifted_alice) == 0
    if protocol == "e91":
        assert len(t.chsh_samples) == 4
        assert all(v.size == 0 for v in t.chsh_samples.values())
    else:
        st = t.intensity_stats
        assert st["signal"]["sent"] + st["decoy"]["sent"] == 5000
        assert st["signal"]["detected"] == st["decoy"]["detected"] == 0
        assert st["decoy"]["sent"] > 0 and st["signal"]["sent"] > 0


def test_decoy_requires_laser():
    with pytest.raises(ValueError):
        run("decoy_bb84", 100, 13, src=IDEAL)


def test_bbm92_honest_and_attacked():
    t = run("bbm92", 100000, 14)
    assert t.qber == 0.0
    assert t.sifted_fraction == pytest.approx(0.5, abs=0.01)
    t = run("bbm92", 100000, 15, eve=EveStrategy("intercept_resend"))
    assert t.qber == pytest.approx(0.25, abs=0.01)


@pytest.mark.parametrize("basis_bias", [None, 0.7])
@pytest.mark.parametrize("eve", [
    NO_EVE, EveStrategy("intercept_resend"),
    EveStrategy("intercept_resend", fixed_basis=0),
    EveStrategy("intercept_resend", fixed_basis=1)])
def test_bbm92_is_bb84_from_an_ideal_source(eve, basis_bias):
    # Alice's outcome on her half of a singlet prepares Bob's half in the
    # BB84 state of her angle (Bennett, Brassard & Mermin 1992), so one seed
    # gives one transcript on a lossy, misaligned line with dark counts
    kw = dict(ch=ChannelModel(20.0, 0.2, 0.03), det=DetectorModel(0.6, 0.02),
              eve=eve, basis_bias=basis_bias)
    bbm92, bb84 = (run(p, 20000, 25, **kw).to_dict() for p in ("bbm92", "bb84"))
    assert (bbm92.pop("protocol"), bb84.pop("protocol")) == ("bbm92", "bb84")
    assert bbm92 == bb84 and bb84["sifted_length"] > 0


@pytest.mark.parametrize("protocol, fixed_basis, known, qber", [
    ("bbm92", None, 1 / 2, 1 / 4),
    ("e91", None, 1 / 3, 5 / 24),
    ("bbm92", 1, 1 / 2, 1 / 4),
])
def test_pair_protocols_report_what_intercept_resend_learns(
        protocol, fixed_basis, known, qber):
    # Eve measures Bob's particle at one of Bob's angles; she knows Alice's
    # bit when that angle is Alice's: 1 of 2 for BBM92, 1 of 3 for E91
    # (Bob's 135 degrees is none of Alice's angles).  A fixed angle is
    # Alice's on half of BBM92's sifted pairs.
    eve = EveStrategy("intercept_resend", fixed_basis=fixed_basis)
    t = run(protocol, 200000, 21, eve=eve)
    n = len(t.sifted_alice)
    for got, expected in ((t.eve_known_fraction, known), (t.qber, qber)):
        assert abs(got - expected) < 5 * (expected * (1 - expected) / n) ** 0.5
    assert run(protocol, 200000, 22).eve_known_fraction == 0.0


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
    # ~3,000 sifted bits: the QBER band below is 5.5 sigma wide
    ch = ChannelModel(length_km=100.0, attenuation_db_per_km=0.5)  # T = 1e-5
    det = DetectorModel(dark_prob=1e-3)
    t = run("bb84", 3 * 10**6, 18, ch=ch, det=det)
    rate = t.detection_count / t.pulse_count
    assert rate == pytest.approx(1 - (1 - 1e-3) ** 2, rel=0.2)
    # dark-count keys are random: QBER near one half
    assert t.qber == pytest.approx(0.5, abs=0.05)


@pytest.mark.parametrize("protocol", ["bbm92", "e91"])
def test_pair_dark_counts_meet_detected_photons(protocol):
    # A detected photon meets a dark count of the other detector with
    # probability d, and the double click gives a uniform bit; a lost
    # photon clicks on a dark count of either detector, D = 1 - (1 - d)^2.
    e, d, p = 0.05, 0.1, 0.5
    dark = 1 - (1 - d) ** 2
    t = run(protocol, 200000, 24, ch=ChannelModel(misalignment_error_prob=e),
            det=DetectorModel(efficiency=p, dark_prob=d))
    rate = p + (1 - p) * dark
    qber = (p * (e + d / 2 - e * d) + (1 - p) * dark / 2) / rate
    for got, expected, n in (
            (t.detection_count / t.pulse_count, rate, t.pulse_count),
            (t.qber, qber, len(t.sifted_alice))):
        assert abs(got - expected) < 5 * (expected * (1 - expected) / n) ** 0.5
    if protocol == "e91":
        # the misalignment flip scales each singlet correlation by 1 - 2e;
        # a click with a dark count in it (all but p (1 - d) of the rate)
        # carries a uniform bit
        for (x, y), products in t.chsh_samples.items():
            angle = math.radians(getattr(MAXIMAL_SETTINGS, x)
                                 - getattr(MAXIMAL_SETTINGS, y))
            c = -(1 - 2 * e) * math.cos(angle) * p * (1 - d) / rate
            n = products.size
            assert abs(products.mean() - c) < 5 * ((1 - c * c) / n) ** 0.5


def test_transcript_roundtrips_to_json(tmp_path):
    t = run("bb84", 2000, 19)
    path = tmp_path / "session.json"
    t.save(path)
    loaded = json.loads(path.read_text())
    assert loaded["protocol"] == "bb84"
    assert loaded["sifted_length"] == len(t.sifted_alice)
    assert loaded["sifted_alice_hex"] == t.sifted_alice.to_hex()


def _lists(value):
    """Every list nested anywhere in a JSON value."""
    if isinstance(value, list):
        return [value]
    if isinstance(value, dict):
        return [x for v in value.values() for x in _lists(v)]
    return []


@pytest.mark.parametrize("protocol, src, eve", [
    ("e91", IDEAL, EveStrategy("intercept_resend")),
    ("decoy_bb84", SourceModel.laser(0.8), EveStrategy("pns")),
])
def test_to_dict_holds_hex_keys_and_tallies_not_lists(protocol, src, eve):
    t = run(protocol, 40000, 23, src=src, eve=eve,
            ch=ChannelModel(length_km=10.0, attenuation_db_per_km=0.2))
    d = json.loads(json.dumps(t.to_dict()))
    assert _lists(d) == []
    n = d["sifted_length"]
    assert n == len(t.sifted_alice) > 0
    known = np.unpackbits(np.frombuffer(bytes.fromhex(d["eve_known_hex"]),
                                        dtype=np.uint8))
    assert known.size == -(-n // 8) * 8 and not known[n:].any()
    assert known[:n].mean() == t.eve_known_fraction
    assert 0.0 < t.eve_known_fraction < 1.0
    if protocol == "decoy_bb84":
        assert d["intensity_stats"] == t.intensity_stats
        assert "chsh_tallies" not in d
        return
    # a +/-1 sample is fixed up to order by its count and sum
    rebuilt = {tuple(k.split("|")): np.repeat(
        [1, -1], [(v["count"] + v["sum"]) // 2, (v["count"] - v["sum"]) // 2])
        for k, v in d["chsh_tallies"].items()}
    assert chsh_estimate(rebuilt) == chsh_estimate(t.chsh_samples)


def test_determinism_same_seed():
    t1 = run("bb84", 50000, 20, eve=EveStrategy("intercept_resend"))
    t2 = run("bb84", 50000, 20, eve=EveStrategy("intercept_resend"))
    assert t1.sifted_alice == t2.sifted_alice
    assert t1.sifted_bob == t2.sifted_bob
    assert t1.eve_known_mask == t2.eve_known_mask


def _engine_cells():
    """Every protocol, source and attack a session accepts, from the ideal,
    laser (mu = 0.5) and heralded (0.6, 0.05) sources and the attacks
    none, intercept-resend, beam split, PNS blocking half the single
    photons, and USD."""
    sources = {"ideal": IDEAL, "laser": SourceModel.laser(0.5),
               "heralded": SourceModel.heralded(0.6, 0.05)}
    eves = {"none": NO_EVE, "intercept": EveStrategy("intercept_resend"),
            "beam_split": EveStrategy("beam_split"),
            "pns": EveStrategy("pns", block_single_prob=0.5),
            "usd": EveStrategy("usd_b92")}
    for protocol in PROTOCOLS:
        src_names = {"bbm92": ["ideal"], "e91": ["ideal"],
                     "decoy_bb84": ["laser"]}.get(protocol, list(sources))
        eve_names = (["none", "intercept"] if protocol in ("bbm92", "e91")
                     else ["none", "intercept", "beam_split", "pns"]
                     + ["usd"] * (protocol == "b92"))
        for src_name, eve_name in itertools.product(src_names, eve_names):
            yield pytest.param(protocol, sources[src_name], eves[eve_name],
                               id=f"{protocol}-{src_name}-{eve_name}")


def _counts(t):
    """The per-pulse event counts of a transcript."""
    out = {"detections": t.detection_count,
           "sifted": len(t.sifted_alice),
           "errors": t.sifted_alice.hamming_distance(t.sifted_bob),
           "eve_known": t.eve_known_mask.hamming_weight()}
    for label, stats in (t.intensity_stats or {}).items():
        out[f"{label}_detected"] = stats["detected"]
    return out


@pytest.mark.parametrize("protocol, src, eve", list(_engine_cells()))
def test_click_first_engine_matches_the_per_pulse_reference(protocol, src,
                                                            eve):
    # Drawing each pulse's click before its state changes the draw order,
    # not the law: on a lossy, noisy line every count of the library's
    # session agrees with the per-pulse engine's within 5 sigma.  Each
    # count sums one event over independent pulses, so the variance of a
    # difference of two is at most their sum.
    cfg = ProtocolConfig(protocol, 200_000)
    ch = ChannelModel(length_km=25.0, attenuation_db_per_km=0.2,
                      misalignment_error_prob=0.03)
    det = DetectorModel(efficiency=0.5, dark_prob=1e-3)
    new = _counts(run_session(cfg, src, ch, det, eve, derive_rng(40, 0)))
    ref = _counts(per_pulse_session(cfg, src, ch, det, eve,
                                    derive_rng(40, 1)))
    assert new.keys() == ref.keys()
    assert new["detections"] > 2000
    for name in new:
        spread = math.sqrt(new[name] + ref[name]) or 1.0
        assert abs(new[name] - ref[name]) < 5 * spread, (name, new, ref)
