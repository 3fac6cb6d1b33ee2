import itertools
import math
import re

import numpy as np
import pytest

from qkdsim.protocols import ProtocolConfig, _decoy_photons
from qkdsim.quantum import (CHUNK, CIRCULAR, DIAGONAL, NO_CLICK, RECTILINEAR,
                            STATE_A, STATE_H, STATE_L, STATE_V, Basis,
                            ChannelModel, DetectorModel, SignalState,
                            SourceModel, channel_preset, click_law,
                            detector_preset, load_presets, measure_batch,
                            photon_pmf, sample_photon_number)
from qkdsim.rng import derive_rng
from reference import sample_singlet


def test_state_overlaps():
    assert abs(STATE_H.overlap(STATE_V)) < 1e-12
    assert abs(abs(STATE_H.overlap(STATE_A)) - 2 ** -0.5) < 1e-12
    assert abs(abs(STATE_L.overlap(STATE_H)) - 2 ** -0.5) < 1e-12


def test_orthogonal_construction():
    for st in (STATE_H, STATE_A, STATE_L, SignalState(0.6, 0.8)):
        assert abs(st.overlap(st.orthogonal())) < 1e-12


def test_state_normalization_enforced():
    with pytest.raises(ValueError):
        SignalState(1.0, 1.0)


def test_basis_projection_probabilities():
    assert RECTILINEAR.prob_outcome_one(STATE_V) == pytest.approx(1.0)
    assert RECTILINEAR.prob_outcome_one(STATE_H) == pytest.approx(0.0)
    assert DIAGONAL.prob_outcome_one(STATE_H) == pytest.approx(0.5)
    assert CIRCULAR.prob_outcome_one(STATE_A) == pytest.approx(0.5)


def test_source_pmf_poisson():
    src = SourceModel.laser(0.1)
    assert src.pmf(0) == pytest.approx(math.exp(-0.1))
    assert src.pmf(1) == pytest.approx(0.1 * math.exp(-0.1))
    assert 1.0 - src.pmf(0) - src.pmf(1) == pytest.approx(
        1.0 - 1.1 * math.exp(-0.1))


def test_source_sampling_matches_pmf():
    src = SourceModel.laser(0.5)
    draws = sample_photon_number(photon_pmf(src), derive_rng(3), size=200000)
    assert (draws == 0).mean() == pytest.approx(src.pmf(0), abs=0.005)
    assert (draws == 1).mean() == pytest.approx(src.pmf(1), abs=0.005)


def within_5_sigma(hits, N, p):
    return abs(hits / N - p) <= 5 * math.sqrt(p * (1 - p) / N) + 1e-12


@pytest.mark.parametrize("src", [SourceModel.laser(0.5),
                                 SourceModel.heralded(0.6, 0.05)])
def test_photon_number_frequencies_match_pmf(src):
    N = 200000
    draws = sample_photon_number(photon_pmf(src), derive_rng(14), size=N)
    for n in range(4):
        assert within_5_sigma(int((draws == n).sum()), N, src.pmf(n)), n


@pytest.mark.parametrize("src", [
    SourceModel.ideal(), SourceModel.laser(0.12), SourceModel.laser(0.8),
    SourceModel.laser(7.0), SourceModel.heralded(0.6, 0.05),
    SourceModel.heralded(0.6, 0.0), SourceModel.heralded(0.0, 0.0)])
def test_photon_pmf_truncated_tail_is_below_the_bound(src):
    pmf = photon_pmf(src)
    n_max = len(pmf) - 1
    tail = sum(src.pmf(n) for n in range(n_max + 1, n_max + 200))
    assert tail < 2.0 ** -53
    # one count earlier the remaining mass is not yet below the bound
    assert n_max == 0 or tail + src.pmf(n_max) >= 2.0 ** -53
    assert pmf[:-1].tolist() == [src.pmf(n) for n in range(n_max)]
    assert pmf[-1] == pytest.approx(src.pmf(n_max) + tail, rel=1e-12,
                                    abs=0)
    draws = sample_photon_number(pmf, derive_rng(15), size=100000)
    assert draws.min() >= 0 and draws.max() <= n_max


@pytest.mark.parametrize("mu", [40.0, 120.0, 9000.0])
def test_photon_pmf_folds_the_left_tail_below_the_bound(mu):
    src = SourceModel.laser(mu)
    pmf = photon_pmf(src)
    lo = int(np.flatnonzero(pmf)[0])
    head = math.fsum(src.pmf(n) for n in range(lo))
    # one count later the mass before it is no longer below the bound
    assert lo > 0 and head < 2.0 ** -53 <= head + src.pmf(lo)
    assert pmf[lo] == pytest.approx(src.pmf(lo) + head, rel=1e-12, abs=0)
    assert pmf[lo + 1:-1].tolist() == [src.pmf(n)
                                       for n in range(lo + 1, pmf.size - 1)]


@pytest.mark.parametrize("pmf", [photon_pmf(SourceModel.ideal()),
                                 photon_pmf(SourceModel.heralded(0.0, 0.0)),
                                 np.array([0.0, 0.0, 1.0])])
def test_a_one_cell_pmf_draws_nothing(pmf):
    rng = derive_rng(18)
    draws = sample_photon_number(pmf, rng, size=1000)
    assert np.array_equal(rng.random(8), derive_rng(18).random(8))
    assert (draws == np.flatnonzero(pmf)[0]).all() and draws.shape == (1000,)


@pytest.mark.parametrize("size", [0, 1, 2 * CHUNK + 1])
@pytest.mark.parametrize("pmf", [
    *(_decoy_photons(ProtocolConfig("decoy_bb84", 1, decoy_mu=mu),
                     SourceModel.laser(0.8))[0] for mu in (0.12, 0.0)),
    photon_pmf(SourceModel.laser(0.5)), photon_pmf(SourceModel.laser(120)),
    photon_pmf(SourceModel.heralded(0.6, 0.05)),
    photon_pmf(SourceModel.heralded(0.6, 0.0)),    # a zero-mass cell
    np.array([0.25, 0.25, 0.5])])       # edges on guide-bucket boundaries
def test_photon_draw_is_the_binary_search_of_every_uniform(pmf, size):
    rng, ref = derive_rng(20, 0), derive_rng(20, 0)
    draws = sample_photon_number(pmf, rng, size)
    expected = np.searchsorted(np.cumsum(pmf)[:-1], ref.random(size),
                               side="right")
    assert draws.shape == expected.shape and (draws == expected).all()
    assert np.array_equal(rng.random(4), ref.random(4))


@pytest.mark.parametrize("cells, dtype", [
    (2, np.int8), (128, np.int8), (129, np.int16),
    (2 * (10 ** 4 + 1), np.int16)])     # two photon_pmf at their cap
@pytest.mark.parametrize("held", [(0, -1), (-1,)])
def test_photon_counts_are_narrow_and_never_wrap(cells, dtype, held):
    pmf = np.zeros(cells)
    pmf[list(held)] = 1.0 / len(held)
    draws = sample_photon_number(pmf, derive_rng(19), size=1000)
    assert draws.dtype == dtype
    assert set(draws.tolist()) == {c % cells for c in held}


def test_photon_pmf_refuses_a_table_beyond_ten_thousand_counts():
    with pytest.raises(ValueError, match=r"too large \(> 10\^4 photon"):
        photon_pmf(SourceModel.laser(1e5))


@pytest.mark.parametrize("mu", [0.0, -1.0, math.nan, math.inf])
def test_laser_mu_must_be_finite_and_positive(mu):
    with pytest.raises(ValueError, match="attenuated_laser requires mu > 0"):
        SourceModel.laser(mu)


def test_source_refuses_a_field_its_kind_does_not_read():
    for kind, fields, unused in (
            ("attenuated_laser", {"mu": 0.5, "herald_efficiency": 0.3},
             "herald_efficiency"),
            ("heralded_pdc", {"herald_efficiency": 0.6, "mu": 0.5}, "mu"),
            ("ideal_single_photon", {"multi_pair_prob": 0.1},
             "multi_pair_prob")):
        with pytest.raises(ValueError, match=f"{unused} is not used by {kind}"):
            SourceModel(kind, **fields)
    assert SourceModel("attenuated_laser", mu=0.5, herald_efficiency=0.0,
                       multi_pair_prob=0.0) == SourceModel.laser(0.5)


# model.field -> the model built with a bad value in that field
DEVICE_FIELDS = {
    "laser.mu": SourceModel.laser,
    "heralded.herald_efficiency": lambda bad: SourceModel.heralded(bad, 0.0),
    "heralded.multi_pair_prob": lambda bad: SourceModel.heralded(0.5, bad),
    "channel.length_km": lambda bad: ChannelModel(length_km=bad),
    "channel.attenuation_db_per_km":
        lambda bad: ChannelModel(attenuation_db_per_km=bad),
    "channel.misalignment_error_prob":
        lambda bad: ChannelModel(misalignment_error_prob=bad),
    "detector.efficiency": lambda bad: DetectorModel(efficiency=bad),
    "detector.dark_prob": lambda bad: DetectorModel(dark_prob=bad),
}


@pytest.mark.parametrize("field", sorted(DEVICE_FIELDS))
@pytest.mark.parametrize("bad", [True, False, "0.5", None])
def test_device_models_refuse_bools_and_non_numbers(field, bad):
    name = field.split(".")[1]
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be a number, got {bad!r}")):
        DEVICE_FIELDS[field](bad)


def test_channel_transmittance():
    ch = ChannelModel(length_km=50.0, attenuation_db_per_km=0.2)
    assert ch.transmittance == pytest.approx(0.1)
    assert ChannelModel().transmittance == 1.0


@pytest.mark.parametrize("field", ["length_km", "attenuation_db_per_km"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_channel_refuses_non_finite_values(field, value):
    # NaN fails every comparison, so a check written as `x < 0` let it
    # through, and a NaN transmittance (also 0 dB/km times an infinite
    # length) made a lossless line
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        ChannelModel(**{field: value})


def ideal_law(p_one, n_max=1, eta=1.0, dark_prob=0.0):
    """Law of a lossless line and detector unless eta or dark_prob say."""
    return click_law(np.asarray(p_one, dtype=float), None, eta, 0.0,
                     dark_prob, n_max)


def test_loss_through_the_click_law():
    # one photon on an ideal detector clicks with the line's transmittance
    ch = ChannelModel(length_km=10.0, attenuation_db_per_km=3.0)  # T = 0.001
    N = 100000
    zeros = np.zeros(N, dtype=np.int8)
    outs = measure_batch(np.ones(N, dtype=np.int64), zeros, zeros,
                         ideal_law([[0.0]], eta=ch.transmittance),
                         derive_rng(4).random(N))
    assert within_5_sigma(int((outs != NO_CLICK).sum()), N, ch.transmittance)
    # a lossless line has eta = 1: a photon never goes unseen
    lossless = ideal_law([[0.0]], eta=ChannelModel().transmittance)
    assert lossless[0, 1, 0, 0] == 0.0


def test_measure_deterministic_projection():
    # states V, H and an unbiased one, each measured in the one basis
    p_one = [[RECTILINEAR.prob_outcome_one(STATE_V)],
             [RECTILINEAR.prob_outcome_one(STATE_H)], [0.5]]
    outs = measure_batch(np.array([1, 1, 0]), np.arange(3),
                         np.zeros(3, dtype=np.int8), ideal_law(p_one),
                         derive_rng(5).random(3))
    assert outs.tolist() == [1, 0, NO_CLICK]


def test_measure_conjugate_basis_uniform():
    p_one = [[DIAGONAL.prob_outcome_one(STATE_H)]]
    zeros = np.zeros(20000, dtype=np.int8)
    outs = measure_batch(np.ones(20000, dtype=np.int64), zeros, zeros,
                         ideal_law(p_one), derive_rng(6).random(20000))
    assert (outs != NO_CLICK).all()
    assert abs(outs.mean() - 0.5) < 0.02


def test_dark_count_rate_on_vacuum():
    # two logical detectors: click prob 1 - (1 - p)^2
    p_dark = 1e-3
    zeros = np.zeros(200000, dtype=np.int8)
    outs = measure_batch(zeros, zeros, zeros,
                         ideal_law([[0.0]], n_max=0, dark_prob=p_dark),
                         derive_rng(7).random(200000))
    expect = 1.0 - (1.0 - p_dark) ** 2
    assert (outs != NO_CLICK).mean() == pytest.approx(expect, rel=0.15)


def test_measure_refuses_a_count_beyond_the_law():
    zeros = np.zeros(1, dtype=np.int8)
    with pytest.raises(IndexError):
        measure_batch(np.array([2]), zeros, zeros, ideal_law([[0.5]]),
                      derive_rng(8).random(1))


# a generic table: three states, two bases; states 0 and 1 are each
# other's misalignment target, state 2 has none
P_ONE = np.array([[0.0, 0.5], [1.0, 0.5], [0.3, 0.85]])
FLIP = np.array([1, 0, -1], dtype=np.int8)


def enumerated_law(p_one, flip, eta, e, d, n, k, m):
    """(P(NO_CLICK), P(0), P(1)) by enumerating the photon-level model: the
    misalignment flip of the whole pulse, each photon lost, sent to
    detector 0 or sent to detector 1, a dark count on each detector, and a
    double click as half a bit."""
    probs = [0.0, 0.0, 0.0]
    flips = [(1.0 - e, k), (e, flip[k])] if flip[k] >= 0 else [(1.0, k)]
    for w_flip, state in flips:
        p = p_one[state, m]
        fates = ((1.0 - eta, None), (eta * (1.0 - p), 0), (eta * p, 1))
        for path in itertools.product(fates, repeat=n):
            w_path = math.prod(w for w, _ in path)
            for dark0, dark1 in itertools.product((0, 1), repeat=2):
                w = w_flip * w_path * (d if dark0 else 1 - d) * (
                    d if dark1 else 1 - d)
                fire0 = dark0 or any(det == 0 for _, det in path)
                fire1 = dark1 or any(det == 1 for _, det in path)
                if fire0 and fire1:
                    probs[1] += w / 2
                    probs[2] += w / 2
                elif fire0 or fire1:
                    probs[1 if fire0 else 2] += w
                else:
                    probs[0] += w
    return probs


@pytest.mark.parametrize("eta", [0.0, 0.1, 0.7, 1.0])
@pytest.mark.parametrize("e", [0.0, 0.03, 0.5])
@pytest.mark.parametrize("d", [0.0, 1e-3, 0.2])
def test_click_law_matches_the_photon_level_enumeration(eta, e, d):
    law = click_law(P_ONE, FLIP, eta, e, d, n_max=4)
    for n, k, m in itertools.product(range(5), range(3), range(2)):
        none, zero, one = enumerated_law(P_ONE, FLIP, eta, e, d, n, k, m)
        assert law[0, n, k, m] == pytest.approx(none, abs=1e-12)
        assert law[1, n, k, m] == pytest.approx(none + zero, abs=1e-12)
        assert none + zero + one == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_click_law_no_click_is_the_same_for_every_state_and_basis(seed):
    # sessions draw a pulse's click before its state and basis: P(NO_CLICK)
    # at n photons must not depend on either, misalignment and dark
    # counts included
    rng = derive_rng(41, seed)
    states, bases = rng.integers(2, 7), rng.integers(1, 4)
    p_one = rng.random((states, bases))
    flip = rng.integers(-1, states, size=states).astype(np.int8)
    law = click_law(p_one, flip, rng.random(), 0.5 * rng.random(),
                    0.5 * rng.random(), n_max=5)
    assert (flip >= 0).any()
    np.testing.assert_array_equal(
        law[0], np.broadcast_to(law[0, :, :1, :1], law[0].shape))


def test_measure_frequencies_match_the_law_cell_by_cell():
    law = click_law(P_ONE, FLIP, 0.4, 0.05, 0.02, n_max=3)
    N = 20000
    rng = derive_rng(16)
    for n, k, m in itertools.product(range(4), range(3), range(2)):
        outs = measure_batch(np.full(N, n), np.full(N, k, dtype=np.int8),
                             np.full(N, m, dtype=np.int8), law,
                             rng.random(N))
        t0, t1 = law[:, n, k, m]
        for outcome, p in ((NO_CLICK, t0), (0, t1 - t0), (1, 1.0 - t1)):
            hits = int((outs == outcome).sum())
            assert within_5_sigma(hits, N, p), (n, k, m, outcome)


def test_presets_load():
    presets = load_presets()
    assert "si_apd" in presets["detectors"]
    assert "fiber_1550" in presets["channels"]
    det = detector_preset("ingaas_peltier")
    assert det.efficiency == pytest.approx(0.1)
    ch = channel_preset("fiber_1550", length_km=100.0)
    assert ch.attenuation_db_per_km == pytest.approx(0.2)
    with pytest.raises(KeyError):
        detector_preset("nope")


def test_singlet_correlation():
    rng = derive_rng(8)
    for deg in (0.0, 45.0, 90.0):
        a, b = sample_singlet(math.cos(math.radians(deg)), rng, size=200000)
        corr = float((a * b).mean())
        assert corr == pytest.approx(-math.cos(math.radians(deg)), abs=0.01)


def test_singlet_marginals_uniform():
    a, b = sample_singlet(math.cos(math.radians(30.0)), derive_rng(9),
                          size=100000)
    assert abs(a.mean()) < 0.02 and abs(b.mean()) < 0.02


def test_custom_basis_eigenstate_roundtrip():
    basis = Basis("tilted", SignalState(math.cos(0.3), math.sin(0.3)),
                  SignalState(-math.sin(0.3), math.cos(0.3)))
    assert basis.prob_outcome_one(basis.v1) == pytest.approx(1.0)
    assert basis.prob_outcome_one(basis.v0) == pytest.approx(0.0)
