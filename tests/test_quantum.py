import math

import numpy as np
import pytest

from qkdsim.quantum import (CIRCULAR, DIAGONAL, NO_CLICK, RECTILINEAR,
                            STATE_A, STATE_H, STATE_L, STATE_V, Basis,
                            ChannelModel, DetectorModel, SignalState,
                            SourceModel, attenuate_batch, channel_preset,
                            detector_preset, g2, load_presets, measure_batch,
                            sample_photon_number, sample_singlet)
from qkdsim.rng import make_rng


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
    draws = sample_photon_number(src, make_rng(3), size=200000)
    assert (draws == 0).mean() == pytest.approx(src.pmf(0), abs=0.005)
    assert (draws == 1).mean() == pytest.approx(src.pmf(1), abs=0.005)


@pytest.mark.parametrize("mu", [0.0, -1.0, math.nan, math.inf])
def test_laser_mu_must_be_finite_and_positive(mu):
    with pytest.raises(ValueError, match="attenuated_laser requires mu > 0"):
        SourceModel.laser(mu)


def test_g2_values():
    assert g2(SourceModel.ideal()) == pytest.approx(0.0)
    assert g2(SourceModel.laser(0.3)) == pytest.approx(1.0)
    assert g2(SourceModel.heralded(0.6, 0.01)) < 1.0


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


def test_transmit_loss_statistics():
    ch = ChannelModel(length_km=10.0, attenuation_db_per_km=3.0)  # T = 0.001
    survived = attenuate_batch(np.ones(100000, dtype=np.int64), ch, make_rng(4))
    assert survived.max() <= 1
    assert survived.mean() == pytest.approx(ch.transmittance, abs=5e-4)
    # a lossless line passes the counts through and draws nothing
    rng = make_rng(4)
    n = np.array([0, 1, 3])
    assert attenuate_batch(n, ChannelModel(), rng) is n
    assert rng.random() == make_rng(4).random()


def test_measure_deterministic_projection():
    # states V, H and an unbiased one, each measured in the one basis
    p_one = np.array([[RECTILINEAR.prob_outcome_one(STATE_V)],
                      [RECTILINEAR.prob_outcome_one(STATE_H)], [0.5]])
    outs = measure_batch(np.array([1, 1, 0]), p_one, np.arange(3),
                         np.zeros(3, dtype=np.int8), DetectorModel(),
                         make_rng(5))
    assert outs.tolist() == [1, 0, NO_CLICK]


def test_measure_conjugate_basis_uniform():
    p_one = np.array([[DIAGONAL.prob_outcome_one(STATE_H)]])
    zeros = np.zeros(20000, dtype=np.int8)
    outs = measure_batch(np.ones(20000, dtype=np.int64), p_one, zeros, zeros,
                         DetectorModel(), make_rng(6))
    assert (outs != NO_CLICK).all()
    assert abs(outs.mean() - 0.5) < 0.02


def test_dark_count_rate_on_vacuum():
    # two logical detectors: click prob 1 - (1 - p)^2
    p_dark = 1e-3
    det = DetectorModel(dark_prob=p_dark)
    zeros = np.zeros(200000, dtype=np.int8)
    outs = measure_batch(zeros, np.zeros((1, 1)), zeros, zeros, det,
                         make_rng(7))
    expect = 1.0 - (1.0 - p_dark) ** 2
    assert (outs != NO_CLICK).mean() == pytest.approx(expect, rel=0.15)


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
    rng = make_rng(8)
    for deg in (0.0, 45.0, 90.0):
        a, b = sample_singlet(math.cos(math.radians(deg)), rng, size=200000)
        corr = float((a * b).mean())
        assert corr == pytest.approx(-math.cos(math.radians(deg)), abs=0.01)


def test_singlet_marginals_uniform():
    a, b = sample_singlet(math.cos(math.radians(30.0)), make_rng(9),
                          size=100000)
    assert abs(a.mean()) < 0.02 and abs(b.mean()) < 0.02


def test_custom_basis_eigenstate_roundtrip():
    basis = Basis("tilted", SignalState(math.cos(0.3), math.sin(0.3)),
                  SignalState(-math.sin(0.3), math.cos(0.3)))
    assert basis.prob_outcome_one(basis.eigenstate(1)) == pytest.approx(1.0)
    assert basis.prob_outcome_one(basis.eigenstate(0)) == pytest.approx(0.0)
