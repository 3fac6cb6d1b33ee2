import math

import numpy as np
import pytest

from qkdsim.rates import (CHAU_THRESHOLD_BB84, CHAU_THRESHOLD_SIX_STATE,
                          DecoyEstimate, binary_entropy,
                          bound_beamsplit, bound_pns,
                          conditional_mutual_information, csiszar_korner,
                          decoy_estimate, detection_prob, evaluate_rates,
                          gain_Qmu, gllp_pulse_rate, intrinsic_information,
                          multiphoton_fraction, multiphoton_prob,
                          mutual_information, optimize_mu, rate_gllp,
                          rate_mayers, rate_shor_preskill, rate_six_state,
                          shannon_entropy, shor_preskill_cutoff,
                          usd_threshold, yield_Yn)
from qkdsim.quantum import (NO_CLICK, SourceModel, click_law,
                            measure_batch, photon_pmf)
from qkdsim.rng import make_rng


# ---------------------------------------------------------------------------
# entropies and information measures
# ---------------------------------------------------------------------------

def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0)
    assert binary_entropy(0.03) == pytest.approx(0.1943918578315762)
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528)
    with pytest.raises(ValueError):
        binary_entropy(1.2)


def test_binary_entropy_vectorized():
    out = binary_entropy(np.array([0.0, 0.5, 1.0]))
    assert np.allclose(out, [0.0, 1.0, 0.0])


def test_shannon_entropy_uniform():
    assert shannon_entropy(np.full(8, 1 / 8)) == pytest.approx(3.0)


def test_entropies_match_the_xlogy_formula_bit_for_bit():
    from scipy.special import xlogy
    tiny = [0.0, 1.0, 0.5, 1e-300, 5e-324, 1e-310, 2.2250738585072014e-308,
            1.0 - 2.0 ** -53, 2.0 ** -1074 * 3]
    grid = np.concatenate([tiny, np.linspace(0.0, 1.0, 100_001),
                           np.geomspace(5e-324, 1.0, 20_000),
                           np.random.default_rng(0).random(20_000)])
    old = -(xlogy(grid, grid) + xlogy(1.0 - grid, 1.0 - grid)) / math.log(2.0)
    new = binary_entropy(grid)
    assert new.dtype == np.float64
    assert new.tobytes() == old.tobytes()
    for x in tiny + grid[::997].tolist():
        h = binary_entropy(x)
        assert type(h) is float
        assert np.float64(h).tobytes() == np.float64(
            -(xlogy(x, x) + xlogy(1.0 - x, 1.0 - x)) / math.log(2.0)).tobytes()
    for p in (grid[:64], grid[1000:1010], np.full(8, 1 / 8), np.eye(3) / 3):
        assert shannon_entropy(p) == float(-xlogy(p, p).sum() / math.log(2.0))


def test_mutual_information_cases():
    perfect = np.array([[0.5, 0.0], [0.0, 0.5]])
    assert mutual_information(perfect) == pytest.approx(1.0)
    independent = np.full((2, 2), 0.25)
    assert mutual_information(independent) == pytest.approx(0.0, abs=1e-12)
    # binary symmetric channel with crossover 0.25
    eps = 0.25
    bsc = 0.5 * np.array([[1 - eps, eps], [eps, 1 - eps]])
    assert mutual_information(bsc) == pytest.approx(1 - binary_entropy(eps))


def test_joint_distribution_validation():
    with pytest.raises(ValueError, match="three axes"):
        csiszar_korner(np.full((2, 2), 0.25))
    with pytest.raises(ValueError, match="sum to 1"):
        csiszar_korner(np.full((2, 2, 2), 0.25))


def _abe(eps_b, eve_knows):
    """P(a,b,e): uniform a, BSC(eps_b) to b; e copies a with prob
    eve_knows, else an independent coin."""
    p = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            pb = (1 - eps_b) if a == b else eps_b
            for e in range(2):
                pe = eve_knows * (e == a) + (1 - eve_knows) * 0.5
                p[a, b, e] = 0.5 * pb * pe
    return p


def test_csiszar_korner_eve_blind():
    p = _abe(0.1, 0.0)
    assert csiszar_korner(p) == pytest.approx(1 - binary_entropy(0.1))


def test_csiszar_korner_eve_full_copy():
    p = _abe(0.1, 1.0)
    assert csiszar_korner(p) <= 0.0


def test_intrinsic_bounded_by_conditional_mi():
    for knows in (0.0, 0.5, 1.0):
        p = _abe(0.2, knows)
        assert intrinsic_information(p) <= \
            conditional_mutual_information(p) + 1e-9


def test_intrinsic_eve_blind_equals_mi():
    p = _abe(0.1, 0.0)
    assert intrinsic_information(p) == pytest.approx(
        1 - binary_entropy(0.1), abs=1e-6)


def test_intrinsic_eve_copy_is_zero():
    p = _abe(0.0, 1.0)
    assert intrinsic_information(p) == pytest.approx(0.0, abs=1e-9)


def test_intrinsic_rejects_large_alphabets():
    with pytest.raises(ValueError):
        intrinsic_information(np.full((5, 5, 5), 1 / 125))


# ---------------------------------------------------------------------------
# single-photon rate formulas
# ---------------------------------------------------------------------------

def test_rate_mayers():
    assert rate_mayers(0.0) == pytest.approx(1.0)
    assert rate_mayers(0.05) == pytest.approx(0.24460744929476252)
    with pytest.raises(ValueError):
        rate_mayers(0.3)


def test_rate_shor_preskill():
    assert rate_shor_preskill(0.0) == pytest.approx(1.0)
    assert rate_shor_preskill(0.05) == pytest.approx(0.4272060857680875)


def test_rate_six_state_beats_shor_preskill():
    for eps in (0.02, 0.05, 0.1):
        assert rate_six_state(eps) > rate_shor_preskill(eps)
    assert rate_six_state(0.05) == pytest.approx(0.4968162683194162)


def test_shor_preskill_cutoff_near_eleven_percent():
    cutoff = shor_preskill_cutoff()
    assert 0.105 < cutoff < 0.115
    assert rate_shor_preskill(cutoff) == pytest.approx(0.0, abs=1e-9)


def test_six_state_cutoff_higher_than_bb84():
    # root of the six-state rate sits near 12.6%
    from scipy.optimize import brentq
    root = brentq(rate_six_state, 0.05, 0.3)
    assert root == pytest.approx(0.1261930832768212, abs=1e-6)
    assert root > shor_preskill_cutoff()


def test_scipy_backed_functions_keep_their_values():
    # recorded while scipy was imported at module level
    assert shor_preskill_cutoff() == 0.11002786444691716
    assert [(r.mu, r.rate_per_pulse) for r in (
        optimize_mu(0.1, 0.0, 0.0), optimize_mu(0.01, 1e-5, 0.02),
        optimize_mu(1e-3, 1e-5, 0.12))] == [
        (0.10826580342224035, 0.005313764432918034),
        (0.007516194018558547, 4.110666226836649e-05),
        (6.653747947496399e-07, -1.174467991069028e-06)]
    assert [intrinsic_information(_abe(0.2, k)) for k in (0.0, 0.5, 1.0)] \
        == [0.2780719051126374, 0.21213996048812858, 0.0]


def test_chau_constants():
    assert CHAU_THRESHOLD_BB84 == 0.20
    assert CHAU_THRESHOLD_SIX_STATE == 0.276


# ---------------------------------------------------------------------------
# weak-pulse (multi-photon-penalized) rates
# ---------------------------------------------------------------------------

def test_detection_and_multiphoton_probs():
    assert detection_prob(0.1, 0.1, 0.0) == pytest.approx(1 - math.exp(-0.01))
    assert multiphoton_prob(0.1) == pytest.approx(
        1 - math.exp(-0.1) * 1.1)
    frac = multiphoton_fraction(0.1, 0.1, 1e-5)
    assert frac == pytest.approx(0.46929343805787727, rel=1e-6)


def test_rate_gllp_oracle_point():
    delta = multiphoton_fraction(0.1, 0.1, 1e-5)
    assert rate_gllp(0.01, delta) == pytest.approx(0.3783248347735704,
                                                   rel=1e-9)
    assert rate_gllp(0.0, 0.0) == pytest.approx(1.0)


def test_gllp_pulse_rate_eta_squared_scaling():
    r1 = gllp_pulse_rate(1e-3, 1e-3, 0.0, 0.0)
    r2 = gllp_pulse_rate(1e-2, 1e-2, 0.0, 0.0)
    slope = (math.log(r2) - math.log(r1)) / (math.log(1e-2) - math.log(1e-3))
    assert slope == pytest.approx(2.0, abs=0.1)


def test_optimize_mu_tracks_eta():
    for eta in (1e-3, 1e-2, 1e-1):
        res = optimize_mu(eta, 0.0, 0.0)
        assert res.rate_per_pulse > 0.0
        assert eta / 2 < res.mu < eta * 2


def test_optimize_mu_reports_no_positive_rate_above_cutoff():
    res = optimize_mu(1e-3, 1e-5, 0.12)
    assert res.rate_per_pulse <= 0.0


# ---------------------------------------------------------------------------
# attack bounds
# ---------------------------------------------------------------------------

def test_bound_beamsplit_value():
    assert bound_beamsplit(0.5, 0.1) == pytest.approx(0.01767308359014612)


def test_bound_pns_sign_flip():
    assert bound_pns(0.5, 0.1) == pytest.approx(-0.04143343493176388)
    assert bound_pns(0.05, 0.9) > 0.0


def test_usd_threshold_exact():
    assert usd_threshold(2 ** -0.5) == 1.0 - 2 ** -0.5
    assert usd_threshold(0.0) == 1.0
    with pytest.raises(ValueError):
        usd_threshold(1.5)


# ---------------------------------------------------------------------------
# decoy yields
# ---------------------------------------------------------------------------

def test_yield_formula():
    assert yield_Yn(0, 0.1, 1e-5) == pytest.approx(1 - (1 - 1e-5) ** 2)
    assert yield_Yn(1, 0.1, 0.0) == pytest.approx(0.1)
    assert yield_Yn(2, 0.1, 0.0) == pytest.approx(1 - 0.81)


def test_gain_matches_closed_form_without_dark_counts():
    # sum_n e^-mu mu^n/n! [1-(1-eta)^n] = 1 - e^{-mu eta}
    for mu, eta in ((0.1, 0.1), (0.5, 0.3), (1.0, 0.05)):
        assert gain_Qmu(mu, eta, 0.0) == pytest.approx(
            1 - math.exp(-mu * eta), rel=1e-9)


def test_gain_matches_detection_prob_with_dark_counts():
    # both count a dark click on either of Bob's two detectors
    for mu, eta, p_dark in ((0.5, 0.01, 1e-2), (0.1, 0.3, 1e-5),
                            (1.0, 0.05, 0.2)):
        assert gain_Qmu(mu, eta, p_dark) == pytest.approx(
            detection_prob(mu, eta, p_dark), rel=1e-9)


@pytest.mark.parametrize("mu", [0.12, 0.8, 5, 20, 40])
def test_gain_is_the_whole_poisson_sum_of_the_yields(mu):
    # summed over the full photon_pmf, not cut at a fixed photon number
    pmf = photon_pmf(SourceModel.laser(mu))
    for eta, p_dark in ((0.1, 0.0), (0.1, 1e-5), (0.02, 0.01)):
        series = sum(p * yield_Yn(n, eta, p_dark) for n, p in enumerate(pmf))
        assert gain_Qmu(mu, eta, p_dark) == pytest.approx(series, abs=1e-12)


def test_vacuum_yield_matches_the_simulated_dark_click_rate():
    N, p_dark = 200000, 0.01
    zeros = np.zeros(N, dtype=np.int8)
    law = click_law(np.full((1, 1), 0.5), None, 1.0, 0.0, p_dark, 0)
    out = measure_batch(zeros, zeros, zeros, law, make_rng(31))
    rate = float((out != NO_CLICK).mean())
    y0 = yield_Yn(0, 0.0, p_dark)
    assert abs(rate - y0) < 5 * (y0 * (1 - y0) / N) ** 0.5


# the simulator's click law against the analytic yields and gains
ETA_DARK = [(0.0, 0.0), (0.05, 1e-5), (0.3, 1e-2), (1.0, 0.2)]


@pytest.mark.parametrize("eta, p_dark", ETA_DARK)
def test_click_law_yield_is_the_analytic_Yn(eta, p_dark):
    law = click_law(np.array([[0.0, 0.5, 1.0]]), None, eta, 0.0, p_dark, 8)
    for n in range(9):
        for m in range(3):
            assert 1.0 - law[0, n, 0, m] == pytest.approx(
                yield_Yn(n, eta, p_dark), abs=1e-12)


@pytest.mark.parametrize("eta, p_dark", ETA_DARK)
@pytest.mark.parametrize("mu", [0.1, 0.5, 1.0])
def test_click_law_summed_over_the_source_is_the_analytic_gain(mu, eta,
                                                              p_dark):
    pmf = photon_pmf(SourceModel.laser(mu))
    law = click_law(np.full((1, 1), 0.5), None, eta, 0.0, p_dark,
                    len(pmf) - 1)
    gain = float(pmf @ (1.0 - law[0, :, 0, 0]))
    assert gain == pytest.approx(gain_Qmu(mu, eta, p_dark), abs=1e-12)


def test_decoy_estimate_recovers_honest_yields():
    mu_s, mu_d, eta, p_dark = 0.5, 0.05, 0.1, 1e-5
    est = decoy_estimate(gain_Qmu(mu_s, eta, p_dark),
                         gain_Qmu(mu_d, eta, p_dark), mu_s, mu_d, p_dark)
    assert est.consistent
    assert est.Y0 == pytest.approx(1 - (1 - p_dark) ** 2)
    assert est.Y1 == pytest.approx(yield_Yn(1, eta, p_dark), rel=0.05)


def test_decoy_estimate_swaps_misordered_intensities():
    a = decoy_estimate(0.05, 0.005, 0.5, 0.05, 1e-5)
    b = decoy_estimate(0.005, 0.05, 0.05, 0.5, 1e-5)
    assert a.Y1 == pytest.approx(b.Y1)


def test_decoy_estimate_flags_nonsense():
    est = decoy_estimate(0.9, 0.001, 0.5, 0.05, 0.0)
    assert isinstance(est, DecoyEstimate)
    assert not est.consistent


# ---------------------------------------------------------------------------
# consolidated report
# ---------------------------------------------------------------------------

def test_evaluate_rates_zero_error_ideal():
    report = evaluate_rates(epsilon=0.0, mu=None, eta=None)
    assert report.values["r_mayers"] == pytest.approx(1.0)
    assert report.values["r_shor_preskill"] == pytest.approx(1.0)
    assert report.values["r_six_state"] == pytest.approx(1.0)


def test_evaluate_rates_flags_no_secure_key():
    report = evaluate_rates(mu=0.5, eta=0.1)
    assert report.values["bound_pns"] < 0.0
    assert max(0.0, report.values["bound_pns"]) == 0.0
    assert "[no secure key]" in report.to_text()


def test_csv_row_carries_raw_and_clamped():
    report = evaluate_rates(epsilon=0.05, mu=0.5, eta=0.1)
    row = report.csv_row()
    assert len(row) == 2 * len(report.CSV_COLUMNS)
    i = report.CSV_COLUMNS.index("bound_pns")
    assert float(row[2 * i]) < 0.0 and float(row[2 * i + 1]) == 0.0
