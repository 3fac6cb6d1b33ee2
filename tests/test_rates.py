import math
import re

import numpy as np
import pytest

from qkdsim.rates import (DecoyEstimate, _xlogx, binary_entropy,
                          bound_beamsplit, bound_pns, decoy_estimate,
                          evaluate_rates, gain_Qmu, gllp_pulse_rate,
                          multiphoton_fraction, multiphoton_prob,
                          optimize_mu, rate_gllp, rate_mayers,
                          rate_shor_preskill, rate_six_state,
                          shor_preskill_cutoff, usd_threshold, yield_Yn)
from qkdsim.quantum import (NO_CLICK, SourceModel, click_law,
                            measure_batch, photon_pmf)
from qkdsim.rng import derive_rng


# ---------------------------------------------------------------------------
# entropies and information measures
# ---------------------------------------------------------------------------

# Shannon entropy, mutual information and the Csiszar-Korner one-way rate
# of a joint distribution, which no library code calls

def shannon_entropy(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    return float(-_xlogx(p).sum() / math.log(2.0))


def _check_distribution(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if not np.all(p >= -1e-15):
        raise ValueError("probabilities must be non-negative")
    if not abs(p.sum() - 1.0) <= 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {p.sum()}")
    return np.clip(p, 0.0, None)


def mutual_information(pab: np.ndarray) -> float:
    """I(A;B) = H(A) + H(B) - H(A,B) for a bipartite distribution."""
    pab = _check_distribution(pab)
    if pab.ndim != 2:
        raise ValueError("mutual_information expects a 2-axis distribution")
    ha = shannon_entropy(pab.sum(axis=1))
    hb = shannon_entropy(pab.sum(axis=0))
    return max(0.0, ha + hb - shannon_entropy(pab))


def csiszar_korner(pabe: np.ndarray) -> float:
    """Lower bound on the one-way secret-key rate:
    max(I(A;B) - I(A;E), I(A;B) - I(B;E)).  May be negative."""
    pabe = _check_distribution(pabe)
    if pabe.ndim != 3:
        raise ValueError("joint distribution must have three axes (A,B,E)")
    iab = mutual_information(pabe.sum(axis=2))
    iae = mutual_information(pabe.sum(axis=1))
    ibe = mutual_information(pabe.sum(axis=0))
    return max(iab - iae, iab - ibe)


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


def test_shor_preskill_cutoff_matches_brentq():
    from scipy.optimize import brentq
    root = brentq(rate_shor_preskill, 0.05, 0.25, xtol=1e-13)
    assert shor_preskill_cutoff() == pytest.approx(root, abs=1e-11)


def test_six_state_cutoff_higher_than_bb84():
    # root of the six-state rate sits near 12.6%
    from scipy.optimize import brentq
    root = brentq(rate_six_state, 0.05, 0.3)
    assert root == pytest.approx(0.1261930832768212, abs=1e-6)
    assert root > shor_preskill_cutoff()


MU_SEARCH_POINTS = [(0.1, 0.0, 0.0), (0.01, 1e-5, 0.02), (1e-3, 1e-5, 0.12)]


def test_rate_searches_keep_their_values():
    # recorded when the cutoff became a bisection and optimize_mu a grid
    # refined by golden-section search; the optimize_mu tuples re-recorded,
    # moved in the last digits, when the gain came to be computed as
    # -expm1(2 log1p(-p_dark) - mu eta)
    assert shor_preskill_cutoff() == 0.11002786443823423
    found = [optimize_mu(*point) for point in MU_SEARCH_POINTS]
    assert [(r.mu, r.rate_per_pulse) for r in found] == [
        (0.11045150657623912, 0.005315693625984283),
        (0.0075162240413404165, 4.1106662268914184e-05),
        (1.0000000004965547e-09, -1.174428798042482e-06)]
    # never below bounded Brent at the same point, nor below the rates
    # recorded from it (with a grid scan where it found none positive)
    from scipy.optimize import minimize_scalar
    brent_recorded = [0.005313764432918034, 4.110666226836649e-05,
                      -1.174467991069028e-06]
    for point, res, recorded in zip(MU_SEARCH_POINTS, found, brent_recorded):
        brent = minimize_scalar(lambda mu: -gllp_pulse_rate(mu, *point),
                                bounds=(1e-9, 2.0), method="bounded",
                                options={"xatol": 1e-6})
        assert res.rate_per_pulse >= max(-brent.fun, recorded)


# ---------------------------------------------------------------------------
# weak-pulse (multi-photon-penalized) rates
# ---------------------------------------------------------------------------

def test_detection_and_multiphoton_probs():
    assert gain_Qmu(0.1, 0.1, 0.0) == pytest.approx(1 - math.exp(-0.01))
    assert multiphoton_prob(0.1) == pytest.approx(
        1 - math.exp(-0.1) * 1.1)
    # the Poisson tail summed term by term; 1 - e^-mu - mu e^-mu cancels
    # to -2.7e-17 at mu = 1e-9
    for mu, rel in ((1e-12, 1e-4), (1e-9, 1e-6), (1e-8, 1e-6)):
        tail = math.exp(-mu) * math.fsum(mu ** n / math.factorial(n)
                                         for n in range(2, 6))
        assert multiphoton_prob(mu) == pytest.approx(tail, rel=rel, abs=0.0)
    # the gain and the PNS bound, ~1e-12 at mu = 1e-9, eta = 1e-3: the forms
    # 1 - e^-mu eta and (1 + mu) e^-mu - e^-mu eta cancel to 2e-5 there
    mu, eta = 1e-9, 1e-3
    pmf = [math.exp(-mu) * mu ** n / math.factorial(n) for n in range(6)]
    lost = [n * math.log1p(-eta) for n in range(6)]     # log (1 - eta)^n
    for p_dark in (0.0, 1e-12):
        gain = math.fsum(p * -math.expm1(x + 2 * math.log1p(-p_dark))
                         for p, x in zip(pmf, lost))
        assert gain_Qmu(mu, eta, p_dark) == pytest.approx(gain, rel=1e-12,
                                                          abs=0.0)
    # (1 + mu) e^-mu - e^-mu eta = P(1) eta - sum_{n >= 2} P(n) (1 - eta)^n
    pns = pmf[1] * eta - math.fsum(p * math.exp(x)
                                   for p, x in zip(pmf[2:], lost[2:]))
    assert bound_pns(mu, eta) == pytest.approx(pns, rel=1e-12, abs=0.0)
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
    # without errors and dark counts the rate is (1 + mu) e^-mu - e^-mu eta,
    # whose maximum solves mu e^-mu = eta e^-mu eta
    for eta in (1e-3, 1e-2, 1e-1):
        res = optimize_mu(eta, 0.0, 0.0)
        assert res.rate_per_pulse > 0.0
        assert res.mu * math.exp(-res.mu) == pytest.approx(
            eta * math.exp(-res.mu * eta), rel=1e-6)


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


def test_bounds_on_a_line_that_delivers_no_light():
    # eta = 0: Eve's beam splitter holds every photon, and each
    # multi-photon pulse counts against the PNS bound
    for mu in (1e-9, 0.5, 5.0):
        assert bound_beamsplit(mu, 0.0) == 0.0
        assert bound_pns(mu, 0.0) == -multiphoton_prob(mu)
    report = evaluate_rates(epsilon=0.02, mu=0.5, eta=0.0)
    assert report.values["gain_Qmu"] == 0.0
    assert "r_gllp" not in report.values
    assert "r_gllp_per_pulse" not in report.values
    # dark counts alone give a detection, and so a weak-pulse rate
    dark = evaluate_rates(epsilon=0.02, mu=0.5, eta=0.0, p_dark=1e-5)
    assert dark.values["r_gllp_per_pulse"] < 0.0


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


def test_gain_refuses_dark_probability_outside_unit_interval():
    for p_dark in (-0.1, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match="p_dark must lie in"):
            gain_Qmu(0.5, 0.1, p_dark)
    # the yields, and the decoy estimate built on them, refuse it too
    for call in (lambda: yield_Yn(0, 0.1, 1.5),
                 lambda: yield_Yn(2, 0.1, float("nan")),
                 lambda: decoy_estimate(0.3, 0.05, 0.5, 0.1, 1.5)):
        with pytest.raises(ValueError, match=re.escape(
                "p_dark must lie in [0, 1)")):
            call()
    # every range check refuses NaN, and a mean photon number refuses
    # infinity
    nan, inf = float("nan"), float("inf")
    for call, message in (
            (lambda: gain_Qmu(nan, 0.1, 0.0), "mu must be finite"),
            (lambda: gain_Qmu(inf, 0.1, 0.0), "mu must be finite"),
            (lambda: multiphoton_prob(-1.0), "mu must be finite and >= 0"),
            (lambda: multiphoton_prob(nan), "mu must be finite and >= 0"),
            (lambda: bound_beamsplit(nan, 0.1), "requires a finite mu > 0"),
            (lambda: bound_pns(inf, 0.1), "requires a finite mu > 0"),
            (lambda: binary_entropy(nan), "requires x in [0,1]"),
            (lambda: binary_entropy([0.1, nan]), "requires x in [0,1]"),
            (lambda: optimize_mu(0.1, 0.0, nan),
             "eps_model must lie in [0, 1]"),
            (lambda: yield_Yn(-1, 0.5, 0.0), "n must be finite and >= 0"),
            (lambda: yield_Yn(nan, 0.5, 0.0), "n must be finite and >= 0"),
            (lambda: mutual_information([[nan, 0.5], [0.5, 0.0]]),
             "must be non-negative")):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


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
    out = measure_batch(zeros, zeros, zeros, law, derive_rng(31).random(N))
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
    # a vacuum or non-finite intensity has no two-intensity estimate
    for args, name in (((0.3, 0.001, 0.8, 0.0, 1e-5), "mu_d"),
                       ((0.3, 0.001, 0.0, 0.1, 1e-5), "mu_s"),
                       ((0.3, 0.001, float("inf"), 0.1, 1e-5), "mu_s"),
                       ((0.3, 0.001, 0.8, float("nan"), 1e-5), "mu_d")):
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
            decoy_estimate(*args)


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
