"""Analytic engine: entropy and information measures, secret-key-rate
formulas, attack bounds, decoy-intensity yield estimation, and mean-photon-
number optimization.

Everything here is a pure, deterministic function of its inputs; the
simulation modules are validated against these closed forms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# Highest error rates tolerated by the known two-way post-processing
# protocols; reference constants, not computed here.
CHAU_THRESHOLD_BB84 = 0.20
CHAU_THRESHOLD_SIX_STATE = 0.276


# ---------------------------------------------------------------------------
# entropy and information measures
# ---------------------------------------------------------------------------

def _xlogx(x: np.ndarray) -> np.ndarray:
    """x log x per entry, with 0 log 0 = 0.  It calls math.log, the same
    libm log as scipy.special.xlogy(x, x), so the two agree bit for bit;
    np.log may differ from libm in the last ulp."""
    return np.array([v * math.log(v) if v > 0 else 0.0 if v == 0 else math.nan
                     for v in x.ravel().tolist()]).reshape(x.shape)


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log2 (1-x), with h(0) = h(1) = 0."""
    arr = np.asarray(x, dtype=float)
    if np.any((arr < 0) | (arr > 1)):
        raise ValueError("binary_entropy requires x in [0,1]")
    out = -(_xlogx(arr) + _xlogx(1.0 - arr)) / math.log(2.0)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def shannon_entropy(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    return float(-_xlogx(p).sum() / math.log(2.0))


def _check_distribution(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if np.any(p < -1e-15):
        raise ValueError("probabilities must be non-negative")
    if abs(p.sum() - 1.0) > 1e-9:
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


def conditional_mutual_information(pabe: np.ndarray) -> float:
    """I(A;B|E) = sum_e p(e) I(A;B | E=e)."""
    pabe = _check_distribution(pabe)
    pe = pabe.sum(axis=(0, 1))
    total = 0.0
    for e in range(pabe.shape[2]):
        if pe[e] <= 0.0:
            continue
        total += pe[e] * mutual_information(pabe[:, :, e] / pe[e])
    return total


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


def _apply_channel(pabe: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Process Eve's variable through the stochastic map q[e, e_bar]."""
    return np.einsum("abe,ef->abf", pabe, q)


def intrinsic_information(pabe: np.ndarray) -> float:
    """Upper bound on the secret-key rate: min over stochastic maps E->E'
    (|E'| = |E|) of I(A;B|E').

    The search covers the identity map, all deterministic maps, a grid in
    steps of 1/4 for binary E, and random stochastic maps; the best three
    are refined by Nelder-Mead descent on a softmax parametrization.
    The result never exceeds I(A;B|E) since the identity is in the space.
    """
    from scipy import optimize

    pabe = _check_distribution(np.asarray(pabe, dtype=float))
    ne = pabe.shape[2]
    if max(pabe.shape) > 4:
        raise ValueError("intrinsic_information supports alphabets up to size 4")

    def objective(q):
        return conditional_mutual_information(_apply_channel(pabe, q))

    candidates = [np.eye(ne)]
    candidates.append(np.full((ne, ne), 1.0 / ne))
    for assignment in itertools.product(range(ne), repeat=ne):
        q = np.zeros((ne, ne))
        q[np.arange(ne), assignment] = 1.0
        candidates.append(q)
    if ne == 2:
        grid = np.arange(0.0, 1.0 + 1e-12, 0.25)
        for p0, p1 in itertools.product(grid, repeat=2):
            candidates.append(np.array([[p0, 1 - p0], [p1, 1 - p1]]))
    rng = np.random.default_rng(7)  # fixed: the search itself is deterministic
    for _ in range(8):
        q = rng.random((ne, ne))
        candidates.append(q / q.sum(axis=1, keepdims=True))

    scored = sorted(candidates, key=objective)
    best = objective(scored[0])
    for q0 in scored[:3]:
        logits = np.log(np.clip(q0, 1e-6, None)).ravel()

        def from_logits(x):
            m = np.exp(x.reshape(ne, ne))
            return m / m.sum(axis=1, keepdims=True)

        res = optimize.minimize(lambda x: objective(from_logits(x)),
                                logits, method="Nelder-Mead",
                                options={"maxiter": 2000, "xatol": 1e-6,
                                         "fatol": 1e-12})
        best = min(best, float(res.fun))
    return max(0.0, best)


# ---------------------------------------------------------------------------
# single-photon key-rate formulas
# ---------------------------------------------------------------------------

def rate_mayers(eps: float) -> float:
    """R = 1 - h(eps) - h(2 eps); needs eps <= 0.25 for the h(2 eps) term."""
    if not 0.0 <= eps <= 0.25:
        raise ValueError("rate_mayers requires eps in [0, 0.25]")
    return 1.0 - binary_entropy(eps) - binary_entropy(2.0 * eps)


def rate_shor_preskill(eps: float) -> float:
    """R = 1 - 2 h(eps)."""
    if not 0.0 <= eps <= 0.5:
        raise ValueError("rate_shor_preskill requires eps in [0, 0.5]")
    return 1.0 - 2.0 * binary_entropy(eps)


def rate_six_state(eps: float) -> float:
    """R = 1 + (1 - 3eps/2) log2(1 - 3eps/2) + (3eps/2) log2(eps/2)."""
    if not 0.0 <= eps <= 0.5:
        raise ValueError("rate_six_state requires eps in [0, 0.5]")
    if eps == 0.0:
        return 1.0
    q = 1.5 * eps
    return float(1.0 + q * math.log2(eps / 2.0)
                 + (1.0 - q) * math.log2(1.0 - q))


def shor_preskill_cutoff() -> float:
    """Error rate where the 1 - 2 h(eps) rate crosses zero (about 11%)."""
    from scipy import optimize

    return float(optimize.brentq(rate_shor_preskill, 0.05, 0.25, xtol=1e-9))


# ---------------------------------------------------------------------------
# weak-pulse (multi-photon-penalized) rates
# ---------------------------------------------------------------------------

def detection_prob(mu: float, eta: float, p_dark: float) -> float:
    """Probability that at least one of Bob's two gated detectors fires for
    a Poissonian pulse of mean mu over total transmittance eta."""
    return 1.0 - (1.0 - p_dark) ** 2 * math.exp(-mu * eta)

def multiphoton_prob(mu: float) -> float:
    """Poisson probability of emitting two or more photons."""
    return 1.0 - math.exp(-mu) - mu * math.exp(-mu)


def multiphoton_fraction(mu: float, eta: float, p_dark: float) -> float:
    """Delta = p_multi / p_exp: the fraction of Bob's detections that could
    stem from multi-photon emissions."""
    p_exp = detection_prob(mu, eta, p_dark)
    if p_exp <= 0.0:
        raise ValueError("detection probability is zero")
    return min(1.0, multiphoton_prob(mu) / p_exp)


def rate_gllp(eps: float, delta: float) -> float:
    """Weak-pulse rate per sifted bit:
    R = (1 - Delta) - h(eps) - (1 - Delta) h(eps / (1 - Delta))."""
    if not 0.0 <= delta < 1.0:
        raise ValueError("rate_gllp requires delta in [0, 1)")
    ratio = eps / (1.0 - delta)
    if ratio > 1.0:
        raise ValueError("eps / (1 - delta) exceeds 1")
    return ((1.0 - delta) - binary_entropy(eps)
            - (1.0 - delta) * binary_entropy(ratio))


def gllp_pulse_rate(mu: float, eta: float, p_dark: float, eps: float) -> float:
    """Secret bits per emitted pulse: detection probability times the
    per-sifted-bit weak-pulse rate."""
    p_exp = detection_prob(mu, eta, p_dark)
    delta = multiphoton_fraction(mu, eta, p_dark)
    if delta >= 1.0:
        return -binary_entropy(eps) * p_exp
    ratio = eps / (1.0 - delta)
    if ratio > 1.0:
        return -p_exp  # error rate not even representable: no key
    return p_exp * rate_gllp(eps, delta)


@dataclass(frozen=True)
class MuSearchResult:
    mu: float
    rate_per_pulse: float


def optimize_mu(eta: float, p_dark: float, eps_model: float) -> MuSearchResult:
    """Maximize the weak-pulse rate per emitted pulse over mean photon
    numbers up to 2 by scipy's bounded Brent method (golden-section steps
    with parabolic interpolation); the optimum sits near mu ~ eta."""
    from scipy import optimize

    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")

    def neg(mu):
        return -gllp_pulse_rate(mu, eta, p_dark, eps_model)

    res = optimize.minimize_scalar(neg, bounds=(1e-9, 2.0),
                                   method="bounded",
                                   options={"xatol": 1e-6})
    mu_star = float(res.x)
    best = -float(res.fun)
    if best <= 0.0:
        # scan a grid to confirm there is no positive rate anywhere
        grid = np.geomspace(1e-6, 2.0, 200)
        vals = [gllp_pulse_rate(m, eta, p_dark, eps_model) for m in grid]
        k = int(np.argmax(vals))
        if vals[k] > best:
            mu_star, best = float(grid[k]), float(vals[k])
    return MuSearchResult(mu_star, best)


# ---------------------------------------------------------------------------
# attack bounds
# ---------------------------------------------------------------------------

def bound_beamsplit(mu: float, eta: float) -> float:
    """R <= (1 - e^{-mu eta})(1 - e^{-mu (1 - eta)})."""
    if mu <= 0 or not 0.0 < eta <= 1.0:
        raise ValueError("bound_beamsplit requires mu > 0 and eta in (0,1]")
    return (1.0 - math.exp(-mu * eta)) * (1.0 - math.exp(-mu * (1.0 - eta)))


def bound_pns(mu: float, eta: float) -> float:
    """R <= (1 + mu) e^{-mu} - e^{-mu eta}; negative means no secure key."""
    if mu <= 0 or not 0.0 < eta <= 1.0:
        raise ValueError("bound_pns requires mu > 0 and eta in (0,1]")
    return (1.0 + mu) * math.exp(-mu) - math.exp(-mu * eta)


def usd_threshold(overlap: float) -> float:
    """Channel transmittance below which unambiguous-discrimination
    interception of the two-state protocol leaves no trace: 1 - overlap."""
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must lie in [0, 1]")
    return 1.0 - overlap


# ---------------------------------------------------------------------------
# decoy-intensity yields and gains
# ---------------------------------------------------------------------------

def yield_Yn(n: int, eta: float, p_dark: float) -> float:
    """Y_n = 1 - (1 - eta)^n (1 - p_dark)^2: at least one of Bob's two
    detectors fires (p_dark per gate per detector, as in detection_prob)."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    return 1.0 - (1.0 - eta) ** n * (1.0 - p_dark) ** 2


def gain_Qmu(mu: float, eta: float, p_dark: float) -> float:
    """Q_mu = e^{-mu} sum_n Y_n mu^n / n!, which sums to
    ``detection_prob(mu, eta, p_dark)``; mu <= 0 gives Y_0."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    return detection_prob(max(mu, 0.0), eta, p_dark)


@dataclass(frozen=True)
class DecoyEstimate:
    Y0: float
    Y1: float
    consistent: bool  # False when an estimate falls outside [0, 1]


def decoy_estimate(Q_signal: float, Q_decoy: float, mu_s: float, mu_d: float,
                   p_dark: float) -> DecoyEstimate:
    """Estimate the vacuum and single-photon yields from two measured gains.

    Y0 is pinned to the dark-count yield; Y1 uses the two-intensity lower
    bound that cancels the two-photon term exactly and bounds the n >= 3
    terms by monotone yields, so the honest-channel estimate is accurate to
    a few percent while any photon-number-selective attack shifts it far
    outside its statistical error.
    """
    if mu_s == mu_d:
        raise ValueError("signal and decoy intensities must differ")
    if not (0.0 < Q_signal < 1.0 and 0.0 < Q_decoy < 1.0):
        raise ValueError("gains must lie in (0, 1)")
    if mu_s < mu_d:
        mu_s, mu_d = mu_d, mu_s
        Q_signal, Q_decoy = Q_decoy, Q_signal
    y0 = yield_Yn(0, 0.0, p_dark)
    pref = mu_s / (mu_s * mu_d - mu_d ** 2)
    y1 = pref * (Q_decoy * math.exp(mu_d)
                 - Q_signal * math.exp(mu_s) * (mu_d / mu_s) ** 2
                 - y0 * (mu_s ** 2 - mu_d ** 2) / mu_s ** 2)
    consistent = 0.0 <= y0 <= 1.0 and 0.0 <= y1 <= 1.0
    return DecoyEstimate(Y0=y0, Y1=y1, consistent=consistent)


# ---------------------------------------------------------------------------
# consolidated report
# ---------------------------------------------------------------------------

@dataclass
class RateReport:
    """Every applicable closed-form rate/bound at one parameter point.
    Raw values may be negative ('no secure key'); reports clamp them at 0."""

    epsilon: Optional[float] = None
    mu: Optional[float] = None
    eta: Optional[float] = None
    p_dark: float = 0.0
    overlap: Optional[float] = None
    values: dict = field(default_factory=dict)

    CSV_COLUMNS = ("r_mayers", "r_shor_preskill", "r_six_state", "r_gllp",
                   "r_gllp_per_pulse", "bound_beamsplit", "bound_pns",
                   "usd_threshold", "gain_Qmu")

    def csv_row(self) -> list:
        row = []
        for name in self.CSV_COLUMNS:
            v = self.values.get(name)
            row.append("" if v is None else repr(v))
            row.append("" if v is None else repr(max(0.0, v)))
        return row

    def to_text(self) -> str:
        lines = ["rate report"]
        params = {"epsilon": self.epsilon, "mu": self.mu, "eta": self.eta,
                  "p_dark": self.p_dark, "overlap": self.overlap}
        for k, v in params.items():
            if v is not None:
                lines.append(f"  {k} = {v!r}")
        for k in sorted(self.values):
            v = self.values[k]
            note = "" if v > 0 else "   [no secure key]"
            lines.append(f"  {k:<18} raw {v: .6f}  clamped {max(0.0, v):.6f}{note}")
        return "\n".join(lines)


def evaluate_rates(epsilon: Optional[float] = None, mu: Optional[float] = None,
                   eta: Optional[float] = None, p_dark: float = 0.0,
                   overlap: Optional[float] = None) -> RateReport:
    """Evaluate every formula whose inputs were supplied."""
    report = RateReport(epsilon=epsilon, mu=mu, eta=eta, p_dark=p_dark,
                        overlap=overlap)
    vals = report.values
    if epsilon is not None:
        if epsilon <= 0.25:
            vals["r_mayers"] = rate_mayers(epsilon)
        vals["r_shor_preskill"] = rate_shor_preskill(epsilon)
        vals["r_six_state"] = rate_six_state(epsilon)
    if mu is not None and eta is not None:
        vals["bound_beamsplit"] = bound_beamsplit(mu, eta)
        vals["bound_pns"] = bound_pns(mu, eta)
        vals["gain_Qmu"] = gain_Qmu(mu, eta, p_dark)
        if epsilon is not None:
            delta = multiphoton_fraction(mu, eta, p_dark)
            if delta < 1.0 and epsilon / (1.0 - delta) <= 1.0:
                vals["r_gllp"] = rate_gllp(epsilon, delta)
            vals["r_gllp_per_pulse"] = gllp_pulse_rate(mu, eta, p_dark, epsilon)
    if overlap is not None:
        vals["usd_threshold"] = usd_threshold(overlap)
    return report
