"""Analytic engine: binary entropy, secret-key-rate formulas, attack
bounds, decoy-intensity yield estimation, and mean-photon-number
optimization.

Everything here is a pure, deterministic function of its inputs, on numpy
alone; the simulation modules are validated against these closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


# ---------------------------------------------------------------------------
# binary entropy
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
    if not np.all((arr >= 0) & (arr <= 1)):
        raise ValueError("binary_entropy requires x in [0,1]")
    out = -(_xlogx(arr) + _xlogx(1.0 - arr)) / math.log(2.0)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


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
    """Error rate where the 1 - 2 h(eps) rate crosses zero (about 11%):
    bisection of [0.05, 0.25], on which the rate falls monotonically,
    down to a width of 1e-12."""
    lo, hi = 0.05, 0.25
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if rate_shor_preskill(mid) > 0.0 else (lo, mid)
    return (lo + hi) / 2.0


# ---------------------------------------------------------------------------
# weak-pulse (multi-photon-penalized) rates
# ---------------------------------------------------------------------------

def multiphoton_prob(mu: float) -> float:
    """Poisson probability of emitting two or more photons, without the
    cancellation of 1 - e^-mu - mu e^-mu at small mu."""
    if not 0.0 <= mu < math.inf:
        raise ValueError("mu must be finite and >= 0")
    return -math.expm1(-mu) - mu * math.exp(-mu)


def multiphoton_fraction(mu: float, eta: float, p_dark: float) -> float:
    """Delta = p_multi / p_exp: the fraction of Bob's detections that could
    stem from multi-photon emissions."""
    p_exp = gain_Qmu(mu, eta, p_dark)
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
    p_exp = gain_Qmu(mu, eta, p_dark)
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
    numbers in [1e-9, 2]; the optimum sits near mu ~ eta.  The best point
    of a 200-point geometric grid is refined by golden-section search
    between its two grid neighbours, down to a relative width of 1e-9."""
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    if not 0.0 <= eps_model <= 1.0:
        raise ValueError("eps_model must lie in [0, 1]")

    def rate(mu):
        return gllp_pulse_rate(mu, eta, p_dark, eps_model)

    step = (math.sqrt(5.0) - 1.0) / 2.0     # the golden-section ratio
    grid = np.geomspace(1e-9, 2.0, 200).tolist()
    vals = [rate(mu) for mu in grid]
    k = int(np.argmax(vals))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    a, b = hi - step * (hi - lo), lo + step * (hi - lo)
    ra, rb = rate(a), rate(b)
    while hi - lo > 1e-9 * hi:
        if ra >= rb:    # a maximum lies in [lo, b]
            hi, b, rb = b, a, ra
            a = hi - step * (hi - lo)
            ra = rate(a)
        else:           # in [a, hi]
            lo, a, ra = a, b, rb
            b = lo + step * (hi - lo)
            rb = rate(b)
    best, mu_star = max((vals[k], grid[k]), (ra, a), (rb, b))
    return MuSearchResult(mu_star, best)


# ---------------------------------------------------------------------------
# attack bounds
# ---------------------------------------------------------------------------

def bound_beamsplit(mu: float, eta: float) -> float:
    """R <= (1 - e^{-mu eta})(1 - e^{-mu (1 - eta)}); 0 on a line that
    delivers no light (eta = 0)."""
    if not (0 < mu < math.inf and 0.0 <= eta <= 1.0):
        raise ValueError("bound_beamsplit requires a finite mu > 0 and eta "
                         "in [0,1]")
    return (1.0 - math.exp(-mu * eta)) * (1.0 - math.exp(-mu * (1.0 - eta)))


def bound_pns(mu: float, eta: float) -> float:
    """R <= (1 + mu) e^{-mu} - e^{-mu eta}; negative means no secure key.
    Computed as (1 - e^{-mu eta}) - p_multi, which does not cancel at
    small mu, and is -p_multi at eta = 0."""
    if not (0 < mu < math.inf and 0.0 <= eta <= 1.0):
        raise ValueError("bound_pns requires a finite mu > 0 and eta in [0,1]")
    return -math.expm1(-mu * eta) - multiphoton_prob(mu)


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
    detectors fires (p_dark per gate per detector, as in gain_Qmu)."""
    if not 0 <= n < math.inf:
        raise ValueError("photon number n must be finite and >= 0")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if not 0.0 <= p_dark < 1.0:
        raise ValueError("p_dark must lie in [0, 1)")
    return 1.0 - (1.0 - eta) ** n * (1.0 - p_dark) ** 2


def gain_Qmu(mu: float, eta: float, p_dark: float) -> float:
    """Q_mu = e^{-mu} sum_n Y_n mu^n / n! = 1 - (1 - p_dark)^2 e^{-mu eta}:
    the probability that at least one of Bob's two gated detectors fires
    for a Poissonian pulse of mean mu over total transmittance eta.  An
    expm1 form keeps it exact at small mu eta; mu <= 0 gives Y_0."""
    if not mu < math.inf:
        raise ValueError("mu must be finite")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if not 0.0 <= p_dark < 1.0:
        raise ValueError("p_dark must lie in [0, 1)")
    return -math.expm1(2.0 * math.log1p(-p_dark) - max(mu, 0.0) * eta)


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
    outside its statistical error.  Both intensities must be finite and
    > 0: a vacuum decoy needs another estimate.
    """
    for name, mu in (("mu_s", mu_s), ("mu_d", mu_d)):
        if not 0 < mu < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {mu!r}")
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
    """Every applicable closed-form rate/bound at one parameter point:
    ``params`` holds the inputs (epsilon, mu, eta, p_dark, overlap; None
    where not given), ``values`` the rates.  Raw values may be negative
    ('no secure key'); reports clamp them at 0."""

    params: dict
    values: dict = field(default_factory=dict)

    CSV_COLUMNS = ("r_mayers", "r_shor_preskill", "r_six_state", "r_gllp",
                   "r_gllp_per_pulse", "bound_beamsplit", "bound_pns",
                   "usd_threshold", "gain_Qmu")
    CSV_HEADER = tuple(f"{c}_{suffix}" for c in CSV_COLUMNS
                       for suffix in ("raw", "clamped"))

    def csv_row(self) -> list:
        row = []
        for name in self.CSV_COLUMNS:
            v = self.values.get(name)
            row.append("" if v is None else repr(v))
            row.append("" if v is None else repr(max(0.0, v)))
        return row

    def to_text(self) -> str:
        lines = ["rate report"]
        for k, v in self.params.items():
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
    """Evaluate every formula whose inputs were supplied.  p_dark, mu and
    eta are checked even when no formula reads them, since the report
    prints them.  A line that delivers no detection (gain_Qmu = 0) has no
    weak-pulse rate, which is left out."""
    if not 0.0 <= p_dark < 1.0:
        raise ValueError("p_dark must lie in [0, 1)")
    if mu is not None and not 0 < mu < math.inf:
        raise ValueError("mu must be finite and > 0")
    if eta is not None and not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    report = RateReport(dict(epsilon=epsilon, mu=mu, eta=eta, p_dark=p_dark,
                             overlap=overlap))
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
        if epsilon is not None and vals["gain_Qmu"] > 0.0:
            delta = multiphoton_fraction(mu, eta, p_dark)
            if delta < 1.0 and epsilon / (1.0 - delta) <= 1.0:
                vals["r_gllp"] = rate_gllp(epsilon, delta)
            vals["r_gllp_per_pulse"] = gllp_pulse_rate(mu, eta, p_dark, epsilon)
    if overlap is not None:
        vals["usd_threshold"] = usd_threshold(overlap)
    return report
