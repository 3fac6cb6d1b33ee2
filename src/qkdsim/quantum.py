"""Physical layer: qubit polarization states, photon sources, lossy
channels, threshold detectors, and the singlet-pair law.

All parameter records are immutable dataclasses; every sampler takes an
explicit ``numpy.random.Generator`` and a slice of at most ``CHUNK`` pulses
(see ``protocols``).  ``sample_photon_number`` inverts the cumulative
``photon_pmf`` through a guide table, to the cell a binary search gives,
and ``measure_batch`` draws the whole receiver chain from a ``click_law``
table (for Bob and an intercept-resend Eve), each with one uniform per
pulse.  The pair protocols draw through the same kernels
(see ``protocols``); ``sample_singlet`` is the singlet law itself, which
tests compare against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

NO_CLICK = -1  # detection outcome: neither logical detector fired
CHUNK = 1 << 16  # pulses per session slice (see protocols)
_GUIDE = 1 << 10  # guide-table buckets of sample_photon_number

_NORM_TOL = 1e-12


# ---------------------------------------------------------------------------
# states and bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignalState:
    """Pure polarization qubit: amplitudes of |H> and |V>."""

    amp_h: complex
    amp_v: complex

    def __post_init__(self):
        norm = abs(self.amp_h) ** 2 + abs(self.amp_v) ** 2
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state not normalized: |amp|^2 = {norm}")

    def overlap(self, other: "SignalState") -> complex:
        """Inner product <self|other>."""
        return (np.conj(self.amp_h) * other.amp_h
                + np.conj(self.amp_v) * other.amp_v)

    def orthogonal(self) -> "SignalState":
        """The unique (up to phase) state orthogonal to this one."""
        return SignalState(-np.conj(self.amp_v), np.conj(self.amp_h))


_S2 = 1.0 / math.sqrt(2.0)

STATE_H = SignalState(1.0, 0.0)
STATE_V = SignalState(0.0, 1.0)
STATE_A = SignalState(_S2, _S2)    # 45 deg linear
STATE_D = SignalState(_S2, -_S2)   # 135 deg linear
STATE_L = SignalState(_S2, _S2 * 1j)
STATE_R = SignalState(_S2, -_S2 * 1j)


@dataclass(frozen=True)
class Basis:
    """Orthonormal measurement basis; vector order fixes the bit labels
    (v0 -> bit 0, v1 -> bit 1)."""

    name: str
    v0: SignalState
    v1: SignalState

    def __post_init__(self):
        if abs(self.v0.overlap(self.v1)) > _NORM_TOL:
            raise ValueError(f"basis {self.name!r} vectors are not orthogonal")

    def prob_outcome_one(self, state: SignalState) -> float:
        """Projection probability onto v1 for a single photon in `state`."""
        return float(abs(self.v1.overlap(state)) ** 2)

    def eigenstate(self, bit: int) -> SignalState:
        return self.v1 if bit else self.v0


RECTILINEAR = Basis("rectilinear", STATE_H, STATE_V)
DIAGONAL = Basis("diagonal", STATE_A, STATE_D)
CIRCULAR = Basis("circular", STATE_L, STATE_R)

ALL_BASES = (RECTILINEAR, DIAGONAL, CIRCULAR)


# ---------------------------------------------------------------------------
# device models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SourceModel:
    """Photon-number statistics of the emitter.

    kinds:
      ideal_single_photon -- exactly one photon per pulse
      attenuated_laser    -- Poisson(mu) photons per pulse
      heralded_pdc        -- vacuum with prob 1 - herald_efficiency,
                             two photons with prob multi_pair_prob,
                             one photon otherwise
    """

    kind: str
    mu: float = 0.0
    herald_efficiency: float = 0.0
    multi_pair_prob: float = 0.0

    def __post_init__(self):
        if self.kind == "attenuated_laser":
            if not 0 < self.mu < math.inf:
                raise ValueError("attenuated_laser requires mu > 0 and finite")
        elif self.kind == "heralded_pdc":
            if not 0.0 <= self.herald_efficiency <= 1.0:
                raise ValueError("herald_efficiency must lie in [0,1]")
            if not 0.0 <= self.multi_pair_prob <= self.herald_efficiency:
                raise ValueError("multi_pair_prob must lie in [0, herald_efficiency]")
        elif self.kind != "ideal_single_photon":
            raise ValueError(f"unknown source kind {self.kind!r}")

    @classmethod
    def ideal(cls) -> "SourceModel":
        return cls("ideal_single_photon")

    @classmethod
    def laser(cls, mu: float) -> "SourceModel":
        return cls("attenuated_laser", mu=mu)

    @classmethod
    def heralded(cls, herald_efficiency: float, multi_pair_prob: float) -> "SourceModel":
        return cls("heralded_pdc", herald_efficiency=herald_efficiency,
                   multi_pair_prob=multi_pair_prob)

    def pmf(self, n: int) -> float:
        """Exact photon-number probability p(n)."""
        if n < 0:
            return 0.0
        if self.kind == "attenuated_laser":   # in logs: no overflow at large n
            return math.exp(n * math.log(self.mu) - self.mu
                            - math.lgamma(n + 1))
        h, m = self.herald_efficiency, self.multi_pair_prob
        table = ((0.0, 1.0) if self.kind == "ideal_single_photon"
                 else (1.0 - h, h - m, m))
        return table[n] if n < len(table) else 0.0


def photon_pmf(src: SourceModel) -> np.ndarray:
    """p(n) for n = 0..n_max, n_max the first count whose remaining mass
    sum_{n > n_max} p(n) is below 2^-53; that mass is folded into p(n_max).
    A laser's tail is summed to mu + 10 sqrt(mu) + 40 (past it, < 1e-30),
    and a table of more than 10^4 counts is refused."""
    cap = (int(src.mu + 10 * math.sqrt(src.mu) + 40)
           if src.kind == "attenuated_laser" else 2)
    if cap > 10 ** 4:
        raise ValueError(f"mu = {src.mu} is too large (> 10^4 photon counts)")
    pmf = np.array([src.pmf(n) for n in range(cap + 1)])
    rest = np.cumsum(pmf[::-1])[-2::-1]     # rest[n] = sum_{k > n} p(k)
    n_max = int(np.count_nonzero(rest >= 2.0 ** -53))
    pmf[n_max] = pmf[n_max:].sum()
    return pmf[:n_max + 1]


def sample_photon_number(pmf: np.ndarray, rng: np.random.Generator,
                         size: int) -> np.ndarray:
    """Draw the cells of `size` pulses from `pmf` (a ``photon_pmf``, or a
    mixture of them laid end to end) as int8, or int16 past 128 cells: one
    uniform u per pulse inverts the cumulative pmf, and nothing is drawn
    when one cell holds all the mass (the ideal source).  A guide table
    (Chen & Asau, 1974) gives the cell of u's bucket floor(u _GUIDE), exact
    in float64, when no edge of the cumulative pmf lies inside the bucket,
    and binary-searches u otherwise: each u gets a binary search's cell."""
    cells = np.flatnonzero(pmf)
    dtype = np.int8 if len(pmf) <= 128 else np.int16
    if cells.size == 1:
        return np.full(size, cells[0], dtype=dtype)
    edges = np.cumsum(pmf)[:-1]
    bounds = np.arange(_GUIDE + 1) / _GUIDE
    first = np.searchsorted(edges, bounds[:-1], side="right")
    # bucket j's cell, or -1 when an edge lies inside (j, j + 1) / _GUIDE
    guide = np.where(first == np.searchsorted(edges, bounds[1:]),
                     first, -1).astype(dtype)
    u = rng.random(size)
    out = guide.take((u * _GUIDE).astype(np.intp))
    split = np.flatnonzero(out < 0)
    out[split] = np.searchsorted(edges, u.take(split), side="right")
    return out


@dataclass(frozen=True)
class ChannelModel:
    """Lossy, slightly misaligned transmission line."""

    length_km: float = 0.0
    attenuation_db_per_km: float = 0.0
    misalignment_error_prob: float = 0.0

    def __post_init__(self):
        if not (0 <= self.length_km < math.inf
                and 0 <= self.attenuation_db_per_km < math.inf):
            raise ValueError("length and attenuation must be finite and >= 0")
        if not 0.0 <= self.misalignment_error_prob <= 0.5:
            raise ValueError("misalignment_error_prob must lie in [0, 0.5]")

    @property
    def transmittance(self) -> float:
        return 10.0 ** (-self.attenuation_db_per_km * self.length_km / 10.0)


@dataclass(frozen=True)
class DetectorModel:
    """Pair of threshold detectors behind a basis analyzer.

    dark_prob is per gate per logical detector.  When both detectors fire
    the outcome is a uniform bit.
    """

    efficiency: float = 1.0
    dark_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0,1]")
        if not 0.0 <= self.dark_prob < 1.0:
            raise ValueError("dark_prob must lie in [0,1)")


def load_presets() -> dict:
    """Hardware presets bundled with the package (see data/presets.json)."""
    text = resources.files("qkdsim.data").joinpath("presets.json").read_text()
    return json.loads(text)


def _preset(model, section: str, name: str, **fields):
    presets = load_presets()[section + "s"]
    if name not in presets:
        raise KeyError(f"unknown {section} preset {name!r}; have {sorted(presets)}")
    return model(**{**presets[name], **fields})


def detector_preset(name: str, **overrides) -> DetectorModel:
    return _preset(DetectorModel, "detector", name, **overrides)


def channel_preset(name: str, length_km: float = 0.0,
                   misalignment_error_prob: float = 0.0, **overrides) -> ChannelModel:
    return _preset(ChannelModel, "channel", name, length_km=length_km,
                   misalignment_error_prob=misalignment_error_prob, **overrides)


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

def click_law(p_one: np.ndarray, flip, eta: float, misalignment: float,
              dark_prob: float, n_max: int) -> np.ndarray:
    """Thresholds law[0] = P(NO_CLICK), law[1] = P(NO_CLICK) + P(0), each
    indexed [n, k, m], of n <= n_max photons in state k measured in basis m.
    Each photon arrives with probability eta and projects onto outcome 1
    with p = p_one[k, m]; each detector also fires on a dark count d.  With
    s = 1 - d: none = (1 - eta)^n s^2, only0 = (1 - eta p)^n s - none,
    only1 = (1 - eta (1 - p))^n s - none, and a double click (the rest)
    gives a uniform bit.  With probability `misalignment` the whole pulse
    becomes state ``flip[k]`` (unless flip[k] < 0; `flip` is unread at 0)."""
    n = np.arange(n_max + 1.0)[:, None, None]
    s = 1.0 - dark_prob
    none = (1.0 - eta) ** n * s * s
    only0 = (1.0 - eta * p_one) ** n * s - none
    only1 = (1.0 - eta * (1.0 - p_one)) ** n * s - none
    law = np.stack([np.broadcast_to(none, only0.shape),
                    (1.0 + none + only0 - only1) / 2.0])
    if misalignment > 0.0:
        has = flip >= 0
        law[:, :, has] = ((1.0 - misalignment) * law[:, :, has]
                          + misalignment * law[:, :, flip[has]])
    return law


def measure_batch(n_photons: np.ndarray, state_idx: np.ndarray,
                  basis: np.ndarray, law: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Outcomes {NO_CLICK, 0, 1} of pulses given by photon count, state and
    basis index: one uniform u per pulse is NO_CLICK below its ``click_law``
    law[0], 0 below law[1], else 1.  A count above n_max is an IndexError."""
    _, _, num_states, num_bases = law.shape
    idx = np.multiply(n_photons, num_states * num_bases, dtype=np.intp)
    idx += state_idx * num_bases + basis
    t0, t1 = law.reshape(2, -1)
    u = rng.random(idx.shape[0])
    return np.add(u >= t0.take(idx), u >= t1.take(idx), dtype=np.int8) - 1


# ---------------------------------------------------------------------------
# singlet pairs
# ---------------------------------------------------------------------------

def sample_singlet(cos_angle, rng: np.random.Generator, size: int):
    """Sample `size` +/-1 int8 outcome pairs for spin measurements on a
    shared singlet, given the cosine of the angle between the two
    measurement directions (a float, or an array giving each pair's).
    Marginals are uniform and E[a*b] = -cos_angle, i.e. the joint law
    P(a,b) = (1 - a b cos_angle) / 4."""
    a = (rng.random(size) < 0.5).astype(np.int8) * 2 - 1
    b = np.where(rng.random(size) < (1.0 + cos_angle) / 2.0, -a, a)
    return a, b
