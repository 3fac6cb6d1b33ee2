"""Physical layer: qubit polarization states, photon sources, lossy
channels, threshold detectors, and singlet-pair sampling.

All parameter records are immutable dataclasses; every sampling function
takes an explicit ``numpy.random.Generator``.  ``attenuate_batch``
(channel loss) and ``measure_batch`` (detection) act on streams of photon
counts and state indices for the prepare-and-measure engine;
``protocols._pair_reception`` applies the same rules to one +/-1 outcome
per singlet.  It stays because it is cheaper: on 4e6 pulses it takes
0.015 s (ideal devices) to 0.06 s (lossy, noisy) where ``measure_batch``
takes 0.23 s (2-core Xeon host, best of five).

Chunk rule: a large draw goes through ``chunked``, which calls the sampler
on consecutive slices of ``CHUNK`` pulses in order, with no other draw in
between, and narrows each slice's result (bool masks, int8 counts and
indices).  Philox is counter-based, and ``random``, ``binomial``,
``poisson`` and 64-bit ``integers`` consume it element by element, so the
chunked draw equals one whole-array draw.  int8 ``integers`` drops the
unused bytes of a 32-bit word when a call returns and would not split the
same way; those draws (bits, bases, coin flips) are 1 B per pulse and stay
whole-array calls.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

NO_CLICK = -1  # detection outcome: neither logical detector fired
CHUNK = 1 << 16  # pulses per sampler call (see the chunk rule above)

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
        if self.kind == "ideal_single_photon":
            return 1.0 if n == 1 else 0.0
        if self.kind == "attenuated_laser":
            return float(math.exp(-self.mu) * self.mu ** n / math.factorial(n))
        # heralded_pdc
        if n == 0:
            return 1.0 - self.herald_efficiency
        if n == 1:
            return self.herald_efficiency - self.multi_pair_prob
        if n == 2:
            return self.multi_pair_prob
        return 0.0


def chunked(draw, size: int, dtype=bool) -> np.ndarray:
    """``draw(s)`` over the consecutive ``CHUNK``-long slices ``s`` of
    ``range(size)``, gathered into one array of ``dtype``.  Integer results
    (non-negative) that do not fit ``dtype`` widen it to int64, never wrap."""
    out = np.empty(size, dtype)
    for lo in range(0, size, CHUNK):
        s = slice(lo, min(lo + CHUNK, size))
        part = draw(s)
        if out.dtype.kind == "i" and part.size and \
                part.max() > np.iinfo(out.dtype).max:
            out = out.astype(np.int64)
        out[s] = part
    return out


def bernoulli(rng: np.random.Generator, size: int, p) -> np.ndarray:
    """Mask ``rng.random(size) < p``, drawn by ``chunked``.  ``p`` is a
    probability, or a function of a slice of pulses giving theirs."""
    return chunked(lambda s: rng.random(s.stop - s.start)
                   < (p(s) if callable(p) else p), size)


def sample_photon_number(src: SourceModel, rng: np.random.Generator,
                         size: int) -> np.ndarray:
    """Draw the photon counts of `size` pulses from the source model."""
    if src.kind == "ideal_single_photon":
        return np.ones(size, dtype=np.int8)
    if src.kind == "attenuated_laser":
        return chunked(lambda s: rng.poisson(src.mu, size=s.stop - s.start),
                       size, np.int8)
    # heralded_pdc: 0, 1 or 2 photons by where a uniform falls among edges
    edges = (1.0 - src.herald_efficiency, 1.0 - src.multi_pair_prob)
    return chunked(lambda s: np.searchsorted(
        edges, rng.random(s.stop - s.start), side="right"), size, np.int8)


def g2(src: SourceModel) -> float:
    """Second-order autocorrelation <n(n-1)> / <n>^2 of the source.

    Equals 1 for any Poissonian source and reduces to the familiar
    approximation 2 p(2) / p(1)^2 when p(1) dominates the distribution.
    """
    if src.kind == "attenuated_laser":
        return 1.0
    mean = first_fact = 0.0
    for n in range(0, 3):
        mean += n * src.pmf(n)
        first_fact += n * (n - 1) * src.pmf(n)
    if mean == 0.0:
        raise ValueError("g2 undefined: source emits no photons")
    return first_fact / mean ** 2


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


def detector_preset(name: str, **overrides) -> DetectorModel:
    presets = load_presets()["detectors"]
    if name not in presets:
        raise KeyError(f"unknown detector preset {name!r}; have {sorted(presets)}")
    params = dict(presets[name])
    params.update(overrides)
    return DetectorModel(**params)


def channel_preset(name: str, length_km: float = 0.0,
                   misalignment_error_prob: float = 0.0, **overrides) -> ChannelModel:
    presets = load_presets()["channels"]
    if name not in presets:
        raise KeyError(f"unknown channel preset {name!r}; have {sorted(presets)}")
    params = dict(presets[name])
    params.update(overrides)
    return ChannelModel(length_km=length_km,
                        misalignment_error_prob=misalignment_error_prob,
                        **params)


def attenuate_batch(n_photons: np.ndarray, ch: ChannelModel,
                    rng: np.random.Generator) -> np.ndarray:
    """Channel loss on a stream of pulses: each photon survives the line
    independently with probability ``ch.transmittance``.  A lossless line
    returns the counts unchanged and draws nothing."""
    if ch.transmittance < 1.0:
        return chunked(lambda s: rng.binomial(n_photons[s], ch.transmittance),
                       n_photons.shape[0], n_photons.dtype)
    return n_photons


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

def measure_batch(n_photons: np.ndarray, p_one: np.ndarray,
                  state_idx: np.ndarray, basis: np.ndarray,
                  det: DetectorModel, rng: np.random.Generator) -> np.ndarray:
    """Project a stream of pulses: per-pulse photon counts, state-table
    indices and basis indices in, with ``p_one[k, m]`` the probability of
    outcome 1 for state k measured in basis m; outcomes {NO_CLICK, 0, 1}
    out.

    Each photon is thinned by the detector efficiency and then projects
    independently; dark counts fire each logical detector independently.
    When both detectors fire the outcome is a uniform bit.
    """
    npulses = n_photons.shape[0]
    detected = chunked(lambda s: rng.binomial(n_photons[s], det.efficiency),
                       npulses, n_photons.dtype)
    k1 = chunked(lambda s: rng.binomial(
        detected[s], p_one[state_idx[s], basis[s]]), npulses, detected.dtype)
    fire0 = (detected > k1) | bernoulli(rng, npulses, det.dark_prob)
    fire1 = (k1 > 0) | bernoulli(rng, npulses, det.dark_prob)
    out = np.full(npulses, NO_CLICK, dtype=np.int8)
    out[fire0 & ~fire1] = 0
    out[fire1 & ~fire0] = 1
    both = fire0 & fire1
    if both.any():
        out[both] = rng.integers(0, 2, size=int(both.sum()), dtype=np.int8)
    return out


# ---------------------------------------------------------------------------
# singlet pairs
# ---------------------------------------------------------------------------

def sample_singlet(cos_angle, rng: np.random.Generator, size: int):
    """Sample `size` +/-1 int8 outcome pairs for spin measurements on a
    shared singlet, given the cosine of the angle between the two
    measurement directions: a float, or a function of a slice of pairs
    giving theirs.  Marginals are uniform and E[a*b] = -cos_angle, i.e.
    the joint law P(a,b) = (1 - a b cos_angle) / 4."""
    cos = cos_angle if callable(cos_angle) else lambda s: cos_angle
    a = bernoulli(rng, size, 0.5).astype(np.int8) * 2 - 1
    b = np.where(bernoulli(rng, size, lambda s: (1.0 + cos(s)) / 2.0), -a, a)
    return a, b
