"""Protocol sessions: BB84, B92, six-state, SARG04, decoy-intensity BB84,
and the entanglement-based BBM92 and E91 schemes.

The five prepare-and-measure protocols share one engine,
``_run_prepare_measure``, driven by a ``PrepareMeasureSpec`` per protocol
(state table, basis choice, photon sampler, sift rule, announcement).  The
pair protocols share ``_run_entangled``, driven by their measurement
angles: singlet outcomes with Eve on Bob's particle, then Bob-side loss,
misalignment and dark counts, then sifting of equal angles.
Every session is deterministic given its generator and returns a
``SessionTranscript``.  Pulse streams are int8 and bool arrays, processed
by the batch kernels of ``quantum`` (``measure_batch``) and ``adversary``
(``attack_batch``, ``attack_pairs``, and ``resolve_known_bits`` for every
protocol), which draw in fixed-size chunks (the chunk rule of ``quantum``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import adversary, bell
from .adversary import EveStrategy
from .bits import BitString
from .quantum import (ALL_BASES, DIAGONAL, NO_CLICK, RECTILINEAR, Basis,
                      ChannelModel, DetectorModel, SignalState, SourceModel,
                      attenuate_batch, bernoulli, chunked, measure_batch,
                      sample_photon_number)

PROTOCOLS = ("bb84", "b92", "six_state", "sarg", "decoy_bb84", "bbm92", "e91")


@dataclass(frozen=True)
class ProtocolConfig:
    protocol: str
    num_pulses: int
    basis_bias: Optional[float] = None      # prob of the primary basis;
                                            # not used by b92 and e91
    b92_overlap: float = 2 ** -0.5          # |<phi0|phi1>|
    signal_mu: float = 0.8
    decoy_mu: float = 0.12
    decoy_fraction: float = 0.12

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.num_pulses < 0:
            raise ValueError("num_pulses must be >= 0")
        if not 0 < self.signal_mu < math.inf:
            raise ValueError("signal_mu must be finite and > 0")
        if not 0 <= self.decoy_mu < math.inf:
            raise ValueError("decoy_mu must be finite and >= 0")
        if self.basis_bias is not None:
            if self.protocol in ("b92", "e91"):
                raise ValueError(f"basis_bias is not used by {self.protocol}")
            if not 0.0 < self.basis_bias < 1.0:
                raise ValueError("basis_bias must lie in (0,1)")
        if self.protocol == "b92" and not 0.0 < self.b92_overlap < 1.0:
            raise ValueError("b92 overlap must lie in (0,1)")
        if self.protocol == "decoy_bb84":
            if not 0.0 < self.decoy_fraction < 1.0:
                raise ValueError("decoy_fraction must lie in (0,1)")
            if self.signal_mu == self.decoy_mu:
                raise ValueError("signal_mu and decoy_mu must differ")


@dataclass
class SessionTranscript:
    """What one protocol session leaves for post-processing and checks:
    the sifted keys, which of their bits Eve knows, and counts."""

    protocol: str
    pulse_count: int
    detection_count: int
    sifted_alice: BitString
    sifted_bob: BitString
    eve_known_mask: BitString           # bit i set: Eve knows sifted bit i
    intensity_stats: Optional[dict] = None
    chsh_samples: Optional[dict] = None   # setting pair -> +/-1 products

    @property
    def sifted_fraction(self) -> float:
        return len(self.sifted_alice) / self.pulse_count if self.pulse_count else 0.0

    @property
    def qber(self) -> float:
        n = len(self.sifted_alice)
        if n == 0:
            return 0.0
        return self.sifted_alice.hamming_distance(self.sifted_bob) / n

    @property
    def eve_known_fraction(self) -> float:
        """Fraction of the sifted key Eve knows deterministically."""
        n = len(self.eve_known_mask)
        return self.eve_known_mask.hamming_weight() / n if n else 0.0

    def to_dict(self) -> dict:
        """JSON-serializable record (schema documented in the README)."""
        out = {
            "protocol": self.protocol,
            "pulse_count": int(self.pulse_count),
            "detection_count": int(self.detection_count),
            "sifted_alice_hex": self.sifted_alice.to_hex(),
            "sifted_bob_hex": self.sifted_bob.to_hex(),
            "sifted_length": len(self.sifted_alice),
            "eve_known_hex": self.eve_known_mask.to_hex(),
        }
        if self.intensity_stats is not None:
            out["intensity_stats"] = self.intensity_stats
        if self.chsh_samples is not None:
            out["chsh_tallies"] = {
                "|".join(k): {"count": int(v.size), "sum": int(v.sum())}
                for k, v in self.chsh_samples.items()}
        return out

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)


# ---------------------------------------------------------------------------
# state tables (vectorized encoding bookkeeping)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateTable:
    """Finite set of signal states and measurement bases for one session.

    p_one[k, m]  = probability of outcome 1 measuring state k in basis m.
    flip[k]      = index of the state orthogonal to state k (misalignment
                   target), -1 if absent from the table.
    eigen_idx[m, o] = table index of basis m's outcome-o eigenstate.
    bit[k]       = key bit state k encodes, -1 if Alice never sends it.
    """

    states: tuple
    bases: tuple
    bit: np.ndarray
    p_one: np.ndarray
    flip: np.ndarray
    eigen_idx: np.ndarray

    @classmethod
    def build(cls, states, bases, bit) -> "StateTable":
        K, M = len(states), len(bases)
        p_one = np.empty((K, M))
        for k, st in enumerate(states):
            for m, ba in enumerate(bases):
                p_one[k, m] = ba.prob_outcome_one(st)
        flip = np.full(K, -1, dtype=np.int8)
        for k, st in enumerate(states):
            for j, other in enumerate(states):
                if abs(st.overlap(other)) < 1e-9:
                    flip[k] = j
                    break
        eigen_idx = np.full((M, 2), -1, dtype=np.int8)
        for m, ba in enumerate(bases):
            for o in (0, 1):
                eig = ba.eigenstate(o)
                for k, st in enumerate(states):
                    if abs(abs(st.overlap(eig)) - 1.0) < 1e-9:
                        eigen_idx[m, o] = k
                        break
        return cls(tuple(states), tuple(bases), np.asarray(bit, dtype=np.int8),
                   p_one, flip, eigen_idx)


def bb84_table() -> StateTable:
    # index = 2*basis + bit: H, V, A, D
    b = [RECTILINEAR, DIAGONAL]
    states = [b[0].v0, b[0].v1, b[1].v0, b[1].v1]
    return StateTable.build(states, b, bit=[0, 1, 0, 1])


def six_state_table() -> StateTable:
    b = list(ALL_BASES)
    states = [v for ba in b for v in (ba.v0, ba.v1)]
    return StateTable.build(states, b, bit=[0, 1, 0, 1, 0, 1])


def b92_states(overlap: float) -> tuple[SignalState, SignalState]:
    """Two real linear-polarization states with <phi0|phi1> = overlap."""
    alpha = 0.5 * math.acos(overlap)
    phi0 = SignalState(math.cos(alpha), math.sin(alpha))
    phi1 = SignalState(math.cos(alpha), -math.sin(alpha))
    return phi0, phi1


def b92_table(overlap: float) -> StateTable:
    phi0, phi1 = b92_states(overlap)
    # Bob's test-for-bit-c basis projects onto the complement of the *other*
    # state; outcome 0 on basis c is the conclusive result for bit c.
    basis0 = Basis("test_bit0", phi1.orthogonal(), phi1)
    basis1 = Basis("test_bit1", phi0.orthogonal(), phi0)
    states = [phi0, phi1, phi0.orthogonal(), phi1.orthogonal()]
    return StateTable.build(states, [basis0, basis1], bit=[0, 1, -1, -1])


# SARG announcement chain: H->A, A->V, V->D, D->H (table order H,V,A,D)
_SARG_PARTNER = np.array([2, 3, 0, 1], dtype=np.int8)


# ---------------------------------------------------------------------------
# prepare-and-measure engine
# ---------------------------------------------------------------------------

def _biased_choice(rng, n, num_options, primary_prob):
    """Index array: option 0 with primary_prob, the rest uniform."""
    if primary_prob is None:
        return rng.integers(0, num_options, size=n, dtype=np.int8)
    rest = ~bernoulli(rng, n, primary_prob)
    out = rest.astype(np.int8)
    if num_options > 2:
        out[rest] += rng.integers(0, num_options - 1, size=int(rest.sum()),
                                  dtype=np.int8)
    return out


def _source_photons(cfg, src, rng):
    """Photon counts drawn from the source model; no intensity tags."""
    return sample_photon_number(src, rng, size=cfg.num_pulses), None


def _decoy_photons(cfg, src, rng):
    """Randomly interleaved decoy pulses.  The source argument fixes the
    emitter family; photon numbers are drawn per pulse from the tagged mean
    photon number (signal_mu / decoy_mu).  Returns the decoy mask as tags."""
    if src.kind != "attenuated_laser":
        raise ValueError("decoy_bb84 requires an attenuated_laser source")
    decoy = bernoulli(rng, cfg.num_pulses, cfg.decoy_fraction)
    return chunked(lambda s: rng.poisson(
        np.where(decoy[s], cfg.decoy_mu, cfg.signal_mu)),
        cfg.num_pulses, np.int8), decoy


def _intensity_stats(cfg, decoy, clicked) -> dict:
    stats = {}
    for label, mu, mask in (("signal", cfg.signal_mu, ~decoy),
                            ("decoy", cfg.decoy_mu, decoy)):
        sent, detected = int(mask.sum()), int(clicked[mask].sum())
        stats[label] = {"mu": mu, "sent": sent, "detected": detected,
                        "gain": detected / sent if sent else 0.0}
    return stats


# Sift rules: (table, sent state indices, Alice's and Bob's bases, outcomes)
# -> (sift mask, Bob's per-pulse bit).

def _sift_basis(table, sent, a_bases, b_bases, outcomes):
    """BB84-style: keep the clicks measured in Alice's basis."""
    return (outcomes != NO_CLICK) & (b_bases == a_bases), outcomes


def _sift_conclusive(table, sent, a_bases, b_bases, outcomes):
    """B92: outcome 0 on test basis c is the conclusive detection of bit c
    (a projection orthogonal to the other state)."""
    return outcomes == 0, b_bases


def _sift_pair(table, sent, a_bases, b_bases, outcomes):
    """SARG pair announcement: Alice announces the non-orthogonal pair (sent
    state, fixed partner); Bob is conclusive when his measured eigenstate is
    orthogonal to one announced state, which identifies the other as
    Alice's."""
    measured_state = table.eigen_idx[b_bases, np.maximum(outcomes, 0)]
    partner = _SARG_PARTNER[sent]
    orth_to_sent = measured_state == table.flip[sent]
    orth_to_partner = measured_state == table.flip[partner]
    sift = (outcomes != NO_CLICK) & (orth_to_sent | orth_to_partner)
    return sift, table.bit[np.where(orth_to_sent, partner, sent)]


@dataclass(frozen=True)
class PrepareMeasureSpec:
    """What distinguishes one prepare-and-measure protocol from another.

    table:        ProtocolConfig -> StateTable; state 2*basis + bit is sent.
    alice_basis:  Alice draws a basis per pulse; otherwise (B92) the bit
                  alone picks the state and her basis is recorded as 0.
    photons:      (cfg, src, rng) -> (photon counts, intensity tags or None).
    sift:         sift rule, see ``_sift_basis``.
    announcement: what sifting discloses to Eve ('basis' or 'pair').
    usd_pair:     hand the first two table states to the attack as the B92
                  pair that unambiguous discrimination targets.
    """

    table: Callable[[ProtocolConfig], StateTable]
    alice_basis: bool = True
    photons: Callable = _source_photons
    sift: Callable = _sift_basis
    announcement: str = "basis"
    usd_pair: bool = False


_PREPARE_MEASURE = {
    "bb84": PrepareMeasureSpec(lambda cfg: bb84_table()),
    "six_state": PrepareMeasureSpec(lambda cfg: six_state_table()),
    "b92": PrepareMeasureSpec(lambda cfg: b92_table(cfg.b92_overlap),
                              alice_basis=False, sift=_sift_conclusive,
                              usd_pair=True),
    "sarg": PrepareMeasureSpec(lambda cfg: bb84_table(), sift=_sift_pair,
                               announcement="pair"),
    "decoy_bb84": PrepareMeasureSpec(lambda cfg: bb84_table(),
                                     photons=_decoy_photons),
}


def _run_prepare_measure(spec: PrepareMeasureSpec, cfg: ProtocolConfig,
                         src: SourceModel, ch: ChannelModel,
                         det: DetectorModel, eve: EveStrategy,
                         rng: np.random.Generator) -> SessionTranscript:
    """Prepare -> attack -> channel and detection -> sift -> resolve what
    Eve knows after the sifting announcement."""
    table = spec.table(cfg)
    N = cfg.num_pulses
    num_bases = len(table.bases)
    bits = rng.integers(0, 2, size=N, dtype=np.int8)
    if spec.alice_basis:
        a_bases = _biased_choice(rng, N, num_bases, cfg.basis_bias)
    else:
        a_bases = np.zeros(N, dtype=np.int8)
    b_bases = _biased_choice(rng, N, num_bases, cfg.basis_bias)
    sent = 2 * a_bases + bits
    n, tags = spec.photons(cfg, src, rng)

    atk = adversary.attack_batch(
        eve, n, sent, table.p_one, table.eigen_idx, ch, rng,
        b92_states=table.states[:2] if spec.usd_pair else None)
    # channel loss (unless Eve already replaced the line), one receiver
    # misalignment flip per pulse, then detection
    n, state_idx = atk.n, atk.state_idx
    if not atk.channel_consumed:
        n = attenuate_batch(n, ch, rng)
    if ch.misalignment_error_prob > 0.0:
        flipped = (n > 0) & bernoulli(rng, N, ch.misalignment_error_prob)
        flip_to = table.flip[state_idx]
        state_idx = np.where(flipped & (flip_to >= 0), flip_to, state_idx)
    outcomes = measure_batch(n, table.p_one, state_idx, b_bases, det, rng)

    sift, bob_bits = spec.sift(table, sent, a_bases, b_bases, outcomes)
    clicked = outcomes != NO_CLICK
    return _transcript(
        cfg, sift, bits, bob_bits, clicked, atk.eve_basis, a_bases,
        spec.announcement, rng,
        intensity_stats=(None if tags is None
                         else _intensity_stats(cfg, tags, clicked)))


def _transcript(cfg, sift, a_bits, b_bits, detected, eve_basis, a_bases,
                announcement, rng, **tallies) -> SessionTranscript:
    """Keep the sifted bits and what Eve knows of them.  Her knowledge is
    resolved over every pulse, so its draws do not depend on the sift."""
    known = adversary.resolve_known_bits(eve_basis, a_bases, announcement,
                                         rng)
    return SessionTranscript(
        protocol=cfg.protocol, pulse_count=cfg.num_pulses,
        detection_count=int(detected.sum()),
        sifted_alice=BitString.from_array(a_bits[sift]),
        sifted_bob=BitString.from_array(b_bits[sift]),
        eve_known_mask=BitString.from_array(known[sift]), **tallies)


# ---------------------------------------------------------------------------
# entanglement-based protocols
# ---------------------------------------------------------------------------

def _pair_reception(b, ch: ChannelModel, det: DetectorModel, rng):
    """Bob-side loss, misalignment flip, and dark counts for pair protocols,
    with the two-detector rule of ``measure_batch``: a detected photon
    meets a dark count of the other detector with probability dark_prob, a
    lost one clicks on a dark count of either detector, and both give a
    uniform bit.  Returns (detected_mask, possibly flipped outcomes)."""
    m = b.shape[0]
    detected = bernoulli(rng, m, ch.transmittance * det.efficiency)
    if ch.misalignment_error_prob > 0.0:
        b = np.where(bernoulli(rng, m, ch.misalignment_error_prob), -b, b)
    if det.dark_prob > 0.0:
        noisy = bernoulli(rng, m, lambda s: np.where(
            detected[s], det.dark_prob, 1.0 - (1.0 - det.dark_prob) ** 2))
        if noisy.any():
            b = b.copy()
            b[noisy] = bernoulli(rng, int(noisy.sum()), 0.5) * 2 - 1
            detected = detected | noisy
    return detected, b


# protocol -> (Alice's angles, Bob's angles, whether CHSH samples are
# collected), in degrees.  BBM92 measures in two conjugate bases; E91 uses
# three angles per side, among them those of bell.MAXIMAL_SETTINGS.  Eve
# intercepts at Bob's angles.
_PAIR_SPECS = {
    "bbm92": (np.array([0.0, 90.0]), np.array([0.0, 90.0]), False),
    "e91": (np.array([0.0, 45.0, 90.0]), np.array([45.0, 90.0, 135.0]), True),
}


def _run_entangled(cfg: ProtocolConfig, ch: ChannelModel, det: DetectorModel,
                   eve: EveStrategy,
                   rng: np.random.Generator) -> SessionTranscript:
    """Singlet-pair session (BBM92, E91).  Matching angles give perfectly
    anti-correlated outcomes, so Bob flips his bit to align the keys.  E91
    also collects the four setting pairs of ``bell.MAXIMAL_SETTINGS``, found
    among its angles, as +/-1 product samples for CHSH estimation."""
    alice_angles, bob_angles, with_chsh = _PAIR_SPECS[cfg.protocol]
    N = cfg.num_pulses
    a_idx = _biased_choice(rng, N, len(alice_angles), cfg.basis_bias)
    b_idx = _biased_choice(rng, N, len(bob_angles), cfg.basis_bias)
    a, b, eve_basis = adversary.attack_pairs(eve, a_idx, b_idx, alice_angles,
                                             bob_angles, rng)
    detected, b = _pair_reception(b, ch, det, rng)

    same_angle = alice_angles[:, None] == bob_angles[None, :]
    sift = detected & same_angle[a_idx, b_idx]
    a_bits = (1 - a) // 2
    b_bits = (1 + b) // 2    # the flip converts anti-correlation
    chsh = None
    if with_chsh:
        chsh = {}
        for x, y in bell.SETTING_PAIRS:
            ai = alice_angles.tolist().index(getattr(bell.MAXIMAL_SETTINGS, x))
            bi = bob_angles.tolist().index(getattr(bell.MAXIMAL_SETTINGS, y))
            mask = detected & (a_idx == ai) & (b_idx == bi)
            chsh[(x, y)] = (a[mask] * b[mask]).astype(np.int8)
    return _transcript(cfg, sift, a_bits, b_bits, detected, eve_basis, a_idx,
                       "basis", rng, chsh_samples=chsh)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def run_session(cfg: ProtocolConfig, src: SourceModel, ch: ChannelModel,
                det: DetectorModel, eve: EveStrategy,
                rng: np.random.Generator) -> SessionTranscript:
    """Run one session of cfg.protocol.  Pair protocols model one singlet
    per pulse, not multi-pair emission, so they refuse any source but the
    ideal one."""
    if cfg.protocol in _PAIR_SPECS:
        if src.kind != "ideal_single_photon":
            raise ValueError(f"{cfg.protocol} takes only the ideal source: "
                             f"multi-pair emission is not modelled, got "
                             f"{src.kind!r}")
        return _run_entangled(cfg, ch, det, eve, rng)
    return _run_prepare_measure(_PREPARE_MEASURE[cfg.protocol], cfg, src, ch,
                                det, eve, rng)
