"""Protocol sessions: BB84, B92, six-state, SARG04, decoy-intensity BB84,
and the entanglement-based BBM92 and E91 schemes.

All seven protocols share one engine, ``_run_prepare_measure``, driven by a
``PrepareMeasureSpec`` per protocol (state table, photon pmf, announced
pairs); Alice's, Bob's and Eve's bases are read from the ``StateTable``
alone.  One readout table (``_readout``) decides what a measurement
reveals, for Bob's sift and Eve's knowledge alike: a result counts when,
after the public announcement, only one candidate for Alice's state can
give it.  The pair protocols run on the engine by remote
preparation: Alice's outcome of a singlet measured at spin angle theta
leaves Bob's particle in an eigenstate of the polarization basis at
theta / 2, so a singlet source at Alice's side is an ideal source of those
states.  BBM92 is BB84 (Bennett, Brassard & Mermin, PRL 68, 557, 1992);
E91 prepares the states of three angles per side (Ekert, PRL 67, 661,
1991) and also tallies the CHSH setting pairs.
Every session is deterministic given its generator and returns a
``SessionTranscript``.

Slice rule: a session runs as consecutive slices of at most
``quantum.CHUNK`` pulses, each carried from source to sifted key (prepare,
attack, channel and detection as one ``quantum.measure_batch`` draw per
pulse, sift by one gather from the readout table, and Eve's knowledge by
``adversary.resolve_known_bits``) before the next is drawn from the same
generator.  A slice keeps the sifted pulses' bits, Bob's bits and Eve's
known mask through one index gather (``np.flatnonzero`` of the sift, then
``take``); only these and the counts outlive it, so a session's memory
grows with its sifted key, not with its pulse count.  A session of at most
``CHUNK`` pulses is one slice.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Real
from typing import Callable, Optional

import numpy as np

from . import adversary, bell
from .adversary import EveStrategy
from .bits import BitString
from .quantum import (ALL_BASES, CHUNK, DIAGONAL, NO_CLICK, RECTILINEAR,
                      Basis, ChannelModel, DetectorModel, SignalState,
                      SourceModel, click_law, measure_batch, photon_pmf,
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
        if type(self.num_pulses) is not int:
            raise ValueError(
                f"num_pulses must be an integer, got {self.num_pulses!r}")
        if self.num_pulses < 0:
            raise ValueError("num_pulses must be >= 0")
        for name in ("basis_bias", "b92_overlap", "signal_mu", "decoy_mu",
                     "decoy_fraction"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) and not (
                    name == "basis_bias" and value is None):
                raise ValueError(f"{name} must be a number, got {value!r}")
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
        def first(match):           # first state that matches, -1 if none
            return next((k for k, st in enumerate(states) if match(st)), -1)

        p_one = np.array([[ba.prob_outcome_one(st) for ba in bases]
                          for st in states])
        flip = [first(lambda other: abs(st.overlap(other)) < 1e-9)
                for st in states]
        eigen_idx = [[first(lambda st: abs(abs(st.overlap(ba.eigenstate(o)))
                                           - 1.0) < 1e-9) for o in (0, 1)]
                     for ba in bases]
        return cls(tuple(states), tuple(bases), np.asarray(bit, dtype=np.int8),
                   p_one, np.array(flip, dtype=np.int8),
                   np.array(eigen_idx, dtype=np.int8))


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


def _spin_basis(degrees: float) -> Basis:
    """Polarization basis of a spin measurement at `degrees`: bit 0 lies at
    half the angle, bit 1 orthogonal to it."""
    t = math.radians(degrees / 2.0)
    return Basis(f"spin_{degrees:g}", SignalState(math.cos(t), math.sin(t)),
                 SignalState(-math.sin(t), math.cos(t)))


# E91 spin angles in degrees; bell.MAXIMAL_SETTINGS is among them
_E91_ALICE = (0.0, 45.0, 90.0)
_E91_BOB = (45.0, 90.0, 135.0)


def e91_table() -> StateTable:
    """States 2*i + bit: Alice's outcome at her angle i, remotely prepared
    at Bob's side; then the eigenstates of Bob's 135 degrees, which only
    Eve resends.  Bob measures at his three angles."""
    alice = [_spin_basis(a) for a in _E91_ALICE]
    bob = [_spin_basis(b) for b in _E91_BOB]
    states = [v for ba in alice + bob[-1:] for v in (ba.v0, ba.v1)]
    return StateTable.build(states, bob, bit=[0, 1] * 3 + [-1, -1])


# SARG's announced pair for each state (table order H, V, A, D): H with A,
# V with D.  Each pair carries equal bits, so the announced pair reveals
# the bit (ROADMAP item 1).
_SARG_PAIRS = np.array([[0, 2], [1, 3], [2, 0], [3, 1]])


# ---------------------------------------------------------------------------
# prepare-and-measure engine
# ---------------------------------------------------------------------------

def _biased_choice(rng, n, num_options, primary_prob):
    """Index array: option 0 with primary_prob, the rest uniform."""
    if primary_prob is None:
        return rng.integers(0, num_options, size=n, dtype=np.int8)
    rest = rng.random(n) >= primary_prob
    out = rest.astype(np.int8)
    if num_options > 2:
        idx = np.flatnonzero(rest)
        out[idx] += rng.integers(0, num_options - 1, size=idx.size,
                                 dtype=np.int8)
    return out


def _decoy_photons(cfg, src):
    """Randomly interleaved decoy pulses; the source fixes the emitter
    family.  (Intensity, photon number) is one cell of the mixture of
    Poisson(signal_mu) and, with decoy_fraction, Poisson(decoy_mu), each
    truncated by ``photon_pmf`` (decoy_mu = 0: vacuum), laid end to end:
    the decoy's cells start after the signal's."""
    if src.kind != "attenuated_laser":
        raise ValueError("decoy_bb84 requires an attenuated_laser source")
    signal, decoy = (photon_pmf(SourceModel.laser(mu)) if mu else np.ones(1)
                     for mu in (cfg.signal_mu, cfg.decoy_mu))
    return (np.concatenate(((1.0 - cfg.decoy_fraction) * signal,
                            cfg.decoy_fraction * decoy)), len(signal))


def _intensity_stats(cfg, counts) -> dict:
    """counts: (sent, detected) of the signal and of the decoy pulses."""
    return {label: {"mu": mu, "sent": sent, "detected": detected,
                     "gain": detected / sent if sent else 0.0}
            for label, mu, (sent, detected) in zip(
                ("signal", "decoy"), (cfg.signal_mu, cfg.decoy_mu), counts)}


def _readout(table: StateTable, pairs: np.ndarray) -> np.ndarray:
    """What a measurement reveals once Alice has announced the candidates
    for her state: readout[a, m, 1 + o] is the key bit of the only state of
    ``pairs[a]`` that can give outcome o in basis m, or -1 when both can;
    readout[a, m, 0], on no click, is -1.  Bob keeps a pulse, and Eve
    learns its bit, when the readout of their basis and outcome is a bit;
    both read it at the flat index a * readout[0].size + 3 m + 1 + o."""
    p = table.p_one[pairs]                          # [a, candidate, m]
    can = np.stack([1.0 - p, p], axis=-1) > 1e-9    # [a, candidate, m, o]
    bit = (can * table.bit[pairs][:, :, None, None]).sum(axis=1)
    out = np.where(can.sum(axis=1) == 1, bit, -1)
    return np.pad(out, [(0, 0), (0, 0), (1, 0)],
                  constant_values=-1).astype(np.int8)


@dataclass(frozen=True)
class PrepareMeasureSpec:
    """What distinguishes one prepare-and-measure protocol from another.

    table:   ProtocolConfig -> StateTable, all that says what is sent and
             measured: Alice sends state 2*basis + bit, with half as many
             bases as states that carry a key bit (B92: one, so the bit
             alone picks the state); Bob measures in its bases.
    photons: (cfg, src) -> (pmf over cells, first decoy cell or None);
             cell c holds c photons, a decoy cell c - first decoy cell.
    pairs:   None: Alice announces her basis i, whose states (2i, 2i+1)
             are the candidates ``_readout`` tells apart.  Otherwise row k
             is the pair of non-orthogonal states she announces for state
             k (SARG); a photon Eve holds then yields its bit only through
             unambiguous discrimination (``adversary.PAIR_OVERLAP``).
    chsh:    CHSH setting pair -> (Alice's basis, Bob's basis) whose +/-1
             products the session collects.
    """

    table: Callable[[ProtocolConfig], StateTable]
    photons: Callable = lambda cfg, src: (photon_pmf(src), None)
    pairs: Optional[np.ndarray] = None
    chsh: Optional[dict] = None


_PREPARE_MEASURE = {
    "bb84": PrepareMeasureSpec(lambda cfg: bb84_table()),
    "six_state": PrepareMeasureSpec(lambda cfg: six_state_table()),
    "b92": PrepareMeasureSpec(lambda cfg: b92_table(cfg.b92_overlap)),
    "sarg": PrepareMeasureSpec(lambda cfg: bb84_table(), pairs=_SARG_PAIRS),
    "decoy_bb84": PrepareMeasureSpec(lambda cfg: bb84_table(),
                                     photons=_decoy_photons),
    "e91": PrepareMeasureSpec(
        lambda cfg: e91_table(),
        chsh={(x, y): (_E91_ALICE.index(getattr(bell.MAXIMAL_SETTINGS, x)),
                       _E91_BOB.index(getattr(bell.MAXIMAL_SETTINGS, y)))
              for x, y in bell.SETTING_PAIRS}),
}
_PREPARE_MEASURE["bbm92"] = _PREPARE_MEASURE["bb84"]


def _run_prepare_measure(spec: PrepareMeasureSpec, cfg: ProtocolConfig,
                         src: SourceModel, ch: ChannelModel,
                         det: DetectorModel, eve: EveStrategy,
                         rng: np.random.Generator) -> SessionTranscript:
    """Prepare -> attack -> channel and detection (one ``click_law`` draw per
    pulse; the line's loss counts unless Eve replaced it) -> sift -> Eve's
    knowledge, slice by slice (see the slice rule above); decoy sessions
    also count pulses sent and detected per intensity."""
    table = spec.table(cfg)
    alice_bases = np.count_nonzero(table.bit >= 0) // 2
    pair = spec.pairs is not None       # Alice announces a pair, not a basis
    readout = _readout(table, spec.pairs if pair else
                       np.arange(2 * alice_bases).reshape(-1, 2))
    row = readout[0].size               # readout entries per announcement
    pmf, first_decoy = spec.photons(cfg, src)
    laws = {consumed: click_law(            # keyed by atk.channel_consumed
        table.p_one, table.flip,
        det.efficiency * (1.0 if consumed else ch.transmittance),
        ch.misalignment_error_prob, det.dark_prob, len(pmf) - 1)
        for consumed in (False, True)}
    kept, detections = [], 0
    intensity = []      # per slice: (sent, detected) of signal and decoy
    # setting pair -> (Alice's basis, Bob's, products per slice)
    chsh = {pair: (ai, bi, []) for pair, (ai, bi) in (spec.chsh or {}).items()}

    for lo in range(0, max(cfg.num_pulses, 1), CHUNK):
        m = min(CHUNK, cfg.num_pulses - lo)
        bits = rng.integers(0, 2, size=m, dtype=np.int8)
        a_bases = _biased_choice(rng, m, alice_bases, cfg.basis_bias)
        b_bases = _biased_choice(rng, m, len(table.bases), cfg.basis_bias)
        sent = 2 * a_bases + bits
        cells = sample_photon_number(pmf, rng, m)
        tags = None if first_decoy is None else cells >= first_decoy
        n = cells if tags is None else cells - first_decoy * tags.astype(
            cells.dtype)

        atk = adversary.attack_batch(eve, n, sent, table, ch, rng)
        outcomes = measure_batch(atk.n, atk.state_idx, b_bases,
                                 laws[atk.channel_consumed], rng)

        announced = sent if pair else a_bases
        bob_bits = readout.take(
            (announced * row + 3 * b_bases + outcomes + 1).astype(np.intp))
        clicked = outcomes != NO_CLICK
        clicks = int(np.count_nonzero(clicked))
        if tags is not None:
            decoys = np.count_nonzero(tags)
            decoy_clicks = np.count_nonzero(clicked & tags)
            intensity.append([(m - decoys, clicks - decoy_clicks),
                              (decoys, decoy_clicks)])
        if chsh:
            # Alice's a = 1 - 2 bit and Bob's b = 2 outcome - 1 (his bit
            # before the flip that aligns the keys): a b = -1 on equal bits
            product = (bits != outcomes).astype(np.int8) * 2 - 1
            for ai, bi, products in chsh.values():
                products.append(np.compress(
                    clicked & (a_bases == ai) & (b_bases == bi), product))
        # resolved over every pulse, so its draws do not depend on the sift
        known = adversary.resolve_known_bits(atk.eve_seen, announced,
                                             readout, pair, rng)
        keep = np.flatnonzero(bob_bits >= 0)
        kept.append((bits.take(keep), bob_bits.take(keep), known.take(keep)))
        detections += clicks

    alice, bob, known = (BitString.from_array(np.concatenate(part))
                         for part in zip(*kept))
    t = SessionTranscript(cfg.protocol, cfg.num_pulses, detections,
                          alice, bob, known)
    if intensity:
        t.intensity_stats = _intensity_stats(
            cfg, np.sum(intensity, axis=0).tolist())
    if chsh:
        t.chsh_samples = {pair: np.concatenate(products)
                          for pair, (_, _, products) in chsh.items()}
    return t


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def run_session(cfg: ProtocolConfig, src: SourceModel, ch: ChannelModel,
                det: DetectorModel, eve: EveStrategy,
                rng: np.random.Generator) -> SessionTranscript:
    """Run one session of cfg.protocol.  Pair protocols model one singlet
    per pulse, not multi-pair emission, so they refuse any source but the
    ideal one, and of Eve's attacks only intercept-resend of Bob's
    particle."""
    if cfg.protocol in ("bbm92", "e91"):
        if src.kind != "ideal_single_photon":
            raise ValueError(f"{cfg.protocol} takes only the ideal source: "
                             f"multi-pair emission is not modelled, got "
                             f"{src.kind!r}")
        if eve.kind not in ("none", "intercept_resend"):
            raise ValueError(f"pair protocols support eve kinds none/"
                             f"intercept_resend, got {eve.kind!r}")
    return _run_prepare_measure(_PREPARE_MEASURE[cfg.protocol], cfg, src, ch,
                                det, eve, rng)
