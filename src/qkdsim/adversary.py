"""Eavesdropper strategies: the one implementation of each attack, and the
one place that decides what Eve learns, for all seven protocols.

``attack_batch`` attacks prepare-and-measure pulses and ``attack_pairs``
the particle flying to Bob; both record per pulse what Eve took
(``eve_basis``).  ``resolve_known_bits`` turns that record into Eve's
knowledge once the sifting announcement is public.  Eve's own optics are
noiseless and lossless (worst-case convention: all imperfections belong
to the legitimate hardware, all information to Eve).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .quantum import (ChannelModel, SignalState, bernoulli, chunked,
                      sample_singlet)

KINDS = ("none", "intercept_resend", "beam_split", "pns", "usd_b92")
PAIR_OVERLAP = 2 ** -0.5    # |<a|b>| of the two states a 'pair' announces

NOTHING = -1    # Eve learned nothing about the pulse
HELD = -2       # Eve holds the state: a stored photon or a conclusive USD


@dataclass(frozen=True)
class EveStrategy:
    """Strategy selector plus parameters.

    intercept_resend: Eve measures in basis `fixed_basis` (an index into
        the protocol's bases, or into Bob's angles for pair protocols);
        None draws her basis uniformly per pulse.
    beam_split: tap_ratio in (0,1); None means tap exactly the channel
        loss (1 - transmittance) and forward the rest losslessly.
    pns: block_single_prob in [0,1] is the probability of suppressing a
        single-photon pulse; multi-photon pulses always lose one photon
        to Eve and continue losslessly.
    usd_b92: unambiguous discrimination of the two B92 states; successes
        are forwarded as perfect copies, throttled to mimic the honest
        channel's detection rate.
    """

    kind: str = "none"
    fixed_basis: Optional[int] = None
    tap_ratio: Optional[float] = None
    block_single_prob: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.fixed_basis is not None and self.fixed_basis < 0:
            raise ValueError("fixed_basis must be >= 0")
        if self.tap_ratio is not None and not 0.0 < self.tap_ratio < 1.0:
            raise ValueError("tap_ratio must lie in (0,1)")
        if not 0.0 <= self.block_single_prob <= 1.0:
            raise ValueError("block_single_prob must lie in [0,1]")


NO_EVE = EveStrategy("none")


@dataclass
class BatchAttack:
    """Result of attacking one session's pulse stream."""

    n: np.ndarray                # forwarded photon counts
    state_idx: np.ndarray        # forwarded state table indices
    channel_consumed: bool       # True when Eve replaced the lossy line
    eve_basis: np.ndarray        # int8: NOTHING, HELD or a basis index


# ---------------------------------------------------------------------------
# session-level transforms
# ---------------------------------------------------------------------------

def usd_success_prob(phi0: SignalState, phi1: SignalState) -> float:
    """Success probability of unambiguous discrimination between two pure
    states: 1 - |<phi0|phi1>|."""
    return 1.0 - abs(phi0.overlap(phi1))


def _eve_choice(strategy: EveStrategy, count: int, size: int,
                rng: np.random.Generator, dtype=np.int8) -> np.ndarray:
    """int8 index of the basis Eve measures each pulse in: ``fixed_basis``
    when set, otherwise uniform over ``count`` bases, drawn as ``dtype``."""
    if strategy.fixed_basis is None:
        if dtype == np.int8:    # a byte draw is never chunked (see quantum)
            return rng.integers(0, count, size=size, dtype=np.int8)
        return chunked(lambda s: rng.integers(
            0, count, size=s.stop - s.start, dtype=dtype), size, np.int8)
    if strategy.fixed_basis >= count:
        raise ValueError(f"fixed_basis {strategy.fixed_basis} is out of "
                         f"range: Eve can measure in {count} bases")
    return np.full(size, strategy.fixed_basis, dtype=np.int8)


def attack_batch(strategy: EveStrategy, n: np.ndarray, state_idx: np.ndarray,
                 p_one: np.ndarray, eigen_idx: np.ndarray, ch: ChannelModel,
                 rng: np.random.Generator,
                 b92_states: Optional[tuple[SignalState, SignalState]] = None,
                 ) -> BatchAttack:
    """Apply a strategy to a whole pulse stream.

    n, state_idx:  per-pulse photon counts and state-table indices.
    p_one:         (K, M) projection probabilities onto outcome 1 for
                   table state k measured in basis m.
    eigen_idx:     (M, 2) table index of each basis eigenstate.

    intercept_resend measures every non-vacuum pulse with an ideal detector
    (conflicting projections give a random bit) and resends one photon in
    the observed eigenstate.  beam_split diverts each photon with the tap
    probability and forwards the rest over a line whose loss keeps Bob's
    total transmittance.  pns keeps one photon of every multi-photon pulse,
    forwards the rest losslessly and blocks single photons with
    block_single_prob.  usd_b92 forwards a perfect copy of each conclusive
    discrimination, throttled to the honest detection rate (possible while
    transmittance < 1 - overlap); failures become vacuum.
    """
    npulses = n.shape[0]
    eve_basis = np.full(npulses, NOTHING, dtype=np.int8)

    if strategy.kind == "none":
        return BatchAttack(n, state_idx, False, eve_basis)

    if strategy.kind == "intercept_resend":
        eb = _eve_choice(strategy, p_one.shape[1], npulses, rng)
        k1 = chunked(lambda s: rng.binomial(n[s], p_one[state_idx[s], eb[s]]),
                     npulses, n.dtype)
        bit = (k1 > 0).astype(np.int8)
        both = (n > k1) & (k1 > 0)
        if both.any():
            bit[both] = rng.integers(0, 2, size=int(both.sum()), dtype=np.int8)
        sent = n > 0
        s_out = np.where(sent, eigen_idx[eb, bit], state_idx)
        eb[~sent] = NOTHING             # a vacuum pulse tells Eve nothing
        return BatchAttack(sent.astype(n.dtype), s_out, False, eb)

    if strategy.kind == "beam_split":
        eta = ch.transmittance
        tap = strategy.tap_ratio if strategy.tap_ratio is not None else 1.0 - eta
        if tap > 1.0 - eta + 1e-12:
            raise ValueError(
                f"tap_ratio {tap} exceeds the channel loss 1 - eta = {1 - eta}")
        k_eve = chunked(lambda s: rng.binomial(n[s], tap), npulses, n.dtype)
        eta_fwd = min(1.0, eta / (1.0 - tap)) if tap < 1.0 else 1.0
        n_out = chunked(lambda s: rng.binomial(n[s] - k_eve[s], eta_fwd),
                        npulses, n.dtype)
        eve_basis[k_eve >= 1] = HELD
        return BatchAttack(n_out, state_idx, True, eve_basis)

    if strategy.kind == "pns":
        multi = n >= 2
        single = n == 1
        n_out = n.copy()
        n_out[multi] -= 1
        if strategy.block_single_prob > 0 and single.any():
            blocked = single & bernoulli(rng, npulses,
                                         strategy.block_single_prob)
            n_out[blocked] = 0
        eve_basis[multi] = HELD
        return BatchAttack(n_out, state_idx, True, eve_basis)

    if strategy.kind == "usd_b92":
        if b92_states is None:
            raise ValueError("usd_b92 requires the B92 state pair")
        p_succ = usd_success_prob(*b92_states)
        success = (n > 0) & bernoulli(rng, npulses, p_succ)
        forwarded = success & bernoulli(rng, npulses,
                                        min(1.0, ch.transmittance / p_succ))
        n_out = forwarded.astype(n.dtype)
        eve_basis[success] = HELD
        return BatchAttack(n_out, state_idx, True, eve_basis)

    raise ValueError(f"unknown strategy kind {strategy.kind!r}")


def attack_pairs(strategy: EveStrategy, a_idx: np.ndarray, b_idx: np.ndarray,
                 alice_angles: np.ndarray, bob_angles: np.ndarray,
                 rng: np.random.Generator,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample +/-1 outcome pairs of singlets measured at Alice's angles
    ``alice_angles[a_idx]`` and Bob's ``bob_angles[b_idx]`` (degrees), with
    Eve on the particle flying to Bob.

    Honest pairs follow the singlet law E[a b] = -cos(theta_a - theta_b).
    Under intercept_resend Eve measures Bob's particle at one of Bob's
    angles (drawn uniformly, or ``fixed_basis``) and resends the eigenstate
    she observed, which Bob then projects; probabilities are tables over
    angle indices.  Returns (a, b, eve_basis): Eve's angle as an index into
    alice_angles, or NOTHING where it is none of Alice's, since only a
    measurement along Alice's angle fixes her bit.
    """
    m = a_idx.shape[0]
    cos_ab = np.cos(np.radians(alice_angles[:, None] - bob_angles[None, :]))
    if strategy.kind == "none":
        a, b = sample_singlet(lambda s: cos_ab[a_idx[s], b_idx[s]], rng, m)
        return a, b, np.full(m, NOTHING, dtype=np.int8)
    if strategy.kind != "intercept_resend":
        raise ValueError(f"pair protocols support eve kinds none/"
                         f"intercept_resend, got {strategy.kind!r}")
    a = bernoulli(rng, m, 0.5).astype(np.int8) * 2 - 1
    eve_idx = _eve_choice(strategy, len(bob_angles), m, rng, dtype=np.int64)
    p_opp = (1.0 + cos_ab) / 2.0
    e = np.where(bernoulli(rng, m, lambda s: p_opp[a_idx[s], eve_idx[s]]),
                 -a, a)
    # Bob projects the resent eigenstate |phi, e>
    p_same = np.cos(np.radians(bob_angles[:, None] - bob_angles[None, :])
                    / 2.0) ** 2
    b = np.where(bernoulli(rng, m, lambda s: p_same[b_idx[s], eve_idx[s]]),
                 e, -e)
    same = bob_angles[:, None] == alice_angles[None, :]
    to_alice = np.where(same.any(axis=1), same.argmax(axis=1), NOTHING)
    return a, b, to_alice.astype(np.int8)[eve_idx]


def resolve_known_bits(eve_basis: np.ndarray, alice_basis: np.ndarray,
                       announcement: str, rng: np.random.Generator,
                       ) -> np.ndarray:
    """Post-disclosure resolution: boolean mask of pulses whose key bit Eve
    knows deterministically.

    A measurement made in Alice's announced basis gave Eve the bit.  A held
    state yields it after a 'basis' announcement (BB84-style: Eve measures
    it in the announced basis); after a 'pair' announcement (SARG-style)
    only when unambiguous discrimination of the two announced
    non-orthogonal states succeeds, with probability 1 - PAIR_OVERLAP.
    """
    held = eve_basis == HELD
    if announcement == "pair":
        if held.any():
            held &= bernoulli(rng, held.shape[0], 1.0 - PAIR_OVERLAP)
    elif announcement != "basis":
        raise ValueError(f"unknown announcement type {announcement!r}")
    return (eve_basis == alice_basis) | held
