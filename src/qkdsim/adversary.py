"""Eavesdropper strategies: the one implementation of each attack, and the
one place that decides what Eve learns, for all seven protocols.

An attack on the pulses flying to Bob (for BBM92 and E91, Bob's particle,
which Alice's measurement prepared; see ``protocols``) has two parts.
``attack_batch``, on every pulse, needs no state: the photons forwarded,
the line they cross (whose loss only Bob's ``quantum.click_law`` draws)
and the photons Eve holds.  ``resend_batch``, on the pulses Bob detects,
forwards their states and records Eve's measurements.  What Eve took
(``eve_seen``) becomes her knowledge in ``resolve_known_bits`` once the
sifting announcement is public, by the readout table that also sifts
Bob's results (``protocols._readout``) and the overlap of the announced
candidates for Alice's state.  Eve's own optics are noiseless and lossless
(worst-case convention: all imperfections belong to the legitimate
hardware, all information to Eve).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bits import random_index
from .quantum import (NO_CLICK, ChannelModel, check_numbers, check_unused,
                      click_law, measure_batch)

KINDS = ("none", "intercept_resend", "beam_split", "pns", "usd_b92")

NOTHING = -1    # Eve learned nothing about the pulse
HELD = -2       # Eve holds one photon of the pulse; HELD + 1 - k: k photons


@dataclass(frozen=True)
class EveStrategy:
    """Strategy selector plus parameters, each read by one kind alone.

    intercept_resend: Eve measures in basis `fixed_basis` (an index into
        the protocol's bases, or into Bob's angles for pair protocols);
        None draws her basis uniformly per pulse.
    beam_split: tap_ratio in (0,1); None means tap exactly the channel
        loss (1 - transmittance) and forward the rest losslessly.
    pns: block_single_prob in [0,1] is the probability of suppressing a
        single-photon pulse; multi-photon pulses always lose one photon
        to Eve and continue losslessly.
    usd_b92: unambiguous discrimination of the two B92 states; successes
        are forwarded as perfect copies over a line that keeps the
        honest channel's detection rate.
    """

    kind: str = "none"
    fixed_basis: Optional[int] = None
    tap_ratio: Optional[float] = None
    block_single_prob: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        check_numbers(self)
        check_unused(self, self.kind, fixed_basis=("intercept_resend",),
                     tap_ratio=("beam_split",), block_single_prob=("pns",))
        if self.fixed_basis is not None and self.fixed_basis < 0:
            raise ValueError("fixed_basis must be >= 0")
        if self.tap_ratio is not None and not 0.0 < self.tap_ratio < 1.0:
            raise ValueError("tap_ratio must lie in (0,1)")
        if not 0.0 <= self.block_single_prob <= 1.0:
            raise ValueError("block_single_prob must lie in [0,1]")


NO_EVE = EveStrategy("none")


@dataclass
class BatchAttack:
    """The photon part of an attack on a stream of pulses."""

    n: np.ndarray                # forwarded photon counts
    transmittance: float         # of the line the forwarded photons cross
    eve_seen: np.ndarray         # NOTHING, or HELD + 1 - k for k held photons


# ---------------------------------------------------------------------------
# session-level transforms
# ---------------------------------------------------------------------------

def attack_batch(strategy: EveStrategy, n: np.ndarray, table,
                 ch: ChannelModel, rng: np.random.Generator) -> BatchAttack:
    """The photon part of a strategy on pulses of n photons, for the
    session's ``protocols.StateTable``.  intercept_resend forwards one
    photon of every non-vacuum pulse: Eve's ideal detector always fires.
    beam_split diverts each photon with the tap probability (recording the
    k it holds) and forwards the rest over a line of transmittance
    eta / (1 - tap), keeping Bob's eta.  pns holds one photon of every
    multi-photon pulse, forwards the rest losslessly and blocks single
    photons with block_single_prob.  usd_b92 discriminates the two states
    Alice sends (it refuses a table with any other count), succeeding on a
    non-vacuum pulse with 1 - overlap, and forwards one photon of each
    success over a line that keeps the honest detection rate
    (transmittance eta / (1 - overlap), while below 1).
    """
    npulses, eta = n.shape[0], ch.transmittance
    eve_seen = np.full(npulses, NOTHING, dtype=n.dtype)

    if strategy.kind == "none":
        return BatchAttack(n, eta, eve_seen)

    if strategy.kind == "intercept_resend":
        count, fixed = len(table.bases), strategy.fixed_basis
        if fixed is not None and fixed >= count:
            raise ValueError(f"fixed_basis {fixed} is out of range: Eve can "
                             f"measure in {count} bases")
        return BatchAttack((n > 0).astype(n.dtype), eta, eve_seen)

    if strategy.kind == "beam_split":
        tap = strategy.tap_ratio if strategy.tap_ratio is not None else 1.0 - eta
        if tap > 1.0 - eta + 1e-12:
            raise ValueError(
                f"tap_ratio {tap} exceeds the channel loss 1 - eta = {1 - eta}")
        k_eve = rng.binomial(n, tap)
        held = k_eve >= 1
        eve_seen[held] = HELD + 1 - k_eve[held]
        eta_fwd = min(1.0, eta / (1.0 - tap)) if tap < 1.0 else 1.0
        return BatchAttack(n - k_eve, eta_fwd, eve_seen)

    if strategy.kind == "pns":
        multi = n >= 2
        single = n == 1
        n_out = n.copy()
        n_out[multi] -= 1
        if strategy.block_single_prob > 0 and single.any():
            blocked = single & (rng.random(npulses)
                                < strategy.block_single_prob)
            n_out[blocked] = 0
        eve_seen[multi] = HELD
        return BatchAttack(n_out, 1.0, eve_seen)

    if strategy.kind == "usd_b92":
        sends = np.flatnonzero(table.bit >= 0)
        if sends.size != 2:
            raise ValueError("usd_b92 requires the B92 state pair")
        p_succ = 1.0 - table.overlap[sends[0], sends[1]]
        success = (n > 0) & (rng.random(npulses) < p_succ)
        return BatchAttack(success.astype(n.dtype), min(1.0, eta / p_succ),
                           eve_seen)

    raise ValueError(f"unknown strategy kind {strategy.kind!r}")


def resend_batch(strategy: EveStrategy, n: np.ndarray, fwd: np.ndarray,
                 eve_seen: np.ndarray, state_idx: np.ndarray, table,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The state part of a strategy on the pulses Bob detects, of n photons
    in state_idx, of which ``attack_batch`` forwarded fwd and recorded
    eve_seen: the states forwarded and Eve's record.  intercept_resend
    measures in her (uniform or fixed) basis with an ideal detector
    (``measure_batch`` on a lossless, noiseless ``click_law``: conflicting
    projections give a random bit), forwards the observed eigenstate and
    records the readout index 3 * basis + o + 1 (a vacuum pulse's o is
    NO_CLICK, which reveals nothing).  For a multi-photon pulse a double
    click's coin can hide an outcome that would reveal the bit, so there
    the record is a lower bound on what Eve learns.  usd_b92 forwards a
    perfect copy of each success, recorded as outcome 0 of Bob's test basis
    for its bit.
    """
    if strategy.kind == "intercept_resend":
        count, fixed = len(table.bases), strategy.fixed_basis
        eb = (random_index(n.shape[0], count, rng) if fixed is None
              else np.full(n.shape[0], fixed, dtype=np.int8))
        law = click_law(table.p_one, None, 1, 0, 0, int(n.max(initial=0)))
        bit = measure_batch(n, state_idx, eb, law, rng.random(n.shape[0]))
        s_out = np.where(bit != NO_CLICK, table.eigen_idx.ravel().take(
            (2 * eb + np.maximum(bit, 0)).astype(np.intp)), state_idx)
        return s_out, 3 * eb + bit + 1
    if strategy.kind == "usd_b92":
        return state_idx, np.where(fwd > 0, 3 * table.bit.take(state_idx) + 1,
                                   eve_seen)
    return state_idx, eve_seen


def resolve_known_bits(eve_seen: np.ndarray, announced: np.ndarray,
                       readout: np.ndarray, overlap: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """Post-disclosure resolution: boolean mask of pulses whose key bit Eve
    knows deterministically.

    ``readout`` is the session's ``protocols._readout``, ``announced``
    each pulse's row of it and ``overlap`` |<a|b>| of each row's two
    candidates: a measurement of Eve's gave her the bit when its readout is
    a bit; k held photons give it when unambiguous discrimination of the
    candidates succeeds on them, with probability 1 - overlap^k (Ivanovic
    1987; Dieks 1988; Peres 1988), always after a basis announcement.  The
    uniforms are drawn only when Eve holds photons and candidates overlap.
    """
    known = eve_seen <= HELD            # Eve holds HELD + 1 - eve_seen photons
    if overlap.any() and known.any():
        k = np.where(known, HELD + 1 - eve_seen, 0)     # overlap^0 = 1
        known &= rng.random(known.shape[0]) < 1.0 - overlap.take(
            announced.astype(np.intp)) ** k
    if eve_seen.max(initial=NOTHING) >= 0:      # Eve measured some pulses
        # NOTHING and held records read basis 0's no-click entry, -1
        known |= readout.take((announced * readout[0].size
                               + np.maximum(eve_seen, 0)).astype(np.intp)) >= 0
    return known
