"""Eavesdropper strategies: the one implementation of each attack, and the
one place that decides what Eve learns, for all seven protocols.

An attack on the pulses flying to Bob (for BBM92 and E91, Bob's particle,
which Alice's measurement prepared; see ``protocols``) has two parts.
``attack_batch`` needs no state and draws nothing: it is the law, once
per session, of the photons forwarded and the photons Eve holds for each
source cell, with the line they cross (whose loss only Bob's
``quantum.click_law`` draws); the session draws the clicked pulses' cells
from it.  ``resend_batch``, on the pulses Bob detects, forwards their
states and records Eve's measurements.  What Eve took
(``eve_seen``) becomes her knowledge in ``resolve_known_bits`` once the
sifting announcement is public, by the readout table that also sifts
Bob's results (``protocols._readout``) and the overlap of the announced
candidates for Alice's state.  Eve's own optics are noiseless and lossless
(worst-case convention: all imperfections belong to the legitimate
hardware, all information to Eve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bits import random_index
from .quantum import (NO_CLICK, ChannelModel, check_numbers, check_unused,
                      click_law, fold_tails, measure_batch)

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
    """The photon part of an attack, as a law over joint cells: cell i sends
    source cell ``cell[i]``, forwards n[i] photons and leaves Eve the
    record ``eve_seen[i]``, with probability ``prob[i]``."""

    cell: np.ndarray             # source cells
    n: np.ndarray                # forwarded photon counts
    eve_seen: np.ndarray         # NOTHING, or HELD + 1 - k for k held photons
    prob: np.ndarray             # P(source cell, forwarded count, record)
    transmittance: float         # of the line the forwarded photons cross


# ---------------------------------------------------------------------------
# session-level transforms
# ---------------------------------------------------------------------------

def _held_counts(m: int, tap: float) -> tuple[np.ndarray, np.ndarray]:
    """Binomial(m, tap) as (k, p(k)), its tails folded by ``fold_tails``:
    a sum of log ratios p(k + 1) / p(k) over mean +- (10 sd + 40), past
    which each tail is below 1e-21."""
    if not 0.0 < tap < 1.0:
        return np.array([round(m * tap)]), np.ones(1)
    w = int(10 * math.sqrt(m * tap * (1 - tap)) + 40)
    k = np.arange(max(0, int(m * tap) - w), min(m, int(m * tap) + w) + 1)
    log_p = np.concatenate(([0.0], np.cumsum(np.log(
        (m - k[:-1]) / (k[:-1] + 1.0) * tap / (1 - tap)))))
    p = np.exp(log_p - log_p.max())
    lo, p = fold_tails(p / p.sum())
    return k[lo:lo + p.size], p


def attack_batch(strategy: EveStrategy, n: np.ndarray, pmf: np.ndarray,
                 table, ch: ChannelModel) -> BatchAttack:
    """The photon part of a strategy as a law, for source cells of n[c]
    photons sent with probability pmf[c] and the session's
    ``protocols.StateTable``; nothing is drawn, cells of probability 0 are
    left out, and the integer arrays take n's dtype, which must hold
    -len(pmf).  intercept_resend forwards one photon of every non-vacuum
    pulse: Eve's ideal detector always fires.  beam_split holds
    k ~ Binomial(n, tap) photons (``_held_counts``), one row per source
    cell, recorded as HELD + 1 - k, and forwards the rest over a line of
    transmittance eta / (1 - tap), keeping Bob's eta.  pns holds one
    photon of every multi-photon pulse, forwards the rest losslessly and
    blocks single photons with block_single_prob.  usd_b92 discriminates
    the two states Alice sends (it refuses a table with any other count),
    succeeding on a non-vacuum pulse with 1 - overlap, and forwards one
    photon of each success over a line that keeps the honest detection
    rate (transmittance eta / (1 - overlap), while below 1).
    """
    eta, kind, dtype = ch.transmittance, strategy.kind, n.dtype
    cell = np.arange(len(pmf))
    seen = np.full(len(pmf), NOTHING)
    q = 0.0         # each cell's share whose photons Eve stops
    if kind == "intercept_resend":
        count, fixed = len(table.bases), strategy.fixed_basis
        if fixed is not None and fixed >= count:
            raise ValueError(f"fixed_basis {fixed} is out of range: Eve can "
                             f"measure in {count} bases")
        n = np.minimum(n, 1)
    elif kind == "beam_split":
        tap = strategy.tap_ratio if strategy.tap_ratio is not None else 1.0 - eta
        if tap > 1.0 - eta + 1e-12:
            raise ValueError(
                f"tap_ratio {tap} exceeds the channel loss 1 - eta = {1 - eta}")
        rows = []
        for c in np.flatnonzero(pmf):
            k, p = _held_counts(n[c], tap)
            rows.append((np.full(k.size, c, dtype), k.astype(dtype),
                         pmf[c] * p))
        cell, k, pmf = (np.concatenate(x) for x in zip(*rows))
        eta = min(1.0, eta / (1.0 - tap)) if tap < 1.0 else 1.0
        n, seen = n[cell] - k, np.where(k > 0, HELD + 1 - k, NOTHING)
    elif kind == "pns":
        q = strategy.block_single_prob * (n == 1)
        n, seen, eta = n - (n >= 2), np.where(n >= 2, HELD, NOTHING), 1.0
    elif kind == "usd_b92":
        sends = np.flatnonzero(table.bit >= 0)
        if sends.size != 2:
            raise ValueError("usd_b92 requires the B92 state pair")
        p_succ = 1.0 - table.overlap[sends[0], sends[1]]
        q = 1.0 - p_succ * (n > 0)
        n, eta = np.minimum(n, 1), min(1.0, eta / p_succ)
    # each cell goes on with 1 - q; a stopped copy of it follows where
    # q > 0 (pns's blocked singles, usd's failures), forwarding nothing
    go, stop = pmf * (1 - q) > 0, pmf * q > 0
    return BatchAttack(np.concatenate((cell[go], cell[stop])).astype(dtype),
                       np.concatenate((n[go], 0 * n[stop])).astype(dtype),
                       np.concatenate((seen[go], seen[stop])).astype(dtype),
                       np.concatenate(((pmf * (1 - q))[go],
                                       (pmf * q)[stop])), eta)


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
