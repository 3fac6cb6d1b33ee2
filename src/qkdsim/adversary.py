"""Eavesdropper strategies: the one implementation of each attack, and the
one place that decides what Eve learns, for all seven protocols.

``attack_batch`` attacks the pulses flying to Bob (for BBM92 and E91,
Bob's particle, which Alice's measurement prepared; see ``protocols``)
and records per pulse what Eve took (``eve_seen``): the basis and outcome
of her measurement, or the photons she holds; Bob's photons go on over a
line whose loss only his ``quantum.click_law`` draws.  ``resolve_known_bits``
turns that record into Eve's knowledge once the sifting announcement is
public, by the readout table that also sifts Bob's results
(``protocols._readout``) and the overlap of the announced candidates for
Alice's state.  Eve's own optics are noiseless and lossless (worst-case
convention: all imperfections belong to the legitimate hardware, all
information to Eve).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

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
    """Result of attacking a stream of pulses."""

    n: np.ndarray                # forwarded photon counts
    state_idx: np.ndarray        # forwarded state table indices
    transmittance: float         # of the line the forwarded photons cross
    eve_seen: np.ndarray         # NOTHING, HELD + 1 - k for k held photons,
                                 # or the readout index 3 * basis + o + 1


# ---------------------------------------------------------------------------
# session-level transforms
# ---------------------------------------------------------------------------

def attack_batch(strategy: EveStrategy, n: np.ndarray, state_idx: np.ndarray,
                 table, ch: ChannelModel, rng: np.random.Generator,
                 ) -> BatchAttack:
    """Apply a strategy to a stream of pulses.

    n, state_idx:  per-pulse photon counts and indices into `table`, the
                   session's ``protocols.StateTable``: Eve measures in its
                   bases and resends its states; Alice sends those with a
                   key bit.

    intercept_resend measures every non-vacuum pulse with an ideal detector
    (``measure_batch`` on a lossless, noiseless ``click_law``: conflicting
    projections give a random bit), resends one photon in the observed
    eigenstate and records the basis and outcome (a vacuum pulse's is
    NO_CLICK, which reveals nothing).  For a multi-photon pulse a double
    click's coin can hide an outcome that would reveal the bit, so there
    the record is a lower bound on what Eve learns.
    beam_split diverts each photon with the tap probability (recording the
    k it holds) and forwards the rest over a line of transmittance
    eta / (1 - tap), keeping Bob's eta.  pns holds one photon of every
    multi-photon pulse, forwards the rest losslessly and blocks single
    photons with block_single_prob.  usd_b92 discriminates the two states
    Alice sends (it refuses a table with any other count) and forwards a
    perfect copy of each conclusive result, recorded as outcome 0 of Bob's
    test basis for its bit, over a line that keeps the honest detection
    rate (transmittance eta / (1 - overlap), while below 1); failures
    become vacuum.  Bob's ``click_law`` draws the returned line's loss.
    """
    npulses, eta = n.shape[0], ch.transmittance
    eve_seen = np.full(npulses, NOTHING, dtype=n.dtype)

    if strategy.kind == "none":
        return BatchAttack(n, state_idx, eta, eve_seen)

    if strategy.kind == "intercept_resend":
        count, fixed = len(table.bases), strategy.fixed_basis
        if fixed is not None and fixed >= count:
            raise ValueError(f"fixed_basis {fixed} is out of range: Eve can "
                             f"measure in {count} bases")
        eb = (rng.integers(0, count, size=npulses, dtype=np.int8)
              if fixed is None else np.full(npulses, fixed, dtype=np.int8))
        law = click_law(table.p_one, None, 1.0, 0.0, 0.0,
                        int(n.max(initial=0)))
        bit = measure_batch(n, state_idx, eb, law, rng)
        sent = bit != NO_CLICK
        s_out = np.where(sent, table.eigen_idx.ravel().take(
            (2 * eb + np.maximum(bit, 0)).astype(np.intp)), state_idx)
        return BatchAttack(sent.astype(n.dtype), s_out, eta, 3 * eb + bit + 1)

    if strategy.kind == "beam_split":
        tap = strategy.tap_ratio if strategy.tap_ratio is not None else 1.0 - eta
        if tap > 1.0 - eta + 1e-12:
            raise ValueError(
                f"tap_ratio {tap} exceeds the channel loss 1 - eta = {1 - eta}")
        k_eve = rng.binomial(n, tap)
        held = k_eve >= 1
        eve_seen[held] = HELD + 1 - k_eve[held]
        eta_fwd = min(1.0, eta / (1.0 - tap)) if tap < 1.0 else 1.0
        return BatchAttack(n - k_eve, state_idx, eta_fwd, eve_seen)

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
        return BatchAttack(n_out, state_idx, 1.0, eve_seen)

    if strategy.kind == "usd_b92":
        sends = np.flatnonzero(table.bit >= 0)
        if sends.size != 2:
            raise ValueError("usd_b92 requires the B92 state pair")
        p_succ = 1.0 - table.overlap[sends[0], sends[1]]
        success = (n > 0) & (rng.random(npulses) < p_succ)
        eve_seen[success] = 3 * table.bit[state_idx[success]] + 1
        return BatchAttack(success.astype(n.dtype), state_idx,
                           min(1.0, eta / p_succ), eve_seen)

    raise ValueError(f"unknown strategy kind {strategy.kind!r}")


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
