"""Eavesdropper strategies: the one implementation of each attack, and the
one place that decides what Eve learns, for all seven protocols.

``attack_batch`` attacks the pulses flying to Bob (for BBM92 and E91,
Bob's particle, which Alice's measurement prepared; see ``protocols``)
and records per pulse what Eve took (``eve_seen``): the basis and outcome
of her measurement, or a photon she holds.  ``resolve_known_bits`` turns
that record into Eve's knowledge once the sifting announcement is public,
by the readout table that also sifts Bob's results
(``protocols._readout``): a measurement reveals the bit when only one
announced candidate for Alice's state can give its outcome.  Eve's own
optics are noiseless and lossless (worst-case convention: all
imperfections belong to the legitimate hardware, all information to Eve).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .quantum import (NO_CLICK, ChannelModel, SignalState, click_law,
                      measure_batch)

KINDS = ("none", "intercept_resend", "beam_split", "pns", "usd_b92")
PAIR_OVERLAP = 2 ** -0.5    # |<a|b>| of the two states SARG announces

NOTHING = -1    # Eve learned nothing about the pulse
HELD = -2       # Eve holds the state: a stored photon or a USD result


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
    """Result of attacking a stream of pulses."""

    n: np.ndarray                # forwarded photon counts
    state_idx: np.ndarray        # forwarded state table indices
    channel_consumed: bool       # True when Eve replaced the lossy line
    eve_seen: np.ndarray         # int8: NOTHING, HELD or the readout
                                 # index 3 * basis + outcome + 1


# ---------------------------------------------------------------------------
# session-level transforms
# ---------------------------------------------------------------------------

def usd_success_prob(phi0: SignalState, phi1: SignalState) -> float:
    """Success probability of unambiguous discrimination between two pure
    states: 1 - |<phi0|phi1>|."""
    return 1.0 - abs(phi0.overlap(phi1))


def _eve_choice(strategy: EveStrategy, count: int, size: int,
                rng: np.random.Generator) -> np.ndarray:
    """Index of the basis Eve measures each pulse in: ``fixed_basis`` when
    set, otherwise uniform over ``count`` bases."""
    if strategy.fixed_basis is None:
        return rng.integers(0, count, size=size, dtype=np.int8)
    if strategy.fixed_basis >= count:
        raise ValueError(f"fixed_basis {strategy.fixed_basis} is out of "
                         f"range: Eve can measure in {count} bases")
    return np.full(size, strategy.fixed_basis, dtype=np.int8)


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
    beam_split diverts each photon with the tap probability and forwards
    the rest over a line whose loss keeps Bob's total transmittance.  pns
    keeps one photon of every multi-photon pulse, forwards the rest
    losslessly and blocks single photons with block_single_prob.  usd_b92
    discriminates the two states Alice sends (it refuses a table with any
    other count) and forwards a perfect copy of each conclusive result,
    throttled to the honest detection rate (possible while transmittance
    < 1 - overlap); failures become vacuum.  These three mark HELD the
    pulses whose state Eve holds.
    """
    npulses = n.shape[0]
    eve_seen = np.full(npulses, NOTHING, dtype=np.int8)

    if strategy.kind == "none":
        return BatchAttack(n, state_idx, False, eve_seen)

    if strategy.kind == "intercept_resend":
        eb = _eve_choice(strategy, len(table.bases), npulses, rng)
        law = click_law(table.p_one, None, 1.0, 0.0, 0.0,
                        int(n.max(initial=0)))
        bit = measure_batch(n, state_idx, eb, law, rng)
        sent = bit != NO_CLICK
        s_out = np.where(sent, table.eigen_idx.ravel().take(
            (2 * eb + np.maximum(bit, 0)).astype(np.intp)), state_idx)
        return BatchAttack(sent.astype(n.dtype), s_out, False,
                           3 * eb + bit + 1)

    if strategy.kind == "beam_split":
        eta = ch.transmittance
        tap = strategy.tap_ratio if strategy.tap_ratio is not None else 1.0 - eta
        if tap > 1.0 - eta + 1e-12:
            raise ValueError(
                f"tap_ratio {tap} exceeds the channel loss 1 - eta = {1 - eta}")
        k_eve = rng.binomial(n, tap)
        eta_fwd = min(1.0, eta / (1.0 - tap)) if tap < 1.0 else 1.0
        n_out = rng.binomial(n - k_eve, eta_fwd)
        eve_seen[k_eve >= 1] = HELD
        return BatchAttack(n_out, state_idx, True, eve_seen)

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
        return BatchAttack(n_out, state_idx, True, eve_seen)

    if strategy.kind == "usd_b92":
        pair = [st for st, b in zip(table.states, table.bit) if b >= 0]
        if len(pair) != 2:
            raise ValueError("usd_b92 requires the B92 state pair")
        p_succ = usd_success_prob(*pair)
        success = (n > 0) & (rng.random(npulses) < p_succ)
        forwarded = success & (rng.random(npulses)
                               < min(1.0, ch.transmittance / p_succ))
        n_out = forwarded.astype(n.dtype)
        eve_seen[success] = HELD
        return BatchAttack(n_out, state_idx, True, eve_seen)

    raise ValueError(f"unknown strategy kind {strategy.kind!r}")


def resolve_known_bits(eve_seen: np.ndarray, announced: np.ndarray,
                       readout: np.ndarray, pair: bool,
                       rng: np.random.Generator) -> np.ndarray:
    """Post-disclosure resolution: boolean mask of pulses whose key bit Eve
    knows deterministically.

    ``readout`` is the session's ``protocols._readout`` and ``announced``
    each pulse's row of it: a measurement of Eve's gave her the bit when
    its readout is a bit.  A held photon yields the bit after a basis
    announcement (Eve measures it in that basis); after a ``pair``
    announcement (SARG) only when unambiguous discrimination of the two
    announced non-orthogonal states succeeds, with probability
    1 - PAIR_OVERLAP.
    """
    known = eve_seen == HELD
    if pair and known.any():
        known &= rng.random(known.shape[0]) < 1.0 - PAIR_OVERLAP
    if eve_seen.max(initial=NOTHING) >= 0:      # Eve measured some pulses
        # NOTHING and HELD read basis 0's no-click entry, which is -1
        known |= readout.take((announced * readout[0].size
                               + np.maximum(eve_seen, 0)).astype(np.intp)) >= 0
    return known
