"""Eavesdropper strategies.

Each strategy transforms pulses in flight and leaves a classical record
from which Eve's post-disclosure knowledge is resolved after the sifting
announcement.  Eve's own optics are noiseless and lossless (worst-case
convention: all imperfections belong to the legitimate hardware, all
information to Eve).

``attack_batch`` applies a strategy to a whole pulse stream and is the
one implementation of each attack; ``resolve_known_bits`` turns the record
into Eve's knowledge once the sifting announcement is public.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .quantum import ChannelModel, SignalState

KINDS = ("none", "intercept_resend", "beam_split", "pns", "usd_b92")
PAIR_OVERLAP = 2 ** -0.5    # |<a|b>| of the two states a 'pair' announces


@dataclass(frozen=True)
class EveStrategy:
    """Strategy selector plus parameters.

    intercept_resend: basis_policy 'uniform_signal_bases' draws Eve's
        measurement basis uniformly from the protocol's signal bases;
        'fixed_basis' always uses `fixed_basis`.
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
    basis_policy: str = "uniform_signal_bases"
    fixed_basis: int = 0
    tap_ratio: Optional[float] = None
    block_single_prob: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.basis_policy not in ("uniform_signal_bases", "fixed_basis"):
            raise ValueError(f"unknown basis_policy {self.basis_policy!r}")
        if self.tap_ratio is not None and not 0.0 < self.tap_ratio < 1.0:
            raise ValueError("tap_ratio must lie in (0,1)")
        if not 0.0 <= self.block_single_prob <= 1.0:
            raise ValueError("block_single_prob must lie in [0,1]")


NO_EVE = EveStrategy("none")


@dataclass
class EveRecord:
    """Per-pulse classical record.  Arrays are pulse_count long; -1 marks
    'not applicable' in the integer fields."""

    pulse_count: int
    measured_basis: Optional[np.ndarray] = None   # int8
    measured_bit: Optional[np.ndarray] = None     # int8
    stored_photon: Optional[np.ndarray] = None    # bool
    conclusive: Optional[np.ndarray] = None       # bool
    known_bit: Optional[np.ndarray] = None        # int8, set after disclosure


@dataclass
class BatchAttack:
    """Result of attacking one session's pulse stream."""

    n: np.ndarray                # forwarded photon counts
    state_idx: np.ndarray        # forwarded state table indices
    channel_consumed: bool       # True when Eve replaced the lossy line
    record: EveRecord


# ---------------------------------------------------------------------------
# session-level transforms
# ---------------------------------------------------------------------------

def usd_success_prob(phi0: SignalState, phi1: SignalState) -> float:
    """Success probability of unambiguous discrimination between two pure
    states: 1 - |<phi0|phi1>|."""
    return 1.0 - abs(phi0.overlap(phi1))


def attack_batch(strategy: EveStrategy, n: np.ndarray, state_idx: np.ndarray,
                 p_one: np.ndarray, eigen_idx: np.ndarray,
                 signal_basis_count: int, ch: ChannelModel,
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
    rec = EveRecord(pulse_count=npulses)

    if strategy.kind == "none":
        return BatchAttack(n, state_idx, False, rec)

    if strategy.kind == "intercept_resend":
        if strategy.basis_policy == "fixed_basis":
            eb = np.full(npulses, strategy.fixed_basis, dtype=np.int8)
        else:
            eb = rng.integers(0, signal_basis_count, size=npulses, dtype=np.int8)
        probs = p_one[state_idx, eb]
        k1 = rng.binomial(n, probs)
        k0 = n - k1
        bit = np.where(k1 > 0, 1, 0).astype(np.int8)
        both = (k0 > 0) & (k1 > 0)
        if both.any():
            bit[both] = rng.integers(0, 2, size=int(both.sum()), dtype=np.int8)
        bit[n == 0] = -1
        n_out = np.where(n > 0, 1, 0)
        s_out = np.where(n > 0, eigen_idx[eb, np.maximum(bit, 0)], state_idx)
        rec.measured_basis = eb
        rec.measured_bit = bit
        return BatchAttack(n_out.astype(n.dtype), s_out.astype(state_idx.dtype),
                           False, rec)

    if strategy.kind == "beam_split":
        eta = ch.transmittance
        tap = strategy.tap_ratio if strategy.tap_ratio is not None else 1.0 - eta
        if tap > 1.0 - eta + 1e-12:
            raise ValueError(
                f"tap_ratio {tap} exceeds the channel loss 1 - eta = {1 - eta}")
        k_eve = rng.binomial(n, tap)
        eta_fwd = min(1.0, eta / (1.0 - tap)) if tap < 1.0 else 1.0
        n_out = rng.binomial(n - k_eve, eta_fwd)
        rec.stored_photon = k_eve >= 1
        return BatchAttack(n_out, state_idx, True, rec)

    if strategy.kind == "pns":
        multi = n >= 2
        single = n == 1
        n_out = n.copy()
        n_out[multi] -= 1
        if strategy.block_single_prob > 0 and single.any():
            blocked = single & (rng.random(npulses) < strategy.block_single_prob)
            n_out[blocked] = 0
        rec.stored_photon = multi.copy()
        return BatchAttack(n_out, state_idx, True, rec)

    if strategy.kind == "usd_b92":
        if b92_states is None:
            raise ValueError("usd_b92 requires the B92 state pair")
        p_succ = usd_success_prob(*b92_states)
        success = (n > 0) & (rng.random(npulses) < p_succ)
        forward_prob = min(1.0, ch.transmittance / p_succ)
        forwarded = success & (rng.random(npulses) < forward_prob)
        n_out = np.where(forwarded, 1, 0).astype(n.dtype)
        rec.conclusive = success
        bit = np.full(npulses, -1, dtype=np.int8)
        # B92 table convention: state 0 encodes bit 0, state 1 encodes bit 1
        bit[success] = state_idx[success].astype(np.int8)
        rec.measured_bit = bit
        return BatchAttack(n_out, state_idx, True, rec)

    raise ValueError(f"unknown strategy kind {strategy.kind!r}")


def resolve_known_bits(strategy: EveStrategy, record: EveRecord,
                       alice_basis: np.ndarray, alice_bits: np.ndarray,
                       announcement: str, rng: np.random.Generator,
                       ) -> np.ndarray:
    """Post-disclosure resolution: boolean mask of pulses whose key bit Eve
    knows deterministically.

    announcement 'basis' (BB84-style): a stored photon measured in the
    announced basis, or an intercept measurement made in the right basis,
    yields the bit exactly.  announcement 'pair' (SARG-style): a stored
    photon only identifies the bit when unambiguous discrimination of the
    two announced non-orthogonal states succeeds.
    """
    npulses = record.pulse_count
    if strategy.kind == "none":
        return np.zeros(npulses, dtype=bool)
    if strategy.kind == "intercept_resend":
        known = record.measured_basis == alice_basis
    elif strategy.kind in ("beam_split", "pns"):
        held = record.stored_photon
        if announcement == "basis":
            known = held.copy()
        elif announcement == "pair":
            known = held & (rng.random(npulses) < (1.0 - PAIR_OVERLAP))
        else:
            raise ValueError(f"unknown announcement type {announcement!r}")
    else:   # usd_b92
        known = record.conclusive.copy()
    record.known_bit = np.where(known, alice_bits, -1).astype(np.int8)
    return known
