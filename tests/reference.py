"""Closed-form laws and reference code the tests sample from or check
against; no library code calls them."""

from dataclasses import dataclass

import numpy as np

from qkdsim.adversary import (HELD, NOTHING, EveStrategy,
                              resolve_known_bits)
from qkdsim.bits import BitString, random_bits
from qkdsim.protocols import (_PREPARE_MEASURE, PrepareMeasureSpec,
                              ProtocolConfig, SessionTranscript,
                              _intensity_stats, _readout)
from qkdsim.quantum import (CHUNK, NO_CLICK, ChannelModel, DetectorModel,
                            SourceModel, click_law, sample_photon_number)


def sample_singlet(cos_angle, rng: np.random.Generator, size: int):
    """Sample `size` +/-1 int8 outcome pairs for spin measurements on a
    shared singlet, given the cosine of the angle between the two
    measurement directions (a float, or an array giving each pair's).
    Marginals are uniform and E[a*b] = -cos_angle, i.e. the joint law
    P(a,b) = (1 - a b cos_angle) / 4."""
    a = (rng.random(size) < 0.5).astype(np.int8) * 2 - 1
    b = np.where(rng.random(size) < (1.0 + cos_angle) / 2.0, -a, a)
    return a, b


def parity_knowledge(p: float, n: int) -> float:
    """Probability of knowing the XOR of n independent bits when each bit
    is known with probability p.  Equals (1 + eps^n) / 2 for eps = 2p - 1:
    the guess is right iff an even number of the n bits is wrong.
    """
    if not 0.5 <= p <= 1.0:
        raise ValueError("per-bit knowledge must lie in [0.5, 1]")
    if n < 1:
        raise ValueError("n must be positive")
    eps = 2.0 * p - 1.0
    return 0.5 * (1.0 + eps ** n)


# ---------------------------------------------------------------------------
# the per-pulse session engine
# ---------------------------------------------------------------------------
# What follows is the session engine as it stood before sessions drew each
# pulse's click ahead of its state: every pulse carries Alice's bit and
# basis, Bob's basis, the whole attack, Bob's outcome, the sift and Eve's
# knowledge.  It is kept verbatim, but for calling its own copies of
# ``attack_batch`` and ``measure_batch`` by bare name, so the statistical
# tests can compare the law of the library's transcripts with it.


def per_pulse_session(cfg, src, ch, det, eve, rng) -> SessionTranscript:
    """``protocols.run_session`` on the per-pulse engine."""
    return _run_prepare_measure(_PREPARE_MEASURE[cfg.protocol], cfg, src,
                                ch, det, eve, rng)


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


@dataclass
class BatchAttack:
    """Result of attacking a stream of pulses."""

    n: np.ndarray                # forwarded photon counts
    state_idx: np.ndarray        # forwarded state table indices
    transmittance: float         # of the line the forwarded photons cross
    eve_seen: np.ndarray         # NOTHING, HELD + 1 - k for k held photons,
                                 # or the readout index 3 * basis + o + 1


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


def _run_prepare_measure(spec: PrepareMeasureSpec, cfg: ProtocolConfig,
                         src: SourceModel, ch: ChannelModel,
                         det: DetectorModel, eve: EveStrategy,
                         rng: np.random.Generator) -> SessionTranscript:
    """Prepare -> attack -> channel and detection (one ``click_law`` draw per
    pulse, over the line the attack hands Bob's photons to) -> sift ->
    Eve's knowledge, slice by slice (see the slice rule above); decoy
    sessions also count pulses sent and detected per intensity."""
    table = spec.table(cfg)
    alice_bases = np.count_nonzero(table.bit >= 0) // 2
    pairs = (np.arange(2 * alice_bases).reshape(-1, 2) if spec.pairs is None
             else spec.pairs)               # each announcement's candidates
    readout = _readout(table, pairs)
    row = readout[0].size               # readout entries per announcement
    row_overlap = table.overlap[pairs[:, 0], pairs[:, 1]]
    pmf, first_decoy = spec.photons(cfg, src)
    laws = {}   # Bob's click law, by the transmittance of the line to him
    kept, detections = [], 0
    intensity = []      # per slice: (sent, detected) of signal and decoy
    # setting pair -> (Alice's basis, Bob's, products per slice)
    chsh = {pair: (ai, bi, []) for pair, (ai, bi) in (spec.chsh or {}).items()}

    for lo in range(0, max(cfg.num_pulses, 1), CHUNK):
        m = min(CHUNK, cfg.num_pulses - lo)
        bits = random_bits(m, rng).to_array().view(np.int8)
        a_bases = _biased_choice(rng, m, alice_bases, cfg.basis_bias)
        b_bases = _biased_choice(rng, m, len(table.bases), cfg.basis_bias)
        sent = 2 * a_bases + bits
        cells = sample_photon_number(pmf, rng, m)
        tags = None if first_decoy is None else cells >= first_decoy
        n = cells if tags is None else cells - first_decoy * tags.astype(
            cells.dtype)

        atk = attack_batch(eve, n, sent, table, ch, rng)
        if atk.transmittance not in laws:
            laws[atk.transmittance] = click_law(
                table.p_one, table.flip, det.efficiency * atk.transmittance,
                ch.misalignment_error_prob, det.dark_prob, len(pmf) - 1)
        outcomes = measure_batch(atk.n, atk.state_idx, b_bases,
                                 laws[atk.transmittance], rng)

        announced = a_bases if spec.pairs is None else sent
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
        known = resolve_known_bits(atk.eve_seen, announced,
                                             readout, row_overlap, rng)
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
