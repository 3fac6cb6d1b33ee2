"""Classical post-processing: error-rate estimation, interactive parity
reconciliation, privacy amplification, advantage distillation, and
message authentication.  The pipeline assumes an authenticated public
channel (ROADMAP item 5) and checks one tag, on the corrected keys
(``deception_probability``).  Privacy amplification charges Eve the
leaked parities plus ceil(n h(eps)) for n reconciled bits at error eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Optional

import numpy as np

from .bits import BitString, random_bits
from .rates import binary_entropy


class NoSecureKey(Exception):
    """Privacy amplification target length is not positive."""


class OtpPoolExhausted(Exception):
    """The tag-encryption pad ran out; refill it from distilled key."""


class _Abort(Exception):
    """A pipeline run ends here; args are (abort_stage, abort_reason)."""


@dataclass
class PublicChannelLog:
    """Ordered record of everything sent in the clear: one dict of
    direction, purpose and payload per message.  leaked_parity_count sums
    the parities the messages disclosed (see bbbss_correct)."""

    messages: list = field(default_factory=list)
    leaked_parity_count: int = 0

    def post(self, direction: str, purpose: str, payload,
             parities: int = 0) -> None:
        self.messages.append({"direction": direction, "purpose": purpose,
                              "payload": payload})
        self.leaked_parity_count += parities


# ---------------------------------------------------------------------------
# error-rate estimation
# ---------------------------------------------------------------------------

def estimate_qber(alice: BitString, bob: BitString, sample_fraction: float,
                  rng: np.random.Generator) -> tuple[float, np.ndarray]:
    """Publicly compare a random sample of positions.

    Returns the sample mismatch rate and the disclosed positions, which the
    caller must drop from both keys.
    """
    if len(alice) != len(bob):
        raise ValueError("keys must have equal length")
    if not 0.0 < sample_fraction <= 1.0:
        raise ValueError("sample_fraction must lie in (0, 1]")
    n = len(alice)
    m = math.ceil(sample_fraction * n)
    if m == 0 or n == 0:
        raise ValueError("sample is empty")
    positions = rng.choice(n, size=m, replace=False)
    a = alice.to_array()[positions]
    b = bob.to_array()[positions]
    return float((a != b).mean()), np.sort(positions)


def remove_positions(key: BitString, positions: np.ndarray) -> BitString:
    keep = np.ones(len(key), dtype=bool)
    keep[positions] = False
    return BitString.from_array(np.compress(keep, key.to_array()))


# ---------------------------------------------------------------------------
# interactive parity reconciliation
# ---------------------------------------------------------------------------

@dataclass
class ReconciliationResult:
    """Corrected keys, parities disclosed and rounds run."""

    corrected_alice: BitString
    corrected_bob: BitString
    leaked_bits: int
    rounds: int


_POPCOUNT = np.array([bin(v).count("1") for v in range(256)])   # per byte


def _bisect(errors: np.ndarray, lo: np.ndarray,
            hi: np.ndarray) -> tuple[np.ndarray, int]:
    """Binary parity search for one differing bit in each disjoint range
    [lo[i], hi[i]) of slots that holds an odd number of them, all ranges in
    lockstep, one vectorised step per level.  `errors` holds the sorted
    slots of the differing bits, so the prefix XOR of a ^ b up to slot x is
    the parity of their count below x.  Returns the slot found in each
    range and the parities disclosed, one per live range per level.
    """
    lo, hi = lo.copy(), hi.copy()
    disclosed = 0
    live = np.flatnonzero(hi - lo > 1)
    while live.size:
        disclosed += live.size
        l, mid = lo[live], (lo[live] + hi[live]) // 2
        left = ((np.searchsorted(errors, mid) - np.searchsorted(errors, l))
                & 1).astype(bool)
        hi[live[left]] = mid[left]
        lo[live[~left]] = mid[~left]
        live = live[hi[live] - lo[live] > 1]
    return lo, disclosed


def _interleaver(n: int, rng: np.random.Generator) -> tuple[int, int]:
    """A pass's public slot map i -> (a i + b) mod n: a uniform unit a of
    the integers mod n, then a uniform offset b, so the map is a bijection
    of [0, n)."""
    while math.gcd(a := int(rng.integers(n)), n) != 1:
        pass
    return a, int(rng.integers(n))


def _slots(bits: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    """The slots of key positions `bits` (uint64) under i -> (a i + b) mod n.
    Exact for n <= 2^32, where a i + b <= n (n - 1) < 2^64."""
    return ((np.uint64(a) * bits + np.uint64(b))
            % np.uint64(n)).astype(np.intp)


def bbbss_correct(alice: BitString, bob: BitString, eps_est: float,
                  rng: np.random.Generator, max_passes: Optional[int] = None,
                  subset_clean_target: int = 20,
                  log: Optional[PublicChannelLog] = None) -> ReconciliationResult:
    """Cascade reconciliation with backtracking, then a random-subset check.

    Each pass puts bit i in slot (a i + b) mod n, with a public multiplier
    a drawn uniformly among the units mod n and an offset b drawn
    uniformly (`_interleaver`).  It compares the parities of consecutive
    blocks of slots and bisects every block whose parities differ, all in
    lockstep, fixing one error in each.  A slot is computed only where it
    is read, at the errors not yet fixed and the bits each bisection
    fixes, so the passes cost time in the error count, not in n; no
    n-length array is kept per pass.  n may be at most 2^32.

    The block size starts near 0.73/eps and doubles per pass up to n/2;
    there are min(4, passes to reach n/2) passes unless `max_passes` fixes
    their number.  Backtracking: a fixed bit flips the parity of its block
    in every earlier pass, so after each bisection the newest pass that
    has blocks with differing parities bisects them, until no pass has
    any.  Each bisection fixes one error, so this ends.

    A final phase bisects random half-size subsets whose parities differ,
    until `subset_clean_target` consecutive subsets agree.  It has no round
    cap and still ends: a disagreeing subset holds an odd number of errors,
    so its bisection fixes one, and E errors allow at most
    (E + 1) * target rounds.

    Each pass posts one "parity" message {"pass_block_parities": blocks,
    "bisect_parities": m} to `log` (a private one when None), where m
    counts the parities of every bisection run until no pass has a block
    left to bisect, backtracking into earlier passes included.  Each
    subset round posts one {"subset_size": s, "bisect_parities": m}.  They
    disclose blocks + m or 1 + m parities.  leaked_bits is the parity count
    this call posted.
    """
    if len(alice) != len(bob):
        raise ValueError("keys must have equal length")
    n = len(alice)
    if n == 0:
        raise ValueError("cannot reconcile empty keys")
    if n > 2**32:
        raise ValueError(f"cannot reconcile keys longer than 2^32 bits "
                         f"(n = {n}): the slot arithmetic is uint64")
    if not 0.0 <= eps_est < 0.5:
        raise ValueError("eps_est must lie in [0, 0.5)")
    log = log or PublicChannelLog()
    posted_before = log.leaked_parity_count
    # the errors not yet fixed
    errors = np.flatnonzero((alice ^ bob).to_array()).astype(np.uint64)
    rounds = 0

    cap = max(2, n // 2)
    k = max(2, int(0.73 / eps_est) if eps_est > 0 else n // 4)
    k = min(k, cap)
    if max_passes is None:      # ceil(log2(cap / k)) doublings reach the cap
        max_passes = min(4, 1 + (-(-cap // k) - 1).bit_length())

    maps, sizes, odd = [], [], []       # per pass so far
    for p in range(max_passes):
        rounds += 1
        maps.append(_interleaver(n, rng))
        sizes.append(min(k << p, cap))
        blocks = -(-n // sizes[p])
        odd.append(np.bincount(_slots(errors, *maps[p], n) // sizes[p],
                               minlength=blocks) & 1)
        m = 0
        while (q := next((r for r in range(p, -1, -1) if odd[r].any()),
                         None)) is not None:
            at = _slots(errors, *maps[q], n)
            order = np.argsort(at)
            at = at[order]
            lo = np.flatnonzero(odd[q]) * sizes[q]
            found, disclosed = _bisect(at, lo, np.minimum(lo + sizes[q], n))
            m += disclosed
            hit = order[np.searchsorted(at, found)]
            fixed, errors = errors[hit], np.delete(errors, hit)
            for r in range(p + 1):
                odd[r] ^= np.bincount(_slots(fixed, *maps[r], n) // sizes[r],
                                      minlength=odd[r].size) & 1
        log.post("alice->bob", "parity", {"pass_block_parities": blocks,
                                          "bisect_parities": m}, blocks + m)

    # random-subset verification phase, on the packed difference
    d = np.zeros(n, dtype=np.uint8)
    d[errors] = 1
    packed = np.packbits(d)
    tail = (0xFF << (-n % 8)) & 0xFF    # the last byte's bits inside the key
    clean = 0
    while clean < subset_clean_target:
        rounds += 1
        mask = rng.integers(0, 256, packed.size, dtype=np.uint8)
        mask[-1] &= tail
        m = 0
        if not int(np.bitwise_xor.reduce(packed & mask)).bit_count() & 1:
            clean += 1
        else:
            clean = 0
            idxs = np.flatnonzero(np.unpackbits(mask, count=n))
            rng.shuffle(idxs)
            [j], m = _bisect(np.flatnonzero(d[idxs]), np.array([0]),
                             np.array([idxs.size]))
            d[idxs[j]] = 0
            packed = np.packbits(d)
        log.post("alice->bob", "parity",
                 {"subset_size": int(np.bincount(mask, minlength=256)
                                     @ _POPCOUNT),
                  "bisect_parities": m}, 1 + m)

    return ReconciliationResult(
        corrected_alice=alice, corrected_bob=alice ^ BitString.from_array(d),
        leaked_bits=log.leaked_parity_count - posted_before, rounds=rounds)


# ---------------------------------------------------------------------------
# privacy amplification (Toeplitz universal hashing)
# ---------------------------------------------------------------------------

def _fft_length(m: int) -> int:
    """Smallest 2^a 3^b 5^c >= m, a length numpy's FFT handles fast."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def toeplitz_hash(key: np.ndarray, seed: np.ndarray, r: int) -> np.ndarray:
    """Multiply the r x n binary Toeplitz matrix defined by the
    (n + r - 1)-bit seed with the key vector, mod 2.

    T[i, j] = seed[i + n - 1 - j], so row i of the product is entry
    i + n - 1 of the linear convolution seed * key.  One real-FFT product
    of length L >= n + r - 1 gives the circular convolution, whose
    wrap-around only reaches entries below n - 1.  The entries are
    integer counts, so rounding the float64 result is exact while each
    used entry lies within 1/2 of an integer; one 0.25 or more away
    raises FloatingPointError instead of being rounded.
    """
    key = np.asarray(key, dtype=np.float64)
    seed = np.asarray(seed, dtype=np.float64)
    n = key.size
    if r < 0 or seed.size != n + r - 1:
        raise ValueError("seed must have n + r - 1 bits")
    if n == 0 or r == 0:
        return np.zeros(r, dtype=np.uint8)
    size = _fft_length(n + r - 1)
    conv = np.fft.irfft(np.fft.rfft(seed, size) * np.fft.rfft(key, size),
                        size)[n - 1: n - 1 + r]
    counts = np.rint(conv)
    if np.abs(conv - counts).max() >= 0.25:
        raise FloatingPointError("Toeplitz product not exact in float64")
    return (counts.astype(np.int64) & 1).astype(np.uint8)


def privacy_amplify(key: BitString, eve_known_bits: int, safety: int,
                    rng: np.random.Generator,
                    log: Optional[PublicChannelLog] = None,
                    ) -> tuple[BitString, BitString]:
    """Compress an n-bit reconciled key to r = n - k - s bits with a
    randomly seeded Toeplitz hash.  The seed is public; returns
    (final_key, seed).  Raises NoSecureKey when r <= 0.
    """
    n = len(key)
    r = n - eve_known_bits - safety
    if r <= 0:
        raise NoSecureKey(
            f"no secure key extractable: n={n}, k={eve_known_bits}, s={safety}")
    seed = random_bits(n + r - 1, rng)
    log = log or PublicChannelLog()
    log.post("alice->bob", "pa_seed", {"seed_hex": seed.to_hex()})
    out = toeplitz_hash(key.to_array(), seed.to_array(), r)
    return BitString.from_array(out), seed


# ---------------------------------------------------------------------------
# advantage distillation
# ---------------------------------------------------------------------------

def advantage_distill(alice: BitString, bob: BitString, block: int,
                      rng: np.random.Generator,
                      ) -> tuple[BitString, BitString, np.ndarray]:
    """Two-way repeat-code filtering.

    Alice XORs each length-N block with a fresh random bit C and announces
    the result; Bob accepts a block only when the announcement XORed with
    his block is constant, in which case that constant becomes his new bit.
    Returns (alice_new, bob_new, accepted_mask over blocks); trailing bits
    that do not fill a block are dropped.
    """
    if block < 2:
        raise ValueError("block length must be >= 2")
    if len(alice) != len(bob):
        raise ValueError("keys must have equal length")
    nblocks = len(alice) // block
    a = alice.to_array()[: nblocks * block].reshape(nblocks, block)
    b = bob.to_array()[: nblocks * block].reshape(nblocks, block)
    c = rng.integers(0, 2, size=nblocks, dtype=np.uint8)
    announced = a ^ c[:, None]
    residue = announced ^ b
    accepted = (residue == residue[:, :1]).all(axis=1)
    new_alice = c[accepted]
    new_bob = residue[accepted, 0]
    return (BitString.from_array(new_alice),
            BitString.from_array(new_bob), accepted)


# ---------------------------------------------------------------------------
# authentication (polynomial hash over GF(p), one-time-padded tag)
# ---------------------------------------------------------------------------

PRODUCTION_PRIME = (1 << 61) - 1


def _chunk_values(bits: np.ndarray, w: int) -> list[int]:
    """Big-endian values of the w-bit chunks of a 0/1 array, the last one
    possibly shorter.  One uint64 product, so w must not exceed 64."""
    k = -(-len(bits) // w)
    rows = np.pad(bits.astype(np.uint64), (0, k * w - len(bits)))
    values = rows.reshape(k, w) @ (
        np.uint64(1) << np.arange(w - 1, -1, -1, dtype=np.uint64))
    values[-1:] >>= np.uint64(k * w - len(bits))   # the zero padding
    return values.tolist()


@dataclass
class AuthConfig:
    """Shared authentication material, held as elements of GF(p), p < 2^64.

    The key (x, y) defines a polynomial hash:
    tag(m) = y + sum_i m_i x^(i+1) for message digits m_i, at most
    degree - 1 of them: the bit length of m, then m in base-2^(bitlen(p)-1)
    chunks.  The length digit makes the encoding injective.  Each emitted
    tag is one-time-pad encrypted with a fresh entry of pads; entries are
    never reused.  Two distinct messages hash to polynomials whose
    difference is nonzero of degree at most degree - 1, so they collide on
    at most degree - 1 keys x: a forged tag, or a tag checked against a
    message it was not computed from, passes with probability at most
    (degree - 1) / p."""

    prime: int
    degree: int
    key: tuple[int, int]
    pads: tuple[int, ...]
    next_segment: int = 0

    def __post_init__(self):
        if self.degree < 2:
            raise ValueError("degree must be >= 2")
        if self.prime >= 1 << 64:
            raise ValueError("prime must lie below 2^64")

    @property
    def tag_bits(self) -> int:
        return self.prime.bit_length()

    @property
    def deception_probability(self) -> float:
        return (self.degree - 1) / self.prime

    @classmethod
    def fresh(cls, rng: np.random.Generator, prime: int = PRODUCTION_PRIME,
              degree: int = 64, pool_tags: int = 32) -> "AuthConfig":
        """Key and pads from uniform bitlen(p)-bit draws, reduced mod p."""
        w = prime.bit_length()
        key = _chunk_values(random_bits(2 * w, rng).to_array(), w)
        pads = _chunk_values(random_bits(pool_tags * w, rng).to_array(), w)
        return cls(prime=prime, degree=degree,
                   key=(key[0] % prime, key[1] % prime),
                   pads=tuple(pad % prime for pad in pads))


def _message_digits(message: BitString, cfg: AuthConfig) -> list[int]:
    """Bit length, then base-2^w chunks with w = bitlen(p) - 1, so every
    digit lies below the prime and no two messages share their digits."""
    w = cfg.tag_bits - 1
    bits = message.to_array()
    if len(bits) >= cfg.prime:
        raise ValueError(
            f"message too long: {len(bits)} bits, the prime is {cfg.prime}")
    digits = [len(bits)] + _chunk_values(bits, w)
    if len(digits) > cfg.degree - 1:
        raise ValueError(
            f"message too long: {len(digits)} digits exceeds degree-1 = "
            f"{cfg.degree - 1}")
    return digits


def _poly_hash(message: BitString, cfg: AuthConfig) -> int:
    x, y = cfg.key
    acc = 0
    for digit in reversed(_message_digits(message, cfg)):  # Horner
        acc = (acc + digit) * x % cfg.prime
    return (y + acc) % cfg.prime


@dataclass(frozen=True)
class AuthTag:
    value: int
    segment: int


def authenticate(message: BitString, cfg: AuthConfig) -> AuthTag:
    """Tag the message and consume one pad."""
    segment = cfg.next_segment
    if segment >= len(cfg.pads):
        raise OtpPoolExhausted(
            "one-time-pad pool exhausted: refill from the distilled key")
    enc = (_poly_hash(message, cfg) + cfg.pads[segment]) % cfg.prime
    cfg.next_segment += 1
    return AuthTag(value=enc, segment=segment)


def verify(message: BitString, tag: AuthTag, cfg: AuthConfig) -> bool:
    expected = _poly_hash(message, cfg) + cfg.pads[tag.segment]
    return expected % cfg.prime == tag.value


# ---------------------------------------------------------------------------
# end-to-end pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineParams:
    sample_fraction: float = 0.1
    qber_abort_threshold: float = 0.11
    safety_bits: int = 30
    max_passes: Optional[int] = None   # None: min(4, passes to reach n/2)
    subset_clean_target: int = 20

    def __post_init__(self):
        for name in ("sample_fraction", "qber_abort_threshold"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError("sample_fraction must lie in (0, 1]")
        if not 0.0 <= self.qber_abort_threshold <= 0.5:
            raise ValueError("qber_abort_threshold must lie in [0, 0.5]")
        for name in ("safety_bits", "subset_clean_target"):
            if type(value := getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.safety_bits < 0:
            raise ValueError("safety_bits must be >= 0")
        if self.subset_clean_target < 1:
            raise ValueError("subset_clean_target must be >= 1")
        if self.max_passes is not None and not (
                type(self.max_passes) is int and self.max_passes >= 1):
            raise ValueError("max_passes must be None or an integer >= 1, "
                             f"got {self.max_passes!r}")


@dataclass
class FinalKeyResult:
    final_key: Optional[BitString]
    final_length: int
    qber_estimate: float
    leaked_bits: int
    eve_bound_bits: int
    abort_stage: Optional[str]
    abort_reason: Optional[str]
    log: PublicChannelLog

    @property
    def aborted(self) -> bool:
        return self.abort_stage is not None


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


def run_pipeline(transcript, params: PipelineParams,
                 rng: np.random.Generator) -> FinalKeyResult:
    """Estimation -> abort check -> reconciliation -> privacy amplification
    -> key verification on a session transcript.  The public channel is
    assumed authenticated: the QBER sample, parities, reconciliation
    summary and PA seed go out untagged.  One tag is checked, Alice's
    tag of her corrected key against Bob's corrected key, so keys that
    differ pass with probability at most ``deception_probability``.  PA
    keeps n - leaked - ceil(n h(eps)) - safety_bits of the n reconciled
    bits at the estimated error rate eps; ``eve_bound_bits`` is
    leaked + ceil(n h(eps)).  Abort stages: "estimation" (empty key, QBER
    over threshold, nothing left after the sample; all before the sample
    is dropped), "privacy_amplification" (no key left) and "verification"
    (Bob's key fails Alice's tag), with counts so far."""
    return run_pipeline_on_keys(transcript.sifted_alice,
                                transcript.sifted_bob, params, rng)


def run_pipeline_on_keys(sifted_alice: BitString, sifted_bob: BitString,
                         params: PipelineParams,
                         rng: np.random.Generator) -> FinalKeyResult:
    log = PublicChannelLog()
    n0 = len(sifted_alice)
    # one tag, 64 pads: the PA seed is drawn after them, so fewer moves keys
    auth = AuthConfig.fresh(rng, degree=max(64, n0 // 32), pool_tags=64)
    eps, leaked, k = 0.0, 0, 0
    try:
        if n0 == 0:
            raise _Abort("estimation", "empty sifted key")
        eps, positions = estimate_qber(sifted_alice, sifted_bob,
                                       params.sample_fraction, rng)
        log.post("both", "qber_sample",
                 {"positions": len(positions), "epsilon": eps})
        if eps > params.qber_abort_threshold:
            raise _Abort("estimation", f"error rate {eps:.4f} above threshold "
                                       f"{params.qber_abort_threshold}")
        if eps >= 0.5:      # no key at 0.5, and reconciliation needs less
            raise _Abort("estimation",
                         f"error rate {eps:.4f} is not below 0.5")
        if len(positions) == n0:
            raise _Abort("estimation", "nothing left after sampling")
        alice = remove_positions(sifted_alice, positions)
        bob = remove_positions(sifted_bob, positions)

        rec = bbbss_correct(alice, bob, max(eps, 1.0 / max(3, len(alice))),
                            rng, max_passes=params.max_passes,
                            subset_clean_target=params.subset_clean_target,
                            log=log)
        leaked = rec.leaked_bits
        log.post("alice->bob", "reconciliation_summary",
                 {"leaked_bits": leaked, "rounds": rec.rounds})

        k = leaked + math.ceil(len(rec.corrected_alice) * binary_entropy(eps))
        try:
            final_a, _ = privacy_amplify(rec.corrected_alice, k,
                                         params.safety_bits, rng, log=log)
        except NoSecureKey as exc:
            raise _Abort("privacy_amplification", str(exc)) from None
        tag = authenticate(rec.corrected_alice, auth)
        log.post("alice->bob", "key_verification",
                 {"final_length": len(final_a)})
        if not verify(rec.corrected_bob, tag, auth):
            raise _Abort("verification", "corrected keys differ")
    except _Abort as abort:
        return FinalKeyResult(None, 0, eps, leaked, k, *abort.args, log)
    return FinalKeyResult(final_a, len(final_a), eps, leaked, k, None, None,
                          log)
