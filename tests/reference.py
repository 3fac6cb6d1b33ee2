"""Closed-form laws the tests sample from or check against; no library
code calls them."""

import numpy as np


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
