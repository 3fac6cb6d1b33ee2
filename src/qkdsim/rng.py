"""Seeded random-number plumbing.

Every stochastic function in this package takes an explicit
``numpy.random.Generator``.  Generators are built on the counter-based
Philox engine so that independent streams can be derived from one master
seed without overlap: a sweep point, a trial index, or a protocol session
each get their own child stream via :func:`derive_rng`.
"""

from __future__ import annotations

import numpy as np


def derive_rng(seed: int, *indices: int) -> np.random.Generator:
    """Return an independent child stream for (seed, index path).

    Equal arguments always produce bit-identical streams; distinct index
    paths produce statistically independent ones.  ``derive_rng(seed)``,
    with no index, is the seed's master stream.
    """
    seq = np.random.SeedSequence([int(seed), *[int(i) for i in indices]])
    return np.random.Generator(np.random.Philox(seq))
