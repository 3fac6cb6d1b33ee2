"""Seeded random-number plumbing.

Every stochastic function in this package takes an explicit
``numpy.random.Generator``.  Streams are derived from one master seed by
numpy's ``SeedSequence`` spawn tree: a sweep point, a trial index, or a
protocol session each get their own child stream via :func:`derive_rng`.
The engine is named, PCG64DXSM (numpy's PCG variant for many parallel
streams), so a numpy release that changes its default engine does not
change a seeded output.
"""

from __future__ import annotations

import numpy as np


def derive_rng(seed: int, *indices: int) -> np.random.Generator:
    """Return an independent child stream for (seed, index path).

    The index path is the ``spawn_key`` of ``SeedSequence(seed)``, so
    ``derive_rng(seed, i, j)`` draws what
    ``SeedSequence(seed).spawn(i + 1)[i].spawn(j + 1)[j]`` seeds on
    PCG64DXSM.  Equal arguments always produce bit-identical streams;
    distinct index paths, a path and its prefixes included, produce
    statistically independent ones.  ``derive_rng(seed)``, with no index,
    is the seed's master stream.
    """
    seq = np.random.SeedSequence(int(seed),
                                 spawn_key=tuple(int(i) for i in indices))
    return np.random.Generator(np.random.PCG64DXSM(seq))
