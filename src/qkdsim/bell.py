"""CHSH estimation and analytic evaluation for singlet correlations."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

SETTING_PAIRS = (("n1", "n2"), ("n1p", "n2"), ("n1", "n2p"), ("n1p", "n2p"))

TSIRELSON = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class ChshSettings:
    """Four measurement angles in degrees on the great circle: Alice's n1
    and n1', Bob's n2 and n2'."""

    n1: float
    n1p: float
    n2: float
    n2p: float


# geometry achieving the maximal singlet value 2*sqrt(2): three 45-degree
# separations and one 135-degree separation
MAXIMAL_SETTINGS = ChshSettings(90.0, 0.0, 45.0, 135.0)


def chsh_analytic(settings: ChshSettings) -> float:
    """|C(n1,n2) + C(n1',n2) + C(n1,n2') - C(n1',n2')| with the singlet
    correlation C(x, y) = -cos(x - y)."""
    c = lambda x, y: -math.cos(math.radians(x - y))
    return abs(c(settings.n1, settings.n2) + c(settings.n1p, settings.n2)
               + c(settings.n1, settings.n2p) - c(settings.n1p, settings.n2p))


def chsh_estimate(samples: Mapping[tuple, np.ndarray],
                  min_count: int = 100) -> tuple[float, float]:
    """Plug-in CHSH estimate from +/-1 product samples per setting pair.

    Returns (S_hat, stderr) where the standard error combines the binomial
    variances of the four correlation terms.
    """
    total = 0.0
    var = 0.0
    for pair in SETTING_PAIRS:
        vals = np.asarray(samples[pair])
        if vals.size < min_count:
            raise ValueError(
                f"setting pair {pair} has {vals.size} samples, "
                f"needs at least {min_count}")
        c = float(vals.mean())
        var += (1.0 - c * c) / vals.size
        total += -c if pair == ("n1p", "n2p") else c
    return abs(total), math.sqrt(var)
