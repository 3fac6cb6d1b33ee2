"""Locate the qkdsim sources of the checkout the benchmark runs from.

The benchmark times the package in ``<checkout>/src``, never an installed
copy.  Numerical libraries are pinned to one thread before numpy is
imported, so that timings do not depend on how many cores a run sees.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSource(RuntimeError):
    """The checkout holds no qkdsim package to benchmark."""


def use_checkout_source() -> None:
    """Pin threads and put ``<checkout>/src`` first on the import path.

    Must run before numpy or qkdsim is imported.  Raises MissingSource
    when the checkout has no ``src/qkdsim``.
    """
    if not (SRC / "qkdsim" / "__init__.py").is_file():
        raise MissingSource(f"no qkdsim package under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
