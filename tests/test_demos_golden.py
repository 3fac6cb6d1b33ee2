"""Golden SHA-256 digests of each demo's stdout.

Every demo is seeded, so its output is a fixed function of the library.
The digests were recorded with numpy 2.4; a change that alters any of
them changes a printed figure and must be re-recorded on purpose.
``03_key_distillation.py`` was re-recorded when reconciliation became
Cascade with backtracking: 7409 parities disclosed instead of 8043, and
longer keys.  It was re-recorded again when privacy amplification came to
charge Eve ceil(n h(eps)) instead of 2 eps per bit: Eve is charged 13918
bits instead of 9263, and the key is 30824 bits instead of 35479.  It
was re-recorded once more when each Cascade pass came to place the bits
with an affine slot map instead of a random permutation: 7406 parities
instead of 7409, and a 30827-bit key.  ``02_eavesdropping.py`` was
re-recorded when line loss came to be drawn once, in Bob's ``click_law``:
its beam-split and USD runs draw other streams from the same law (Eve
knows 44.5% of the beam-split key instead of 45.2%; the USD detection
rate reads 0.1984 instead of 0.1996, against an honest 0.2002).

Run as a script, this file prints ``GOLDEN`` recomputed.
"""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

from digest_table import print_table

DEMOS = Path(__file__).resolve().parent.parent / "demos"

GOLDEN = {
    "01_protocol_zoo.py":
        "1593b38164e48d4cf2974c8464be120f9bed8782039ede193aa795d481c8de2c",
    "02_eavesdropping.py":
        "00a55c0c206858f8ea1adca743d7cc5c4923a7c97417eca0a2115c3ed98dc05b",
    "03_key_distillation.py":
        "89de28df05750ccdc408f6c7ec3719062b89db779cf894f86fe23057891cc645",
    "04_bell_test.py":
        "9e6bd03698767fc6ce559b67d1e0a475b4d4d188306cdf8c39c712d0a79aa2ee",
    "05_rates_and_hardware.py":
        "518a00c7666b7e2168fca731f7385e448c2e5c456b337cd40a3bc83cba5e31e2",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(GOLDEN)


def demo_digest(name) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_output_matches_golden_digest(name):
    assert demo_digest(name) == GOLDEN[name]


if __name__ == "__main__":
    print_table("GOLDEN", {p.name: demo_digest(p.name)
                           for p in sorted(DEMOS.glob("*.py"))})
