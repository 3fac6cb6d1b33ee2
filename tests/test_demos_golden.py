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
rate reads 0.1984 instead of 0.1996, against an honest 0.2002).  Every
demo was re-recorded when ``derive_rng`` came to seed PCG64DXSM through
numpy's ``SeedSequence`` spawn tree instead of Philox, and ``random_bits``
to draw eight bits to a byte of the stream: each figure drawn from a
stream moved within its sampling error (BB84 sifts 50142 of 1e5 pulses
instead of 49886; the honest CHSH value reads 2.8247 instead of 2.8206,
at a standard error of 0.0060), and the analytic ones did not.

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
        "5ca0c6730f81670dee4b9d2749ce3a2dcd09d66b3fcc4087b2917ccdc6b5476f",
    "02_eavesdropping.py":
        "21aed1ebd2c5cfe6b58895e0676df4cb334701af722025bbeb64c24d1c6548fd",
    "03_key_distillation.py":
        "4a7abd53d40ff50f7cad40b6ac7da66ea525a250ca67f57916f9563738e79408",
    "04_bell_test.py":
        "57c894c702e696082f5b37658eeca83ab987ca0b62a93671f7b4df097720a42e",
    "05_rates_and_hardware.py":
        "d9845c5a4a067b56c82ba3ec8f95e43a6e509f919ebef9dff2fd5fdf9f52e9bf",
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
