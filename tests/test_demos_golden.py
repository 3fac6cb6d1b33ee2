"""Golden SHA-256 digests of each demo's stdout.

Every demo is seeded, so its output is a fixed function of the library.
The digests were recorded with numpy 2.4; a change that alters any of
them changes a printed figure and must be re-recorded on purpose.
"""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

GOLDEN = {
    "01_protocol_zoo.py":
        "7392c583917802cd40b2946eaf7d273df41235cc52f11b437bc2a8f73c155324",
    "02_eavesdropping.py":
        "d06396a3ecb496dfd7bde8be97bea936ecc519e429d3536dafe450d5b345f6bf",
    "03_key_distillation.py":
        "b0699d0fac81816b6cf32246291a5dc50b8baaba33cd58d6ad0508c9ab0c399a",
    "04_bell_test.py":
        "a291d44fe21d2364f6edb12b913ea6d4e8e1138c6211070696134509ad5f2528",
    "05_rates_and_hardware.py":
        "13107e851e62fb8d1d9a79e623906cc59d26cb2c8d024c9af81bd19037f87d4c",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_output_matches_golden_digest(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[name]
