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
        "abb319c08482d877e7cb40afda578c33cea4c3114260b84da9bfee3c6444170f",
    "02_eavesdropping.py":
        "17db6bdeb4acff0ef706900bd68fdd6a4b3d3cadeadbe5f119b242bcb8f06bb0",
    "03_key_distillation.py":
        "9fd0072f06e73e055c718aea450808071334105795e9b4ba9eae35862296af21",
    "04_bell_test.py":
        "c0da32ca1b88b58cb33e742673c8ab9435369ad0fcc99145e632441edff60ad5",
    "05_rates_and_hardware.py":
        "e0753d6dcd1b4bc805601d90f1b41d611383c627673e7cc17e58f3bf52cc846a",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_output_matches_golden_digest(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[name]
