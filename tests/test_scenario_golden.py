"""Golden SHA-256 digests of ``qkdsim run`` over scenarios that use every
scenario section and field.

The cases cover each source kind; channel and detector with and without a
preset, with detector overrides; every ``eve`` and ``postproc`` field; and
integer-valued numbers where floats are usual (``"length_km": 25``,
``"mu": 1``, ``"efficiency": 1``, ``"num_pulses": 3e3``).  Text and JSON
output, exit code and stderr are hashed together, so a refactor that keeps
seeded outputs byte-identical leaves every digest unchanged.  The digests
depend on numpy's Generator streams and were recorded with numpy 2.4.

A channel preset with an ``attenuation_db_per_km`` override is left out:
the hand-written section parsers these digests were first recorded by
dropped that override, so no digest of it could pin that the code that
replaced them kept every output.

An intended output change re-records the digests it moves and names them
in CHANGES.md.  Run as a script (``python tests/test_scenario_golden.py``),
this file prints ``GOLDEN`` recomputed, ready to paste over the one below.
"""

import json
import tempfile
from pathlib import Path

import pytest

from digest_table import cli_digest, print_table

SCENARIOS = {
    "ideal_plain_devices": {
        "protocol": "bb84", "num_pulses": 3000, "seed": 7, "basis_bias": 0.6,
        "source": {"kind": "ideal"},
        "channel": {"length_km": 10, "attenuation_db_per_km": 0.2,
                    "misalignment_error_prob": 0.02},
        "detector": {"efficiency": 1, "dark_prob": 0},
        "eve": {"kind": "none"},
        "postproc": {"sample_fraction": 0.15, "qber_abort_threshold": 0.11,
                     "safety_bits": 20},
    },
    "laser_presets_pns": {
        "protocol": "bb84", "num_pulses": 3e3, "seed": 8.0,
        "source": {"kind": "laser", "mu": 1},
        "channel": {"preset": "fiber_1550", "length_km": 25,
                    "misalignment_error_prob": 0.01},
        "detector": {"preset": "si_apd", "dark_prob": 1e-7},
        "eve": {"kind": "pns", "block_single_prob": 0.5},
    },
    "heralded_fixed_basis": {
        "protocol": "six_state", "num_pulses": 3000, "seed": 9,
        "source": {"kind": "heralded", "herald_efficiency": 0.7,
                   "multi_pair_prob": 0.05},
        "channel": {"preset": "lossless"},
        "detector": {"preset": "ingaas_peltier", "efficiency": 0.3},
        "eve": {"kind": "intercept_resend", "fixed_basis": 1},
    },
    "decoy_beam_split": {
        "protocol": "decoy_bb84", "num_pulses": 4000, "seed": 10,
        "signal_mu": 0.6, "decoy_mu": 0.1, "decoy_fraction": 0.2,
        "source": {"kind": "laser", "mu": 0.6},
        "channel": {"preset": "fiber_1300", "length_km": 5},
        "eve": {"kind": "beam_split", "tap_ratio": 0.3},
    },
    "b92_usd": {
        "protocol": "b92", "num_pulses": 3000, "seed": 11,
        "b92_overlap": 0.5,
        "source": {},
        "channel": {"length_km": 40, "attenuation_db_per_km": 0.25},
        "detector": {"preset": "ideal"},
        "eve": {"kind": "usd_b92"},
    },
    "sarg_uniform_intercept": {
        "protocol": "sarg", "num_pulses": 3000, "seed": 12,
        "eve": {"kind": "intercept_resend", "fixed_basis": None},
        "postproc": {"qber_abort_threshold": 0.5},
    },
    "e91_defaults": {"protocol": "e91", "num_pulses": 3000, "seed": 13},
}

GOLDEN = {
    "b92_usd text":
        "6264c1626b259ca212d9619ef03afb3a652c4249eb195e64261ac08cc999ff0a",
    "b92_usd json":
        "24354f3ed3819ff76601a93bf7f9bf2a50e739b810bbee92dd8da388596aa254",
    "decoy_beam_split text":
        "ee1f54f90e90292510868dd875261e2d88e255ede52c13420fc100f555d667ed",
    "decoy_beam_split json":
        "08fdca3d8493a244eb1ab68e571841a89df309adf175eaa8997b93bba8304e23",
    "e91_defaults text":
        "fe401ea0518e65adf12218307957804c79b551b8e08ee7560ea388ea4f50d7f1",
    "e91_defaults json":
        "b4746ce9bd7828a419b158b298f58992953a5b817d1542acca369d22fbe6a438",
    "heralded_fixed_basis text":
        "e8cdbefdbb09c3a6fb6fc6b79c21e619a6a5817f33f2d81d4b1d0019488961d4",
    "heralded_fixed_basis json":
        "af759e10a3a33883d3cc0fcfbc6b40c34a6d7f33b2d45b99620f2534528f40fd",
    "ideal_plain_devices text":
        "3cd1b8f8cb14be64a0dc5666224d85d4bdfbb725b67559a1964887a1e8615840",
    "ideal_plain_devices json":
        "dda97a9022273a8f359723003c81afd484cf5fc5c76c0e83289d6436cf8fe82a",
    "laser_presets_pns text":
        "0555c0949313882a73d0139aa7e478ff41a2ede45a365e2939f1c0c084692d07",
    "laser_presets_pns json":
        "e7595e0f16b74292c104975debec13cf263b855e6362244d7f54bf647a08d5bd",
    "sarg_uniform_intercept text":
        "c85678e2e0be21666f8ce2bd480ddecd8482b941a34152e600a95f8c29485694",
    "sarg_uniform_intercept json":
        "e4919390c56475c30ddd53f15dac868855982bf744ad394c8442413145e953de",
}


def run_digest(name, fmt) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.cfg"
        path.write_text(json.dumps(SCENARIOS[name]))
        return cli_digest(["run", str(path), "--format", fmt])


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_run_output_matches_golden_digest(name, fmt):
    assert run_digest(name, fmt) == GOLDEN[f"{name} {fmt}"]


if __name__ == "__main__":
    print_table("GOLDEN", {f"{name} {fmt}": run_digest(name, fmt)
                           for name in sorted(SCENARIOS)
                           for fmt in ("text", "json")})
