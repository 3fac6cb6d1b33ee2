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
        "0cfb519fecf1bca00e19d038ced6b2b527d3b2530f92853d6ff5a340e1ef8f6e",
    "b92_usd json":
        "a8ce6a5f9cd60326135f3e3a9c8dd7502c04a7ec632567f26968bec091f83626",
    "decoy_beam_split text":
        "13ce0758cd69ce91e1c6cbca55886d2902c9e2be4305a845bb7af5aaa9c1d68a",
    "decoy_beam_split json":
        "7c16acc6b26375f6ab82d0f7b7cefc8b764759820193324d6e4e4b8024a246ef",
    "e91_defaults text":
        "fd3c75aca55086b62d068ead94735e671af665957ceb18d7f4e8a62e8c182ba7",
    "e91_defaults json":
        "c857223cffc6956bef139df9d93f94d4cf64bc6b9913b2c6e2220c8d49cd476d",
    "heralded_fixed_basis text":
        "37b32612573db7cb430c5f8cc6e2ea742f1413f9b51cae71a82d500a962e9279",
    "heralded_fixed_basis json":
        "91cfefcc318c9ba0f98e694116be42b86c0439283aea0d45fc0768833ca4d6dc",
    "ideal_plain_devices text":
        "156ec9130d31866de339088f90ee273f8dcddbfc2addef3128bbfd398244ccfa",
    "ideal_plain_devices json":
        "37b94290180f6fdff4bf6c29cb3c648e19418d01eab31c90aafcb25e35711135",
    "laser_presets_pns text":
        "2c416fe4e6bbf1a10d613b69cfef8c170b522a60aeace54bafc21b9446397412",
    "laser_presets_pns json":
        "a2fd0f94ea782a7fdd50e9c94b5d874bbb4eb1b15ded55f45796b2c7e8859876",
    "sarg_uniform_intercept text":
        "0e3dec24a8db66b6c6526f10d50e27238f71a5376b10207ed67c162e0551b425",
    "sarg_uniform_intercept json":
        "236bade77b28c6547c0e8f4b87da7d798b689efc88a4ac7d6127b4a0a6769e33",
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
