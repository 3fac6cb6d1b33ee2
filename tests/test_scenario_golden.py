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
        "abb1e87ad3da60576df191abf07acaf97cc24dbf8f62216fdf941b037a2370e5",
    "b92_usd json":
        "17136c754a9da356fd92a90f25e7f54200d466c5d78e221e59560bcbe4ba48b4",
    "decoy_beam_split text":
        "04cd6cb4d2f4a0c711c580bd616f9829d50adf45dde29168c825bfa48f6e1c11",
    "decoy_beam_split json":
        "331d7818e9c4c1b0ed0a52cafc265bed02b48880a84784996aeb3644a2c6a38e",
    "e91_defaults text":
        "3835f4705d953cc1f462779c4d0810303e6b52ed363c8c40a35cee358f2f18c1",
    "e91_defaults json":
        "9c9b1661dac06974251c753465c7d8828b436848b4ecdc638331dc663b95f901",
    "heralded_fixed_basis text":
        "6d37f6fee9c070d86ec3321200c182bf03cedbd3ef896c8c750075662ff11d65",
    "heralded_fixed_basis json":
        "4618c40e547eebc74d851f1b2267b8d0cfd27b3b77389b004c23d3a1797a4e8a",
    "ideal_plain_devices text":
        "d8a13e0ef8bddabb197829cd1133320fe347f136a537abb820f122ef6696972f",
    "ideal_plain_devices json":
        "e2e2cb5308a8b6c553ae725949f2a8420f51861244fff91aebe69c8aa9f3117e",
    "laser_presets_pns text":
        "791b0384a902bef69bf196f817456d7fde29740ff9b742727188b15cc86b0d5a",
    "laser_presets_pns json":
        "0ae9e10dc4096018987d89e407c87a622eb210cde43e47a6b1e4451e940fcd59",
    "sarg_uniform_intercept text":
        "911ff63d319311c954751fc3c811ab4d7420053d7bd52070b64d6efb6e25401b",
    "sarg_uniform_intercept json":
        "ed9b357230f9c658ad42dac759cc0e495847c6c1da057579fdf49a73cc293f25",
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
