"""Golden SHA-256 digests of ``qkdsim run`` over scenarios that use every
scenario section and field.

The cases cover each source kind; channel and detector with and without a
preset, with detector overrides; every ``eve`` and ``postproc`` field; and
integer-valued numbers where floats are usual (``"length_km": 25``,
``"mu": 1``, ``"efficiency": 1``, ``"num_pulses": 3e3``).  Text and JSON
output, exit code and stderr are hashed together.  The digests were
recorded with numpy 2.4 by the hand-written section parsers that the
dataclass-driven section builder replaced; they pin that every output
stayed byte-identical.  A channel preset with an ``attenuation_db_per_km``
override is left out: the old parsers dropped that override.
``ideal_plain_devices text`` was re-recorded once since, when every
``float`` field came to be read as a float: ``"dark_prob": 0`` now prints
as ``p_dark = 0.0``.  ``laser_presets_pns json`` was re-recorded when
``rates.yield_Yn`` took the simulator's two-detector dark-count convention:
its ``gain_Qmu`` moved in the seventh significant digit.
``ideal_plain_devices`` (text and JSON) was re-recorded when the
``detector.double_click_policy`` and ``postproc.auth_prime`` fields were
removed: its input dropped both, and the default 61-bit authentication
prime draws other random bits than the 31-bit one it had set, so its key
differs.  ``e91_defaults`` (text and JSON) was re-recorded when the CHSH
settings became angles: ``analytic_max`` reads 2.8284271247461903, equal
to ``bell.TSIRELSON``, where the 3-vector dot products gave
2.82842712474619.
"""

import hashlib
import json

import pytest

from qkdsim.cli import main

SCENARIOS = {
    "ideal_plain_devices": {
        "protocol": "bb84", "num_pulses": 3000, "seed": 7, "basis_bias": 0.6,
        "source": {"kind": "ideal"},
        "channel": {"length_km": 10, "attenuation_db_per_km": 0.2,
                    "misalignment_error_prob": 0.02},
        "detector": {"efficiency": 1, "dark_prob": 0},
        "eve": {"kind": "none"},
        "postproc": {"sample_fraction": 0.15, "qber_abort_threshold": 0.11,
                     "safety_bits": 20, "eve_bound": "entropy",
                     "max_passes": 6, "subset_clean_target": 15},
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
        "postproc": {"eve_bound": "two_epsilon", "max_passes": None},
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
        "a5e8e0cf4dbee45e0b7808862a008407151f2c4705f48485005e950a358a0da4",
    "b92_usd json":
        "632de3e9904539225b392e08115fcc5d4d611b3e56861ba68023262bf1ba33b9",
    "decoy_beam_split text":
        "0afd0812ba0119f4feb5fe295be7b8d112856ecbeaa66fb412f3034d0cc10bd7",
    "decoy_beam_split json":
        "d9def38ff3a0ecf47ab5315367d64c81a44b6f5b0df8407575dcaf49758aab4e",
    "e91_defaults text":
        "d941287b3469ab106c166f8a293f5a8cf6a8f3b560e0048206881791322b5bed",
    "e91_defaults json":
        "7b7b9dd1c64ebe2f52855ce19f1c9b9e57a43334f12377521ba95049d878a877",
    "heralded_fixed_basis text":
        "2542807d12cdaa63c2701f1cd590bb98e930961ef36708131283edf26f7bd3a8",
    "heralded_fixed_basis json":
        "263c84a08a84948f8ee037b5149dac8f7f9513aff49ad7e9a3a2bf513acba93b",
    "ideal_plain_devices text":
        "a87b743987e90c99d41168759c5d77c7e770a7a0f7e9097c53c98806648230c7",
    "ideal_plain_devices json":
        "22b2330f73e06b15ae6d17548275dce1d229673c3926c2deed54bc8317e2ad29",
    "laser_presets_pns text":
        "56ace6110b6eb22380b45310949f2a1fcc5b17409c3d4b1abb6a25d8d5683c2f",
    "laser_presets_pns json":
        "f67ebefb466faaa072550d5975187586f926b23f87762beb47b30f6bec94f259",
    "sarg_uniform_intercept text":
        "8f57468bbc3d1a7d63c4ad321725461bea747e53ed79045127d9d61a38c67e07",
    "sarg_uniform_intercept json":
        "e5026d6a31423b9e76fbc7f1c93fc914864a327a3ba662f042370a31f44946c2",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_run_output_matches_golden_digest(name, fmt, tmp_path, capsys):
    path = tmp_path / f"{name}.cfg"
    path.write_text(json.dumps(SCENARIOS[name]))
    code = main(["run", str(path), "--format", fmt])
    out = capsys.readouterr()
    blob = f"{code}\n{out.out}\n--stderr--\n{out.err}"
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN[f"{name} {fmt}"]
