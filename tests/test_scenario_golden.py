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
2.82842712474619.  Every case but ``e91_defaults`` was re-recorded when
each pulse's click came to be drawn from its exact law
(``quantum.click_law``, one uniform per pulse): the draws differ, the
distributions do not.  ``e91_defaults`` was re-recorded again when E91
came to run on the prepare-and-measure engine, for the same reason.
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
        "a9117916d1df4679ffdb9bddb00d18634390fab5f1adf0edc570fefb06e1f86c",
    "b92_usd json":
        "4a7a48fefa7a356564b57c0cc21c03ecb6bc6538856f7f91ce5295bcc9554931",
    "decoy_beam_split text":
        "645e7a1415c352e987078fabf42f4683f63d97dbd8544524a64a7c9ec3d4412f",
    "decoy_beam_split json":
        "98d815e6ca2f678e34c5b41a671662d161d8861ed9b8cb47aec7a97263829042",
    "e91_defaults text":
        "71c8d716d28db79807a5df48bf3de25d8ec655d95365ef58b64bf8e9be8e0065",
    "e91_defaults json":
        "947d5e9c548b760ba93b9b80c63f0de8228f6297962e5a67188d5b4b22b36caf",
    "heralded_fixed_basis text":
        "dc04fad1b2ab8531599a8c9d6c1906bb250934fe625c1ebc3fa57ca8d1658032",
    "heralded_fixed_basis json":
        "d5d6413b563206fba44b6a06011f5412fbc031eb03c5e1d9332d7702fe665a01",
    "ideal_plain_devices text":
        "59d69322cb6b30a0ea087b294105af1de0acbaff7d45de15b46daed81ce8caa7",
    "ideal_plain_devices json":
        "511ea7759baf04fb661757bf630e35751159c161c68f8e601f5a6d15d204b9c2",
    "laser_presets_pns text":
        "e944f555d947a38f7379ea8c67081f869a6db079cb9fc26890d6c2db949287b7",
    "laser_presets_pns json":
        "4bc9292eace329a7de1802ff2c05d685f314026ef30328a330f8d81aedd06bc6",
    "sarg_uniform_intercept text":
        "38a6f0af56f9666305701bcd2ebe9a2dab6482a97a9c1c4428a313efea8e18ee",
    "sarg_uniform_intercept json":
        "b94224b558d55e7b3dd1e7fdacf8482925f0efd159580896a52e3f39f3fe8ac3",
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
