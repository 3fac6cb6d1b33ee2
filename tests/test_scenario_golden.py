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
Every case that emits a key (all but ``heralded_fixed_basis``) was
re-recorded when reconciliation became Cascade with backtracking: it
discloses fewer parities, or as many on an error-free key, and draws its
subset masks as packed bytes, so the keys differ.
``decoy_beam_split json`` and ``laser_presets_pns json`` were re-recorded
when ``rates.gain_Qmu`` became the closed form of its Poisson sum, not a
sum cut at n = 25: their ``gain_Qmu`` moved in the last digit.
``sarg_uniform_intercept`` (text and JSON) was re-recorded when Bob's sift
and Eve's knowledge came to share one readout table: only its
``eve_known_fraction`` moved, 0.339 to 0.494.
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
                     "safety_bits": 20, "max_passes": 6,
                     "subset_clean_target": 15},
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
        "postproc": {"max_passes": None},
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
        "1cb18eb5687f130534fb2d72ecee296ddc792f1b1fa0abb43b0541f4a94b00ad",
    "b92_usd json":
        "2723d63255cf66745757ac17acd362e487772dcd07baca46bbe7a415708859b5",
    "decoy_beam_split text":
        "188de2803b20a589d958b33433c162da48ee3f80bfa12dab51c9412770fac34d",
    "decoy_beam_split json":
        "175628422f1a2865a1c992a2d110c640d4e4573b428f8f2da199ad6c0aba6f88",
    "e91_defaults text":
        "8922b14e3e465b18f3882c2ba33befa5124d6083b5d449663ef70119de159c6c",
    "e91_defaults json":
        "b51173395834da8e48a818d1de0e233caafa54475c4571d28f268bac13576fdd",
    "heralded_fixed_basis text":
        "dc04fad1b2ab8531599a8c9d6c1906bb250934fe625c1ebc3fa57ca8d1658032",
    "heralded_fixed_basis json":
        "d5d6413b563206fba44b6a06011f5412fbc031eb03c5e1d9332d7702fe665a01",
    "ideal_plain_devices text":
        "f2be034ca6381ff1ee3bab7704b4ddf9f41ba9c62a6a0c0a4789642a0db42e52",
    "ideal_plain_devices json":
        "ff3aac6652b15448490d68fcedf196916252ab2bb3a40abc9f3e09baf282e163",
    "laser_presets_pns text":
        "6f8433bbc76af02633e399a6955d1004f8678e9d63cfe50da43cea6167390c2e",
    "laser_presets_pns json":
        "8243b8c1913db76925fe83b9ce9452bcdb8a4092059a8959fca7d0dc3dfc3ae1",
    "sarg_uniform_intercept text":
        "d6a2739b5ed80f78bf2455123a3afc555df765897a61ca7d25fa46841e74322c",
    "sarg_uniform_intercept json":
        "8f04ebbfb4f39f82d8da0f063d4b0d98b2184d9067f8fe513d2e531a6d32dcdc",
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
