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
Every case that emits a key was re-recorded when each Cascade pass came to
place the bits with an affine slot map instead of a random permutation:
sessions and QBER estimates are unchanged, the parities and keys are not
(``ideal_plain_devices`` 146 → 147 parities, ``laser_presets_pns``
49 → 51; the error-free cases only draw other subset masks).
``decoy_beam_split json`` was re-recorded when ``rates.multiphoton_prob``
came to compute the Poisson tail without cancellation (``expm1``): its
``r_gllp`` and ``r_gllp_per_pulse`` moved in the last digit
(…705 → …707, …857 → …8578).
``decoy_beam_split json`` and ``laser_presets_pns json`` were re-recorded
when ``rates.gain_Qmu`` came to compute 1 - (1 - p_dark)^2 e^-mu eta as
``-expm1(2 log1p(-p_dark) - mu eta)`` and ``rates.bound_pns`` as
``-expm1(-mu eta) - multiphoton_prob(mu)``: their ``gain_Qmu`` and
``bound_pns`` (and ``decoy_beam_split``'s ``r_gllp_per_pulse``) moved in
the last one or two digits.
``b92_usd`` and ``decoy_beam_split`` (text and JSON) were re-recorded when
line loss came to be drawn once, in Bob's ``click_law``: the attacks no
longer draw a forward binomial or a throttle uniform, so their sessions
draw other streams from the same law (``b92_usd`` 326 → 297 detections,
``decoy_beam_split`` 1121 → 1141).

Run as a script, this file prints ``GOLDEN`` recomputed.
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
        "e2f0841046ff6a6b38caed20e662103b6d5c7e374e0e374d0fdd281a6a8710fb",
    "b92_usd json":
        "dee6e22ada951670f53587994ecebac95d0ea90fb29232ec1e197cc44af40b94",
    "decoy_beam_split text":
        "77486c9f47b5feca01e49a370565f77e1b5f2bd2d775c1b4b6c0d08b8a8fdceb",
    "decoy_beam_split json":
        "b4e4e6582b17c1af9db9bce1fbdd7cd5b60acd1770b1dcb381732fb3f9f127d7",
    "e91_defaults text":
        "504076505273163cbe72ff0782202990ecb3a7d7329b627d59e3696f317b583c",
    "e91_defaults json":
        "5504f2664d8218a6564f97ffc1e31758051e7226cdd50aff99b64b5c974f5e7a",
    "heralded_fixed_basis text":
        "dc04fad1b2ab8531599a8c9d6c1906bb250934fe625c1ebc3fa57ca8d1658032",
    "heralded_fixed_basis json":
        "d5d6413b563206fba44b6a06011f5412fbc031eb03c5e1d9332d7702fe665a01",
    "ideal_plain_devices text":
        "8a662bd0d7cddd90d2eabf0cecde1c013f04c243d6dabb744130ac2d86953250",
    "ideal_plain_devices json":
        "567cfef697f3f648ad423a9588c0022bb64467558107b906cbd746fd4a5319ab",
    "laser_presets_pns text":
        "a1a0dfb022d4de4213af93c2d81bcdb50a388441588359037a833573d38e8e1a",
    "laser_presets_pns json":
        "39cd4820599462720c5d478afc86f97161327601f86cb3e470adcfa0967eb0eb",
    "sarg_uniform_intercept text":
        "de1b15f3a6f0fb15589847b5cca59bc2dba96baa202777a3f500e81f44d131ad",
    "sarg_uniform_intercept json":
        "2fe37a345d325b4bdb71e36f6c315a15e5478afc01ea82c2ca388ccc0a0776d8",
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
