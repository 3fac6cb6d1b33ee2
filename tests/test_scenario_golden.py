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
Every case was re-recorded when ``derive_rng`` came to seed PCG64DXSM
through numpy's ``SeedSequence`` spawn tree instead of Philox, and
``random_bits`` to draw eight bits to a byte of the stream: the draws
differ, the distributions do not (``heralded_fixed_basis`` still aborts at
estimation, at 0.381 instead of 0.524; ``ideal_plain_devices`` key 595 →
584 bits).

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
        "ca614c94ad85e46f3c21ccecf8b0a92875841b4c926dea9f9a72b67d182273e2",
    "ideal_plain_devices json":
        "13232c47ea075f34161d82b9a0b2f341a65a7a61de777d5c616f54711ccca9dd",
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
