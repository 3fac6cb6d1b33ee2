import math

import pytest

from qkdsim.bell import (MAXIMAL_SETTINGS, SETTING_PAIRS, TSIRELSON,
                         ChshSettings, chsh_analytic, chsh_estimate)
from qkdsim.quantum import sample_singlet
from qkdsim.rng import make_rng


def test_maximal_settings_hit_tsirelson():
    assert chsh_analytic(MAXIMAL_SETTINGS) == TSIRELSON


def test_aligned_settings_stay_classical():
    s = ChshSettings(0.0, 90.0, 0.0, 90.0)
    assert chsh_analytic(s) <= 2.0 + 1e-12


def _singlet_samples(settings, per_pair, rng):
    samples = {}
    for pa, pb in SETTING_PAIRS:
        cos = math.cos(math.radians(getattr(settings, pa)
                                    - getattr(settings, pb)))
        a, b = sample_singlet(cos, rng, size=per_pair)
        samples[(pa, pb)] = a * b
    return samples


def test_estimate_recovers_analytic_value():
    rng = make_rng(1)
    samples = _singlet_samples(MAXIMAL_SETTINGS, 200000, rng)
    s_hat, stderr = chsh_estimate(samples)
    assert abs(s_hat - TSIRELSON) < 4 * stderr
    assert stderr < 0.01


def test_estimate_stderr_scales_inverse_sqrt():
    rng = make_rng(2)
    _, se_small = chsh_estimate(_singlet_samples(MAXIMAL_SETTINGS, 1000, rng))
    _, se_big = chsh_estimate(_singlet_samples(MAXIMAL_SETTINGS, 100000, rng))
    assert se_big < se_small / 5


def test_estimate_rejects_thin_pairs():
    rng = make_rng(3)
    samples = _singlet_samples(MAXIMAL_SETTINGS, 150, rng)
    samples[("n1p", "n2p")] = samples[("n1p", "n2p")][:10]
    with pytest.raises(ValueError, match="n1p"):
        chsh_estimate(samples)


def test_analytic_varies_smoothly_with_geometry():
    # rotating one analyzer away from optimal lowers S
    s = ChshSettings(90.0, 0.0, 25.0, 135.0)
    assert chsh_analytic(s) < TSIRELSON
