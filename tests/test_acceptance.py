"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible under pytest -s) and asserts
the same condition, so the suite both reports and enforces the contract.
"""

import itertools
import math

import numpy as np

from qkdsim.adversary import EveStrategy, NO_EVE
from qkdsim.bell import TSIRELSON, chsh_estimate
from qkdsim.bits import BitString, random_bits
from qkdsim.cli import main as cli_main
from qkdsim.postproc import advantage_distill, bbbss_correct
from qkdsim.protocols import ProtocolConfig, run_session
from qkdsim.quantum import (ChannelModel, DetectorModel, SourceModel,
                            photon_pmf, sample_photon_number)
from qkdsim.rates import (binary_entropy, decoy_estimate, optimize_mu,
                          gllp_pulse_rate, shor_preskill_cutoff,
                          usd_threshold, yield_Yn)
from qkdsim.rng import derive_rng
from reference import parity_knowledge

IDEAL = SourceModel.ideal()
CLEAN = ChannelModel()
PERFECT = DetectorModel()


def check(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {description} {detail}".rstrip())
    assert ok, f"criterion {num}: {description} {detail}"


def session(protocol, pulses, seed, *, src=IDEAL, ch=CLEAN, det=PERFECT,
            eve=NO_EVE, **kwargs):
    cfg = ProtocolConfig(protocol, pulses, **kwargs)
    return run_session(cfg, src, ch, det, eve, derive_rng(seed, 0))


def test_criterion_1_bb84_intercept_resend_qber():
    t = session("bb84", 250000, 101, eve=EveStrategy("intercept_resend"))
    n_sift = len(t.sifted_alice)
    check(1, "BB84 intercept-resend QBER 0.25 +/- 0.005 on >= 1e5 sifted bits",
          n_sift >= 100000 and abs(t.qber - 0.25) < 0.005,
          f"(sifted={n_sift}, qber={t.qber:.4f})")


def test_criterion_2_six_state_statistics():
    attacked = session("six_state", 350000, 102,
                       eve=EveStrategy("intercept_resend"))
    honest = session("six_state", 350000, 103)
    ok = (abs(attacked.qber - 1 / 3) < 0.01
          and abs(honest.sifted_fraction - 1 / 3) < 0.005)
    check(2, "six-state intercept QBER 1/3 +/- 0.01, honest sift 1/3 +/- 0.005",
          ok, f"(qber={attacked.qber:.4f}, sift={honest.sifted_fraction:.4f})")


def test_criterion_3_poisson_photon_statistics():
    draws = sample_photon_number(photon_pmf(SourceModel.laser(0.1)),
                                 derive_rng(104), size=1000000)
    p0 = (draws == 0).mean()
    p1 = (draws == 1).mean()
    pm = (draws >= 2).mean()
    ok = (abs(p0 - 0.905) < 0.002 and abs(p1 - 0.090) < 0.002
          and abs(pm - 0.005) < 0.002)
    check(3, "Poisson mu=0.1 p(0)/p(1)/p_multi = 0.905/0.090/0.005 +/- 0.002",
          ok, f"(p0={p0:.4f}, p1={p1:.4f}, pm={pm:.4f})")


def test_criterion_4_chsh_honest_and_attacked():
    honest = session("e91", 1000000, 105)
    s_honest, _ = chsh_estimate(honest.chsh_samples)
    attacked = session("e91", 1000000, 106,
                       eve=EveStrategy("intercept_resend"))
    s_attacked, _ = chsh_estimate(attacked.chsh_samples)
    ok = abs(s_honest - TSIRELSON) < 0.02 and s_attacked <= 2.02
    check(4, "CHSH: honest S = 2*sqrt(2) +/- 0.02, intercepted S <= 2.02",
          ok, f"(S_honest={s_honest:.4f}, S_attacked={s_attacked:.4f})")


def test_criterion_5_reconciliation_quality():
    n, eps, trials = 10000, 0.03, 100
    equal = 0
    leaked = []
    for i in range(trials):
        rng = derive_rng(107, i)
        a = random_bits(n, rng)
        flips = (rng.random(n) < eps).astype(np.uint8)
        b = BitString.from_array(a.to_array() ^ flips)
        rec = bbbss_correct(a, b, eps, rng)
        equal += rec.corrected_alice == rec.corrected_bob
        leaked.append(rec.leaked_bits)
    shannon = n * binary_entropy(eps)
    mean_leaked = float(np.mean(leaked))
    ok = equal >= 99 and mean_leaked >= shannon
    check(5, "reconciliation: >= 99/100 equal keys, mean leak >= n*h(0.03)",
          ok, f"(equal={equal}/100, leaked={mean_leaked:.0f} >= {shannon:.0f})")


def test_criterion_6_parity_knowledge_decay():
    worst = 0.0
    for eps, n in itertools.product((0.2, 0.5), (2, 3, 5)):
        p = (1 + eps) / 2
        enumerated = sum(
            (1 - p) ** sum(pat) * p ** (n - sum(pat))
            for pat in itertools.product((0, 1), repeat=n)
            if sum(pat) % 2 == 0)
        target = (1 + eps ** n) / 2
        worst = max(worst, abs(parity_knowledge(p, n) - enumerated),
                    abs(parity_knowledge(p, n) - target))
    check(6, "parity decay p' = (1 + eps^N)/2 matches exhaustive enumeration",
          worst < 1e-12, f"(max deviation {worst:.2e})")


def test_criterion_7_advantage_distillation_matches_enumeration():
    rng = derive_rng(108)
    all_ok = True
    details = []
    for eps, N in itertools.product((0.25, 0.4), (2, 3, 5)):
        nblocks = 100000
        a = random_bits(nblocks * N, rng)
        flips = (rng.random(nblocks * N) < eps).astype(np.uint8)
        b = BitString.from_array(a.to_array() ^ flips)
        new_a, new_b, accepted = advantage_distill(a, b, N, rng)
        p_acc = eps ** N + (1 - eps) ** N
        cond = eps ** N / p_acc
        sig_acc = math.sqrt(p_acc * (1 - p_acc) / nblocks)
        n_acc = int(accepted.sum())
        sig_cond = math.sqrt(cond * (1 - cond) / n_acc)
        err = (new_a.to_array() != new_b.to_array()).mean()
        ok = (abs(accepted.mean() - p_acc) < 5 * sig_acc
              and abs(err - cond) < 5 * sig_cond)
        all_ok &= ok
        if not ok:
            details.append(f"eps={eps},N={N}")
    check(7, "advantage distillation matches i.i.d. enumeration within 5 sigma",
          all_ok, f"({'; '.join(details) or 'all 6 parameter points'})")


def test_criterion_8_rate_formula_checks():
    cutoff = shor_preskill_cutoff()
    r1 = gllp_pulse_rate(1e-3, 1e-3, 0.0, 0.0)
    r2 = gllp_pulse_rate(1e-1, 1e-1, 0.0, 0.0)
    slope = (math.log(r2) - math.log(r1)) / (math.log(1e-1) - math.log(1e-3))
    mu_ok = all(eta / 2 < optimize_mu(eta, 0.0, 0.0).mu < eta * 2
                for eta in (1e-3, 1e-2, 1e-1))
    ok = 0.105 < cutoff < 0.115 and abs(slope - 2.0) < 0.1 and mu_ok
    check(8, "cutoff ~ 0.11, weak-pulse rate ~ eta^2, mu* within 2x of eta",
          ok, f"(cutoff={cutoff:.4f}, slope={slope:.3f}, mu_ok={mu_ok})")


def test_criterion_9_decoy_detects_pns():
    mu_s, mu_d, p_dark = 0.5, 0.05, 1e-5
    ch = ChannelModel(length_km=50.0, attenuation_db_per_km=0.2)  # eta 0.1
    det = DetectorModel(efficiency=1.0, dark_prob=p_dark)
    src = SourceModel.laser(mu_s)
    kwargs = dict(signal_mu=mu_s, decoy_mu=mu_d, decoy_fraction=0.3)

    def estimate(transcript):
        st = transcript.intensity_stats
        qs, qd = st["signal"]["gain"], st["decoy"]["gain"]
        ns, nd = st["signal"]["sent"], st["decoy"]["sent"]
        est = decoy_estimate(qs, qd, mu_s, mu_d, p_dark)
        pref = mu_s / (mu_s * mu_d - mu_d ** 2)
        var = ((pref * math.exp(mu_d)) ** 2 * qd * (1 - qd) / nd
               + (pref * math.exp(mu_s) * (mu_d / mu_s) ** 2) ** 2
               * qs * (1 - qs) / ns)
        return est.Y1, math.sqrt(var)

    honest = session("decoy_bb84", 2000000, 109, src=src, ch=ch, det=det,
                     **kwargs)
    y1_honest, _ = estimate(honest)
    y1_true = yield_Yn(1, ch.transmittance, p_dark)
    attacked = session("decoy_bb84", 2000000, 110, src=src, ch=ch, det=det,
                       eve=EveStrategy("pns", block_single_prob=1.0), **kwargs)
    y1_att, sigma = estimate(attacked)
    deviation = abs(y1_att - y1_true) / sigma
    ok = abs(y1_honest - y1_true) / y1_true < 0.05 and deviation > 5.0
    check(9, "decoy: honest Y1 within 5%, PNS-attacked Y1 off by > 5 sigma",
          ok, f"(honest rel err {abs(y1_honest - y1_true) / y1_true:.3f}, "
              f"attack deviation {deviation:.1f} sigma)")


def test_criterion_10_usd_attack_on_b92():
    overlap = 2 ** -0.5
    ch = ChannelModel(length_km=10.0, attenuation_db_per_km=0.7)  # eta ~ 0.2
    assert ch.transmittance < usd_threshold(overlap)
    pulses = 500000
    honest = session("b92", pulses, 111, ch=ch, b92_overlap=overlap)
    attacked = session("b92", pulses, 112, ch=ch, b92_overlap=overlap,
                       eve=EveStrategy("usd_b92"))
    p = honest.detection_count / pulses
    sigma = math.sqrt(2 * p * (1 - p) / pulses)
    rate_diff = abs(attacked.detection_count - honest.detection_count) / pulses
    ok = (attacked.qber == 0.0 and rate_diff < 3 * sigma
          and usd_threshold(overlap) == 1.0 - overlap)
    check(10, "USD on B92 below threshold: zero QBER, honest-looking rate, "
              "threshold = 1 - overlap exactly",
          ok, f"(qber={attacked.qber}, rate diff {rate_diff / sigma:.2f} sigma)")


def test_criterion_11_deterministic_reports(tmp_path, capsys):
    outputs = []
    for _ in range(2):
        for name in ("bb84_honest.cfg", "bb84_intercept.cfg"):
            cli_main(["run", f"bundled:{name}", "--seed", "55"])
        cli_main(["sweep", "bundled:bb84_honest.cfg", "--axis", "epsilon",
                  "--start", "0.01", "--stop", "0.05", "--steps", "3",
                  "--pulses", "4000"])
        cli_main(["bell", "bundled:e91_honest.cfg", "--pulses", "20000"])
        outputs.append(capsys.readouterr().out)
    with capsys.disabled():
        check(11, "identical scenario + seed give byte-identical reports",
              outputs[0] == outputs[1] and len(outputs[0]) > 0,
              f"({len(outputs[0])} bytes compared)")
