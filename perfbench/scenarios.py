"""Benchmark workloads: the scenarios each one cycles through, how one
scenario runs through the public qkdsim API, the checks on its output, and
the closed loop that runs them.

A scenario is one session plus its post-processing pipeline, its analytic
cross-check where it has one, and its output checks.  Scenario i of a run
draws from ``derive_rng(seed, i, 0)`` for the session and
``derive_rng(seed, i, 1)`` for the pipeline, as ``qkdsim sweep`` does.
"""

from __future__ import annotations

import math
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from qkdsim import (NO_EVE, ChannelModel, DetectorModel, EveStrategy,
                    PipelineParams, ProtocolConfig, SourceModel,
                    binary_entropy,
                    channel_preset, chsh_estimate, decoy_estimate,
                    derive_rng, detector_preset, evaluate_rates, gain_Qmu,
                    run_pipeline, run_session)

from spans import NullTracer, instrument

PARAMS = PipelineParams()
# Statistical checks allow this many standard deviations.  Every check of
# every scenario of every run must pass, so a tighter limit would fail on
# chance alone over a few thousand checks.
Z_LIMIT = 5.0
INTERCEPT_RESEND = EveStrategy("intercept_resend")
INTERCEPT_RESEND_QBER = 0.25


@dataclass(frozen=True)
class Scenario:
    label: str
    cfg: ProtocolConfig
    src: SourceModel
    ch: ChannelModel
    det: DetectorModel
    eve: EveStrategy = NO_EVE

    @property
    def honest(self) -> bool:
        return self.eve.kind == "none"


def bb84_recon(pulses: int) -> list[Scenario]:
    return [Scenario(
        "bb84_honest", ProtocolConfig("bb84", pulses), SourceModel.ideal(),
        channel_preset("lossless", misalignment_error_prob=0.02),
        detector_preset("ideal"))]


def decoy_sweep(pulses: int) -> list[Scenario]:
    cfg = ProtocolConfig("decoy_bb84", pulses, signal_mu=0.8, decoy_mu=0.12,
                         decoy_fraction=0.12)
    det = detector_preset("ingaas_peltier")
    return [Scenario(f"decoy_{km}km", cfg, SourceModel.laser(cfg.signal_mu),
                     channel_preset("fiber_1550", km,
                                    misalignment_error_prob=0.01), det)
            for km in range(0, 100, 10)]


def eve_detect(pulses: int) -> list[Scenario]:
    lossless = channel_preset("lossless")
    ideal = detector_preset("ideal")
    return [
        Scenario("bb84_intercept", ProtocolConfig("bb84", pulses),
                 SourceModel.ideal(), lossless, ideal, INTERCEPT_RESEND),
        Scenario("e91_intercept", ProtocolConfig("e91", pulses),
                 SourceModel.ideal(), lossless, ideal, INTERCEPT_RESEND),
    ]


# name -> (function making the scenario list, pulses per scenario)
WORKLOADS = {
    "bb84_recon_200k": (bb84_recon, 200_000),
    "decoy_sweep": (decoy_sweep, 2_000_000),
    "eve_detect": (eve_detect, 4_000_000),
}


def build(workload: str, scale: float = 1.0) -> list[Scenario]:
    make, pulses = WORKLOADS[workload]
    return make(max(1, round(pulses * scale)))


@dataclass
class Outcome:
    seconds: float
    pulses: int
    failures: list = field(default_factory=list)
    digest: tuple = ()


def run_scenario(sc: Scenario, seed: int, index: int, tracer) -> Outcome:
    """Run and check one scenario; its host seconds cover the session, the
    pipeline and the checks."""
    tracer.scenario = index
    t0 = perf_counter()
    with tracer.span("protocols.session"):
        transcript = run_session(sc.cfg, sc.src, sc.ch, sc.det, sc.eve,
                                 derive_rng(seed, index, 0))
    with tracer.span("postproc.pipeline"):
        result = run_pipeline(transcript, PARAMS, derive_rng(seed, index, 1))
    failures = _check_key(sc, transcript, result)
    if transcript.chsh_samples is not None:
        with tracer.span("bell.chsh"):
            s_hat, _ = chsh_estimate(transcript.chsh_samples)
        if not s_hat < 2.0:
            failures.append(f"CHSH S = {s_hat:.3f} is not below 2")
    if transcript.intensity_stats is not None:
        with tracer.span("rates.crosscheck"):
            failures += _check_decoy(sc, transcript, result)
    seconds = perf_counter() - t0
    if tracer.enabled:
        _count(tracer, sc, transcript, result)
    return Outcome(seconds, sc.cfg.num_pulses, failures,
                   (len(transcript.sifted_alice), result.final_length,
                    result.leaked_bits, result.abort_stage))


def expected_qber(sc: Scenario) -> float:
    """Sifted error rate predicted from misalignment and dark counts.

    A photon click is wrong with the misalignment probability; a click
    from dark counts alone is wrong half the time.
    """
    eta = sc.ch.transmittance * sc.det.efficiency
    dark = 1.0 - (1.0 - sc.det.dark_prob) ** 2
    if sc.cfg.protocol == "decoy_bb84":
        f = sc.cfg.decoy_fraction
        mix = [(1.0 - f, 1.0 - math.exp(-sc.cfg.signal_mu * eta)),
               (f, 1.0 - math.exp(-sc.cfg.decoy_mu * eta))]
    else:
        mix = [(1.0, eta)]
    clicks = errors = 0.0
    for weight, photon in mix:
        noise = (1.0 - photon) * dark
        clicks += weight * (photon + noise)
        errors += weight * (sc.ch.misalignment_error_prob * photon + noise / 2)
    return errors / clicks


def _z(measured: float, expected: float, trials: int) -> float:
    sd = math.sqrt(expected * (1.0 - expected) / trials)
    return (measured - expected) / sd if sd > 0 else (
        0.0 if measured == expected else math.inf)


def _check_key(sc, transcript, result) -> list[str]:
    failures = []
    n0 = len(transcript.sifted_alice)
    if n0 == 0:
        return ["empty sifted key"]
    qber = transcript.qber
    target = expected_qber(sc) if sc.honest else INTERCEPT_RESEND_QBER
    if sc.cfg.protocol != "e91" and abs(_z(qber, target, n0)) > Z_LIMIT:
        failures.append(f"sifted QBER {qber:.5f} is not within {Z_LIMIT} sd "
                        f"of {target:.5f} over {n0} bits")
    if not sc.honest:
        if result.abort_stage != "estimation":
            failures.append(f"attacked session aborted at "
                            f"{result.abort_stage!r}, not 'estimation'")
        return failures
    if result.aborted or result.final_length <= 0:
        failures.append(f"honest session emitted no key: "
                        f"{result.abort_stage}: {result.abort_reason}")
        return failures
    n = n0 - math.ceil(PARAMS.sample_fraction * n0)
    limit = n - result.leaked_bits - PARAMS.safety_bits
    if result.final_length > limit:
        failures.append(f"final key {result.final_length} bits exceeds "
                        f"n - leaked - safety = {limit}")
    return failures


def _check_decoy(sc, transcript, result) -> list[str]:
    """Measured gains against rates.gain_Qmu, and the decoy estimate."""
    failures = []
    eta = sc.ch.transmittance * sc.det.efficiency
    p_dark = sc.det.dark_prob
    stats = transcript.intensity_stats
    report = evaluate_rates(epsilon=result.qber_estimate,
                            mu=sc.cfg.signal_mu, eta=eta, p_dark=p_dark)
    theory = {"signal": report.values["gain_Qmu"],
              "decoy": gain_Qmu(sc.cfg.decoy_mu, eta, p_dark)}
    for kind, q_th in theory.items():
        z = _z(stats[kind]["gain"], q_th, stats[kind]["sent"])
        if abs(z) > Z_LIMIT:
            failures.append(f"{kind} gain {stats[kind]['gain']:.6g} is "
                            f"{z:+.2f} sd from gain_Qmu {q_th:.6g}")
    est = decoy_estimate(stats["signal"]["gain"], stats["decoy"]["gain"],
                         sc.cfg.signal_mu, sc.cfg.decoy_mu, p_dark)
    if not est.consistent:
        failures.append(f"decoy estimate inconsistent: Y0={est.Y0:.3g} "
                        f"Y1={est.Y1:.3g}")
    return failures


def _count(tracer, sc, transcript, result) -> None:
    """Per-scenario counters read from the returned objects and the public
    channel log (outside the timed region)."""
    tracer.count("protocols.pulses", transcript.pulse_count)
    tracer.count("protocols.sifted_bits", len(transcript.sifted_alice))
    tracer.count("quantum.detections", transcript.detection_count)
    if not sc.honest and transcript.eve_known_mask is not None:
        tracer.count("adversary.attacked_sessions")
        tracer.count("adversary.eve_known_frac",
                     transcript.eve_known_fraction)
    if transcript.chsh_samples is not None:
        tracer.count("bell.chsh_samples",
                     sum(v.size for v in transcript.chsh_samples.values()))
    log = result.log.messages
    tracer.count("postproc.log_messages", len(log))
    for msg in log:
        payload = msg["payload"]
        if "pass_block_parities" in payload:
            tracer.count("postproc.passes")
        elif "subset_size" in payload:
            tracer.count("postproc.subset_rounds")
        elif "range" in payload:
            tracer.count("postproc.bisect_parities")
    tracer.count("postproc.final_bits", result.final_length)
    n = tracer.counts.get((tracer.scenario, "postproc.reconciled_bits"), 0)
    tracer.count("postproc.shannon_bits", n * binary_entropy(transcript.qber))


def attempt(sc, seed, index, tracer):
    t0 = perf_counter()
    try:
        return run_scenario(sc, seed, index, tracer)
    except Exception:  # an abort is a failed scenario; the run goes on
        traceback.print_exc(file=sys.stderr)
        return Outcome(perf_counter() - t0, sc.cfg.num_pulses,
                       [f"{sc.label}: unexpected exception"])


def closed_loop(work, seed, seconds, tracer=None, between_cycles=None):
    """Whole cycles of the scenario list until `seconds` have elapsed.
    With a tracer, each scenario is re-run traced on the same inputs,
    alternating which of the pair goes first.  `between_cycles(elapsed)`
    runs after each cycle; its own time does not count in `seconds`."""
    untraced, traced = [], []
    null = NullTracer()
    index, start, paused = 0, perf_counter(), 0.0
    while not untraced or perf_counter() - start - paused < seconds:
        for sc in work:
            if tracer is None:
                untraced.append(attempt(sc, seed, index, null))
            else:
                pair = {}
                for with_trace in (index % 2 == 0, index % 2 == 1):
                    if with_trace:
                        with instrument(tracer):
                            pair[True] = attempt(sc, seed, index, tracer)
                    else:
                        pair[False] = attempt(sc, seed, index, null)
                if pair[True].digest != pair[False].digest:
                    pair[True].failures.append(
                        f"{sc.label}: tracing changed the outputs")
                untraced.append(pair[False])
                traced.append(pair[True])
            index += 1
        if between_cycles is not None:
            t0 = perf_counter()
            between_cycles(t0 - start - paused)
            paused += perf_counter() - t0
    return untraced, traced
