"""Deterministic quantum key distribution simulator and rate calculator.

Modules by concern: bits (packed bit strings; one-time pad: message ^ key),
quantum (signal states, sources, channels, detectors), protocols (session
runners), adversary (attack strategies), postproc (reconciliation, privacy
amplification, authentication), rates (closed-form key rates and bounds), bell
(CHSH estimation), scenario (scenario record and runs), cli (command line).
"""

from .bits import BitString, random_bits
from .rng import derive_rng
from .quantum import (ChannelModel, DetectorModel, SourceModel,
                      channel_preset, detector_preset, load_presets)
from .adversary import NO_EVE, EveStrategy
from .protocols import ProtocolConfig, SessionTranscript, run_session
from .postproc import (FinalKeyResult, PipelineParams, advantage_distill,
                       authenticate, bbbss_correct, estimate_qber,
                       privacy_amplify, run_pipeline, toeplitz_hash, verify)
from .rates import (RateReport, binary_entropy, decoy_estimate,
                    evaluate_rates, gain_Qmu, optimize_mu, rate_gllp,
                    rate_mayers, rate_shor_preskill, rate_six_state,
                    shor_preskill_cutoff, usd_threshold, yield_Yn)
from .bell import (MAXIMAL_SETTINGS, TSIRELSON, ChshSettings, chsh_analytic,
                   chsh_estimate)

__version__ = "1.0.0"

__all__ = [
    "BitString", "random_bits",
    "derive_rng",
    "SourceModel", "ChannelModel", "DetectorModel",
    "load_presets", "detector_preset", "channel_preset",
    "EveStrategy", "NO_EVE",
    "ProtocolConfig", "SessionTranscript", "run_session",
    "PipelineParams", "FinalKeyResult", "estimate_qber", "bbbss_correct",
    "privacy_amplify", "toeplitz_hash", "advantage_distill",
    "authenticate", "verify", "run_pipeline",
    "RateReport", "evaluate_rates", "binary_entropy", "rate_mayers",
    "rate_shor_preskill", "rate_six_state", "shor_preskill_cutoff",
    "rate_gllp", "optimize_mu", "usd_threshold", "yield_Yn", "gain_Qmu",
    "decoy_estimate",
    "ChshSettings", "MAXIMAL_SETTINGS", "TSIRELSON", "chsh_analytic",
    "chsh_estimate",
]
