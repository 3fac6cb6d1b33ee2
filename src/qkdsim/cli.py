"""The ``qkdsim`` command: argument parsing, verbs and reports.

Verbs:
  run    <scenario>  full session plus key-distillation pipeline
  sweep  <scenario>  CSV of simulated and analytic rates along one axis
  rates              closed-form rate table, no simulation
  bell   <scenario>  CHSH estimate from an entanglement scenario

Exit codes: 0 success with key, 2 protocol abort, 1 usage or config error.
Scenario files are read by ``qkdsim.scenario``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Optional

import numpy as np

from . import bell as bell_mod
from .postproc import FinalKeyResult
from .protocols import SessionTranscript
from .quantum import SourceModel
from .rates import RateReport, evaluate_rates
from .scenario import (ConfigError, Scenario, _message, load_scenario,
                       scenario_rates, simulate)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _chsh(transcript: SessionTranscript) -> tuple[float, float]:
    """CHSH estimate; a setting pair with no samples is a scenario error."""
    try:
        return bell_mod.chsh_estimate(transcript.chsh_samples, min_count=1)
    except ValueError as exc:
        raise ConfigError(f"chsh: {exc}") from None


def session_report(scenario: Scenario, transcript: SessionTranscript,
                   result: FinalKeyResult) -> dict:
    report = {
        "protocol": transcript.protocol,
        "seed": scenario.seed,
        "pulses": transcript.pulse_count,
        "detections": transcript.detection_count,
        "sifted_bits": len(transcript.sifted_alice),
        "sifted_fraction": transcript.sifted_fraction,
        "qber_sifted": transcript.qber,
        "eve_known_fraction": transcript.eve_known_fraction,
        "qber_estimate": result.qber_estimate,
        "leaked_bits": result.leaked_bits,
        "eve_bound_bits": result.eve_bound_bits,
        "final_length": result.final_length,
        "abort_stage": result.abort_stage,
        "abort_reason": result.abort_reason,
        "final_key_hex": (result.final_key.to_hex()
                          if result.final_key is not None else None),
    }
    if transcript.intensity_stats is not None:
        report["intensity_stats"] = transcript.intensity_stats
    if transcript.chsh_samples is not None:
        s_hat, stderr = _chsh(transcript)
        report["chsh"] = {"S": s_hat, "stderr": stderr,
                          "analytic_max": bell_mod.chsh_analytic(
                              bell_mod.MAXIMAL_SETTINGS)}
    return report


def _report_text(report: dict, rates: RateReport) -> str:
    lines = ["session report"]
    for key, val in report.items():
        if isinstance(val, dict):
            lines.append(f"  {key}:")
            for k2, v2 in val.items():
                lines.append(f"    {k2} = {v2!r}")
        else:
            lines.append(f"  {key} = {val!r}")
    lines.append(rates.to_text())
    return "\n".join(lines) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario, args.seed, args.pulses)
    transcript, result = simulate(scenario)
    report = session_report(scenario, transcript, result)
    rates = scenario_rates(scenario, result.qber_estimate)
    if args.format == "json":
        payload = dict(report)
        payload["rates"] = rates.values
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = _report_text(report, rates)
    _emit(text, args.out)
    return 0 if result.final_key is not None else 2


SWEEP_AXES = ("length_km", "mu", "epsilon")

RATE_CSV_HEADER = [f"{c}_{suffix}" for c in RateReport.CSV_COLUMNS
                   for suffix in ("raw", "clamped")]
SWEEP_CSV_HEADER = ["axis", "axis_value", "seed", "sifted_fraction",
                    "qber_sifted", "sim_key_rate_per_pulse"] + RATE_CSV_HEADER


def _apply_axis(scenario: Scenario, axis: str, value: float) -> Scenario:
    if axis == "length_km":
        return replace(scenario,
                       channel=replace(scenario.channel, length_km=value))
    if axis == "mu":
        if scenario.protocol_config.protocol == "decoy_bb84":
            return replace(scenario, protocol_config=replace(
                scenario.protocol_config, signal_mu=value))
        if scenario.source.kind != "attenuated_laser":
            raise ConfigError("axis mu requires a laser source")
        return replace(scenario, source=SourceModel.laser(value))
    if axis == "epsilon":
        # drive the error rate through receiver misalignment
        return replace(scenario, channel=replace(
            scenario.channel, misalignment_error_prob=value))
    raise ConfigError(f"axis: unknown axis {axis!r}")


def cmd_sweep(args) -> int:
    base = load_scenario(args.scenario, args.seed, args.pulses)
    if args.steps < 1:
        raise ConfigError("steps: must be >= 1")
    if args.steps == 1:     # linspace(inf, inf, 1) is [nan], not [inf]
        values = np.array([args.start])
    else:
        for name in ("start", "stop"):
            if not np.isfinite(getattr(args, name)):
                raise ConfigError(f"--{name}: must be finite with --steps "
                                  f">= 2, got {getattr(args, name)!r}")
        values = np.linspace(args.start, args.stop, args.steps)
    rows = [",".join(SWEEP_CSV_HEADER)]
    for i, value in enumerate(values.tolist()):
        try:
            point = _apply_axis(base, args.axis, value)
        except ValueError as exc:   # the value is out of the model's range
            raise ConfigError(f"{args.axis} = {value!r}: {exc}") from None
        transcript, result = simulate(point, i)
        rate = result.final_length / transcript.pulse_count \
            if transcript.pulse_count else 0.0
        eps = result.qber_estimate if args.axis != "epsilon" else value
        rates = scenario_rates(point, eps)
        row = [args.axis, repr(value), str(base.seed),
               repr(transcript.sifted_fraction),
               "" if transcript.qber is None else repr(transcript.qber),
               repr(rate)] + rates.csv_row()
        rows.append(",".join(row))
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def cmd_rates(args) -> int:
    params = {"epsilon": args.epsilon, "mu": args.mu, "eta": args.eta,
              "p_dark": args.p_dark, "overlap": args.overlap}
    try:
        report = evaluate_rates(**params)
    except ValueError as exc:
        raise ConfigError(f"rates: {exc}") from None
    if args.format == "csv":
        text = ",".join(RATE_CSV_HEADER) + "\n" + ",".join(report.csv_row()) \
            + "\n"
    elif args.format == "json":
        text = json.dumps({"params": params, "values": report.values},
                          indent=2, sort_keys=True) + "\n"
    else:
        text = report.to_text() + "\n"
    _emit(text, args.out)
    return 0


def cmd_bell(args) -> int:
    scenario = load_scenario(args.scenario, args.seed, args.pulses)
    if scenario.protocol_config.protocol != "e91":
        raise ConfigError("protocol: bell requires an e91 scenario")
    transcript, _ = simulate(scenario, pipeline=False)
    s_hat, stderr = _chsh(transcript)
    analytic = bell_mod.chsh_analytic(bell_mod.MAXIMAL_SETTINGS)
    payload = {
        "pairs": transcript.pulse_count,
        "S": s_hat,
        "stderr": stderr,
        "analytic_singlet": analytic,
        "tsirelson": bell_mod.TSIRELSON,
        "classical_limit": 2.0,
        "violates_classical": s_hat > 2.0,
    }
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = ["chsh report"] + [f"  {k} = {v!r}" for k, v in payload.items()]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdsim",
        description="Quantum key distribution simulator and rate calculator")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("scenario", help="scenario file path, or bundled:<name>")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--pulses", type=int, default=None,
                       help="override num_pulses")
        p.add_argument("--out", default=None, help="write the report here")

    p_run = sub.add_parser("run", help="run a session plus pipeline")
    common(p_run)
    p_run.add_argument("--format", choices=("text", "json"), default="text")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one axis, emit CSV")
    common(p_sweep)
    p_sweep.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--format", choices=("csv",), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_rates = sub.add_parser("rates", help="closed-form rates, no simulation")
    p_rates.add_argument("--epsilon", type=float, default=None)
    p_rates.add_argument("--mu", type=float, default=None)
    p_rates.add_argument("--eta", type=float, default=None)
    p_rates.add_argument("--p-dark", dest="p_dark", type=float, default=0.0)
    p_rates.add_argument("--overlap", type=float, default=None)
    p_rates.add_argument("--format", choices=("text", "csv", "json"),
                         default="text")
    p_rates.add_argument("--out", default=None)
    p_rates.set_defaults(func=cmd_rates)

    p_bell = sub.add_parser("bell", help="CHSH estimate from an e91 scenario")
    common(p_bell)
    p_bell.add_argument("--format", choices=("text", "json"), default="text")
    p_bell.set_defaults(func=cmd_bell)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, KeyError) as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
