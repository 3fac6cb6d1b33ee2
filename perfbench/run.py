"""qkdsim benchmark: run one workload closed-loop and print its metrics.

    python3 perfbench/run.py --workload decoy_sweep --seed 1 --seconds 30 --trace 0

Scenarios run one at a time, in whole cycles of the workload's scenario
list, until --seconds have elapsed.  Every scenario's output is checked.
With --trace 0 the last stdout line is a JSON object holding the
end-to-end metrics; with --trace 1 each scenario runs twice on the same
inputs, untraced and traced, and the JSON holds the per-layer metrics
plus the tracing overhead.  Metric definitions are in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checkout import MissingSource, use_checkout_source

HERE = Path(__file__).resolve().parent
# Fresh-process set-up probes per run, spread evenly over the scenario
# loop.  The host's speed drifts over seconds, so probes taken together
# would sample it at one moment of the run.
SETUP_PROBES = 6
# scenario_s_tail is the slowest time with at least this many samples
# beyond it: the highest percentile a run's sample count supports.
TAIL_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply every scenario's pulse count (smoke tests)")
    return p.parse_args(argv)


class SetupProbes:
    """Process start to first scenario ready (interpreter start, qkdsim
    import, scenario construction) of fresh processes, one every
    1/SETUP_PROBES of the run's seconds."""

    def __init__(self, workload: str, scale: float, seconds: float):
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), workload,
                     repr(scale)]
        self.every = seconds / SETUP_PROBES
        self.samples = []

    def _probe(self) -> None:
        t0 = time.time()
        proc = subprocess.run(self.argv, capture_output=True, text=True,
                              timeout=120, check=True)
        self.samples.append(float(proc.stdout.split()[-1]) - t0)

    def __call__(self, elapsed: float) -> None:
        """Probe if `elapsed` loop seconds have reached the next probe."""
        if (len(self.samples) < SETUP_PROBES
                and elapsed >= self.every * len(self.samples)):
            self._probe()

    def median(self) -> float:
        """Median of all probes, taking those the loop ended before."""
        while len(self.samples) < SETUP_PROBES:
            self._probe()
        return statistics.median(self.samples)


def end_to_end(outcomes, setup_s) -> dict:
    times = sorted(o.seconds for o in outcomes)
    k = len(times)
    tail_at = k - 1 - TAIL_BEYOND
    if tail_at < k // 2:
        # Too few samples for a percentile above the median with enough
        # samples beyond it: report the slowest, so that a slower run,
        # which holds fewer scenarios, never reads better.
        tail_at = k - 1
    print(f"scenarios {k}; scenario_s_tail is p{100 * tail_at / k:.1f} "
          f"({k - 1 - tail_at} of {k} samples beyond it)")
    return {
        "setup_s": (setup_s, "s"),
        "scenario_s_p50": (statistics.median(times), "s"),
        "scenario_s_tail": (times[tail_at], "s"),
        "pulses_per_s": (sum(o.pulses for o in outcomes) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(tracer, untraced, traced) -> dict:
    total, own = tracer.layer_seconds()
    n = len(traced)

    def s(*names):
        return (sum(total.get(x, 0.0) for x in names) / n, "s")

    def c(name, unit="count"):
        return (tracer.total_count(name) / n, unit)

    shannon = tracer.total_count("postproc.shannon_bits")
    attacked = tracer.total_count("adversary.attacked_sessions")
    pulses = tracer.total_count("protocols.pulses")
    return {
        "postproc.pipeline_s": s("postproc.pipeline"),
        "postproc.self_s": (own.get("postproc.pipeline", 0.0) / n, "s"),
        "postproc.estimate_s": s("postproc.estimate", "postproc.remove"),
        "postproc.auth_s": s("postproc.auth", "postproc.verify"),
        "postproc.auth_tags": c("postproc.auth_tags"),
        "postproc.reconcile_s": s("postproc.reconcile"),
        "postproc.passes": c("postproc.passes"),
        "postproc.subset_rounds": c("postproc.subset_rounds"),
        "postproc.bisect_parities": c("postproc.bisect_parities"),
        "postproc.leaked_bits": c("postproc.leaked_bits", "bits"),
        "postproc.recon_efficiency": (
            tracer.total_count("postproc.leaked_bits") / shannon
            if shannon else 0.0, "ratio"),
        "postproc.log_messages": c("postproc.log_messages"),
        "postproc.pa_s": ((total.get("postproc.pa", 0.0) + tracer.seconds_under(
            "postproc.hash", "postproc.pipeline")) / n, "s"),
        "postproc.final_bits": c("postproc.final_bits", "bits"),
        "protocols.session_s": s("protocols.session"),
        "protocols.self_s": (own.get("protocols.session", 0.0) / n, "s"),
        "protocols.sifted_bits": c("protocols.sifted_bits", "bits"),
        "protocols.sift_ratio": (
            tracer.total_count("protocols.sifted_bits") / pulses, "ratio"),
        "quantum.detect_s": s("quantum.detect"),
        "quantum.photon_sample_s": s("quantum.photon_sample"),
        "quantum.detections": c("quantum.detections"),
        "adversary.attack_s": s("adversary.attack"),
        "adversary.resolve_s": s("adversary.resolve"),
        "adversary.eve_known_frac": (
            tracer.total_count("adversary.eve_known_frac") / attacked
            if attacked else 0.0, "ratio"),
        "bell.chsh_s": s("bell.chsh"),
        "bell.chsh_samples": c("bell.chsh_samples"),
        "rates.crosscheck_s": s("rates.crosscheck"),
        "traced.scenario_s": (sum(o.seconds for o in traced) / n, "s"),
        "trace_overhead_frac": (
            sum(o.seconds for o in traced)
            / sum(o.seconds for o in untraced) - 1.0, "ratio"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        use_checkout_source()
    except MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import scenarios
    from spans import Tracer
    if args.workload not in scenarios.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have "
              f"{sorted(scenarios.WORKLOADS)}", file=sys.stderr)
        return 2
    work = scenarios.build(args.workload, args.scale)
    if args.trace:
        tracer = Tracer()
        untraced, traced = scenarios.closed_loop(
            work, args.seed, args.seconds, tracer)
        metrics = per_layer(tracer, untraced, traced)
        tracer.dump(HERE / "traces" / f"{args.workload}-seed{args.seed}.json")
    else:
        probes = SetupProbes(args.workload, args.scale, args.seconds)
        probes(0.0)
        untraced, traced = scenarios.closed_loop(
            work, args.seed, args.seconds, between_cycles=probes)
        metrics = end_to_end(untraced, probes.median())
    runs = untraced + traced
    failed = [o for o in runs if o.failures]
    for o in failed:
        print("FAILED:", "; ".join(o.failures))
    print(f"workload {args.workload} seed {args.seed}: {len(runs)} scenarios "
          f"attempted, {len(failed)} failed "
          f"(failed_frac {len(failed) / len(runs):.4f})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
