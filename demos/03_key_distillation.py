"""Distill a usable key from a noisy sifted string, step by step.

Shows the full classical phase: error-rate estimation on a disclosed
sample, interactive parity reconciliation, the accounting of everything
Eve may have learned, and privacy amplification down to the final key.
Then demonstrates the estimation-stage abort against a full
intercept-resend attack, and advantage distillation rescuing a channel
too noisy for one-way processing.
"""

import numpy as np

from qkdsim.adversary import EveStrategy
from qkdsim.bits import BitString, random_bits
from qkdsim.postproc import (PipelineParams, advantage_distill,
                             run_pipeline_on_keys)
from qkdsim.protocols import ProtocolConfig
from qkdsim.quantum import ChannelModel
from qkdsim.rng import make_rng
from qkdsim.scenario import Scenario, simulate


def main():
    cfg = ProtocolConfig("bb84", 100000)
    ch = ChannelModel(misalignment_error_prob=0.02)
    t, res = simulate(Scenario(cfg, 31, channel=ch))
    print(f"session: {len(t.sifted_alice)} sifted bits, "
          f"QBER {t.qber:.4f}")
    print(f"pipeline: estimated QBER {res.qber_estimate:.4f}, "
          f"{res.leaked_bits} parity bits disclosed, Eve charged "
          f"{res.eve_bound_bits} bits")
    print(f"final key: {res.final_length} bits, starts "
          f"{res.final_key.to_hex()[:16]}...")

    _, res = simulate(Scenario(cfg, 32, channel=ch,
                               eve=EveStrategy("intercept_resend")))
    print(f"\nunder attack: estimated QBER {res.qber_estimate:.4f} "
          f"-> abort at {res.abort_stage} ({res.abort_reason})")

    # 20% errors: far beyond one-way reconciliation, but a repeat-code
    # filter trades length for a much cleaner pair of strings
    rng = make_rng(33)
    n = 90000
    a = random_bits(n, rng)
    flips = (rng.random(n) < 0.20).astype(np.uint8)
    b = BitString.from_array(a.to_array() ^ flips)
    new_a, new_b, accepted = advantage_distill(a, b, 3, rng)
    err = (new_a.to_array() != new_b.to_array()).mean()
    print(f"\nadvantage distillation at 20% errors: kept "
          f"{accepted.mean():.1%} of blocks, residual error {err:.4f}")
    res = run_pipeline_on_keys(new_a, new_b, PipelineParams(), rng)
    print(f"distilled remainder then yields a {res.final_length}-bit key"
          if not res.aborted else f"pipeline still aborts: {res.abort_reason}")


if __name__ == "__main__":
    main()
