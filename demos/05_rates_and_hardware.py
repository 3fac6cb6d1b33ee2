"""Closed-form rates against hardware limits.

Walks the analytic side of the toolkit: single-photon rate formulas and
their cutoffs, the eta^2 scaling of weak laser pulses with the matching
optimal mean photon number, the secure-distance limit for a realistic
telecom receiver, and decoy-intensity yield estimation catching a
photon-number-splitting attack.
"""

import numpy as np

from qkdsim.adversary import EveStrategy, NO_EVE
from qkdsim.protocols import ProtocolConfig, run_session
from qkdsim.quantum import (ChannelModel, DetectorModel, SourceModel,
                            channel_preset, detector_preset)
from qkdsim.rates import (decoy_estimate, gain_Qmu, gllp_pulse_rate,
                          optimize_mu, rate_shor_preskill,
                          shor_preskill_cutoff, yield_Yn)
from qkdsim.rng import derive_rng


def main():
    cutoff = shor_preskill_cutoff()
    print(f"one-way post-processing dies at QBER {cutoff:.4f}; "
          f"rate at 5% errors is {rate_shor_preskill(0.05):.4f}")

    print("\nweak laser pulses: the optimum tracks the line transmittance")
    for eta in (1e-3, 1e-2, 1e-1):
        res = optimize_mu(eta, 0.0, 0.01)
        print(f"  eta = {eta:6.0e}: best mu = {res.mu:.5f}, "
              f"rate/pulse = {res.rate_per_pulse:.3e}")

    det = detector_preset("ingaas_peltier")
    print("\nsecure distance with a cooled telecom receiver:")
    for km in (0, 40, 80, 120):
        ch = channel_preset("fiber_1550", length_km=km)
        eta = ch.transmittance * det.efficiency
        mu = max(eta, 1e-6)
        p_signal = 1.0 - np.exp(-mu * eta)
        p_click = gain_Qmu(mu, eta, det.dark_prob)
        # misalignment errors on real clicks, coin flips on dark clicks
        eps = (0.02 * p_signal + 0.5 * (p_click - p_signal)) / p_click
        r = gllp_pulse_rate(mu, eta, det.dark_prob, eps) if eps < 0.5 else -1.0
        note = "" if r > 0 else "   <- no secure key"
        print(f"  {km:>4} km: QBER {eps:.3f}, rate/pulse "
              f"{max(r, 0.0):.3e}{note}")

    print("\ndecoy intensities expose photon-number splitting:")
    mu_s, mu_d, p_dark = 0.5, 0.05, 1e-5
    ch = ChannelModel(length_km=50.0, attenuation_db_per_km=0.2)
    det = DetectorModel(dark_prob=p_dark)
    cfg = ProtocolConfig("decoy_bb84", 1000000, signal_mu=mu_s,
                         decoy_mu=mu_d, decoy_fraction=0.3)
    for label, eve, seed in (("honest", NO_EVE, 51),
                             ("under PNS",
                              EveStrategy("pns", block_single_prob=1.0), 52)):
        t = run_session(cfg, SourceModel.laser(mu_s), ch, det, eve,
                        derive_rng(seed, 0))
        st = t.intensity_stats
        est = decoy_estimate(st["signal"]["gain"], st["decoy"]["gain"],
                             mu_s, mu_d, p_dark)
        print(f"  {label:<10} estimated Y1 = {est.Y1:8.5f}  "
              f"(honest channel would give "
              f"{yield_Yn(1, ch.transmittance, p_dark):.5f})")


if __name__ == "__main__":
    main()
