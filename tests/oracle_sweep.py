"""The security-oracle sweep, aim 1's scoreboard (``test_oracle_sweep.py``).

The simulator knows which sifted bits Eve holds, so a run is checked
directly: it is over the line when its key exceeds what the sifted key
holds beyond Eve's knowledge and the leaked parities, that is when the
margin key - (sifted - Eve-known - leaked) is positive.

The sweep is every protocol x source x attack cell below, each run by
``simulate`` on 4e5 pulses over 50 km of ``fiber_1550`` with seed 7 and
the default detector and pipeline; cells the runner refuses are skipped.
The cells, pulse count and seed are fixed: a change of the simulator's
outputs re-records the list, it never re-seeds or resizes the sweep.

Run as a script (``python tests/oracle_sweep.py``) to print every
accepted cell's counts and margin, then the cells over the line as an
``OVER_THE_LINE`` list ready to paste over the one in
``test_oracle_sweep.py``.
"""

from qkdsim import EveStrategy, ProtocolConfig, SourceModel, channel_preset
from qkdsim.protocols import PROTOCOLS
from qkdsim.scenario import ConfigError, Scenario, simulate

SOURCES = {"ideal": SourceModel.ideal(), "laser": SourceModel.laser(0.5),
           "heralded": SourceModel.heralded(0.6, 0.05)}
ATTACKS = {"none": EveStrategy("none"),
           "intercept_resend": EveStrategy("intercept_resend"),
           "beam_split": EveStrategy("beam_split"),
           "pns": EveStrategy("pns", block_single_prob=1.0),
           "usd_b92": EveStrategy("usd_b92")}
PULSES = 400_000
SEED = 7


def sweep() -> dict:
    """(protocol, source, attack) -> (sifted, Eve-known, leaked, key,
    margin) of every cell the runner accepts."""
    channel = channel_preset("fiber_1550", 50.0)
    rows = {}
    for protocol in PROTOCOLS:
        for source, src in SOURCES.items():
            for attack, eve in ATTACKS.items():
                try:
                    t, res = simulate(Scenario(
                        ProtocolConfig(protocol, PULSES), SEED, source=src,
                        channel=channel, eve=eve))
                except ConfigError:
                    continue
                sifted = len(t.sifted_alice)
                known = t.eve_known_mask.hamming_weight()
                rows[protocol, source, attack] = (
                    sifted, known, res.leaked_bits, res.final_length,
                    res.final_length - (sifted - known - res.leaked_bits))
    return rows


def over_the_line(rows: dict) -> list:
    """The cells of ``sweep()`` whose margin is positive, in sweep order."""
    return [cell for cell, row in rows.items() if row[-1] > 0]


if __name__ == "__main__":
    rows = sweep()
    print(f"{'protocol':<11}{'source':<9}{'attack':<17}"
          f"{'sifted':>7}{'known':>7}{'leaked':>7}{'key':>7}{'margin':>8}")
    for cell, row in rows.items():
        print("{:<11}{:<9}{:<17}".format(*cell)
              + "".join(f"{x:>7}" for x in row[:-1]) + f"{row[-1]:>8}")
    over = over_the_line(rows)
    print(f"\n{len(rows)} cells accepted, "
          f"{sum(row[3] > 0 for row in rows.values())} emit a key, "
          f"{len(over)} over the line\n")
    print("OVER_THE_LINE = [")
    for cell in over:
        print('    ("{}", "{}", "{}"),'.format(*cell))
    print("]")
