"""Aim 1's ratchet: the cells of the security-oracle sweep whose key
exceeds sifted - Eve-known - leaked (see ``oracle_sweep.py``).

The list fails both ways: a cell over the line that is not listed is a
regression, and a listed cell that is no longer over the line is a stale
list.  So it changes only with the simulator's outputs; each cell added or
removed is named in CHANGES.md with its cause.  Run ``python
tests/oracle_sweep.py`` to print the list recomputed.
"""

from oracle_sweep import over_the_line, sweep

OVER_THE_LINE = [
    ("bb84", "laser", "beam_split"),
    ("bb84", "laser", "pns"),
    ("bb84", "heralded", "beam_split"),
    ("bb84", "heralded", "pns"),
    ("b92", "ideal", "usd_b92"),
    ("b92", "laser", "beam_split"),
    ("b92", "laser", "pns"),
    ("b92", "laser", "usd_b92"),
    ("b92", "heralded", "pns"),
    ("b92", "heralded", "usd_b92"),
    ("six_state", "laser", "beam_split"),
    ("six_state", "laser", "pns"),
    ("six_state", "heralded", "beam_split"),
    ("six_state", "heralded", "pns"),
    ("sarg", "ideal", "intercept_resend"),
    ("sarg", "laser", "intercept_resend"),
    ("sarg", "laser", "beam_split"),
    ("sarg", "laser", "pns"),
    ("sarg", "heralded", "intercept_resend"),
    ("sarg", "heralded", "pns"),
    ("decoy_bb84", "laser", "beam_split"),
    ("decoy_bb84", "laser", "pns"),
]


def test_the_cells_over_the_line_are_the_listed_ones():
    over = set(over_the_line(sweep()))
    listed = set(OVER_THE_LINE)
    assert sorted(over - listed) == [], "over the line, not listed"
    assert sorted(listed - over) == [], "listed, no longer over the line"
