"""In-memory spans and counters for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: around the calls the
benchmark makes into a layer, and around the library functions that
qkdsim looks up through module attributes at call time, which
:func:`instrument` replaces with timing wrappers for the duration of a
traced scenario.  Nothing in ``src/`` is edited.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

import qkdsim.adversary
import qkdsim.postproc
import qkdsim.protocols

# (module, attribute, span name).  protocols imported the quantum kernels
# by name, so they are wrapped where protocols looks them up.
PATCH_POINTS = (
    (qkdsim.protocols, "sample_photon_number", "quantum.photon_sample"),
    (qkdsim.protocols, "measure_batch", "quantum.detect"),
    (qkdsim.adversary, "attack_batch", "adversary.attack"),
    (qkdsim.adversary, "resolve_known_bits", "adversary.resolve"),
    (qkdsim.postproc, "estimate_qber", "postproc.estimate"),
    (qkdsim.postproc, "remove_positions", "postproc.remove"),
    (qkdsim.postproc, "authenticate", "postproc.auth"),
    (qkdsim.postproc, "verify", "postproc.verify"),
    (qkdsim.postproc, "bbbss_correct", "postproc.reconcile"),
    (qkdsim.postproc, "privacy_amplify", "postproc.pa"),
    (qkdsim.postproc, "toeplitz_hash", "postproc.hash"),
)


class NullTracer:
    """Tracer of untimed-layer runs: every call is a no-op."""

    enabled = False
    scenario = None

    def span(self, name):
        return nullcontext()

    def count(self, name, value=1):
        pass


class Tracer:
    """Spans as [name, parent index, scenario id, start, end] plus
    per-scenario counters, all kept in memory until :meth:`dump`."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = {}          # (scenario, name) -> number
        self.scenario = None
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        record = [name, parent, self.scenario, perf_counter(), None]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            record[4] = perf_counter()

    def count(self, name, value=1):
        key = (self.scenario, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def dump(self, path) -> None:
        payload = {
            "spans": [dict(zip(("name", "parent", "scenario", "start", "end"),
                               s)) for s in self.spans],
            "counts": [{"scenario": sc, "name": name, "value": v}
                       for (sc, name), v in self.counts.items()],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))

    # -- aggregation ---------------------------------------------------------

    def layer_seconds(self) -> tuple[dict, dict]:
        """Total and self seconds per span name, summed over all spans."""
        total, child = {}, [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            if parent >= 0:
                child[parent] += end - start
        own = {}
        for (name, _, _, start, end), inner in zip(self.spans, child):
            own[name] = own.get(name, 0.0) + (end - start) - inner
        return total, own

    def seconds_under(self, name, parent_name) -> float:
        """Seconds in spans called `name` whose parent is `parent_name`."""
        return sum(end - start for n, parent, _, start, end in self.spans
                   if n == name and parent >= 0
                   and self.spans[parent][0] == parent_name)

    def total_count(self, name) -> float:
        return sum(v for (_, n), v in self.counts.items() if n == name)


def _wrap(tracer, fn, name):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if name == "postproc.auth":
            tracer.count("postproc.auth_tags")
        elif name == "postproc.reconcile":
            tracer.count("postproc.leaked_bits", result.leaked_bits)
            tracer.count("postproc.reconciled_bits",
                         len(result.corrected_alice))
        return result
    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def instrument(tracer):
    """Replace every patch point with a span-recording wrapper; restore the
    originals on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in PATCH_POINTS]
    try:
        for (mod, attr, name), (_, _, fn) in zip(PATCH_POINTS, saved):
            setattr(mod, attr, _wrap(tracer, fn, name))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
