"""Timing, tracing and reference checking for the end-to-end benchmark.

Every layer call goes through :meth:`Recorder.call`, which collects the
garbage left by the previous call and then disables the collector for
the call itself: collector passes over a grown heap made an in-process
riscv run 1.5x slower than a fresh-process one (``benchmarks/common.py``
documents the same hygiene).  When a design is done, its garbage is
collected, the freed C heap is trimmed, and what survives (imported
modules, the layers' memo tables) is frozen, so every later collection
scans only the current design's objects.  With tracing on, the recorder also keeps one span per call —
name, start, end, parent span and the design as the request id — in
memory until the run ends.

Host speed.  On a shared VM the host runs this process at one of two
speeds, the slower about 1.5x slower, in phases from under a second to
over a minute long; a run cannot outlast them.  So every call is
bracketed by a probe, a fixed allocating loop timed just before and
just after it, and the call's wall time is rescaled by the probe's speed
to the speed at which the probe takes :data:`PROBE_REF_S`.  Times are
therefore seconds at a fixed reference host speed; the raw wall times
stay in the spans, and ``bench.host_slowdown`` reports the factor.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import math
import os
import statistics
import time

from repro.sim.values import format_value

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: Iterations of the probe loop, and the probe's time in the fast phase
#: of the reference machine (2-vCPU Intel Xeon VM, Python 3.11.7).  The
#: constant only fixes the unit: a host where the probe takes twice as
#: long reports every time halved relative to its wall time.
PROBE_LOOPS = 300
PROBE_REF_S = 47e-6


def host_probe():
    """Seconds of the fastest of three runs of the probe loop.

    The loop allocates small dicts and lists, like the layers do: in the
    slow phase a pure integer loop slowed 1.41x, this loop 1.48x and a
    small compile-and-simulate 1.54x.  The fastest run is taken so that
    an interrupt in one run does not read as a slow host."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        cells = []
        for i in range(PROBE_LOOPS):
            cells.append({"key": i, "value": [i, i + 1]})
        best = min(best, time.perf_counter() - start)
    return best


class Span:
    __slots__ = ("name", "start", "end", "parent", "request")

    def __init__(self, name, start, end, parent, request):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "request": self.request}


def _malloc_trim():
    """glibc's ``malloc_trim(0)``; a no-op where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError):
        return lambda: None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return lambda: trim(0)


def _end_design(trim):
    """Free a finished design's heap and freeze what survives.

    The trim hands the freed C heap back to the system.  Without it,
    where the next design's large blocks land depends on which designs
    ran before, and the peak resident set of one pass moved with the
    design order by up to 5%; with it, by under 1%."""
    gc.collect()
    gc.freeze()
    trim()


class Recorder:
    """Times layer calls; with ``traced`` also records their spans.

    A span's ``parent`` is the index of the enclosing ``design`` span in
    :attr:`spans` (None for the design spans themselves).
    :attr:`slowdowns` holds the host slowdown measured around each call.
    """

    def __init__(self, traced=False):
        self.traced = traced
        self.spans = []
        self.slowdowns = []
        self._root = None
        self._trim = _malloc_trim()

    def begin_request(self, request):
        if self.traced:
            self._root = len(self.spans)
            self.spans.append(Span("design", time.perf_counter(), None,
                                   None, request))

    def end_request(self):
        """End the design (under a ``bench.gc`` span)."""
        self.untimed("bench.gc", _end_design, self._trim)
        if self.traced:
            self.spans[self._root].end = time.perf_counter()
            self._root = None

    def call(self, name, fn, *args, **kwargs):
        """``(fn(*args, **kwargs), seconds at the reference host speed)``,
        GC off inside the call.

        The collection before the call is a ``bench.gc`` span and the
        two probes are ``bench.probe`` spans."""
        collect = time.perf_counter()
        gc.collect()
        gc.disable()
        try:
            probe = time.perf_counter()
            before = host_probe()
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            end = time.perf_counter()
            after = host_probe()
            done = time.perf_counter()
        finally:
            gc.enable()
        slowdown = (before + after) / (2 * PROBE_REF_S)
        self.slowdowns.append(slowdown)
        if self.traced:
            request = self.spans[self._root].request
            self.spans += [
                Span("bench.gc", collect, probe, self._root, request),
                Span("bench.probe", probe, start, self._root, request),
                Span(name, start, end, self._root, request),
                Span("bench.probe", end, done, self._root, request),
            ]
        return result, (end - start) / slowdown

    def untimed(self, name, fn, *args, **kwargs):
        """Run harness work (reference checks, collections) under its
        own span."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        if self.traced:
            self.spans.append(Span(name, start, time.perf_counter(),
                                   self._root,
                                   self.spans[self._root].request))
        return result

    def self_times(self):
        """Per span name: summed duration minus the part of it that
        child spans cover (layer spans have no children, so only the
        ``design`` spans lose time here)."""
        child = {}
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] = child.get(span.parent, 0.0) + \
                    span.end - span.start
        totals = {}
        for index, span in enumerate(self.spans):
            own = span.end - span.start - child.get(index, 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def wall(self):
        return sum(s.end - s.start for s in self.spans if s.parent is None)


# -- reference digests ---------------------------------------------------------


def trace_digest(changes, names):
    """sha256 over the histories of ``names`` (missing names hash empty)."""
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode())
        for fs, value in changes.get(name, ()):
            digest.update(f"\0{fs}={format_value(value)}".encode())
        digest.update(b"\n")
    return digest.hexdigest()


def reference_entry(trace, assertion_failures):
    """The expected-file entry for one reference run."""
    live = sorted(trace.live_signals())
    return {"live": live, "sha256": trace_digest(trace.changes, live),
            "assertions": list(assertion_failures)}


def check_trace(trace, assertion_failures, ref, exact_live=True):
    """None when the run matches ``ref``, otherwise the reason.

    Netlist runs pass ``exact_live=False``: techmap adds cell nets, so
    only the reference's live signals are compared (every one of them
    must survive under its own name).
    """
    changes = trace.finalize().changes
    live = ref["live"]
    missing = [name for name in live if name not in changes]
    if missing:
        return f"live signals missing from the trace: {missing[:3]}"
    if exact_live:
        extra = trace.live_signals() - set(live)
        if extra:
            return f"signals live only here: {sorted(extra)[:3]}"
    if trace_digest(changes, live) != ref["sha256"]:
        return "trace digest differs from the interp reference"
    if list(assertion_failures) != list(ref["assertions"]):
        return (f"{len(assertion_failures)} self-check failures, reference "
                f"has {len(ref['assertions'])}")
    return None


def load_expected(path=EXPECTED_PATH):
    with open(path) as fh:
        return json.load(fh)["designs"]


def write_expected(entries, path=EXPECTED_PATH):
    doc = {"about": "interp reference digests; regenerate with "
                    "python -m benchmarks.e2e --write-expected",
           "designs": entries}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- sample statistics ---------------------------------------------------------


def summary(samples):
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them."""
    if len(samples) >= 2:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = median = q3 = samples[0]
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / median if median else 0.0}


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))
