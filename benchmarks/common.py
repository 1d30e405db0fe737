"""Shared helpers for the benchmark harness.

Each ``bench_*`` file regenerates one table or figure of the paper's
evaluation (see DESIGN.md section 2 for the index).  Absolute numbers are
Python-scale; the *shape* (who wins, by what factor) is what reproduces
the paper — EXPERIMENTS.md records the comparison.
"""

from __future__ import annotations

import json
import time

from repro.designs import (
    DESIGNS, TABLE2_ORDER, compile_design, expand_cycle_budgets,
)
from repro.sim import simulate, simulate_batch

# Cycle budgets per design for benchmarking: sized so the reference
# interpreter finishes a run in roughly a second.  Nine-valued ``_l``
# variants share their two-state sibling's budget.
BENCH_CYCLES = expand_cycle_budgets({
    "gray": 60, "fir": 40, "lfsr": 60, "lzc": 30, "fifo": 60,
    "cdc_gray": 40, "cdc_strobe": 15, "rr_arbiter": 50,
    "stream_delayer": 60, "riscv": 200, "sorter": 40,
})


def timed_simulation(name, backend, cycles=None, netlist=False):
    """Compile (untimed) then simulate (timed); returns (seconds, result).

    With ``netlist``, the design is additionally lowered to Structural
    LLHD and technology-mapped (zero gate delay) before simulation — the
    compile/lower/map cost stays outside the timed region, so the
    numbers isolate the runtime cost of gate-level granularity.
    """
    import gc

    cycles = cycles if cycles is not None else BENCH_CYCLES[name]
    module = compile_design(name, cycles=cycles)
    if netlist:
        from repro.interop import netlist_design
        from repro.passes import lower_to_structural

        lower_to_structural(module, strict=False, verify=False)
        module = netlist_design(module)
    top = DESIGNS[name].top
    # Collect frontend debris now, then *disable* the collector for the
    # timed region: cyclic GC passes triggered mid-run scan the whole
    # persistent heap, so their cost grows with how many designs this
    # process has already measured — an in-process riscv run measured
    # ~1.5x slower than a fresh-process one before this was hermetic.
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = simulate(module, top, backend=backend)
        elapsed = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    assert result.assertion_failures == [], \
        f"{name}/{backend}: design self-checks failed"
    return elapsed, result


def timed_batch_simulation(name, backend, cycles, lanes):
    """Compile (untimed) then run a K-lane batch (timed).

    Uniform stimulus (no per-lane variants), so the batch is one scalar
    run that serves all K lanes.  Same GC hygiene as
    :func:`timed_simulation`.
    """
    import gc

    module = compile_design(name, cycles=cycles)
    top = DESIGNS[name].top
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = simulate_batch(module, top, lanes, backend=backend)
        elapsed = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    assert result.assertion_failures == [], \
        f"{name}/{backend}@b{lanes}: design self-checks failed"
    return elapsed, result


def extrapolate(seconds, cycles, target_cycles):
    """Scale a measured runtime to the paper's cycle count."""
    return seconds * (target_cycles / max(cycles, 1))


def format_row(columns, widths):
    return "  ".join(str(c).rjust(w) for c, w in zip(columns, widths))


# -- BENCH_sim.json harness ----------------------------------------------------
#
# Every PR records the simulation-performance trajectory in BENCH_sim.json
# at the repository root: per design and engine, the wall time of a run at
# the benchmark cycle budget and the *marginal* cost per simulated cycle
# (two-point slope, which amortizes one-time elaboration/compilation).
# Successive runs merge under labels ("before"/"after"), so a PR can show
# its own speedup and future PRs inherit the trajectory.

def trace_fingerprint(trace):
    """A canonical byte string of a trace (for identity checks)."""
    items = sorted(trace.changes.items())
    return repr([(name, [(fs, repr(v)) for fs, v in history])
                 for name, history in items])


def measure_backend(name, backend, cycles, runs=1, netlist=False,
                    min_wall=0.04):
    """Measure one design under one engine.

    Returns a dict with wall seconds at ``cycles``, the marginal seconds
    per cycle (slope between ``cycles`` and ``3*cycles``), the kernel
    stats, and the trace fingerprint at ``cycles``.  With ``runs > 1``
    each point is measured that many times and the slope is computed
    from the *minimum* short and long timings — scheduler noise only
    ever adds time, so min-of-N on the raw timings is the right damper
    for a regression gate (min over per-pair slope differences would
    instead select the pair whose short run was most inflated).

    ``cycles`` is a starting point, not a contract: it grows (doubling,
    up to 64x) until one run takes at least ``min_wall`` seconds, so the
    two-point slope is computed from measurably long runs on fast
    machines too — a 25% regression gate on a 5 ms sample is noise.  The
    cycle count actually used is recorded in the result; the marginal
    us/cycle it yields is cycle-count-independent, which is what the
    baseline comparison relies on.
    """
    t_short, result = timed_simulation(name, backend, cycles,
                                       netlist=netlist)
    ceiling = cycles * 64
    while t_short < min_wall and cycles * 2 <= ceiling:
        cycles *= 2
        t_short, result = timed_simulation(name, backend, cycles,
                                           netlist=netlist)
    # Min-of-N on the *raw* timings (noise only ever adds time), then
    # one slope from the two minima — taking the minimum of per-pair
    # slope differences instead would select whichever pair had its
    # short run most inflated, biasing the marginal cost low.
    shorts = [t_short]
    longs = []
    for i in range(runs):
        longs.append(timed_simulation(name, backend, 3 * cycles,
                                      netlist=netlist)[0])
        if i < runs - 1:  # the adaptive-growth run already measured one
            shorts.append(timed_simulation(name, backend, cycles,
                                           netlist=netlist)[0])
    best_wall = min(shorts)
    best_slope = (min(longs) - best_wall) / (2 * cycles)
    if best_slope <= 0:  # timing noise on very small designs
        best_slope = min(longs) / (3 * cycles)
    return {
        "cycles": cycles,
        "wall_s": round(best_wall, 6),
        "per_cycle_us": round(best_slope * 1e6, 3),
        "stats": dict(result.stats),
        "fingerprint": trace_fingerprint(result.trace),
        "result": result,
    }


def measure_batch(name, backend, cycles, lanes, runs=1, min_wall=0.04):
    """Measure one design as a K-lane uniform batch.

    Same adaptive-cycles, min-of-N two-point slope as
    :func:`measure_backend`; the headline ``per_cycle_us`` is the
    *per-lane* marginal cost (batch slope divided by K).  A uniform
    batch is one scalar run, so this is the scalar marginal cost divided
    by K.  The raw batch slope is kept as ``batch_per_cycle_us``.
    """
    t_short, result = timed_batch_simulation(name, backend, cycles, lanes)
    ceiling = cycles * 64
    while t_short < min_wall and cycles * 2 <= ceiling:
        cycles *= 2
        t_short, result = timed_batch_simulation(name, backend, cycles,
                                                 lanes)
    shorts = [t_short]
    longs = []
    for i in range(runs):
        longs.append(timed_batch_simulation(name, backend, 3 * cycles,
                                            lanes)[0])
        if i < runs - 1:
            shorts.append(timed_batch_simulation(name, backend, cycles,
                                                 lanes)[0])
    best_wall = min(shorts)
    best_slope = (min(longs) - best_wall) / (2 * cycles)
    if best_slope <= 0:
        best_slope = min(longs) / (3 * cycles)
    return {
        "cycles": cycles,
        "lanes": lanes,
        "wall_s": round(best_wall, 6),
        "per_cycle_us": round(best_slope * 1e6 / lanes, 3),
        "batch_per_cycle_us": round(best_slope * 1e6, 3),
        "stats": dict(result.stats),
    }


def run_sim_benchmarks(designs, backends=("interp", "blaze"), runs=1,
                       netlist_designs=(), batch_designs=(),
                       batch_lanes=(1, 4, 16), batch_backend="blaze",
                       levelized_designs=()):
    """Measure ``designs`` under ``backends``; assert identical traces.

    Trace identity is checked with dedicated runs at the design's fixed
    benchmark cycle count — the *timing* runs grow their cycle counts
    adaptively per engine (see :func:`measure_backend`), so their traces
    are not comparable to each other.  Designs listed in
    ``netlist_designs`` are *additionally* measured at the netlist level
    (lowered + technology-mapped, zero gate delay), recorded under
    ``<backend>@netlist`` keys; their traces must match the behavioural
    run signal-for-signal on every shared signal.  Designs listed in
    ``levelized_designs`` get a ``levelized@netlist`` row the same way —
    the ahead-of-time compiled cone at the netlist level, whose headline
    comparison is against the *behavioural* blaze cost (the paper's
    "netlist as cheap as behavioural" claim).

    Designs listed in ``batch_designs`` are additionally measured as
    uniform K-lane batches for each K in ``batch_lanes``, recorded
    under ``<batch_backend>@bK`` keys whose ``per_cycle_us`` is the
    *per-lane* marginal cost; before timing, every lane of a probe
    batch must be byte-identical to the scalar run.
    """
    out = {}
    for name in designs:
        cycles = BENCH_CYCLES[name]
        # Equivalence runs at a common cycle count.
        reference = None
        prints = {}
        for backend in backends:
            _, result = timed_simulation(name, backend, cycles)
            if reference is None:
                reference = result
            prints[backend] = trace_fingerprint(result.trace)
        mismatched = [b for b in backends[1:]
                      if prints[b] != prints[backends[0]]]
        if mismatched:
            raise AssertionError(
                f"{name}: traces diverge between {backends[0]} and "
                f"{', '.join(mismatched)}")
        netlist_backends = list(backends) if name in netlist_designs \
            else []
        if name in levelized_designs:
            netlist_backends.append("levelized")
        if netlist_backends:
            active = reference.trace.live_signals()
            for backend in netlist_backends:
                _, nl = timed_simulation(name, backend, cycles,
                                         netlist=True)
                # Netlist traces add cell nets; every *changing* signal
                # of the behavioural run must survive under its own name
                # and match exactly.
                missing = active - set(nl.trace.changes)
                if missing:
                    raise AssertionError(
                        f"{name}: netlist run dropped live signals "
                        f"under {backend}: {sorted(missing)[:4]}")
                diffs = reference.trace.differences(nl.trace)
                if diffs:
                    raise AssertionError(
                        f"{name}: netlist trace diverges under "
                        f"{backend}: {diffs[:3]}")
        if name in batch_designs:
            # Demux-correctness probe at the equivalence cycle count:
            # each lane of a K=4 batch must match the scalar trace.
            probe_lanes = 4
            module = compile_design(name, cycles=cycles)
            probe = simulate_batch(module, DESIGNS[name].top, probe_lanes,
                                   backend=batch_backend)
            for k in range(probe_lanes):
                if trace_fingerprint(probe.lane(k).trace) != \
                        prints[batch_backend]:
                    raise AssertionError(
                        f"{name}: batched lane {k} trace diverges from "
                        f"the scalar {batch_backend} run")
        # Timing runs (adaptive cycles, min-of-N slope).
        per_backend = {}
        for backend in backends:
            per_backend[backend] = measure_backend(
                name, backend, cycles, runs=runs)
        for backend in netlist_backends:
            per_backend[f"{backend}@netlist"] = measure_backend(
                name, backend, cycles, runs=runs, netlist=True)
        if name in batch_designs:
            for lanes in batch_lanes:
                per_backend[f"{batch_backend}@b{lanes}"] = measure_batch(
                    name, batch_backend, cycles, lanes, runs=runs)
        for m in per_backend.values():
            m.pop("result", None)
            m.pop("fingerprint", None)
        out[name] = {
            "backends": per_backend,
            "traces_identical": True,
        }
    return out


def merge_bench_json(path, label, results, meta=None):
    """Merge a labelled measurement set into ``path`` and add speedups."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (FileNotFoundError, ValueError):
        doc = {"designs": {}}
    doc.setdefault("designs", {})
    if meta:
        slot = doc.setdefault("meta", {})
        measured = set(slot.get("designs", [])) | set(meta.get("designs", []))
        slot.update(meta)
        slot["designs"] = sorted(measured)
    for name, entry in results.items():
        slot = doc["designs"].setdefault(name, {})
        slot[label] = entry
        _annotate_speedups(slot)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


# -- bench-regression gate -----------------------------------------------------


def netlist_cost_ratios(results):
    """Per-design netlist/behavioural marginal-cost ratios.

    Returns ``{name: {"<engine>_netlist_cost": ratio}}`` for every
    design with both rows: ``interp``/``blaze`` against their own
    behavioural run, and ``levelized@netlist`` against the *behavioural
    blaze* cost — the engine has no behavioural mode, and "netlist as
    cheap as compiled behavioural" is the claim the ratio gates.
    Ratios are machine-speed-free by construction, so the CI gate
    compares them against committed ceilings without normalization.
    """
    out = {}
    for name, entry in results.items():
        rows = entry["backends"]
        ratios = {}
        for engine in ("interp", "blaze"):
            base = rows.get(engine, {}).get("per_cycle_us")
            netlist = rows.get(f"{engine}@netlist", {}).get("per_cycle_us")
            if base and netlist:
                ratios[f"{engine}_netlist_cost"] = netlist / base
        blaze = rows.get("blaze", {}).get("per_cycle_us")
        levelized = rows.get("levelized@netlist", {}).get("per_cycle_us")
        if blaze and levelized:
            ratios["levelized_netlist_cost"] = levelized / blaze
        if ratios:
            out[name] = ratios
    return out


def baseline_from_results(results, meta=None, ceiling_headroom=0.5):
    """A flat committed-baseline document from one measurement set:
    ``designs.<name>.<engine> -> marginal us/cycle``, plus per-design
    ``netlist_cost_ceilings`` — the measured netlist/behavioural ratio
    with ``ceiling_headroom`` slack, which the bench gate enforces as an
    absolute ceiling (ratios cancel machine speed, so no normalization
    applies to them).  The headroom is wider than the marginal-cost
    tolerance because a ratio divides two *separately timed* legs — a
    load spike during either leg moves it both ways — while the failure
    mode it guards against (cells falling back to event-driven
    execution) shifts ratios by 2–9x, far beyond any noise."""
    doc = {"designs": {}, "meta": dict(meta or {})}
    for name, entry in results.items():
        doc["designs"][name] = {
            engine: m["per_cycle_us"]
            for engine, m in entry["backends"].items()}
    ceilings = {
        name: {key: round(ratio * (1.0 + ceiling_headroom), 2)
               for key, ratio in ratios.items()}
        for name, ratios in netlist_cost_ratios(results).items()}
    if ceilings:
        doc["netlist_cost_ceilings"] = ceilings
    return doc


def compare_to_baseline(results, baseline, tolerance=0.25, normalize=True):
    """Compare measured marginal us/cycle against a committed baseline.

    Returns ``(regressions, lines)``: the cells whose cost grew by more
    than ``tolerance`` (25% by default), and a human-readable report.
    With ``normalize`` (the default) every ratio is divided by the
    geometric mean ratio across all shared cells first, so a uniformly
    faster or slower machine (CI runners vary) cancels out and only
    *relative* per-cell regressions fire the gate.

    When the baseline carries ``netlist_cost_ceilings``, each design's
    measured netlist/behavioural marginal-cost ratio is additionally
    gated against its committed ceiling — an *absolute* check (the
    ratio already cancels machine speed), so a netlist engine that
    regresses relative to its behavioural reference fails even when
    every individual cell drifts uniformly.
    """
    import math

    base = baseline.get("designs", {})
    ratios = {}
    for name, entry in results.items():
        for engine, m in entry["backends"].items():
            ref = base.get(name, {}).get(engine)
            cur = m["per_cycle_us"]
            if ref and cur:
                ratios[(name, engine)] = cur / ref
    if not ratios:
        return [], ["no overlapping cells between baseline and run"]
    shift = 1.0
    if normalize and len(ratios) > 1:
        shift = math.exp(
            sum(math.log(r) for r in ratios.values()) / len(ratios))
    lines = [f"machine shift (geo-mean ratio): {shift:.2f}x"
             if normalize else "comparing raw us/cycle (no normalization)"]
    regressions = []
    for (name, engine), ratio in sorted(ratios.items()):
        rel = ratio / shift
        flag = ""
        if rel > 1.0 + tolerance:
            regressions.append((name, engine, rel))
            flag = f"  REGRESSION (> {tolerance:.0%})"
        lines.append(
            f"  {name:18s} {engine:14s} {rel:6.2f}x vs baseline{flag}")
    ceilings = baseline.get("netlist_cost_ceilings", {})
    if ceilings:
        measured = netlist_cost_ratios(results)
        lines.append("netlist-cost ceilings (netlist/behavioural ratio, "
                     "absolute):")
        for name in sorted(measured):
            for key, ratio in sorted(measured[name].items()):
                ceiling = ceilings.get(name, {}).get(key)
                if ceiling is None:
                    continue
                flag = ""
                if ratio > ceiling:
                    regressions.append((name, key, ratio / ceiling))
                    flag = "  REGRESSION (above ceiling)"
                lines.append(f"  {name:18s} {key:22s} {ratio:6.2f}x "
                             f"(ceiling {ceiling:.2f}x){flag}")
    return regressions, lines


def _annotate_speedups(slot):
    """Derive before/after and cross-engine ratios where data allows."""
    speedup = {}
    after = slot.get("after", {}).get("backends", {})
    before = slot.get("before", {}).get("backends", {})
    for engine in set(before) & set(after):
        b = before[engine].get("per_cycle_us")
        a = after[engine].get("per_cycle_us")
        if b and a:
            speedup[engine] = round(b / a, 2)
    newest = after or before
    interp = newest.get("interp", {}).get("per_cycle_us")
    blaze = newest.get("blaze", {}).get("per_cycle_us")
    if interp and blaze:
        speedup["blaze_vs_interp"] = round(interp / blaze, 2)
    for engine in ("interp", "blaze"):
        base = newest.get(engine, {}).get("per_cycle_us")
        netlist = newest.get(f"{engine}@netlist", {}).get("per_cycle_us")
        if base and netlist:
            # >1: how much slower gate-level granularity simulates.
            speedup[f"{engine}_netlist_cost"] = round(netlist / base, 2)
    blaze = newest.get("blaze", {}).get("per_cycle_us")
    levelized = newest.get("levelized@netlist", {}).get("per_cycle_us")
    if blaze and levelized:
        # The levelized engine has no behavioural mode; its cost ratio
        # is against the compiled *behavioural* reference (the paper's
        # netlist-as-cheap-as-behavioural claim, target <= 1.5x).
        speedup["levelized_netlist_cost"] = round(levelized / blaze, 2)
    if speedup:
        slot["speedup"] = speedup
