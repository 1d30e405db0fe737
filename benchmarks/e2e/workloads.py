"""The four workloads and the run loop that measures them.

Each workload takes every suite design from SystemVerilog source to a
finished trace through the public layer calls, once per repetition, and
checks each trace against a reference produced by the ``interp`` engine
(``expected.json``, or an untimed scalar interp run for seeded batch
lanes).  Per-design numbers are medians over R repetitions of times
rescaled to a reference host speed (see ``measure``).
"""

from __future__ import annotations

import gc
import os
import random
import resource
import shutil
import statistics
import tempfile
import time

import repro.sim
from repro.designs import ALL_DESIGNS, DESIGNS, compile_design
from repro.interop import netlist_design
from repro.moore import compile_sv
from repro.passes.pipeline import lower_to_structural
from repro.sim import Kernel, Trace, simulate_batch
from repro.sim.blaze import elaborate_compiled
from repro.sim.cycle import CycleKernel, elaborate_cycle
from repro.sim.interp import elaborate as interp_elaborate
from repro.sim.levelize import elaborate_levelized
from repro.sim.stimulus import inject_batch_stimulus, inject_lane_stimulus

from .measure import (
    Recorder, check_trace, geomean, load_expected, reference_entry,
)

#: Testbench cycles N per design; how many N-cycle simulations one
#: design's traces comprise (batch lanes, or the two crosscheck engines);
#: and the repetitions R.  N and R are sized so one repetition over the
#: 22 designs takes 2-5 s and a run about 18 s on a 2-vCPU Xeon VM when
#: the host is fast; on a slow host the time limit cuts R.
WORKLOADS = {
    "behavioural": {"cycles": 600, "sims": 1, "reps": 7},
    "netlist": {"cycles": 600, "sims": 1, "reps": 4},
    "batch": {"cycles": 30, "sims": 16 + 4, "reps": 6},
    "crosscheck": {"cycles": 150, "sims": 2, "reps": 7},
}
UNIFORM_LANES = 16
SEEDED_LANES = 4

#: The two cheap designs and tiny N of ``--smoke`` (one repetition).
SMOKE_DESIGNS = ("gray", "fifo_l")
SMOKE_CYCLES = 20

#: Layer times that happen before the first simulated cycle, and those
#: from the first cycle to the finished (demuxed) traces.  Together they
#: are a design's time to trace; every other timed key (the per-pass
#: breakdown inside ``passes.lower_s``, the warm levelized elaboration)
#: is a per-layer detail only.
SETUP_KEYS = (
    "moore.compile_s", "passes.lower_s", "interop.techmap_s",
    "sim.blaze.elaborate_s", "sim.levelized.elaborate_s",
    "sim.interp.elaborate_s", "sim.cycle.elaborate_s",
    "sim.batch.stimulus_s",
)
RUN_KEYS = (
    "sim.blaze.run_s", "sim.levelized.run_s", "sim.interp.run_s",
    "sim.cycle.run_s", "sim.batch.vectorized_s", "sim.batch.replicated_s",
    "sim.batch.demux_s",
)

#: ``PassRecord`` names the lowering pipeline runs (``deseq`` and
#: process lowering are called directly, outside the pass manager, and
#: land in ``passes.unmanaged_s``).
PASSES = ("inline", "unroll", "mem2reg", "cf", "instsimplify", "cse", "dce",
          "ecm", "tcm", "tcfe", "muxinsert")

END_TO_END = {
    "time_to_trace_s": "s",
    "time_to_trace_p50_s": "s",
    "setup_s": "s",
    "sim_cycles_per_s": "cycles/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "moore.compile_s": "s", "moore.insts": "count",
    "moore.insts_per_s": "1/s",
    "passes.lower_s": "s",
    **{f"passes.{p}.s": "s" for p in PASSES},
    **{f"passes.{p}.runs": "count" for p in PASSES},
    "passes.unmanaged_s": "s", "passes.analysis_hit_frac": "ratio",
    "ir.structural_insts": "count",
    "interop.techmap_s": "s", "interop.cells": "count",
    "sim.levelized.elaborate_s": "s", "sim.levelized.elaborate_warm_s": "s",
    "sim.levelized.run_s": "s", "sim.levelized.cache_hits": "count",
    "sim.levelized.cache_misses": "count",
    "sim.levelized.cone_gates": "count", "sim.levelized.fallbacks": "count",
    "sim.blaze.elaborate_s": "s", "sim.blaze.run_s": "s",
    "sim.interp.elaborate_s": "s", "sim.interp.run_s": "s",
    "sim.cycle.elaborate_s": "s", "sim.cycle.run_s": "s",
    "sim.batch.stimulus_s": "s", "sim.batch.vectorized_s": "s",
    "sim.batch.replicated_s": "s", "sim.batch.demux_s": "s",
    "sim.batch.vectorized_frac": "ratio",
    "sim.events": "count", "sim.deltas": "count", "sim.activations": "count",
    **{f"sim.{e}.us_per_event": "us"
       for e in ("blaze", "levelized", "interp", "cycle", "batch")},
    "bench.verify_s": "s", "bench.gc_s": "s", "bench.probe_s": "s",
    "bench.host_slowdown": "ratio", "bench.trace_overhead_frac": "ratio",
    "bench.layer_coverage_frac": "ratio", "sim.loc": "count",
}

#: Which engine's event counters each run-time key belongs to.
_ENGINE_OF_RUN = {
    "sim.blaze.run_s": "blaze", "sim.levelized.run_s": "levelized",
    "sim.interp.run_s": "interp", "sim.cycle.run_s": "cycle",
    "sim.batch.vectorized_s": "batch", "sim.batch.replicated_s": "batch",
}


def _count_insts(units):
    return sum(len(list(unit.instructions())) for unit in units)


def _finish(kernel):
    kernel.run()
    kernel.trace.finalize()


class WorkloadRun:
    """State of one workload run: samples, counters and failures."""

    def __init__(self, workload, seed, cache_root, expected, cycles,
                 traced=False):
        self.workload = workload
        self.seed = seed
        self.cycles = cycles
        self.expected = expected
        self.cache_root = cache_root
        self.rec = Recorder(traced)
        self.traced = traced
        self.samples = {}        # design -> [times of one repetition]
        self.counters = {}       # design -> exact counts of its last pass
        self.attempted = 0
        self.failures = []
        self.peak_rss_mb = None
        self._lane_refs = {}
        self._counts = {}

    # -- bookkeeping -----------------------------------------------------------

    def check(self, name, what, reason):
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{name}/{what}: {reason}")

    def verify(self, name, what, trace, assertion_failures, ref,
               exact_live=True):
        reason = self.rec.untimed("bench.verify", check_trace, trace,
                                  assertion_failures, ref, exact_live)
        self.check(name, what, reason)

    def reference(self, name):
        return self.expected[name][str(self.cycles)]

    def compile(self, name):
        design = DESIGNS[name]
        module, seconds = self.rec.call(
            "moore.compile_sv", compile_sv, design.source(self.cycles),
            module_name=name, four_state=design.four_state)
        if self.traced:
            self.count({"moore.insts": _count_insts(module)})
        return module, seconds

    def count(self, counts):
        """Add exact counts to the current design's traced pass."""
        for key, value in counts.items():
            self._counts[key] = self._counts.get(key, 0) + value

    # -- one design, one repetition --------------------------------------------

    def run_design(self, name):
        self.rec.begin_request(name)
        self._counts = {}
        before = self.attempted
        try:
            times = _DESIGN_FNS[self.workload](self, name)
        except Exception as exc:   # a failing layer must not end the run
            missing = max(OPS[self.workload] - (self.attempted - before), 1)
            self.attempted += missing
            self.failures += [f"{name}: {type(exc).__name__}: {exc}"] * missing
            times = None
        finally:
            self.rec.end_request()
        if times is not None:
            self.samples.setdefault(name, []).append(times)
            self.counters[name] = self._counts

    def lane_reference(self, name, base_seed, lane_seed):
        """Untimed scalar interp run of one seeded batch lane."""
        key = (name, lane_seed)
        if key not in self._lane_refs:
            top = DESIGNS[name].top
            module = compile_design(name, self.cycles)
            inject_lane_stimulus(module, top, base_seed, lane_seed)
            self._lane_refs[key] = interp_reference(module, top)
        return self._lane_refs[key]


# -- the per-design chains -----------------------------------------------------


def _behavioural(run, name):
    rec, top, t = run.rec, DESIGNS[name].top, {}
    module, t["moore.compile_s"] = run.compile(name)
    kernel = Kernel(trace=Trace())
    _, t["sim.blaze.elaborate_s"] = rec.call(
        "sim.blaze.elaborate_compiled", elaborate_compiled, module, top,
        kernel)
    _, t["sim.blaze.run_s"] = rec.call("sim.blaze.run", _finish, kernel)
    run.verify(name, "blaze", kernel.trace, kernel.assertion_failures,
               run.reference(name))
    if run.traced:
        run.count(_engine_counts("blaze", kernel))
    return t


def _netlist(run, name):
    rec, top, t = run.rec, DESIGNS[name].top, {}
    module, t["moore.compile_s"] = run.compile(name)
    report, t["passes.lower_s"] = rec.call(
        "passes.lower_to_structural", lower_to_structural, module,
        strict=False)
    if run.traced:
        structural = _count_insts(u for u in module if u.is_entity)
    linked, t["interop.techmap_s"] = rec.call(
        "interop.netlist_design", netlist_design, module)
    cache_dir = tempfile.mkdtemp(dir=run.cache_root)
    kernel = Kernel(trace=Trace())
    design, t["sim.levelized.elaborate_s"] = rec.call(
        "sim.levelized.elaborate_levelized", elaborate_levelized, linked,
        top, kernel, cache_dir=cache_dir)
    _, t["sim.levelized.run_s"] = rec.call(
        "sim.levelized.run", _finish, kernel)
    run.verify(name, "levelized", kernel.trace, kernel.assertion_failures,
               run.reference(name), exact_live=False)
    if run.traced:
        warm = Kernel(trace=Trace())
        _, t["sim.levelized.elaborate_warm_s"] = rec.call(
            "sim.levelized.elaborate_warm", elaborate_levelized, linked,
            top, warm, cache_dir=cache_dir)
        managed = 0.0
        for record in report.pass_records:
            if record.name in PASSES:
                t[f"passes.{record.name}.s"] = record.seconds
            if not record.umbrella:
                managed += record.seconds
        t["passes.unmanaged_s"] = t["passes.lower_s"] - managed
        stats = report.analysis_stats
        counts = {f"passes.{r.name}.runs": r.runs
                  for r in report.pass_records if r.name in PASSES}
        counts.update({
            "analysis.hits": stats["hits"],
            "analysis.lookups": stats["hits"] + stats["misses"],
            "ir.structural_insts": structural,
            "interop.cells": _count_cells(linked),
            "sim.levelized.cache_hits": kernel.stats.get("cache_hits", 0)
            + warm.stats.get("cache_hits", 0),
            "sim.levelized.cache_misses":
                kernel.stats.get("cache_misses", 0)
                + warm.stats.get("cache_misses", 0),
            "sim.levelized.cone_gates": kernel.stats.get("cone_gates", 0),
            "sim.levelized.fallbacks": len(design.report.get("fallbacks",
                                                             ())),
        })
        counts.update(_engine_counts("levelized", kernel))
        run.count(counts)
    shutil.rmtree(cache_dir, ignore_errors=True)
    return t


def _batch(run, name):
    rec, top, t = run.rec, DESIGNS[name].top, {}
    ref = run.reference(name)
    # Uniform stimulus: the vectorized path (re-run replicated on
    # divergence, which wastes the vectorized attempt).
    module, fe_uniform = run.compile(name)
    uniform, seconds = rec.call(
        "sim.batch.simulate_batch", simulate_batch, module, top,
        UNIFORM_LANES, backend="blaze")
    vectorized = uniform.mode == "vectorized"
    t["sim.batch.vectorized_s" if vectorized
      else "sim.batch.replicated_s"] = seconds
    lanes, demux_uniform = rec.call("sim.batch.lane", uniform.lane_results)
    for k, lane in enumerate(lanes):
        run.verify(name, f"lane{k}", lane.trace, lane.assertion_failures,
                   ref)
    # Seeded stimulus: divergent lanes, the replicated path.
    base_seed = f"{run.seed}:{name}"
    lane_seeds = [f"{base_seed}:{k}" for k in range(SEEDED_LANES)]
    module, fe_seeded = run.compile(name)
    stimulus, t["sim.batch.stimulus_s"] = rec.call(
        "sim.stimulus.inject_batch_stimulus", inject_batch_stimulus, module,
        top, base_seed, lane_seeds)
    seeded, seconds = rec.call(
        "sim.batch.simulate_batch", simulate_batch, module, top,
        SEEDED_LANES, backend="blaze", stimulus=stimulus)
    t["sim.batch.replicated_s"] = t.get("sim.batch.replicated_s", 0.0) + \
        seconds
    lanes, demux_seeded = rec.call("sim.batch.lane", seeded.lane_results)
    k = random.Random(f"{base_seed}:ref").randrange(SEEDED_LANES)
    lane_ref = rec.untimed("bench.verify", run.lane_reference, name,
                           base_seed, lane_seeds[k])
    run.verify(name, f"seeded{k}", lanes[k].trace,
               lanes[k].assertion_failures, lane_ref)
    t["moore.compile_s"] = fe_uniform + fe_seeded
    t["sim.batch.demux_s"] = demux_uniform + demux_seeded
    if run.traced:
        run.count({"batch.uniform": 1, "batch.vectorized": int(vectorized)})
        run.count(_engine_counts("batch", uniform.kernel))
        run.count(_engine_counts("batch", seeded.kernel))
    return t


def _crosscheck(run, name):
    rec, top, t = run.rec, DESIGNS[name].top, {}
    ref = run.reference(name)
    module, t["moore.compile_s"] = run.compile(name)
    interp = Kernel(trace=Trace())
    _, t["sim.interp.elaborate_s"] = rec.call(
        "sim.interp.elaborate", interp_elaborate, module, top, interp)
    _, t["sim.interp.run_s"] = rec.call("sim.interp.run", _finish, interp)
    run.verify(name, "interp", interp.trace, interp.assertion_failures, ref)
    cycle = CycleKernel(trace=Trace())
    _, t["sim.cycle.elaborate_s"] = rec.call(
        "sim.cycle.elaborate_cycle", elaborate_cycle, module, top, cycle)
    _, t["sim.cycle.run_s"] = rec.call("sim.cycle.run", _finish, cycle)
    run.verify(name, "cycle", cycle.trace, cycle.assertion_failures, ref)
    if run.traced:
        run.count(_engine_counts("interp", interp))
        run.count(_engine_counts("cycle", cycle))
    return t


_DESIGN_FNS = {"behavioural": _behavioural, "netlist": _netlist,
               "batch": _batch, "crosscheck": _crosscheck}

#: Checked operations per design and repetition: one per engine trace,
#: one per uniform lane plus the reference-checked seeded lane.
OPS = {"behavioural": 1, "netlist": 1, "batch": UNIFORM_LANES + 1,
       "crosscheck": 2}


def _engine_counts(engine, kernel):
    stats = kernel.stats
    return {f"{stat}.{engine}": stats[stat]
            for stat in ("events", "deltas", "activations")}


def _count_cells(linked):
    """Instances of leaf entities (library cells) in a linked netlist."""
    leaves = {unit.name for unit in linked if unit.is_entity
              and not any(i.opcode == "inst" for i in unit.instructions())}
    return sum(1 for unit in linked if unit.is_entity
               for inst in unit.instructions()
               if inst.opcode == "inst" and inst.callee in leaves)


# -- the run loop --------------------------------------------------------------


def run_workload(workload, seed, seconds, traced=False, smoke=False):
    """Measure one workload; returns the result document.

    Runs the workload's R repetitions, stopping early only when one more
    would end past ``seconds``.  With ``traced``, repetitions alternate
    between untraced (end-to-end metrics) and traced (per-layer metrics,
    spans); the difference of their times to trace is the tracing
    overhead.  ``smoke`` runs the two cheap designs once at a tiny N.
    """
    cycles = SMOKE_CYCLES if smoke else WORKLOADS[workload]["cycles"]
    designs = list(SMOKE_DESIGNS if smoke else ALL_DESIGNS)
    random.Random(seed).shuffle(designs)
    expected = load_expected()
    # The caches stay inside the working directory (the checkout), which
    # is the only place the benchmark writes.
    cache_root = tempfile.mkdtemp(prefix=".e2e-cache-", dir=os.getcwd())
    try:
        # Warm-up: first-call costs (imports, memo tables) are paid once
        # per process, not per design.
        warm = WorkloadRun(workload, seed, cache_root, expected,
                           SMOKE_CYCLES)
        warm.run_design(SMOKE_DESIGNS[0])
        plain = WorkloadRun(workload, seed, cache_root, expected, cycles)
        tracing = WorkloadRun(workload, seed, cache_root, expected, cycles,
                              traced=True)
        kinds = 2 if traced else 1
        passes = kinds * (1 if smoke else WORKLOADS[workload]["reps"])
        start = time.perf_counter()
        rep = 0
        while rep < passes:
            target = tracing if rep % kinds else plain
            pass_start = time.perf_counter()
            for name in designs:
                target.run_design(name)
            if target.peak_rss_mb is None:
                # The peak of one pass over the designs.  The resident
                # set still grows a little with every later pass, so a
                # peak read at the end would move with R.
                target.peak_rss_mb = \
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            rep += 1
            now = time.perf_counter()
            if rep >= kinds and now - start + (now - pass_start) > seconds:
                break
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
        gc.unfreeze()
    return _result(workload, seed, cycles, warm, plain,
                   tracing if traced else None, rep)


def _median(samples, keys):
    """Median over one design's repetitions of the summed ``keys``."""
    return statistics.median(sum(s.get(k, 0.0) for k in keys)
                             for s in samples)


def _result(workload, seed, cycles, warm, plain, tracing, reps):
    runs = [warm, plain] + ([tracing] if tracing is not None else [])
    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    sims = WORKLOADS[workload]["sims"]
    doc = {"workload": workload, "seed": seed, "cycles": cycles,
           "reps": reps, "attempted": attempted, "failed": len(failures),
           "failures": failures[:20], "metrics": {}}
    if plain.samples:
        doc["metrics"] = end_to_end_metrics(plain, cycles, sims)
    if tracing is not None and tracing.samples:
        doc["per_layer"] = per_layer_metrics(tracing, plain)
        doc["self_times"] = tracing.rec.self_times()
        doc["spans"] = [s.as_dict() for s in tracing.rec.spans]
    return doc


def end_to_end_metrics(run, cycles, sims):
    """Times to trace and run times are medians over a design's R
    repetitions; ``setup_s`` is the median over the repetitions of one
    repetition's set-up time, summed over the designs; ``peak_rss_mb`` is
    the process's peak after the first repetition."""
    samples = run.samples
    per_design = [_median(s, SETUP_KEYS + RUN_KEYS)
                  for s in samples.values()]
    reps = min(len(s) for s in samples.values())
    setup = statistics.median(
        sum(sum(s[rep].get(k, 0.0) for k in SETUP_KEYS)
            for s in samples.values())
        for rep in range(reps))
    rates = [cycles * sims / _median(s, RUN_KEYS) for s in samples.values()]
    values = {
        "time_to_trace_s": sum(per_design),
        "time_to_trace_p50_s": statistics.median(per_design),
        "setup_s": setup,
        "sim_cycles_per_s": geomean(rates),
        "peak_rss_mb": run.peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer_metrics(tracing, plain):
    """Layer times are medians over a design's traced repetitions, summed
    over designs; counts come from each design's last traced repetition;
    the ``bench.*`` times are wall-time totals over all traced
    repetitions."""
    samples = tracing.samples
    times = {key: sum(_median(s, (key,)) for s in samples.values())
             for key in {k for s in samples.values() for x in s for k in x}}
    counts = {}
    for design_counts in tracing.counters.values():
        for key, value in design_counts.items():
            counts[key] = counts.get(key, 0) + value
    values = {name: 0 if unit == "count" else 0.0
              for name, unit in PER_LAYER.items()}
    values.update({k: v for k, v in {**times, **counts}.items()
                   if k in PER_LAYER})
    if values["moore.compile_s"]:
        values["moore.insts_per_s"] = values["moore.insts"] / \
            values["moore.compile_s"]
    if counts.get("analysis.lookups"):
        values["passes.analysis_hit_frac"] = counts["analysis.hits"] / \
            counts["analysis.lookups"]
    if counts.get("batch.uniform"):
        values["sim.batch.vectorized_frac"] = counts["batch.vectorized"] / \
            counts["batch.uniform"]
    events = {}
    for key, value in counts.items():
        stat, _, engine = key.partition(".")
        if stat in ("events", "deltas", "activations"):
            values[f"sim.{stat}"] += value
        if stat == "events":
            events[engine] = events.get(engine, 0) + value
    for run_key, engine in _ENGINE_OF_RUN.items():
        if events.get(engine):
            values[f"sim.{engine}.us_per_event"] += \
                times.get(run_key, 0.0) * 1e6 / events[engine]
    rec = tracing.rec
    self_times = rec.self_times()
    values["bench.verify_s"] = self_times.get("bench.verify", 0.0)
    values["bench.gc_s"] = self_times.get("bench.gc", 0.0)
    values["bench.probe_s"] = self_times.get("bench.probe", 0.0)
    layers = sum(seconds for name, seconds in self_times.items()
                 if name != "design" and not name.startswith("bench."))
    values["bench.layer_coverage_frac"] = \
        (layers + values["bench.verify_s"]) / rec.wall()
    values["bench.host_slowdown"] = statistics.median(
        plain.rec.slowdowns + rec.slowdowns)
    untraced = sum(_median(s, SETUP_KEYS + RUN_KEYS)
                   for s in plain.samples.values())
    traced = sum(_median(s, SETUP_KEYS + RUN_KEYS) for s in samples.values())
    values["bench.trace_overhead_frac"] = (traced - untraced) / untraced
    values["sim.loc"] = _sim_loc()
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def _sim_loc():
    directory = os.path.dirname(repro.sim.__file__)
    total = 0
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".py"):
            with open(os.path.join(directory, entry)) as fh:
                total += sum(1 for _ in fh)
    return total


def interp_reference(module, top):
    """The reference entry of one ``interp`` run of ``module``."""
    kernel = Kernel(trace=Trace())
    interp_elaborate(module, top, kernel)
    _finish(kernel)
    return reference_entry(kernel.trace, kernel.assertion_failures)


def write_expected_digests():
    """Reference digests from the ``interp`` engine alone, for every
    design at every N a workload uses (plus the smoke N)."""
    entries = {}
    for name in ALL_DESIGNS:
        cycle_counts = {w["cycles"] for w in WORKLOADS.values()}
        if name in SMOKE_DESIGNS:
            cycle_counts.add(SMOKE_CYCLES)
        for cycles in sorted(cycle_counts):
            entries.setdefault(name, {})[str(cycles)] = interp_reference(
                compile_design(name, cycles), DESIGNS[name].top)
    return entries
