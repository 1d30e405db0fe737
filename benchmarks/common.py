"""Shared helpers for the benchmark harness.

Each ``bench_*`` file regenerates one table or figure of the paper's
evaluation (README, "Benchmarks", lists them).  Absolute numbers are
Python-scale; the *shape* (who wins, by what factor) is what reproduces
the paper.
"""

from __future__ import annotations

import time

from repro.designs import DESIGNS, compile_design, expand_cycle_budgets
from repro.sim import simulate

# Cycle budgets per design for benchmarking: sized so the reference
# interpreter finishes a run in roughly a second.  Nine-valued ``_l``
# variants share their two-state sibling's budget.
BENCH_CYCLES = expand_cycle_budgets({
    "gray": 60, "fir": 40, "lfsr": 60, "lzc": 30, "fifo": 60,
    "cdc_gray": 40, "cdc_strobe": 15, "rr_arbiter": 50,
    "stream_delayer": 60, "riscv": 200, "sorter": 40,
})


def timed_simulation(name, backend, cycles):
    """Compile (untimed) then simulate (timed); returns (seconds, result)."""
    import gc

    module = compile_design(name, cycles=cycles)
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


def format_row(columns, widths):
    return "  ".join(str(c).rjust(w) for c, w in zip(columns, widths))
