"""Table 2: simulation performance of the three simulators.

Paper columns: LLHD reference interpreter ("Int."), JIT-accelerated
simulator ("JIT"), commercial simulator ("Comm." — here the independent
cycle simulator, as the commercial one is not available), over the ten
evaluation designs.  The claims being reproduced:

* the interpreter is orders of magnitude slower than compiled simulation;
* the compiled (Blaze-style) simulator is competitive with the
  independent baseline (0.2×–2.4× in the paper);
* traces match between all simulators for all designs (asserted here for
  every benchmark run).

Run: ``pytest benchmarks/bench_table2_simulation.py --benchmark-only -s``

CI gates performance with the end-to-end benchmark (``benchmarks/e2e``
and ``benchmarks/gate.py``), not with these cells.
"""

import pytest

from repro.designs import DESIGNS, TABLE2_ORDER, compile_design
from repro.sim import simulate

from .common import BENCH_CYCLES, format_row, timed_simulation

BACKENDS = ("interp", "blaze", "cycle")
_PAPER_COLUMNS = {"interp": "Int.", "blaze": "JIT", "cycle": "Comm."}

# The full matrix is expensive under the interpreter; benchmark the
# interpreter on a representative subset and the compiled simulators on
# every design.  (The table test below still measures all cells once.)
_INTERP_SUBSET = ("gray", "lzc", "fifo", "riscv")


def _run(name, backend, cycles):
    module = compile_design(name, cycles=cycles)
    top = DESIGNS[name].top
    result = simulate(module, top, backend=backend)
    assert result.assertion_failures == []
    return result


@pytest.mark.parametrize("name", TABLE2_ORDER)
@pytest.mark.parametrize("backend", ("blaze", "cycle"))
def test_simulation_speed_compiled(benchmark, name, backend):
    cycles = BENCH_CYCLES[name]
    benchmark.extra_info["design"] = name
    benchmark.extra_info["cycles"] = cycles
    benchmark.extra_info["paper_column"] = _PAPER_COLUMNS[backend]
    benchmark.pedantic(
        _run, args=(name, backend, cycles), rounds=3, iterations=1,
        warmup_rounds=1)


@pytest.mark.parametrize("name", _INTERP_SUBSET)
def test_simulation_speed_interpreter(benchmark, name):
    # The RISC-V program needs ~110 cycles to run to completion; the
    # other testbenches self-check incrementally and can be shortened.
    cycles = BENCH_CYCLES[name] if name == "riscv" \
        else max(BENCH_CYCLES[name] // 4, 8)
    benchmark.extra_info["design"] = name
    benchmark.extra_info["cycles"] = cycles
    benchmark.extra_info["paper_column"] = "Int."
    benchmark.pedantic(
        _run, args=(name, "interp", cycles), rounds=2, iterations=1)


def test_print_table2(capsys):
    """Measure every cell and print the Table 2 reproduction.

    Extrapolation to the paper's cycle counts uses the *marginal* cost
    per cycle (two-point slope), so one-time elaboration/compilation
    overhead — which dominates short Python runs but amortizes to zero
    over millions of cycles — does not distort the long-run comparison.
    This mirrors the paper, whose interpreter column is itself
    extrapolated.
    """
    rows = []
    ratios = []
    for name in TABLE2_ORDER:
        design = DESIGNS[name]
        per_cycle = {}
        traces = {}
        for backend in BACKENDS:
            # Trace-equivalence run at the common cycle budget.
            _, result = timed_simulation(name, backend, BENCH_CYCLES[name])
            traces[backend] = result.trace
            # Timing runs: grow until long enough to time reliably.
            short = BENCH_CYCLES[name]
            t_short, _ = timed_simulation(name, backend, short)
            while t_short < 0.05 and short < 100_000:
                short *= 4
                t_short, _ = timed_simulation(name, backend, short)
            long = short * 3
            t_short = min(t_short,
                          timed_simulation(name, backend, short)[0])
            t_long = min(timed_simulation(name, backend, long)[0]
                         for _ in range(2))
            slope = (t_long - t_short) / (long - short)
            if slope <= 0:  # timing noise: fall back to the mean cost
                slope = t_long / long
            per_cycle[backend] = slope
        # The paper: "traces match between the two simulators for all
        # designs" — here across all three.
        assert traces["interp"].differences(traces["blaze"]) == []
        assert traces["interp"].differences(traces["cycle"]) == []
        target = design.paper_cycles
        jit_vs_comm = per_cycle["cycle"] / per_cycle["blaze"]
        ratios.append(jit_vs_comm)
        rows.append((
            design.paper_name,
            design.sv_loc(short),
            f"{target/1e6:.1f}M",
            f"{per_cycle['interp'] * target:.0f}",
            f"{per_cycle['blaze'] * target:.0f}",
            f"{per_cycle['cycle'] * target:.0f}",
            f"{per_cycle['interp'] / per_cycle['blaze']:.1f}",
            f"{jit_vs_comm:.2f}",
        ))
    with capsys.disabled():
        print()
        print("Table 2 — Simulation performance "
              "(marginal cost extrapolated to the paper's cycle counts)")
        header = ("Design", "LoC", "Cycles", "Int.[s]", "JIT[s]",
                  "Comm.[s]", "Int/JIT", "Comm/JIT")
        widths = [16, 5, 7, 9, 8, 8, 8, 9]
        print(format_row(header, widths))
        print("-" * (sum(widths) + 2 * len(widths)))
        for row in rows:
            print(format_row(row, widths))
        print("\nTraces match across interp/blaze/cycle for all designs.")
        print(f"Comm/JIT range: {min(ratios):.2f}x – {max(ratios):.2f}x "
              f"(paper: 0.2x – 2.4x)")
