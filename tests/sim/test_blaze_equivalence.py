"""The compiled (Blaze) simulator must produce traces identical to the
reference interpreter — the compiled analogue of the paper's "traces match
between the two simulators for all designs" (Table 2)."""

import pytest

from repro.ir import parse_module
from repro.sim import simulate

TESTBENCH_WITH_LOOP = """
entity @top () -> () {
  %z1 = const i1 0
  %z8 = const i8 0
  %clk = sig i1 %z1
  %count = sig i8 %z8
  inst @clockgen () -> (i1$ %clk)
  inst @counter (i1$ %clk) -> (i8$ %count)
}
proc @clockgen () -> (i1$ %clk) {
entry:
  %b0 = const i1 0
  %b1 = const i1 1
  %zero = const i8 0
  %limit = const i8 20
  %one = const i8 1
  %t1 = const time 1ns
  %i = var i8 %zero
  br %loop
loop:
  drv i1$ %clk, %b1 after %t1
  wait %fall for %t1
fall:
  drv i1$ %clk, %b0 after %t1
  wait %next for %t1
next:
  %ip = ld i8* %i
  %in = add i8 %ip, %one
  st i8* %i, %in
  %cont = ult i8 %in, %limit
  br %cont, %end, %loop
end:
  halt
}
proc @counter (i1$ %clk) -> (i8$ %count) {
init:
  %clk0 = prb i1$ %clk
  wait %check for %clk
check:
  %clk1 = prb i1$ %clk
  %chg = neq i1 %clk0, %clk1
  %posedge = and i1 %chg, %clk1
  br %posedge, %init, %event
event:
  %cp = prb i8$ %count
  %one8 = const i8 1
  %cn = add i8 %cp, %one8
  %t0 = const time 0s
  drv i8$ %count, %cn after %t0
  br %init
}
"""

ENTITY_DESIGN = """
entity @acc_ff (i1$ %clk, i32$ %d) -> (i32$ %q) {
  %delay = const time 1ns
  %clkp = prb i1$ %clk
  %dp = prb i32$ %d
  reg i32$ %q, %dp rise %clkp after %delay
}
entity @acc_comb (i32$ %q, i32$ %x, i1$ %en) -> (i32$ %d) {
  %qp = prb i32$ %q
  %xp = prb i32$ %x
  %enp = prb i1$ %en
  %sum = add i32 %qp, %xp
  %delay = const time 2ns
  %dns = [i32 %qp, %sum]
  %dn = mux i32 %dns, %enp
  drv i32$ %d, %dn after %delay
}
entity @top () -> () {
  %z1 = const i1 0
  %z32 = const i32 0
  %b1c = const i1 1
  %clk = sig i1 %z1
  %x = sig i32 %z32
  %en = sig i1 %z1
  %d = sig i32 %z32
  %q = sig i32 %z32
  inst @acc_ff (i1$ %clk, i32$ %d) -> (i32$ %q)
  inst @acc_comb (i32$ %q, i32$ %x, i1$ %en) -> (i32$ %d)
  inst @stim () -> (i1$ %clk, i32$ %x, i1$ %en)
}
proc @stim () -> (i1$ %clk, i32$ %x, i1$ %en) {
entry:
  %b0 = const i1 0
  %b1 = const i1 1
  %zero = const i32 0
  %three = const i32 3
  %seven = const i32 7
  %t2 = const time 2ns
  %t4 = const time 4ns
  drv i1$ %en, %b1 after %t2
  drv i32$ %x, %three after %t2
  br %cycle1
cycle1:
  drv i1$ %clk, %b1 after %t2
  wait %cycle2 for %t4
cycle2:
  drv i1$ %clk, %b0 after %t2
  drv i32$ %x, %seven after %t2
  drv i1$ %clk, %b1 after %t4
  wait %done for %t4
done:
  halt
}
"""

PHI_AND_FUNCTION = """
func @sum_to (i32 %n) i32 {
entry:
  %zero = const i32 0
  %one = const i32 1
  br %loop
loop:
  %i = phi i32 [%zero, %entry], [%in, %loop]
  %acc = phi i32 [%zero, %entry], [%accn, %loop]
  %accn = add i32 %acc, %i
  %in = add i32 %i, %one
  %cont = ule i32 %in, %n
  br %cont, %exit, %loop
exit:
  ret i32 %accn
}
entity @top () -> () {
  %z = const i32 0
  %out = sig i32 %z
  inst @driver () -> (i32$ %out)
}
proc @driver () -> (i32$ %out) {
entry:
  %n = const i32 10
  %r = call i32 @sum_to (i32 %n)
  %t = const time 1ns
  drv i32$ %out, %r after %t
  halt
}
"""


@pytest.mark.parametrize("text,top", [
    (TESTBENCH_WITH_LOOP, "top"),
    (ENTITY_DESIGN, "top"),
    (PHI_AND_FUNCTION, "top"),
], ids=["loop-testbench", "reg-mux-entities", "phi-function"])
def test_blaze_matches_interp(text, top):
    module = parse_module(text)
    interp = simulate(module, top, backend="interp")
    blaze = simulate(module, top, backend="blaze")
    assert interp.trace.differences(blaze.trace) == []
    assert interp.final_time_fs == blaze.final_time_fs


def test_blaze_counter_counts():
    module = parse_module(TESTBENCH_WITH_LOOP)
    result = simulate(module, "top", backend="blaze")
    # 20 clock cycles -> counter reaches 20.
    final = result.trace.history("top.count")[-1][1]
    assert final == 20


def test_blaze_function_result():
    module = parse_module(PHI_AND_FUNCTION)
    result = simulate(module, "top", backend="blaze")
    # sum of 0..10 = 55
    assert result.trace.value_at("top.out", 1_000_000) == 55


def test_blaze_is_faster_than_interp_on_long_run():
    """Sanity check of the performance direction (not a benchmark).

    Only ``kernel.run()`` is timed, after elaboration (which compiles
    blaze's units), over 3,000 clock cycles: long enough that interp's
    run takes tens of milliseconds, so steady-state execution decides
    the comparison — mirroring how the paper extrapolates Table 2 to
    millions of cycles.  Each engine's time is the minimum over three
    fresh elaborations.
    """
    import time

    from repro.sim.blaze import elaborate_compiled
    from repro.sim.engine import Kernel
    from repro.sim.interp import elaborate

    # The clock generator counts to 3,000 in an i16 cell.
    start = TESTBENCH_WITH_LOOP.index("proc @clockgen")
    end = TESTBENCH_WITH_LOOP.index("proc @counter")
    clockgen = TESTBENCH_WITH_LOOP[start:end].replace(" i8", " i16")
    module = parse_module(
        TESTBENCH_WITH_LOOP[:start]
        + clockgen.replace("const i16 20", "const i16 3000")
        + TESTBENCH_WITH_LOOP[end:])

    def run_time(elaborator):
        best = float("inf")
        for _ in range(3):
            kernel = Kernel()
            elaborator(module, "top", kernel)
            begin = time.perf_counter()
            kernel.run()
            best = min(best, time.perf_counter() - begin)
        assert kernel.now[0] == 6000 * 1_000_000   # 3,000 cycles of 2 ns
        return best

    interp_time = run_time(elaborate)
    blaze_time = run_time(elaborate_compiled)
    # Generous margin: compiled execution must not be slower.
    assert blaze_time < interp_time * 1.5
