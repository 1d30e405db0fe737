"""Levelized netlist engine: edge cases the suite designs under-cover.

The 22-design staged harness (test_semantic_preservation) already holds
the levelized engine to byte-identical traces at the netlist level; the
tests here pin down the corners: latch cells, register-cut feedback,
multi-clock-domain cones, zero-delay combinational cycles, memory read
and write ports, the reasons a cell falls back to event-driven
execution, the multi-driver diagnosis, which nets a storage cell
observes (its triggers when all are edges, every port for a latch),
what the cone's commit publishes
(process and fallback-cell wakes, ``con``-merged names, a net that
settles back within one run), and the on-disk
compile cache (cold/warm, corrupted/truncated/misplaced entries, and
entries from another code generator or another Python).
"""

import marshal

import pytest

from repro.ir import parse_module
from repro.sim import SimulationError, compiled, levelize, simulate
from repro.sim.engine import Kernel
from repro.sim.levelize import elaborate_levelized
from repro.sim.plan import fired_trigger
from repro.sim.trace import Trace

# A transparent-high latch cell: the storage cell techmap emits for a
# level-sensitive reg (mode ``high`` fires on every evaluation while
# the enable is high).
_LATCH = """
entity @cell_latch_i8 (i8$ %d0, i1$ %t0) -> (i8$ %q) {
  %0 = prb i8$ %d0
  %1 = prb i1$ %t0
  %2 = const time 0s
  reg i8$ %q, %0 high %1 after %2
}

proc @stim () -> (i8$ %d, i1$ %en) {
b0:
  %t = const time 1ns
  %t0 = const time 0s
  %one = const i1 1
  %zero = const i1 0
  %v1 = const i8 17
  %v2 = const i8 42
  %v3 = const i8 99
  drv i8$ %d, %v1 after %t0
  drv i1$ %en, %one after %t0
  wait %b1 for %t
b1:
  drv i8$ %d, %v2 after %t0
  wait %b2 for %t
b2:
  drv i1$ %en, %zero after %t0
  wait %b3 for %t
b3:
  drv i8$ %d, %v3 after %t0
  wait %b4 for %t
b4:
  halt
}

entity @top () -> () {
  %z8 = const i8 0
  %z1 = const i1 0
  %d = sig i8 %z8
  %en = sig i1 %z1
  %q = sig i8 %z8
  inst @cell_latch_i8 (i8$ %d, i1$ %en) -> (i8$ %q)
  inst @stim () -> (i8$ %d, i1$ %en)
}
"""

# A toggle flip-flop: the feedback path q -> inverter -> d is cut only
# by the register, so the combinational part must levelize acyclically.
_TOGGLE = """
entity @cell_inv_i1 (i1$ %a0) -> (i1$ %y) {
  %0 = prb i1$ %a0
  %t = const time 0s
  %n = not i1 %0
  drv i1$ %y, %n after %t
}

entity @cell_dff_i1 (i1$ %d0, i1$ %t0) -> (i1$ %q) {
  %0 = prb i1$ %d0
  %1 = prb i1$ %t0
  %t = const time 0s
  reg i1$ %q, %0 rise %1 after %t
}

proc @clkgen () -> (i1$ %clk) {
b0:
  %half = const time 1ns
  %t0 = const time 0s
  %one = const i1 1
  %zero = const i1 0
  drv i1$ %clk, %one after %t0
  wait %b1 for %half
b1:
  drv i1$ %clk, %zero after %t0
  wait %b2 for %half
b2:
  br %b0
}

entity @top () -> () {
  %z1 = const i1 0
  %clk = sig i1 %z1
  %q = sig i1 %z1
  %d = sig i1 %z1
  inst @cell_inv_i1 (i1$ %q) -> (i1$ %d)
  inst @cell_dff_i1 (i1$ %d, i1$ %clk) -> (i1$ %q)
  inst @clkgen () -> (i1$ %clk)
}
"""

# Two independent clock domains (1ns and 1.5ns half-periods), each a
# toggle flip-flop, settled by the one cone function.
_TWO_CLOCKS = """
entity @cell_inv_i1 (i1$ %a0) -> (i1$ %y) {
  %0 = prb i1$ %a0
  %t = const time 0s
  %n = not i1 %0
  drv i1$ %y, %n after %t
}

entity @cell_dff_i1 (i1$ %d0, i1$ %t0) -> (i1$ %q) {
  %0 = prb i1$ %d0
  %1 = prb i1$ %t0
  %t = const time 0s
  reg i1$ %q, %0 rise %1 after %t
}

proc @clkgen_a () -> (i1$ %clk) {
b0:
  %half = const time 1ns
  %t0 = const time 0s
  %one = const i1 1
  %zero = const i1 0
  drv i1$ %clk, %one after %t0
  wait %b1 for %half
b1:
  drv i1$ %clk, %zero after %t0
  wait %b2 for %half
b2:
  br %b0
}

proc @clkgen_b () -> (i1$ %clk) {
b0:
  %half = const time 1500ps
  %t0 = const time 0s
  %one = const i1 1
  %zero = const i1 0
  drv i1$ %clk, %one after %t0
  wait %b1 for %half
b1:
  drv i1$ %clk, %zero after %t0
  wait %b2 for %half
b2:
  br %b0
}

entity @top () -> () {
  %z1 = const i1 0
  %clka = sig i1 %z1
  %clkb = sig i1 %z1
  %qa = sig i1 %z1
  %qb = sig i1 %z1
  %da = sig i1 %z1
  %db = sig i1 %z1
  inst @cell_inv_i1 (i1$ %qa) -> (i1$ %da)
  inst @cell_dff_i1 (i1$ %da, i1$ %clka) -> (i1$ %qa)
  inst @cell_inv_i1 (i1$ %qb) -> (i1$ %db)
  inst @cell_dff_i1 (i1$ %db, i1$ %clkb) -> (i1$ %qb)
  inst @clkgen_a () -> (i1$ %clka)
  inst @clkgen_b () -> (i1$ %clkb)
}
"""

# A cross-coupled NOR pair (SR latch built from gates): the two gates
# form a zero-delay cycle that cannot levelize — the cone must diagnose
# it and still settle the stable stimulus by fixpoint iteration.
_SR_LATCH = """
entity @cell_nor_i1 (i1$ %a0, i1$ %a1) -> (i1$ %y) {
  %0 = prb i1$ %a0
  %1 = prb i1$ %a1
  %t = const time 0s
  %o = or i1 %0, %1
  %n = not i1 %o
  drv i1$ %y, %n after %t
}

proc @stim () -> (i1$ %s, i1$ %r) {
b0:
  %t = const time 1ns
  %t0 = const time 0s
  %one = const i1 1
  %zero = const i1 0
  drv i1$ %s, %one after %t0
  wait %b1 for %t
b1:
  drv i1$ %s, %zero after %t0
  wait %b2 for %t
b2:
  drv i1$ %r, %one after %t0
  wait %b3 for %t
b3:
  halt
}

entity @top () -> () {
  %z1 = const i1 0
  %s = sig i1 %z1
  %r = sig i1 %z1
  %q = sig i1 %z1
  %qn = sig i1 %z1
  inst @cell_nor_i1 (i1$ %r, i1$ %qn) -> (i1$ %q)
  inst @cell_nor_i1 (i1$ %s, i1$ %q) -> (i1$ %qn)
  inst @stim () -> (i1$ %s, i1$ %r)
}
"""

# A "cell" with a non-zero gate delay: recognized as combinational but
# not absorbable (the cone is zero-delay), so it must fall back to the
# event-driven machinery — and the hybrid still traces identically.
_SLOW_CELL = """
entity @cell_slow_inv (i1$ %a0) -> (i1$ %y) {
  %0 = prb i1$ %a0
  %t = const time 1ns
  %n = not i1 %0
  drv i1$ %y, %n after %t
}

proc @stim () -> (i1$ %a) {
b0:
  %t = const time 2ns
  %t0 = const time 0s
  %one = const i1 1
  drv i1$ %a, %one after %t0
  wait %b1 for %t
b1:
  halt
}

entity @top () -> () {
  %z1 = const i1 0
  %a = sig i1 %z1
  %y = sig i1 %z1
  inst @cell_slow_inv (i1$ %a) -> (i1$ %y)
  inst @stim () -> (i1$ %a)
}
"""

# Two combinational cells driving the same net: not a levelizable
# netlist, and the diagnosis must name the net.
_MULTI_DRIVER = """
entity @cell_inv_i1 (i1$ %a0) -> (i1$ %y) {
  %0 = prb i1$ %a0
  %t = const time 0s
  %n = not i1 %0
  drv i1$ %y, %n after %t
}

entity @top () -> () {
  %z1 = const i1 0
  %a = sig i1 %z1
  %b = sig i1 %z1
  %y = sig i1 %z1
  inst @cell_inv_i1 (i1$ %a) -> (i1$ %y)
  inst @cell_inv_i1 (i1$ %b) -> (i1$ %y)
}
"""

# A memory read port: the entity probes one element of a signal array
# through a dynamic index, which techmap maps onto one read-port wiring
# cell.
_READ_PORT = """
entity @rd (i2$ %i, [4 x i8]$ %m) -> (i8$ %y) {
  %iv = prb i2$ %i
  %e = extf i8$, [4 x i8]$ %m, %iv
  %v = prb i8$ %e
  %t = const time 0s
  drv i8$ %y, %v after %t
}

proc @stim () -> (i2$ %i, [4 x i8]$ %m) {
b0:
  %t = const time 1ns
  %t0 = const time 0s
  %a = const i8 11
  %b = const i8 22
  %c = const i8 33
  %d = const i8 44
  %arr = [i8 %a, %b, %c, %d]
  %i1 = const i2 1
  %i3 = const i2 3
  drv [4 x i8]$ %m, %arr after %t0
  wait %b1 for %t
b1:
  drv i2$ %i, %i1 after %t0
  wait %b2 for %t
b2:
  drv i2$ %i, %i3 after %t0
  wait %b3 for %t
b3:
  halt
}

entity @top () -> () {
  %z2 = const i2 0
  %z8 = const i8 0
  %zm = [4 x i8 %z8]
  %i = sig i2 %z2
  %m = sig [4 x i8] %zm
  %y = sig i8 %z8
  inst @rd (i2$ %i, [4 x i8]$ %m) -> (i8$ %y)
  inst @stim () -> (i2$ %i, [4 x i8]$ %m)
}
"""

# Storage cells whose reg writes part of their output: a memory write
# port (an element picked by a dynamic index) and a register on a bit
# slice, the latter with the implicit epsilon delay.
_PARTIAL_STORAGE = """
entity @cell_wp (i2$ %i0, i8$ %d0, i1$ %t0) -> ([4 x i8]$ %q) {
  %0 = prb i2$ %i0
  %1 = extf i8$, [4 x i8]$ %q, %0
  %2 = prb i8$ %d0
  %3 = prb i1$ %t0
  %4 = const time 0s
  reg i8$ %1, %2 rise %3 after %4
}

entity @cell_slice (i4$ %d0, i1$ %t0) -> (i8$ %q) {
  %0 = exts i4$, i8$ %q, 2, 4
  %1 = prb i4$ %d0
  %2 = prb i1$ %t0
  reg i4$ %0, %1 rise %2
}

proc @stim () -> (i2$ %i, i8$ %d, i4$ %n, i1$ %clk) {
b0:
  %t = const time 1ns
  %t0 = const time 0s
  %one = const i1 1
  %zero = const i1 0
  %i2 = const i2 2
  %i1 = const i2 1
  %d1 = const i8 77
  %d2 = const i8 99
  %n1 = const i4 13
  %n2 = const i4 6
  drv i2$ %i, %i2 after %t0
  drv i8$ %d, %d1 after %t0
  drv i4$ %n, %n1 after %t0
  wait %b1 for %t
b1:
  drv i1$ %clk, %one after %t0
  wait %b2 for %t
b2:
  drv i1$ %clk, %zero after %t0
  drv i2$ %i, %i1 after %t0
  drv i8$ %d, %d2 after %t0
  drv i4$ %n, %n2 after %t0
  wait %b3 for %t
b3:
  drv i1$ %clk, %one after %t0
  wait %b4 for %t
b4:
  halt
}

entity @top () -> () {
  %z1 = const i1 0
  %z2 = const i2 0
  %z4 = const i4 0
  %z8 = const i8 0
  %zm = [4 x i8 %z8]
  %i = sig i2 %z2
  %d = sig i8 %z8
  %n = sig i4 %z4
  %clk = sig i1 %z1
  %m = sig [4 x i8] %zm
  %q = sig i8 %z8
  inst @cell_wp (i2$ %i, i8$ %d, i1$ %clk) -> ([4 x i8]$ %m)
  inst @cell_slice (i4$ %n, i1$ %clk) -> (i8$ %q)
  inst @stim () -> (i2$ %i, i8$ %d, i4$ %n, i1$ %clk)
}
"""

# Cell-shaped entities the cone must not absorb: each runs event-driven,
# with its reason recorded.  ``%b`` is driven by no one but the cell.
_NOT_A_CELL = """
entity @cell (i1$ %a, i1$ %b, i1$ %clk, time$ %d) -> (i1$ %y) {{
{body}
}}

proc @stim () -> (i1$ %a, i1$ %clk) {{
b0:
  %t = const time 1ns
  %t0 = const time 0s
  %one = const i1 1
  %zero = const i1 0
  drv i1$ %a, %one after %t0
  drv i1$ %clk, %one after %t0
  wait %b1 for %t
b1:
  drv i1$ %clk, %zero after %t0
  wait %b2 for %t
b2:
  drv i1$ %a, %zero after %t0
  drv i1$ %clk, %one after %t0
  wait %b3 for %t
b3:
  halt
}}

func @inv (i1 %x) i1 {{
entry:
  %r = not i1 %x
  ret i1 %r
}}

entity @top () -> () {{
  %z1 = const i1 0
  %zt = const time 1ns
  %a = sig i1 %z1
  %b = sig i1 %z1
  %clk = sig i1 %z1
  %d = sig time %zt
  %y = sig i1 %z1
  inst @cell (i1$ %a, i1$ %b, i1$ %clk, time$ %d) -> (i1$ %y)
  inst @stim () -> (i1$ %a, i1$ %clk)
}}
"""

#: body -> the fallback reason it records.
_NOT_A_CELL_BODIES = {
    "conditional drive": ("""
  %0 = prb i1$ %a
  %1 = prb i1$ %clk
  %t = const time 0s
  drv i1$ %y, %0 after %t if %1""", "conditional"),
    "drive of an input": ("""
  %0 = prb i1$ %a
  %t = const time 0s
  %n = not i1 %0
  drv i1$ %b, %n after %t""", "sole output"),
    "non-constant delay": ("""
  %0 = prb i1$ %a
  %1 = prb time$ %d
  %n = not i1 %0
  drv i1$ %y, %n after %1""", "gate delay is not a constant"),
    "two drives": ("""
  %0 = prb i1$ %a
  %1 = prb i1$ %clk
  %t = const time 0s
  drv i1$ %y, %0 after %t
  drv i1$ %y, %1 after %t""", "drives more than once"),
    "function call": ("""
  %0 = prb i1$ %a
  %t = const time 0s
  %n = call i1 @inv (i1 %0)
  drv i1$ %y, %n after %t""", "'call' is not a pure cell op"),
    "no drive": ("""
  %0 = prb i1$ %a""", "no output drive"),
    "probe of a non-input": ("""
  %0 = prb i1$ %a
  %1 = prb i1$ %y
  %t = const time 0s
  %o = or i1 %0, %1
  drv i1$ %y, %o after %t""", "not an input port"),
    "two regs": ("""
  %0 = prb i1$ %a
  %1 = prb i1$ %clk
  %2 = prb i1$ %b
  reg i1$ %y, %0 rise %1
  reg i1$ %y, %2 fall %1""", "more than one reg"),
    "reg data not a port probe": ("""
  %1 = prb i1$ %clk
  %c = const i1 1
  reg i1$ %y, %c rise %1""", "not an input-port probe"),
    "reg with a non-constant delay": ("""
  %0 = prb i1$ %a
  %1 = prb i1$ %clk
  %2 = prb time$ %d
  reg i1$ %y, %0 rise %1 after %2""", "reg delay is not a constant"),
    "reg of an input": ("""
  %0 = prb i1$ %a
  %1 = prb i1$ %clk
  reg i1$ %b, %0 rise %1""", "not the sole output"),
    "probe of a non-input beside a reg": ("""
  %0 = prb i1$ %y
  %1 = prb i1$ %clk
  reg i1$ %y, %0 rise %1""", "not an input port"),
    "pure op beside a reg": ("""
  %0 = prb i1$ %a
  %1 = prb i1$ %clk
  %n = not i1 %0
  reg i1$ %y, %n rise %1""", "'not' in a storage cell"),
}


# A gate whose input port is bound to a slice of a net: the cone only
# reads whole nets, so this instance runs event-driven.
_PROJECTED_PORT = """
entity @cell_inv_i1 (i1$ %a0) -> (i1$ %y) {
  %0 = prb i1$ %a0
  %t = const time 0s
  %n = not i1 %0
  drv i1$ %y, %n after %t
}

proc @stim () -> (i2$ %p) {
b0:
  %t = const time 1ns
  %v = const i2 1
  drv i2$ %p, %v after %t
  wait %b1 for %t
b1:
  halt
}

entity @top () -> () {
  %z1 = const i1 0
  %z2 = const i2 0
  %p = sig i2 %z2
  %y = sig i1 %z1
  %lo = exts i1$, i2$ %p, 0, 1
  inst @cell_inv_i1 (i1$ %lo) -> (i1$ %y)
  inst @stim () -> (i2$ %p)
}
"""


def _run_both(source, top="top", until_fs=None, cache_dir=None):
    """Simulate under interp and levelized; assert identical traces."""
    ref = simulate(parse_module(source), top, until_fs=until_fs)
    res = simulate(parse_module(source), top, until_fs=until_fs,
                   backend="levelized", cache_dir=cache_dir)
    assert ref.trace.differences(res.trace) == []
    assert res.assertion_failures == ref.assertion_failures
    return res


def test_latch_cell_absorbed(tmp_path):
    res = _run_both(_LATCH, cache_dir=str(tmp_path))
    report = res.design.report
    assert report["seqs"] == 1
    assert report["fallbacks"] == []
    # The latch tracked the data while transparent and held it after.
    history = dict(res.trace.changes)["top.q"]
    assert history[-1][1] == 42


def test_register_cut_feedback_levelizes(tmp_path):
    res = _run_both(_TOGGLE, until_fs=20_000_000, cache_dir=str(tmp_path))
    report = res.design.report
    assert report["gates"] == 1 and report["seqs"] == 1
    assert report["cycles"] == []
    # The register actually toggled.
    history = dict(res.trace.changes)["top.q"]
    assert len(history) > 4


def test_multi_clock_domains(tmp_path):
    _run_both(_TWO_CLOCKS, until_fs=30_000_000, cache_dir=str(tmp_path))


def test_combinational_cycle_diagnosed_and_settled(tmp_path):
    res = _run_both(_SR_LATCH, cache_dir=str(tmp_path))
    report = res.design.report
    assert report["cycles"], "cross-coupled NORs must be diagnosed"
    assert any("top.q" in members for members in report["cycles"])
    history = dict(res.trace.changes)["top.q"]
    assert history[-1][1] == 0  # reset won


def test_nonzero_delay_cell_falls_back(tmp_path):
    res = _run_both(_SLOW_CELL, cache_dir=str(tmp_path))
    fallbacks = res.design.fallback_cells
    assert len(fallbacks) == 1
    path, reason = fallbacks[0]
    assert "cell_slow_inv" in path
    assert "delay" in reason


def test_read_port_cell_absorbed_as_one_gate(tmp_path):
    from repro.interop import netlist_design

    ref = simulate(parse_module(_READ_PORT), "top")
    linked = netlist_design(parse_module(_READ_PORT))
    cells = [u.name for u in linked if u.name.startswith("cell_")]
    assert len(cells) == 1 and cells[0].startswith("cell_readport")
    res = simulate(linked, "top", backend="levelized",
                   cache_dir=str(tmp_path))
    assert ref.trace.differences(res.trace) == []
    report = res.design.report
    assert report["gates"] == 1 and report["seqs"] == 0
    assert report["fallbacks"] == []
    history = dict(res.trace.changes)["top.y"]
    assert [v for _t, v in history] == [11, 22, 44]


def test_partial_storage_cells_absorbed(tmp_path):
    res = _run_both(_PARTIAL_STORAGE, cache_dir=str(tmp_path))
    report = res.design.report
    assert report["seqs"] == 2
    assert report["fallbacks"] == []
    changes = dict(res.trace.changes)
    assert changes["top.m"][-1][1] == (0, 99, 77, 0)
    assert changes["top.q"][-1][1] == 6 << 2


@pytest.mark.parametrize("case", sorted(_NOT_A_CELL_BODIES))
def test_unabsorbable_body_falls_back(case, tmp_path):
    body, reason = _NOT_A_CELL_BODIES[case]
    res = _run_both(_NOT_A_CELL.format(body=body), cache_dir=str(tmp_path))
    [(path, why)] = res.design.fallback_cells
    assert path == "top.cell" and reason in why


def test_projected_port_falls_back(tmp_path):
    res = _run_both(_PROJECTED_PORT, cache_dir=str(tmp_path))
    assert res.design.fallback_cells == [
        ("top.cell_inv_i1", "cell port bound to a projected sub-signal")]
    assert dict(res.trace.changes)["top.y"] == [(0, 1), (1_000_000, 0)]


def test_multi_driven_net_raises():
    with pytest.raises(SimulationError, match="more than one"):
        simulate(parse_module(_MULTI_DRIVER), "top", backend="levelized",
                 cache_dir=None)


def test_sanitize_rejected():
    with pytest.raises(SimulationError, match="sanitizer"):
        simulate(parse_module(_TOGGLE), "top", until_fs=4_000_000,
                 backend="levelized", sanitize=True)


# -- committing the cone's nets ------------------------------------------------

# Gates, a flip-flop, a slow (fallback) inverter, a clock rising at odd
# and falling at even nanoseconds, and a process counting its wakes on
# %w into %n.
_COMMIT_CELLS = """
entity @cell_inv_l1 (l1$ %a0) -> (l1$ %y) {
  %0 = prb l1$ %a0
  %t = const time 0s
  %n = not l1 %0
  drv l1$ %y, %n after %t
}

entity @cell_buf_l1 (l1$ %a0) -> (l1$ %y) {
  %0 = prb l1$ %a0
  %t = const time 0s
  drv l1$ %y, %0 after %t
}

entity @cell_xor_l1_l1 (l1$ %a0, l1$ %a1) -> (l1$ %y) {
  %0 = prb l1$ %a0
  %1 = prb l1$ %a1
  %t = const time 0s
  %x = xor l1 %0, %1
  drv l1$ %y, %x after %t
}

entity @cell_dff_l1 (l1$ %d0, l1$ %t0) -> (l1$ %q) {
  %0 = prb l1$ %d0
  %1 = prb l1$ %t0
  %t = const time 0s
  reg l1$ %q, %0 rise %1 after %t
}

entity @cell_slow_inv (l1$ %a0) -> (l1$ %y) {
  %0 = prb l1$ %a0
  %t = const time 1ns
  %n = not l1 %0
  drv l1$ %y, %n after %t
}

proc @clkgen () -> (l1$ %clk) {
b0:
  %half = const time 1ns
  %t0 = const time 0s
  %one = const l1 "1"
  %zero = const l1 "0"
  wait %b1 for %half
b1:
  drv l1$ %clk, %one after %t0
  wait %b2 for %half
b2:
  drv l1$ %clk, %zero after %t0
  br %b0
}

proc @watch (l1$ %w) -> () {
entry:
  wait %entry for %w
}

proc @count (l1$ %w) -> (i8$ %n) {
entry:
  wait %woke for %w
woke:
  %np = prb i8$ %n
  %one = const i8 1
  %n1 = add i8 %np, %one
  %t0 = const time 0s
  drv i8$ %n, %n1 after %t0
  br %entry
}
"""

_UNTIL = 20_000_000


def _commit_design(sigs="", insts="", ff_clock="%clk"):
    """A toggle flip-flop (``%d = not %q`` changes at every rising edge
    of ``ff_clock``) plus ``sigs`` and ``insts``."""
    return _COMMIT_CELLS + f"""
entity @top () -> () {{
  %z1 = const l1 "0"
  %o1 = const l1 "1"
  %z8 = const i8 0
  %clk = sig l1 %z1
  %q = sig l1 %z1
  %d = sig l1 %o1
  %n = sig i8 %z8{sigs}
  inst @cell_inv_l1 (l1$ %q) -> (l1$ %d)
  inst @cell_dff_l1 (l1$ %d, l1$ {ff_clock}) -> (l1$ %q)
  inst @clkgen () -> (l1$ %clk){insts}
}}
"""


def _run_commit(tmp_path, **parts):
    return _run_both(_commit_design(**parts), until_fs=_UNTIL,
                     cache_dir=str(tmp_path))


def test_process_waiting_on_a_cone_net_resumes_once_per_change(tmp_path):
    res = _run_commit(tmp_path, insts="""
  inst @count (l1$ %d) -> (i8$ %n)""")
    changes = len(res.trace.history("top.d")) - 1
    assert changes == 10
    assert res.trace.history("top.n")[-1][1] == changes


def test_net_that_settles_back_in_one_run_records_and_wakes_nothing(
        tmp_path):
    # The flip-flop is clocked by %g, a gate output, so at a rising edge
    # the cone settles twice: first %y = %b xor %q flips with %b, then
    # the flip-flop fires and %y flips back.  The event-driven engines
    # see %b and %q change in the same delta, so %y never moves there.
    res = _run_commit(tmp_path, ff_clock="%g", sigs="""
  %g = sig l1 %z1
  %b1 = sig l1 %z1
  %b = sig l1 %z1
  %y = sig l1 %z1""", insts="""
  inst @cell_buf_l1 (l1$ %clk) -> (l1$ %g)
  inst @cell_buf_l1 (l1$ %clk) -> (l1$ %b1)
  inst @cell_buf_l1 (l1$ %b1) -> (l1$ %b)
  inst @cell_xor_l1_l1 (l1$ %b, l1$ %q) -> (l1$ %y)
  inst @count (l1$ %y) -> (i8$ %n)""")
    assert res.design.report["seqs"] == 1
    assert res.design.report["fallbacks"] == []
    # %y changes at falling edges only (even nanoseconds), and the
    # process woke once for each of them.
    history = res.trace.history("top.y")
    assert [t // 1_000_000 for t, _v in history] == list(range(0, 21, 2))
    assert res.trace.history("top.n")[-1][1] == len(history) - 1


def test_gate_output_that_clocks_its_own_toggle_settles_back(tmp_path):
    # %g = %clk xor %q clocks the toggle flip-flop, so at every clock
    # edge %g rises, the flip-flop toggles %q, and %g falls again: one
    # run writes %g twice and leaves it where it was.  Interp records
    # the rise and pops it at the fall, so %g keeps its one entry; the
    # cone commits %g unchanged, so a process waiting on it never wakes
    # after its first run.
    runs = {}
    for insts in ("", """
  inst @watch (l1$ %g) -> ()"""):
        res = _run_commit(tmp_path, ff_clock="%g", sigs="""
  %g = sig l1 %z1""", insts="""
  inst @cell_xor_l1_l1 (l1$ %clk, l1$ %q) -> (l1$ %g)""" + insts)
        assert res.design.report["seqs"] == 1
        assert res.design.report["fallbacks"] == []
        assert len(res.trace.history("top.g")) == 1
        history = res.trace.history("top.q")
        assert [t // 1_000_000 for t, _v in history] == list(range(0, 21))
        runs[bool(insts)] = res.stats["activations"]
    assert runs[True] == runs[False] + 1


def _spy_on_relisted(monkeypatch):
    """The ``relisted`` flag of every commit the cone makes."""
    seen = []
    commit = levelize._Cone._commit

    def spy(self, wrote, relisted):
        seen.append(relisted)
        return commit(self, wrote, relisted)
    monkeypatch.setattr(levelize._Cone, "_commit", spy)
    return seen


def test_one_round_of_writes_compares_nothing(tmp_path, monkeypatch):
    # A comb-only cone: each clock edge settles %y and %w once, and the
    # run's second round only finds that nothing observes them.  A slot
    # is listed once, so the commit compares nothing.
    seen = _spy_on_relisted(monkeypatch)
    res = _run_both(_COMMIT_CELLS + """
entity @top () -> () {
  %z1 = const l1 "0"
  %clk = sig l1 %z1
  %y = sig l1 %z1
  %w = sig l1 %z1
  inst @cell_inv_l1 (l1$ %clk) -> (l1$ %y)
  inst @cell_buf_l1 (l1$ %y) -> (l1$ %w)
  inst @clkgen () -> (l1$ %clk)
}
""", until_fs=_UNTIL, cache_dir=str(tmp_path))
    assert res.design.report["gates"] == 2
    assert res.design.report["seqs"] == 0
    assert len(res.trace.history("top.w")) == 21
    assert len(seen) == 21 and not any(seen)


def test_two_rounds_of_writes_compare(tmp_path, monkeypatch):
    # %g = %clk xor %q: at every clock edge one round raises %g and the
    # next, after the flip-flop toggled %q, drops it again, so %g is
    # listed twice and must be compared.  The first run writes nothing.
    seen = _spy_on_relisted(monkeypatch)
    res = _run_commit(tmp_path, ff_clock="%g", sigs="""
  %g = sig l1 %z1""", insts="""
  inst @cell_xor_l1_l1 (l1$ %clk, l1$ %q) -> (l1$ %g)""")
    assert len(res.trace.history("top.g")) == 1
    assert seen == [True] * 20


def test_con_merged_cone_net_records_under_both_names(tmp_path):
    res = _run_commit(tmp_path, sigs="""
  %e = sig l1 %o1""", insts="""
  con l1$ %d, %e""")
    history = res.trace.history("top.d")
    assert len(history) == 11
    assert res.trace.history("top.e") == history


def test_fallback_cell_reading_a_cone_net_is_woken(tmp_path):
    res = _run_commit(tmp_path, sigs="""
  %s = sig l1 %z1""", insts="""
  inst @cell_slow_inv (l1$ %d) -> (l1$ %s)""")
    [(path, reason)] = res.design.fallback_cells
    assert path == "top.cell_slow_inv" and "delay" in reason
    # %s follows not %d one nanosecond later.
    d, s = res.trace.history("top.d"), res.trace.history("top.s")
    assert s[1:] == [(t + 1_000_000, v.not_()) for t, v in d[1:]
                     if t + 1_000_000 <= _UNTIL]


# -- what a storage cell observes ----------------------------------------------

_NS = 1_000_000

_OBS_CELLS = """
entity @cell_and_i1 (i1$ %a0, i1$ %a1) -> (i1$ %y) {
  %0 = prb i1$ %a0
  %1 = prb i1$ %a1
  %t = const time 0s
  %o = and i1 %0, %1
  drv i1$ %y, %o after %t
}

entity @cell_inv_i1 (i1$ %a0) -> (i1$ %y) {
  %0 = prb i1$ %a0
  %t = const time 0s
  %n = not i1 %0
  drv i1$ %y, %n after %t
}

entity @cell_dff_i1 (i1$ %d0, i1$ %t0) -> (i1$ %q) {
  %0 = prb i1$ %d0
  %1 = prb i1$ %t0
  %t = const time 0s
  reg i1$ %q, %0 rise %1 after %t
}

entity @cell_dff_i4 (i4$ %d0, i1$ %t0) -> (i4$ %q) {
  %0 = prb i4$ %d0
  %1 = prb i1$ %t0
  %t = const time 0s
  reg i4$ %q, %0 rise %1 after %t
}

entity @cell_dffe_i4 (i4$ %d0, i1$ %t0, i1$ %c0) -> (i4$ %q) {
  %0 = prb i4$ %d0
  %1 = prb i1$ %t0
  %2 = prb i1$ %c0
  %t = const time 0s
  reg i4$ %q, %0 rise %1 if %2 after %t
}

entity @cell_dff2_i4 (i4$ %d0, i1$ %t0, i1$ %c0, i4$ %d1, i1$ %t1,
                      i1$ %c1) -> (i4$ %q) {
  %0 = prb i4$ %d0
  %1 = prb i1$ %t0
  %2 = prb i1$ %c0
  %3 = const time 0s
  %4 = prb i4$ %d1
  %5 = prb i1$ %t1
  %6 = prb i1$ %c1
  %7 = const time 0s
  reg i4$ %q, %0 rise %1 if %2 after %3, %4 rise %5 if %6 after %7
}

entity @cell_wp_a4xi8 (i2$ %i0, i8$ %d0, i1$ %t0, i1$ %c0)
    -> ([4 x i8]$ %q) {
  %0 = prb i2$ %i0
  %1 = extf i8$, [4 x i8]$ %q, %0
  %2 = prb i8$ %d0
  %3 = prb i1$ %t0
  %4 = prb i1$ %c0
  %5 = const time 0s
  reg i8$ %1, %2 rise %3 if %4 after %5
}

entity @cell_dffd_i4 (i4$ %d0, i1$ %t0) -> (i4$ %q) {
  %0 = prb i4$ %d0
  %1 = prb i1$ %t0
  %t = const time 300ps
  reg i4$ %q, %0 rise %1 after %t
}
"""


def _observing(sigs, insts, steps):
    """A design over :data:`_OBS_CELLS`: ``sigs`` maps each net to its
    type, ``insts`` are the cell instances, and a process drives the
    nets named in ``steps``, one ``{net: value}`` step per nanosecond,
    then halts."""
    driven = [name for name in sigs if any(name in s for s in steps)]
    ports = ", ".join(f"{sigs[name]}$ %{name}" for name in driven)
    stim = [f"proc @stim () -> ({ports}) {{", "b0:",
            "  %t = const time 1ns", "  %t0 = const time 0s"]
    for k, step in enumerate(steps):
        if k:
            stim.append(f"b{k}:")
        for name, value in step.items():
            ty = sigs[name]
            stim.append(f"  %v{k}_{name} = const {ty} {value}")
            stim.append(f"  drv {ty}$ %{name}, %v{k}_{name} after %t0")
        stim.append(f"  wait %b{k + 1} for %t")
    stim += [f"b{len(steps)}:", "  halt", "}"]
    top = ["entity @top () -> () {"]
    for name, ty in sigs.items():
        if ty.startswith("["):
            length, elem = ty[1:-1].split(" x ")
            top.append(f"  %z_{name}0 = const {elem} 0")
            top.append(f"  %z_{name} = [{length} x {elem} %z_{name}0]")
        else:
            top.append(f"  %z_{name} = const {ty} 0")
        top.append(f"  %{name} = sig {ty} %z_{name}")
    top += [f"  inst {inst}" for inst in insts]
    top += [f"  inst @stim () -> ({ports})", "}"]
    return _OBS_CELLS + "\n".join(stim + top) + "\n"


def _values(res, name):
    return [(t // _NS, int(v)) for t, v in res.trace.history(name)]


# A register clocked by a gate output: %gclk is a cone net, and it
# rises when %en does while %clk is high (5ns), not only with %clk.
_GATED_CLOCK = _observing(
    {"clk": "i1", "en": "i1", "gclk": "i1", "d": "i4", "q": "i4"},
    ["@cell_and_i1 (i1$ %clk, i1$ %en) -> (i1$ %gclk)",
     "@cell_dff_i4 (i4$ %d, i1$ %gclk) -> (i4$ %q)"],
    [{"d": 3, "en": 1}, {"clk": 1}, {"clk": 0, "d": 5}, {"en": 0},
     {"clk": 1}, {"en": 1}, {"clk": 0, "d": 7}, {"d": 9}, {"clk": 1},
     {"en": 0}])

# A ripple pair: %q0 toggles at each rising %clk, %q1 at each rising
# %q0, a storage output the cone itself writes.
_RIPPLE = _observing(
    {"clk": "i1", "q0": "i1", "n0": "i1", "q1": "i1", "n1": "i1"},
    ["@cell_inv_i1 (i1$ %q0) -> (i1$ %n0)",
     "@cell_dff_i1 (i1$ %n0, i1$ %clk) -> (i1$ %q0)",
     "@cell_inv_i1 (i1$ %q1) -> (i1$ %n1)",
     "@cell_dff_i1 (i1$ %n1, i1$ %q0) -> (i1$ %q1)"],
    [{"clk": k % 2} for k in range(11)])

# The fifo's cell shape: one reg with two conditional triggers, both on
# %clk (%qa), or on %clk and %clk2 (%qb), which rise together at 4ns.
_MULTI_TRIGGER = _observing(
    {"clk": "i1", "clk2": "i1", "c0": "i1", "c1": "i1", "d0": "i4",
     "d1": "i4", "qa": "i4", "qb": "i4"},
    ["@cell_dff2_i4 (i4$ %d0, i1$ %clk, i1$ %c0, i4$ %d1, i1$ %clk, "
     "i1$ %c1) -> (i4$ %qa)",
     "@cell_dff2_i4 (i4$ %d0, i1$ %clk, i1$ %c0, i4$ %d1, i1$ %clk2, "
     "i1$ %c1) -> (i4$ %qb)"],
    [{"d0": 1, "d1": 2, "c0": 1}, {"clk": 1},
     {"clk": 0, "c0": 0, "c1": 1, "d0": 3}, {"d1": 4},
     {"clk": 1, "clk2": 1}, {"clk": 0, "clk2": 0, "c0": 1, "d0": 6},
     {"clk2": 1}, {"c1": 0, "d1": 7}, {"clk": 1},
     {"clk": 0, "clk2": 0}])

# A memory write port: the index, data and enable change between edges.
_WRITE_PORT = _observing(
    {"i": "i2", "d": "i8", "clk": "i1", "we": "i1", "m": "[4 x i8]"},
    ["@cell_wp_a4xi8 (i2$ %i, i8$ %d, i1$ %clk, i1$ %we) "
     "-> ([4 x i8]$ %m)"],
    [{"i": 1, "d": 11, "we": 1}, {"clk": 1}, {"clk": 0, "i": 2},
     {"d": 22}, {"clk": 1}, {"clk": 0, "i": 3, "d": 33, "we": 0},
     {"clk": 1}, {"clk": 0, "we": 1, "i": 0}, {"clk": 1}])

# A 300ps clock-to-output register, whose fire goes to the scheduler,
# feeding the data of a zero-delay one on the same clock.
_DELAYED_REG = _observing(
    {"clk": "i1", "d": "i4", "q": "i4", "r": "i4"},
    ["@cell_dffd_i4 (i4$ %d, i1$ %clk) -> (i4$ %q)",
     "@cell_dff_i4 (i4$ %q, i1$ %clk) -> (i4$ %r)"],
    [{"d": 1}, {"clk": 1}, {"clk": 0, "d": 2}, {"clk": 1},
     {"clk": 0, "d": 3}, {"clk": 1}, {"clk": 0}])


@pytest.mark.parametrize("source, net, values", [
    (_GATED_CLOCK, "top.q", [(0, 0), (1, 3), (5, 5), (8, 9)]),
    (_RIPPLE, "top.q1", [(0, 0), (1, 1), (5, 0), (9, 1)]),
    (_MULTI_TRIGGER, "top.qa", [(0, 0), (1, 1), (4, 4), (8, 6)]),
    (_MULTI_TRIGGER, "top.qb", [(0, 0), (1, 1), (4, 4), (8, 6)]),
    (_DELAYED_REG, "top.r", [(0, 0), (3, 1), (5, 2)]),
], ids=["gated clock", "ripple pair", "multi-trigger", "second clock",
        "delayed reg"])
def test_storage_cell_shapes_match_interp(source, net, values, tmp_path):
    res = _run_both(source, cache_dir=str(tmp_path))
    assert res.design.report["fallbacks"] == []
    assert _values(res, net) == values


def test_write_port_reads_index_and_data_at_the_edge(tmp_path):
    res = _run_both(_WRITE_PORT, cache_dir=str(tmp_path))
    history = res.trace.history("top.m")
    assert [(t // _NS, tuple(map(int, m))) for t, m in history] == [
        (0, (0, 0, 0, 0)), (1, (0, 11, 0, 0)), (4, (0, 11, 22, 0)),
        (8, (33, 11, 22, 0))]


def _observed(source, tmp_path):
    """Each storage cell's output net -> the nets it observes."""
    design = elaborate_levelized(parse_module(source), "top",
                                 cache_dir=str(tmp_path))
    plan = design.cone.plan
    name = [sig.name for sig in plan.slot_sigs]
    return {name[cell.root_slot]: {name[s] for s in cell.obs}
            for cell in plan.seqs}


def test_edge_triggered_cell_observes_only_its_triggers(tmp_path):
    assert _observed(_MULTI_TRIGGER, tmp_path) == {
        "top.qa": {"top.clk"}, "top.qb": {"top.clk", "top.clk2"}}
    assert _observed(_WRITE_PORT, tmp_path) == {"top.m": {"top.clk"}}
    assert _observed(_GATED_CLOCK, tmp_path) == {"top.q": {"top.gclk"}}


def test_latch_observes_every_port(tmp_path):
    assert _observed(_LATCH, tmp_path) == {
        "top.q": {"top.d", "top.en", "top.q"}}


def test_data_and_enable_changes_evaluate_no_storage_cell(tmp_path,
                                                          monkeypatch):
    source = _observing(
        {"clk": "i1", "en": "i1", "d": "i4", "q": "i4"},
        ["@cell_dffe_i4 (i4$ %d, i1$ %clk, i1$ %en) -> (i4$ %q)"],
        [{"d": 1, "en": 1}, {"clk": 1}, {"d": 2}, {"en": 0}, {"d": 3},
         {"en": 1}, {"clk": 0}, {"d": 4}, {"clk": 1}, {"en": 0, "d": 5}])
    ref = simulate(parse_module(source), "top")
    kernel = Kernel(trace=Trace())
    elaborate_levelized(parse_module(source), "top", kernel,
                        cache_dir=str(tmp_path))
    evaluated = []

    def fired(triggers, prev, values):
        evaluated.append(kernel.now[0] // _NS)
        return fired_trigger(triggers, prev, values)

    monkeypatch.setattr(levelize, "fired_trigger", fired)
    kernel.run()
    assert evaluated == [1, 6, 8]   # the clock's changes, and only those
    assert kernel.trace.differences(ref.trace) == []
    assert [(t // _NS, int(v)) for t, v in
            kernel.trace.history("top.q")] == [(0, 0), (1, 1), (8, 4)]


# -- the compile cache ---------------------------------------------------------


def _only_entry(directory):
    """The single cache entry a cold run left in ``directory``."""
    entries = list(directory.iterdir())
    assert len(entries) == 1
    return entries[0]


def _poison(entry):
    """Keep the entry's recorded key but make its cone call a helper
    that does not exist, which would raise NameError if it were loaded."""
    key, _code = marshal.loads(entry.read_bytes())
    code = compile("def _settle_all(V):\n    return _removed_helper(V)\n",
                   "<levelized-cone>", "exec")
    entry.write_bytes(marshal.dumps((key, code)))


def _assert_recompiled_then_warm(cache_dir):
    """One bad entry was counted and recompiled; the next run hits."""
    res = _run_both(_TOGGLE, until_fs=8_000_000, cache_dir=str(cache_dir))
    assert res.stats["cache_errors"] == 1
    assert res.stats["cache_misses"] == 1
    assert res.stats["cache_hits"] == 0
    warm = _run_both(_TOGGLE, until_fs=8_000_000, cache_dir=str(cache_dir))
    assert warm.stats["cache_hits"] == 1
    assert warm.stats["cache_errors"] == 0


def _assert_missed_cleanly(cache_dir):
    """A run that looked under a new key: no hit, no error, two entries."""
    res = _run_both(_TOGGLE, until_fs=8_000_000, cache_dir=str(cache_dir))
    assert res.stats["cache_hits"] == 0
    assert res.stats["cache_misses"] == 1
    assert res.stats["cache_errors"] == 0
    assert len(list(cache_dir.iterdir())) == 2


def test_cache_cold_then_warm(tmp_path):
    cold = _run_both(_TOGGLE, until_fs=8_000_000, cache_dir=str(tmp_path))
    assert cold.stats["cache_misses"] == 1
    assert cold.stats["cache_hits"] == 0
    _only_entry(tmp_path)
    warm = _run_both(_TOGGLE, until_fs=8_000_000, cache_dir=str(tmp_path))
    assert warm.stats["cache_hits"] == 1
    assert warm.stats["cache_misses"] == 0
    assert warm.stats["cache_errors"] == 0


def test_corrupted_cache_entry_recompiles(tmp_path):
    _run_both(_TOGGLE, until_fs=8_000_000, cache_dir=str(tmp_path))
    entry = _only_entry(tmp_path)
    entry.write_bytes(b"this is not (((valid python")
    _assert_recompiled_then_warm(tmp_path)
    # The fresh compile overwrote the corrupted entry.
    assert b"not (((valid" not in entry.read_bytes()


def test_truncated_cache_entry_recompiles(tmp_path):
    _run_both(_TOGGLE, until_fs=8_000_000, cache_dir=str(tmp_path))
    entry = _only_entry(tmp_path)
    whole = entry.read_bytes()
    entry.write_bytes(whole[:len(whole) // 2])
    _assert_recompiled_then_warm(tmp_path)


def test_entry_under_another_key_recompiles(tmp_path):
    # An entry records its own key: another design's cone copied over
    # this design's entry fails that check instead of settling the
    # wrong gates.
    latch, toggle = tmp_path / "latch", tmp_path / "toggle"
    _run_both(_LATCH, cache_dir=str(latch))
    _run_both(_TOGGLE, until_fs=8_000_000, cache_dir=str(toggle))
    _only_entry(toggle).write_bytes(_only_entry(latch).read_bytes())
    _assert_recompiled_then_warm(toggle)


def test_changed_code_generator_never_loads_old_entry(tmp_path,
                                                      monkeypatch):
    # The key is the cone's own source, so a code generator that emits
    # anything else looks under another key and never loads the old
    # generator's entry.
    _run_both(_TOGGLE, until_fs=8_000_000, cache_dir=str(tmp_path))
    _poison(_only_entry(tmp_path))
    generate = compiled.generate_source
    monkeypatch.setattr(compiled, "generate_source",
                        lambda gates: generate(gates) + "# changed\n")
    _assert_missed_cleanly(tmp_path)


def test_entry_from_another_python_is_never_loaded(tmp_path, monkeypatch):
    # Code objects are specific to the Python that compiled them; the
    # key covers its bytecode magic number, so another Python's entry
    # sits under another key.
    monkeypatch.setattr(compiled, "MAGIC_NUMBER", b"\x00\x00\r\n")
    _run_both(_TOGGLE, until_fs=8_000_000, cache_dir=str(tmp_path))
    _poison(_only_entry(tmp_path))
    monkeypatch.undo()
    _assert_missed_cleanly(tmp_path)


def test_analysis_mode_skips_codegen(tmp_path):
    design = elaborate_levelized(parse_module(_TOGGLE), "top",
                                 cache_dir=str(tmp_path), analysis=True)
    assert design.cone is None
    assert design.report["gates"] == 1
    assert not list(tmp_path.iterdir())  # nothing written


# -- reach accounting and CLI --------------------------------------------------


def test_netlist_engine_report_lists_levelized():
    from repro.designs import stage_reach

    reach, rejections, engines, notes = stage_reach("gray", cycles=4)
    assert reach["netlist"] and rejections == []
    assert engines == ["interp", "blaze", "cycle", "levelized"]
    assert notes == []


#: gray's netlist at N=20: ``(deltas, events, activations)``.
_GRAY_NETLIST_STATS = {"blaze": (166, 342, 255), "levelized": (81, 121, 61)}


@pytest.mark.parametrize("backend", ["blaze", "levelized"])
def test_netlist_container_compiles_no_source(backend, tmp_path):
    # A techmapped container holds only sigs, consts and insts: nothing
    # runs after elaboration, so it compiles to the shared no-op with no
    # source, and still runs its one activation at time zero.
    from repro.designs import DESIGNS, compile_design
    from repro.interop import netlist_design
    from repro.passes.pipeline import lower_to_structural
    from repro.sim.blaze import (
        NOTHING_TO_RUN, BlazeEntityInstance, elaborate_compiled,
    )

    module = compile_design("gray", 20)
    lower_to_structural(module, strict=False)
    linked = netlist_design(module)
    kernel = Kernel(trace=Trace())
    if backend == "blaze":
        design = elaborate_compiled(linked, DESIGNS["gray"].top, kernel)
    else:
        design = elaborate_levelized(linked, DESIGNS["gray"].top, kernel,
                                     cache_dir=str(tmp_path))
    kernel.run()
    containers = [act for act in design.activities
                  if isinstance(act, BlazeEntityInstance)
                  and design.compiled(act.unit) is NOTHING_TO_RUN]
    assert [act.path for act in containers] == [
        "gray_tb", "gray_tb.gray_encode", "gray_tb.gray_decode",
        "gray_tb.gray_decode.gray_decode_always_comb_1"]
    assert NOTHING_TO_RUN.source is None and NOTHING_TO_RUN.slots == {}
    for act in containers:
        assert act._activate is NOTHING_TO_RUN.fn()
    stats = kernel.stats
    assert (stats["deltas"], stats["events"], stats["activations"]) == \
        _GRAY_NETLIST_STATS[backend]


def test_cli_levelized_stats_and_cache(tmp_path, capsys):
    from repro.sim.__main__ import main

    argv = ["--design", "lfsr", "--cycles", "4", "--engine", "levelized",
            "--stats", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert "levelized cache: 0 hits, 1 misses" in err
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert "levelized cache: 1 hits, 0 misses" in err


def test_cli_netlist_cross_check_includes_levelized(tmp_path, capsys):
    from repro.sim.__main__ import main

    rc = main(["--design", "gray", "--cycles", "4", "--netlist",
               "--cross-check", "--cache-dir", str(tmp_path)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "identical across interp, blaze, levelized" in err


def test_cli_rejects_levelized_batch_and_sanitize(tmp_path):
    from repro.sim.__main__ import main

    with pytest.raises(SystemExit):
        main(["--design", "gray", "--engine", "levelized", "--batch", "2"])
    with pytest.raises(SystemExit):
        main(["--design", "gray", "--engine", "levelized", "--sanitize"])
