"""Mux insertion: conditional/partial drives and N-way mux formation."""

from repro.ir import parse_module
from repro.ir.printer import print_unit
from repro.passes import muxinsert
from repro.sim import simulate


COND_DRIVE = """
entity @latch (i8$ %d, i1$ %en) -> (i8$ %q) {
  %dp = prb i8$ %d
  %enp = prb i1$ %en
  %t = const time 0s
  drv i8$ %q, %dp after %t if %enp
}

proc @tb () -> () {
entry:
  %z = const i8 0
  %t1 = const time 1ns
  %en0 = const i1 0
  %en1 = const i1 1
  %v1 = const i8 42
  %v2 = const i8 7
  drv i8$ %d, %v1 after %t1
  drv i1$ %en, %en1 after %t1
  wait %s1 for %q
s1:
  %t2 = const time 1ns
  drv i1$ %en, %en0 after %t2
  drv i8$ %d, %v2 after %t2
  wait %s2 for %d
s2:
  halt
}

entity @top () -> () {
  %z = const i8 0
  %o = const i1 0
  %d = sig i8 %z
  %en = sig i1 %o
  %q = sig i8 %z
  inst @latch (i8$ %d, i1$ %en) -> (i8$ %q)
  inst @tb () -> ()
}
"""


def _fix_tb(src):
    # The testbench process above drives nets it does not own through
    # its signature; rewrite it as proper ports.
    return src.replace(
        "proc @tb () -> ()",
        "proc @tb (i8$ %q) -> (i8$ %d, i1$ %en)").replace(
        "inst @tb () -> ()",
        "inst @tb (i8$ %q) -> (i8$ %d, i1$ %en)")


def test_conditional_drive_becomes_feedback_mux():
    module = parse_module(_fix_tb(COND_DRIVE))
    latch = module.get("latch")
    ref = simulate(parse_module(_fix_tb(COND_DRIVE)), "top")
    assert muxinsert.run(latch)
    text = print_unit(latch)
    assert "if" not in text.split("drv")[1]
    assert "mux" in text and "prb i8$ %q" in text
    low = simulate(module, "top")
    assert ref.trace.differences(low.trace) == []


PARTIAL_DRIVE = """
entity @slicewr (i8$ %d) -> (i16$ %q) {
  %dp = prb i8$ %d
  %t = const time 0s
  %proj = exts i8$, i16$ %q, 4, 8
  drv i8$ %proj, %dp after %t
}
"""


def test_partial_drive_becomes_whole_signal_inss():
    module = parse_module(PARTIAL_DRIVE)
    entity = module.get("slicewr")
    assert muxinsert.run(entity)
    text = print_unit(entity)
    assert "inss" in text
    drv = next(i for i in entity.body if i.opcode == "drv")
    assert drv.drv_signal().type.element.width == 16
    assert drv.drv_condition() is None


MULTI_DRIVER = """
entity @wired (i8$ %a, i8$ %b, i1$ %s) -> (i8$ %q) {
  %ap = prb i8$ %a
  %bp = prb i8$ %b
  %sp = prb i1$ %s
  %ns = not i1 %sp
  %t = const time 0s
  drv i8$ %q, %ap after %t if %sp
  drv i8$ %q, %bp after %t if %ns
}
"""


def test_multi_driver_signals_are_left_alone():
    module = parse_module(MULTI_DRIVER)
    entity = module.get("wired")
    assert not muxinsert.run(entity)
    drvs = [i for i in entity.body if i.opcode == "drv"]
    assert all(d.drv_condition() is not None for d in drvs)


PRIORITY_CHAIN = """
entity @prio (i8$ %v0, i8$ %v1, i8$ %v2, i8$ %v3,
              i1$ %c1, i1$ %c2, i1$ %c3) -> (i8$ %q) {
  %p0 = prb i8$ %v0
  %p1 = prb i8$ %v1
  %p2 = prb i8$ %v2
  %p3 = prb i8$ %v3
  %k1 = prb i1$ %c1
  %k2 = prb i1$ %c2
  %k3 = prb i1$ %c3
  %a1 = [i8 %p0, %p1]
  %m1 = mux i8 %a1, %k1
  %a2 = [i8 %m1, %p2]
  %m2 = mux i8 %a2, %k2
  %a3 = [i8 %m2, %p3]
  %m3 = mux i8 %a3, %k3
  %t = const time 0s
  drv i8$ %q, %m3 after %t
}
"""


def test_priority_chain_flattens_to_nway_mux():
    module = parse_module(PRIORITY_CHAIN)
    ref = simulate(parse_module(PRIORITY_CHAIN), "prio")
    entity = module.get("prio")
    assert muxinsert.run(entity)
    muxes = [i for i in entity.body if i.opcode == "mux"]
    wide = [m for m in muxes if len(m.operands[0].operands) == 4]
    assert len(wide) == 1, print_unit(entity)
    # The selector tower runs on a 2-bit priority index, not the 8-bit
    # datapath.
    assert wide[0].operands[1].type.width == 2
    low = simulate(module, "prio")
    assert ref.trace.differences(low.trace) == []


def test_rewritten_drives_reach_the_netlist_level():
    """After mux insertion, a conditional + partial drive maps onto
    library cells (feedback mux + insert wiring) and the netlist trace
    matches the structural one."""
    from repro.interop import netlist_design

    source = """
    entity @dut (i8$ %d, i1$ %en) -> (i16$ %q) {
      %dp = prb i8$ %d
      %enp = prb i1$ %en
      %t = const time 0s
      %proj = exts i8$, i16$ %q, 4, 8
      drv i8$ %proj, %dp after %t if %enp
    }

    proc @tb (i16$ %q) -> (i8$ %d, i1$ %en) {
    entry:
      %t1 = const time 1ns
      %v1 = const i8 42
      %v2 = const i8 7
      %on = const i1 1
      %off = const i1 0
      drv i8$ %d, %v1 after %t1
      drv i1$ %en, %on after %t1
      wait %s1 for %q
    s1:
      %t2 = const time 1ns
      drv i1$ %en, %off after %t2
      drv i8$ %d, %v2 after %t2
      wait %s2 for %d
    s2:
      halt
    }

    entity @top () -> () {
      %z8 = const i8 0
      %z16 = const i16 0
      %o = const i1 0
      %d = sig i8 %z8
      %en = sig i1 %o
      %q = sig i16 %z16
      inst @dut (i8$ %d, i1$ %en) -> (i16$ %q)
      inst @tb (i16$ %q) -> (i8$ %d, i1$ %en)
    }
    """
    ref = simulate(parse_module(source), "top")
    module = parse_module(source)
    muxinsert.run(module.get("dut"))
    linked = netlist_design(module)
    low = simulate(linked, "top")
    active = ref.trace.live_signals()
    assert active - set(low.trace.changes) == set()
    assert ref.trace.differences(low.trace) == []
    cells = [u.name for u in linked if u.name.startswith("cell_")]
    assert any("inss" in c for c in cells), cells


LATCHY_SV = """
module dut (input logic en, input logic [7:0] d,
            output logic [7:0] q);
  always_comb begin
    if (en)
      q = d;
  end
endmodule

module tb;
  logic en;
  logic [7:0] d, q;
  dut u (.en(en), .d(d), .q(q));
  initial begin
    en = 1'b1; d = 8'd5;  #1ns;
    d = 8'd9;             #1ns;
    en = 1'b0; d = 8'd77; #1ns;
    en = 1'b1;            #1ns;
  end
endmodule
"""


def test_latchy_always_comb_lowers_to_netlist_via_muxinsert():
    """A partial combinational assignment (`if (en) q = d;` with no
    else) keeps a dynamic drive condition through TCM/PL; mux insertion
    is what gets it through the technology mapper."""
    from repro.interop import netlist_design
    from repro.moore import compile_sv
    from repro.passes.pipeline import lower_to_structural

    ref = simulate(compile_sv(LATCHY_SV), "tb")
    module = compile_sv(LATCHY_SV)
    report = lower_to_structural(module, strict=False, verify=False)
    assert report.design_rejections() == []
    linked = netlist_design(module)
    low = simulate(linked, "tb")
    assert ref.trace.differences(low.trace) == []


def test_non_entity_units_are_untouched():
    module = parse_module("""
    proc @p (i8$ %a) -> (i8$ %b) {
    entry:
      halt
    }
    """)
    assert not muxinsert.run(module.get("p"))


def test_root_signal_walks_projections_and_rejects_values():
    module = parse_module("""
    entity @e (i8$ %a) -> ({i8, i8}$ %q) {
      %ap = prb i8$ %a
      %t = const time 0s
      %f = extf i8$, {i8, i8}$ %q, 0
      drv i8$ %f, %ap after %t
    }
    """)
    entity = module.get("e")
    drv = next(i for i in entity.body if i.opcode == "drv")
    root, steps = muxinsert._root_signal(drv.drv_signal())
    assert root is not None and len(steps) == 1
    const = next(i for i in entity.body if i.opcode == "const")
    assert muxinsert._root_signal(const) == (None, None)
    # The field drive itself rewrites to a whole-struct insf drive.
    assert muxinsert.run(entity)
    new_drv = next(i for i in entity.body if i.opcode == "drv")
    assert new_drv.drv_signal().type.element.is_struct


def test_delayed_conditional_drives_are_left_alone():
    module = parse_module("""
    entity @d (i8$ %a, i1$ %en) -> (i8$ %q) {
      %ap = prb i8$ %a
      %enp = prb i1$ %en
      %t = const time 5ns
      drv i8$ %q, %ap after %t if %enp
    }
    """)
    entity = module.get("d")
    assert not muxinsert.run(entity)
    drv = next(i for i in entity.body if i.opcode == "drv")
    assert drv.drv_condition() is not None


def test_cross_entity_shared_nets_are_not_rewritten():
    """Two entities conditionally driving one parent net must both keep
    their conditions: rewriting either would turn at-most-one-active
    into permanent multi-driver resolution."""
    source = """
    entity @drv_a (i8$ %v, i1$ %c) -> (i8$ %q) {
      %vp = prb i8$ %v
      %cp = prb i1$ %c
      %t = const time 0s
      drv i8$ %q, %vp after %t if %cp
    }

    entity @drv_b (i8$ %v, i1$ %c) -> (i8$ %q) {
      %vp = prb i8$ %v
      %cp = prb i1$ %c
      %nc = not i1 %cp
      %t = const time 0s
      drv i8$ %q, %vp after %t if %nc
    }

    entity @top (i8$ %a, i8$ %b, i1$ %sel) -> (i8$ %s) {
      inst @drv_a (i8$ %a, i1$ %sel) -> (i8$ %s)
      inst @drv_b (i8$ %b, i1$ %sel) -> (i8$ %s)
    }
    """
    module = parse_module(source)
    assert not muxinsert.run(module.get("drv_a"))
    assert not muxinsert.run(module.get("drv_b"))
    for name in ("drv_a", "drv_b"):
        drv = next(i for i in module.get(name).body if i.opcode == "drv")
        assert drv.drv_condition() is not None


def test_singly_instantiated_output_is_rewritten():
    source = """
    entity @latch (i8$ %d, i1$ %en) -> (i8$ %q) {
      %dp = prb i8$ %d
      %enp = prb i1$ %en
      %t = const time 0s
      drv i8$ %q, %dp after %t if %enp
    }

    entity @top (i8$ %d, i1$ %en) -> (i8$ %out) {
      %z = const i8 0
      %q = sig i8 %z
      inst @latch (i8$ %d, i1$ %en) -> (i8$ %q)
      %qp = prb i8$ %q
      %t = const time 0s
      drv i8$ %out, %qp after %t
    }
    """
    module = parse_module(source)
    assert muxinsert.run(module.get("latch"))
    drv = next(i for i in module.get("latch").body if i.opcode == "drv")
    assert drv.drv_condition() is None


def test_nway_flattening_is_idempotent():
    module = parse_module(PRIORITY_CHAIN)
    entity = module.get("prio")
    assert muxinsert.run(entity)
    size = len(list(entity.body))
    assert not muxinsert.run(entity)
    assert len(list(entity.body)) == size


def test_short_chains_stay_two_way():
    source = PRIORITY_CHAIN.replace("""  %a3 = [i8 %m2, %p3]
  %m3 = mux i8 %a3, %k3
  %t = const time 0s
  drv i8$ %q, %m3 after %t""", """  %t = const time 0s
  drv i8$ %q, %m2 after %t""")
    module = parse_module(source)
    entity = module.get("prio")
    changed = muxinsert.run(entity)
    muxes = [i for i in entity.body if i.opcode == "mux"]
    assert all(len(m.operands[0].operands) == 2 for m in muxes)
