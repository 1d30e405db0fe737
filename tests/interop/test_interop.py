"""Interop: Table 3 introspection, Verilog export, technology mapping."""

import pytest

from repro.interop import (
    TechmapError, export_verilog, full_table, llhd_row, netlist_design,
    render_table, technology_map,
)
from repro.ir import (
    NETLIST, STRUCTURAL, classify, link_modules, parse_module,
    verify_module,
)


def test_llhd_row_matches_paper():
    """LLHD's Table 3 row: 3 levels, every feature ✓."""
    row = llhd_row()
    assert row[0] == "3"
    assert all(row[1:])


def test_full_table_has_all_irs():
    table = full_table()
    assert set(table) == {
        "LLHD [us]", "FIRRTL", "CoreIR", "µIR", "RTLIL", "LNAST",
        "LGraph", "netlistDB"}


def test_render_table_shape():
    text = render_table()
    assert "LLHD" in text and "FIRRTL" in text
    assert "✓" in text and "–" in text


STRUCTURAL_ACC = """
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
entity @acc_ff (i1$ %clk, i32$ %d) -> (i32$ %q) {
  %delay = const time 1ns
  %clkp = prb i1$ %clk
  %dp = prb i32$ %d
  reg i32$ %q, %dp rise %clkp after %delay
}
entity @acc (i1$ %clk, i32$ %x, i1$ %en) -> (i32$ %q) {
  %zero = const i32 0
  %d = sig i32 %zero
  %qi = sig i32 %zero
  inst @acc_ff (i1$ %clk, i32$ %d) -> (i32$ %qi)
  inst @acc_comb (i32$ %qi, i32$ %x, i1$ %en) -> (i32$ %d)
  %qip = prb i32$ %qi
  %t0 = const time 0s
  drv i32$ %q, %qip after %t0
}
"""


def test_verilog_export_of_structural_accumulator():
    module = parse_module(STRUCTURAL_ACC)
    verify_module(module, level=STRUCTURAL)
    text = export_verilog(module)
    assert "module acc_comb" in text
    assert "module acc_ff" in text
    assert "always @(posedge clkp)" in text or "always @(posedge" in text
    assert "assign" in text
    assert text.count("endmodule") == 3


def test_verilog_export_rejects_behavioural():
    from repro.interop import VerilogExportError

    module = parse_module("""
    proc @p (i8$ %a) -> (i8$ %b) {
    entry:
      halt
    }
    """)
    with pytest.raises(VerilogExportError):
        export_verilog(module)


def test_techmap_produces_valid_netlist():
    module = parse_module("""
    entity @comb (i8$ %a, i8$ %b) -> (i8$ %y) {
      %ap = prb i8$ %a
      %bp = prb i8$ %b
      %sum = add i8 %ap, %bp
      %t = const time 0s
      drv i8$ %y, %sum after %t
    }
    """)
    netlist, library = technology_map(module)
    assert classify(netlist) == NETLIST
    # The netlist instantiates a declared adder cell (typed i8 x i8).
    comb = netlist.get("comb")
    insts = [i for i in comb.body if i.opcode == "inst"]
    assert any(i.callee == "cell_add_i8_i8" for i in insts)


def test_techmapped_netlist_simulates_like_structural():
    from repro.sim import simulate

    source = """
    entity @comb (i8$ %a, i8$ %b) -> (i8$ %y) {
      %ap = prb i8$ %a
      %bp = prb i8$ %b
      %sum = add i8 %ap, %bp
      %t = const time 0s
      drv i8$ %y, %sum after %t
    }
    """
    tb = """
    entity @top () -> () {
      %z8 = const i8 0
      %a = sig i8 %z8
      %b = sig i8 %z8
      %y = sig i8 %z8
      inst @comb (i8$ %a, i8$ %b) -> (i8$ %y)
      inst @stim () -> (i8$ %a, i8$ %b)
    }
    proc @stim () -> (i8$ %a, i8$ %b) {
    entry:
      %v1 = const i8 33
      %v2 = const i8 9
      %t = const time 1ns
      drv i8$ %a, %v1 after %t
      drv i8$ %b, %v2 after %t
      halt
    }
    """
    structural = parse_module(source + tb)
    ref = simulate(structural, "top")
    assert ref.trace.history("top.y")[-1][1] == 42

    netlist, library = technology_map(parse_module(source))
    linked = link_modules([netlist, parse_module(tb), library])
    low = simulate(linked, "top")
    assert low.trace.history("top.y")[-1][1] == 42


# -- four-state and sequential technology mapping ------------------------------


NINE_VALUED_COMB = """
entity @lcomb (l8$ %a, l8$ %b) -> (l8$ %y, i1$ %same) {
  %ap = prb l8$ %a
  %bp = prb l8$ %b
  %x = xor l8 %ap, %bp
  %n = not l8 %x
  %eq = eq l8 %ap, %bp
  %t = const time 0s
  drv l8$ %y, %n after %t
  drv i1$ %same, %eq after %t
}
"""


def test_techmap_maps_nine_valued_operators_onto_typed_cells():
    module = parse_module(NINE_VALUED_COMB)
    netlist, library = technology_map(module)
    assert classify(netlist) == NETLIST
    insts = [i for i in netlist.get("lcomb").body if i.opcode == "inst"]
    callees = sorted(i.callee for i in insts)
    assert "cell_xor_l8_l8" in callees
    assert "cell_not_l8" in callees
    assert "cell_eq_l8_l8" in callees
    # The library holds behavioural lN cell models.
    assert library.get("cell_xor_l8_l8") is not None


def test_techmap_maps_reg_onto_storage_cell():
    module = parse_module("""
    entity @ff (l1$ %clk, l8$ %d) -> (l8$ %q) {
      %t = const time 0s
      %clkp = prb l1$ %clk
      %dp = prb l8$ %d
      reg l8$ %q, %dp rise %clkp after %t
    }
    """)
    netlist, library = technology_map(module)
    assert classify(netlist) == NETLIST
    insts = [i for i in netlist.get("ff").body if i.opcode == "inst"]
    assert len(insts) == 1
    cell = library.get(insts[0].callee)
    assert cell is not None
    regs = [i for i in cell.body if i.opcode == "reg"]
    assert len(regs) == 1
    assert next(regs[0].reg_triggers())["mode"] == "rise"


@pytest.mark.parametrize("gates", (0, 3))
def test_storage_cells_are_numbered_per_kind_from_zero(gates):
    """A storage cell's number counts only earlier cells of its kind, so
    it does not depend on how many gate cells the library holds."""
    ops = "".join(f"  %v{k + 1} = {op} i8 %v{k}, %bp\n"
                  for k, op in enumerate(("and", "or", "xor")[:gates]))
    module = parse_module(f"""
    entity @ff (i1$ %clk, i8$ %a, i8$ %b) -> (i8$ %q, i8$ %r) {{
      %t = const time 0s
      %clkp = prb i1$ %clk
      %v0 = prb i8$ %a
      %bp = prb i8$ %b
    {ops}
      reg i8$ %q, %v{gates} rise %clkp after %t
      reg i8$ %r, %v0 fall %clkp after %t
    }}
    """)
    _, library = technology_map(module)
    names = [unit.name for unit in library]
    assert len(names) == gates + 2
    assert names[gates:] == ["cell_dff0_i8", "cell_dff1_i8"]


def test_techmap_preserves_nonzero_drive_delays_with_del():
    module = parse_module("""
    entity @dly (i8$ %a) -> (i8$ %y) {
      %ap = prb i8$ %a
      %t = const time 3ns
      drv i8$ %y, %ap after %t
    }
    """)
    netlist, _ = technology_map(module)
    ops = [i.opcode for i in netlist.get("dly").body]
    assert "del" in ops and "con" in ops


def test_techmap_rejects_conditional_drives():
    module = parse_module("""
    entity @cond (i8$ %a, i1$ %c) -> (i8$ %y) {
      %ap = prb i8$ %a
      %cp = prb i1$ %c
      %t = const time 0s
      drv i8$ %y, %ap after %t if %cp
    }
    """)
    with pytest.raises(TechmapError, match="conditional drives"):
        technology_map(module)


def test_wide_logic_gates_compose_as_shared_pairs():
    """An `l32` AND maps onto one monolithic nine-valued gate cell (the
    mapper no longer splits wide gates into shared half-width pairs),
    and the netlist traces exactly like the source."""
    from repro.sim import simulate

    source = """
    entity @g (l32$ %a, l32$ %b) -> (l32$ %y) {
      %ap = prb l32$ %a
      %bp = prb l32$ %b
      %r = and l32 %ap, %bp
      %t = const time 0s
      drv l32$ %y, %r after %t
    }

    proc @tb (l32$ %y) -> (l32$ %a, l32$ %b) {
    entry:
      %t1 = const time 1ns
      %v1 = const l32 "1010101010101010XXXXZZZZ01010101"
      %v2 = const l32 "11111111000000001111111100000000"
      drv l32$ %a, %v1 after %t1
      drv l32$ %b, %v2 after %t1
      wait %done for %y
    done:
      halt
    }

    entity @top () -> () {
      %z = const l32 "00000000000000000000000000000000"
      %a = sig l32 %z
      %b = sig l32 %z
      %y = sig l32 %z
      inst @g (l32$ %a, l32$ %b) -> (l32$ %y)
      inst @tb (l32$ %y) -> (l32$ %a, l32$ %b)
    }
    """
    ref = simulate(parse_module(source), "top")
    linked = netlist_design(parse_module(source))
    low = simulate(linked, "top")
    assert ref.trace.differences(low.trace) == []
    mono = next(u for u in linked
                if u.name.startswith("cell_and") and "l32" in u.name)
    assert not any(i.opcode == "inst" for i in mono.body)


def test_nway_mux_maps_to_a_single_cell():
    source = """
    entity @m (i8$ %v0, i8$ %v1, i8$ %v2, i8$ %v3, i2$ %s) -> (i8$ %y) {
      %p0 = prb i8$ %v0
      %p1 = prb i8$ %v1
      %p2 = prb i8$ %v2
      %p3 = prb i8$ %v3
      %sp = prb i2$ %s
      %arr = [i8 %p0, %p1, %p2, %p3]
      %r = mux i8 %arr, %sp
      %t = const time 0s
      drv i8$ %y, %r after %t
    }
    """
    module = parse_module(source)
    netlist, library = technology_map(module)
    mux_cells = [u for u in library if u.name.startswith("cell_mux")]
    assert len(mux_cells) == 1
    assert len(mux_cells[0].inputs) == 5  # 4 choices + selector


def test_techmap_maps_non_constant_shifts_to_barrel_cells():
    module = parse_module("""
    entity @sh (i8$ %a, i32$ %n) -> (i8$ %y) {
      %ap = prb i8$ %a
      %np = prb i32$ %n
      %s = shl i8 %ap, %np
      %t = const time 0s
      drv i8$ %y, %s after %t
    }
    """)
    netlist, library = technology_map(module)
    cells = [u.name for u in library]
    assert any("shl" in name for name in cells), cells
    # The barrel cell takes the amount as a second input (no static attr).
    shifter = next(u for u in library if "shl" in u.name)
    assert len(shifter.inputs) == 2


def test_techmap_rejects_behavioural_input_by_default():
    module = parse_module("""
    proc @p (i8$ %a) -> (i8$ %b) {
    entry:
      halt
    }
    """)
    with pytest.raises(TechmapError, match="not Structural"):
        technology_map(module)


def test_netlist_design_carries_testbench_processes():
    from repro.sim import simulate

    module = parse_module("""
    entity @inc (l8$ %a) -> (l8$ %y) {
      %ap = prb l8$ %a
      %one = const l8 "00000001"
      %sum = add l8 %ap, %one
      %t = const time 0s
      drv l8$ %y, %sum after %t
    }
    entity @top () -> () {
      %z = const l8 "00000000"
      %a = sig l8 %z
      %y = sig l8 %z
      inst @inc (l8$ %a) -> (l8$ %y)
      inst @stim () -> (l8$ %a)
    }
    proc @stim () -> (l8$ %a) {
    entry:
      %v = const l8 "00101001"
      %t = const time 1ns
      drv l8$ %a, %v after %t
      halt
    }
    """)
    linked = netlist_design(module)
    result = simulate(linked, "top")
    final = result.trace.history("top.y")[-1][1]
    assert final.to_int() == 42


def test_netlist_design_propagates_unknowns_through_gates():
    """An X on a netlist input degrades the lN adder cell to all-X,
    exactly like the structural entity it replaced."""
    from repro.sim import simulate

    module = parse_module("""
    entity @inc (l8$ %a) -> (l8$ %y) {
      %ap = prb l8$ %a
      %one = const l8 "00000001"
      %sum = add l8 %ap, %one
      %t = const time 0s
      drv l8$ %y, %sum after %t
    }
    entity @top () -> () {
      %z = const l8 "00000000"
      %a = sig l8 %z
      %y = sig l8 %z
      inst @inc (l8$ %a) -> (l8$ %y)
      inst @stim () -> (l8$ %a)
    }
    proc @stim () -> (l8$ %a) {
    entry:
      %v = const l8 "0010X001"
      %t = const time 1ns
      drv l8$ %a, %v after %t
      halt
    }
    """)
    linked = netlist_design(module)
    result = simulate(linked, "top")
    final = result.trace.history("top.y")[-1][1]
    assert str(final) == "XXXXXXXX"


def test_netlist_design_preserves_nonzero_signal_initials():
    """Regression: cell result nets used to be seeded with zero, and
    con-ing them onto a target whose sig initial is nonzero crashed
    elaboration with 'conflicting initial values'."""
    from repro.sim import simulate

    module = parse_module("""
    entity @comb (i8$ %a) -> () {
      %five = const i8 5
      %y = sig i8 %five
      %ap = prb i8$ %a
      %one = const i8 1
      %s = add i8 %ap, %one
      %t = const time 0s
      drv i8$ %y, %s after %t
    }
    entity @top () -> () {
      %z = const i8 0
      %a = sig i8 %z
      inst @comb (i8$ %a) -> ()
      inst @stim () -> (i8$ %a)
    }
    proc @stim () -> (i8$ %a) {
    entry:
      %v = const i8 41
      %t = const time 1ns
      drv i8$ %a, %v after %t
      halt
    }
    """)
    linked = netlist_design(module)
    result = simulate(linked, "top")
    assert result.trace.history("top.comb.y")[-1][1] == 42


def test_netlist_design_buffers_conflicting_target_initials():
    """One mapped value driven onto two targets with different nonzero
    initials, and a constant drive onto a differently-initialized net:
    each target keeps its own initial via a buffer cell instead of
    crashing the con merge at elaboration."""
    from repro.sim import simulate

    module = parse_module("""
    entity @comb (i8$ %a) -> () {
      %five = const i8 5
      %seven = const i8 7
      %nine = const i8 9
      %three = const i8 3
      %y1 = sig i8 %five
      %y2 = sig i8 %seven
      %yc = sig i8 %nine
      %ap = prb i8$ %a
      %one = const i8 1
      %s = add i8 %ap, %one
      %t = const time 0s
      drv i8$ %y1, %s after %t
      drv i8$ %y2, %s after %t
      drv i8$ %yc, %three after %t
    }
    entity @top () -> () {
      %z = const i8 0
      %a = sig i8 %z
      inst @comb (i8$ %a) -> ()
      inst @stim () -> (i8$ %a)
    }
    proc @stim () -> (i8$ %a) {
    entry:
      %v = const i8 41
      %t = const time 1ns
      drv i8$ %a, %v after %t
      halt
    }
    """)
    linked = netlist_design(module)
    result = simulate(linked, "top")
    assert result.trace.history("top.comb.y1")[-1][1] == 42
    assert result.trace.history("top.comb.y2")[-1][1] == 42
    assert result.trace.history("top.comb.yc")[-1][1] == 3
