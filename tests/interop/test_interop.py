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


# -- the one gate-cell rule -----------------------------------------------------

#: The stimulus values a port of each type cycles through.
_VALUES = {
    "i2": ("2", "1", "0"),  # a dynamic index into three elements
    "i3": ("3", "6", "1"),
    "i4": ("9", "6", "15"),
    "i8": ("33", "200", "77"),
    "l4": ('"0110"', '"01X1"', '"1H0L"'),
    "l8": ('"00010110"', '"1Z000011"', '"0101X0L1"'),
}
_ARRAY = "[3 x i8]"

#: (port types, result type, the entity's body over probes %p0, %p1, ...)
_GATES = {
    "add": (["i8", "i8"], "i8", ["%r = add i8 %p0, %p1"]),
    "eq": (["l4", "l4"], "i1", ["%r = eq l4 %p0, %p1"]),
    "not": (["l4"], "l4", ["%r = not l4 %p0"]),
    "zext": (["i4"], "i8", ["%r = zext i4 %p0 to i8"]),
    "mux": (["i8", "i8", "i8", "i2"], "i8",
            ["%c = [i8 %p0, %p1, %p2]", "%r = mux i8 %c, %p3"]),
    "shl_const": (["l8"], "l8",
                  ['%n = const l4 "0011"', "%r = shl l8 %p0, %n"]),
    "shr_port": (["i8", "i3"], "i8", ["%r = shr i8 %p0, %p1"]),
    "exts": (["i8"], "i4", ["%r = exts i4, i8 %p0, 2, 4"]),
    "extf_static": ([_ARRAY], "i8", [f"%r = extf i8, {_ARRAY} %p0, 1"]),
    "extf_dynamic": ([_ARRAY, "i2"], "i8",
                     [f"%r = extf i8, {_ARRAY} %p0, %p1"]),
    "inss": (["i8", "i4"], "i8", ["%r = inss i8 %p0, i4 %p1, 2, 4"]),
    "insf_static": ([_ARRAY, "i8"], _ARRAY,
                    [f"%r = insf {_ARRAY} %p0, i8 %p1, 1"]),
    "insf_dynamic": ([_ARRAY, "i8", "i2"], _ARRAY,
                     [f"%r = insf {_ARRAY} %p0, i8 %p1, %p2"]),
}


def _const(name, ty, k):
    """Lines defining ``%name`` as the ``k``-th stimulus value of ``ty``,
    or as zero when ``k`` is None."""
    if ty == _ARRAY:
        lines = [line for j in range(3) for line in _const(
            f"{name}_{j}", "i8", None if k is None else (k + j) % 3)]
        return lines + [f"%{name} = [i8 %{name}_0, %{name}_1, %{name}_2]"]
    if k is not None:
        value = _VALUES[ty][k]
    elif ty.startswith("l"):
        value = '"' + "0" * int(ty[1:]) + '"'
    else:
        value = "0"
    return [f"%{name} = const {ty} {value}"]


def _gate_design(port_types, out_ty, body):
    """A one-gate entity ``@g`` and a testbench ``@top`` that drives its
    ports with four rounds of values, 1 ns apart; in rounds 0 and 2 all
    ports of one type carry the same value."""
    ports = ", ".join(f"{t}$ %a{j}" for j, t in enumerate(port_types))
    gate = [f"%p{j} = prb {t}$ %a{j}" for j, t in enumerate(port_types)]
    gate += body + ["%t = const time 0s", f"drv {out_ty}$ %y, %r after %t"]
    top = []
    for j, t in enumerate(port_types):
        top += _const(f"z{j}", t, None) + [f"%a{j} = sig {t} %z{j}"]
    top += _const("zy", out_ty, None) + [f"%y = sig {out_ty} %zy"]
    top += [f"inst @g ({ports}) -> ({out_ty}$ %y)",
            f"inst @stim () -> ({ports})"]
    stim = ["entry:", "%t = const time 1ns"]
    for k in range(4):
        for j, t in enumerate(port_types):
            stim += _const(f"v{k}_{j}", t, (k + j * (k % 2)) % 3)
            stim.append(f"drv {t}$ %a{j}, %v{k}_{j} after %t")
        stim += [f"wait %s{k} for %t", f"s{k}:"]
    stim.append("halt")
    lines = "\n  ".join
    entity = (f"entity @g ({ports}) -> ({out_ty}$ %y) {{\n  "
              f"{lines(gate)}\n}}\n")
    bench = (f"entity @top () -> () {{\n  {lines(top)}\n}}\n"
             f"proc @stim () -> ({ports}) {{\n  {lines(stim)}\n}}\n")
    return entity, bench


@pytest.mark.parametrize("case", sorted(_GATES))
def test_gate_cell_is_the_instruction_over_port_probes(case, tmp_path):
    """Every gate cell probes its ports, builds its delay, then a mux's
    choice array or a constant shift amount, then one copy of the
    instruction it maps, and drives ``y``; its netlist traces like the
    structural module on interp and on levelized."""
    from repro.sim import simulate

    port_types, out_ty, body = _GATES[case]
    entity, bench = _gate_design(port_types, out_ty, body)
    source = next(i for i in parse_module(entity).get("g").body
                  if i.name == "r")
    op = source.opcode

    _, library = technology_map(parse_module(entity), gate_delay="0s")
    [cell] = list(library)
    cell_body = list(cell.body)
    ports = len(cell.inputs)
    assert [i.opcode for i in cell_body[:ports]] == ["prb"] * ports
    assert cell_body[ports].opcode == "const"
    assert cell_body[ports].type.is_time
    middle = {"mux": ["array"], "shl": ["const"]}.get(op, [])
    assert [i.opcode for i in cell_body[ports + 1:]] == \
        middle + [op, "drv"]
    copy, drive = cell_body[-2:]
    assert str(copy.type) == str(source.type)
    assert copy.attrs == {k: v for k, v in source.attrs.items()
                          if k in ("index", "offset", "length")}
    assert drive.operands[:2] == [cell.outputs[0], copy]
    if op == "shl":  # the constant amount is built in as an i32
        assert str(copy.operands[1].type) == "i32"
        assert copy.operands[1].attrs["value"] == 3

    ref = simulate(parse_module(entity + bench), "top")
    assert len(ref.trace.history("top.y")) >= 3
    for backend in ("interp", "levelized"):
        linked = netlist_design(parse_module(entity + bench))
        options = {"cache_dir": str(tmp_path)} \
            if backend == "levelized" else {}
        low = simulate(linked, "top", backend=backend, **options)
        assert ref.trace.differences(low.trace) == [], backend
    assert low.design.fallback_cells == []


@pytest.mark.parametrize("port_types, body, message", [
    (["l8"], ['%n = const l4 "X000"', "%r = shl l8 %p0, %n"],
     "'shl' by an unknown amount has no library mapping"),
    (["l8", "i2"], ["%c = [3 x l8 %p0]", "%r = mux l8 %c, %p1"],
     "mux choices must be an explicit array to map"),
], ids=["unknown_shift_amount", "splat_mux_choices"])
def test_gates_without_a_cell_are_rejected(port_types, body, message):
    entity, _ = _gate_design(port_types, "l8", body)
    with pytest.raises(TechmapError, match=message):
        technology_map(parse_module(entity))


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
