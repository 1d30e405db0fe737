"""Verifier: every class of malformed IR must be caught (failure
injection)."""

import pytest

from repro.ir import (
    Builder, Entity, Function, Module, NETLIST, Process, STRUCTURAL,
    TimeValue, VerificationError, int_type, parse_module, signal_type,
    verify_module, verify_unit,
)


def _expect_issue(module, fragment, level=None):
    with pytest.raises(VerificationError) as excinfo:
        if level is None:
            verify_module(module)
        else:
            verify_module(module, level=level)
    assert fragment in str(excinfo.value)


def test_block_without_terminator():
    func = Function("f", [], [], int_type(8))
    block = func.create_block("entry")
    Builder.at_end(block).const_int(int_type(8), 1)
    module = Module()
    module.add(func)
    _expect_issue(module, "terminator")


def test_wait_in_function_rejected():
    module = parse_module("""
    proc @p (i8$ %s) -> () {
    entry:
      halt
    }
    """)
    # Hand-build a function containing a wait.
    func = Function("f", [], [], int_type(8))
    block = func.create_block("entry")
    b = Builder.at_end(block)
    t = b.const_time(TimeValue(1))
    b.wait(block, t, [])
    module.add(func)
    _expect_issue(module, "'wait' is not allowed in a func")


def test_ret_type_mismatch():
    func = Function("f", [], [], int_type(8))
    block = func.create_block("entry")
    b = Builder.at_end(block)
    v = b.const_int(int_type(16), 1)
    b.ret(v)
    module = Module()
    module.add(func)
    _expect_issue(module, "ret type")


def test_reg_in_process_rejected():
    module = parse_module("""
    proc @p (i1$ %clk) -> (i8$ %q) {
    entry:
      halt
    }
    """)
    proc = module.get("p")
    b = Builder(proc.entry, 0)
    zero = b.const_int(int_type(8), 0)
    clkp = b.prb(proc.inputs[0])
    b.reg(proc.outputs[0], [("rise", zero, clkp, None, None)])
    _expect_issue(module, "'reg' is not allowed in a proc")


def test_control_flow_in_entity_rejected():
    entity = Entity("e", [], [], [], [])
    Builder.at_end(entity.body).halt()
    module = Module()
    module.add(entity)
    _expect_issue(module, "not allowed in a entity")


def test_use_before_def_in_entity():
    entity = Entity("e", [], [], [], [])
    b = Builder.at_end(entity.body)
    one = b.const_int(int_type(8), 1)
    add = b.add(one, one)
    # Move the add before its operand.
    entity.body.remove(add)
    entity.body.insert(0, add)
    module = Module()
    module.add(entity)
    _expect_issue(module, "before its definition")


def test_dominance_violation():
    module = parse_module("""
    func @f (i1 %c) i8 {
    entry:
      br %c, %left, %right
    left:
      %x = const i8 1
      br %join
    right:
      br %join
    join:
      ret i8 %x
    }
    """)
    _expect_issue(module, "not dominated")


def test_phi_missing_incoming():
    module = parse_module("""
    func @f (i1 %c) i8 {
    entry:
      %a = const i8 1
      br %c, %left, %join
    left:
      br %join
    join:
      %p = phi i8 [%a, %left]
      ret i8 %p
    }
    """)
    _expect_issue(module, "missing incoming")


def test_inst_signature_mismatch():
    module = parse_module("""
    entity @child (i8$ %a) -> () {
      %x = prb i8$ %a
    }
    entity @parent () -> () {
      %z = const i16 0
      %s = sig i16 %z
      inst @child (i16$ %s) -> ()
    }
    """)
    _expect_issue(module, "input types")


def test_inst_of_undefined_unit():
    module = parse_module("""
    entity @parent () -> () {
      %z = const i8 0
      %s = sig i8 %z
      inst @ghost (i8$ %s) -> ()
    }
    """)
    _expect_issue(module, "undefined unit")


def test_call_argument_mismatch():
    module = parse_module("""
    func @f (i8 %x) i8 {
    entry:
      ret i8 %x
    }
    proc @p () -> () {
    entry:
      %v = const i16 1
      %r = call i8 @f (i16 %v)
      halt
    }
    """)
    _expect_issue(module, "argument types")


def test_unknown_intrinsic():
    module = parse_module("""
    proc @p () -> () {
    entry:
      call void @llhd.bogus ()
      halt
    }
    """)
    _expect_issue(module, "unknown intrinsic")


def test_structural_level_rejects_processes():
    module = parse_module("""
    proc @p (i8$ %s) -> () {
    entry:
      halt
    }
    """)
    _expect_issue(module, "not allowed in structural", level=STRUCTURAL)


def test_netlist_level_rejects_logic():
    module = parse_module("""
    entity @e (i8$ %a, i8$ %b) -> (i8$ %y) {
      %ap = prb i8$ %a
      %bp = prb i8$ %b
      %sum = add i8 %ap, %bp
      %t = const time 0s
      drv i8$ %y, %sum after %t
    }
    """)
    _expect_issue(module, "not allowed in netlist", level=NETLIST)


def test_valid_netlist_module_verifies_at_netlist_level():
    module = parse_module("""
    entity @net (i8$ %a) -> (i8$ %y) {
      %z = const i8 0
      %t0 = const time 1ns
      %s = sig i8 %z
      con i8$ %s, %a
      %d = del i8$ %s after %t0
      con i8$ %y, %d
    }
    """)
    verify_module(module, level=NETLIST)


def test_opcode_classes_are_named_once():
    """The data-flow class is what ``sim.eval`` evaluates, and the
    structural level allows it plus signals and hierarchy."""
    from repro.ir.dialects import STRUCTURAL_OPCODES
    from repro.ir.instructions import DATAFLOW_OPS
    from repro.sim.eval import EVALUATORS

    assert set(EVALUATORS) == DATAFLOW_OPS
    assert STRUCTURAL_OPCODES == DATAFLOW_OPS | {
        "sig", "prb", "drv", "reg", "inst", "con", "del"}


def test_parser_rejects_use_before_def():
    from repro.ir import ParseError

    with pytest.raises(ParseError, match="undefined value"):
        parse_module("""
        entity @net () -> () {
          %d = sig i8 %z
          %z = const i8 0
        }
        """)
