"""Unit tests for CF, DCE, CSE, IS, mem2reg, inline, and unroll."""

from repro.ir import parse_module, print_module, verify_module
from repro.passes import (
    PassManager, cf, cse, dce, inline_calls, instsimplify, mem2reg, unroll,
)


def _func(body, sig="(i32 %a, i32 %b) i32"):
    return parse_module(f"func @f {sig} {{\n{body}\n}}").get("f")


def test_constant_folding_arithmetic():
    unit = _func("""
    entry:
      %two = const i32 2
      %three = const i32 3
      %sum = add i32 %two, %three
      %prod = mul i32 %sum, %two
      ret i32 %prod
    """, sig="() i32")
    assert cf.run(unit)
    ret = unit.entry.terminator
    assert ret.operands[0].opcode == "const"
    assert ret.operands[0].attrs["value"] == 10
    verify_module(unit.module)


def test_constant_folding_preserves_division_by_zero():
    unit = _func("""
    entry:
      %one = const i32 1
      %zero = const i32 0
      %q = div i32 %one, %zero
      ret i32 %q
    """, sig="() i32")
    cf.run(unit)
    assert unit.entry.instructions[-2].opcode == "udiv"


def test_branch_folding_removes_dead_block():
    unit = _func("""
    entry:
      %t = const i1 1
      br %t, %dead, %live
    dead:
      %x = const i32 1
      ret i32 %x
    live:
      %y = const i32 2
      ret i32 %y
    """, sig="() i32")
    cf.run(unit)
    assert len(unit.blocks) == 2
    assert {b.name for b in unit.blocks} == {"entry", "live"}


def test_dce_removes_unused_pure_chain():
    unit = _func("""
    entry:
      %dead1 = add i32 %a, %b
      %dead2 = mul i32 %dead1, %dead1
      %live = sub i32 %a, %b
      ret i32 %live
    """)
    assert dce.run(unit)
    ops = [i.opcode for i in unit.entry.instructions]
    assert ops == ["sub", "ret"]


def test_cse_merges_identical_computations():
    unit = _func("""
    entry:
      %x = add i32 %a, %b
      %y = add i32 %a, %b
      %z = add i32 %x, %y
      ret i32 %z
    """)
    assert cse.run(unit)
    adds = [i for i in unit.entry.instructions if i.opcode == "add"]
    assert len(adds) == 2  # %x and the combining add
    assert adds[1].operands[0] is adds[0]
    assert adds[1].operands[1] is adds[0]


def test_cse_respects_dominance():
    unit = _func("""
    entry:
      %c = ult i32 %a, %b
      br %c, %left, %right
    left:
      %x = add i32 %a, %b
      br %join
    right:
      %y = add i32 %a, %b
      br %join
    join:
      %p = phi i32 [%x, %left], [%y, %right]
      ret i32 %p
    """)
    # %x and %y are in sibling blocks: neither dominates the other.
    assert not cse.run(unit)


def test_cse_never_merges_probes():
    module = parse_module("""
    proc @p (i8$ %s) -> (i8$ %o) {
    entry:
      %v1 = prb i8$ %s
      %t = const time 1ns
      wait %next for %t
    next:
      %v2 = prb i8$ %s
      %sum = add i8 %v1, %v2
      drv i8$ %o, %sum after %t
      halt
    }
    """)
    assert not cse.run(module.get("p"))


def test_instsimplify_identities():
    unit = _func("""
    entry:
      %zero = const i32 0
      %x1 = add i32 %a, %zero
      %x2 = xor i32 %x1, %x1
      %x3 = or i32 %x2, %b
      ret i32 %x3
    """)
    assert instsimplify.run(unit)
    dce.run(unit)
    ret = unit.entry.terminator
    # x1 = a; x2 = 0; x3 = 0 | b = b
    assert ret.operands[0] is unit.args[1]


def test_instsimplify_mux_of_array_literal():
    unit = _func("""
    entry:
      %one = const i1 1
      %arr = [i32 %a, %b]
      %r = mux i32 %arr, %one
      ret i32 %r
    """)
    assert instsimplify.run(unit)
    dce.run(unit)
    assert unit.entry.terminator.operands[0] is unit.args[1]


def test_mem2reg_promotes_straightline_var():
    unit = _func("""
    entry:
      %init = const i32 5
      %p = var i32 %init
      %v1 = ld i32* %p
      %sum = add i32 %v1, %a
      st i32* %p, %sum
      %v2 = ld i32* %p
      ret i32 %v2
    """, sig="(i32 %a) i32")
    assert mem2reg.run(unit)
    ops = {i.opcode for i in unit.instructions()}
    assert "var" not in ops and "ld" not in ops and "st" not in ops
    verify_module(unit.module)


def test_mem2reg_inserts_phi_at_join():
    unit = _func("""
    entry:
      %init = const i32 0
      %one = const i32 1
      %p = var i32 %init
      %c = ult i32 %a, %b
      br %c, %no, %yes
    yes:
      st i32* %p, %one
      br %join
    no:
      br %join
    join:
      %v = ld i32* %p
      ret i32 %v
    """)
    assert mem2reg.run(unit)
    join = next(b for b in unit.blocks if b.name == "join")
    phis = join.phis()
    assert len(phis) == 1
    verify_module(unit.module)


def test_mem2reg_loop_variable():
    """The Figure 2 testbench pattern: loop counter in a var."""
    module = parse_module("""
    proc @p () -> (i8$ %o) {
    entry:
      %zero = const i8 0
      %one = const i8 1
      %limit = const i8 10
      %t = const time 1ns
      %i = var i8 %zero
      br %loop
    loop:
      %ip = ld i8* %i
      %in = add i8 %ip, %one
      st i8* %i, %in
      wait %check for %t
    check:
      %cont = ult i8 %in, %limit
      br %cont, %end, %loop
    end:
      drv i8$ %o, %in after %t
      halt
    }
    """)
    unit = module.get("p")
    assert mem2reg.run(unit)
    ops = {i.opcode for i in unit.instructions()}
    assert "var" not in ops and "ld" not in ops and "st" not in ops
    loop = next(b for b in unit.blocks if b.name == "loop")
    assert loop.phis(), "loop-carried value needs a phi"
    verify_module(module)


# Six slots that interact: %last is stored from a load of %acc, %tmp is
# re-initialised by its var inside the loop, %pick is stored on one arm
# of the diamond only, and %dead is never loaded.
_SLOTS = """
entry:
  %zero = const i32 0
  %one = const i32 1
  %i = var i32 %zero
  %acc = var i32 %zero
  %last = var i32 %b
  %pick = var i32 %a
  %dead = var i32 %a
  br %loop
loop:
  %tmp = var i32 %one
  %iv = ld i32* %i
  %c = ult i32 %iv, %a
  br %c, %exit, %body
body:
  %odd = and i32 %iv, %one
  %even = ult i32 %odd, %one
  br %even, %arm, %join
arm:
  %tv = ld i32* %tmp
  %s = add i32 %tv, %iv
  st i32* %tmp, %s
  st i32* %pick, %iv
  st i32* %dead, %s
  br %join
join:
  %tj = ld i32* %tmp
  %av = ld i32* %acc
  %sum = add i32 %av, %tj
  st i32* %acc, %sum
  st i32* %last, %av
  %in = add i32 %iv, %one
  st i32* %i, %in
  br %loop
exit:
  %r = ld i32* %last
  %ra = ld i32* %acc
  %rp = ld i32* %pick
  %r2 = add i32 %r, %ra
  %res = add i32 %r2, %rp
  ret i32 %res
"""

# Each slot's phis sit at the head of their block, a later slot's first.
# Nothing reads %tmp1, nor the %dead1/%dead pair but each other.
_SLOTS_PROMOTED = """\
func @f (i32 %a, i32 %b) i32 {
entry:
  %zero = const i32 0
  %one = const i32 1
  br %loop
loop:
  %tmp1 = phi i32 [%one, %entry], [%tmp, %join]
  %dead1 = phi i32 [%a, %entry], [%dead, %join]
  %pick1 = phi i32 [%a, %entry], [%pick, %join]
  %last = phi i32 [%b, %entry], [%acc, %join]
  %acc = phi i32 [%zero, %entry], [%sum, %join]
  %i = phi i32 [%zero, %entry], [%in, %join]
  %c = ult i32 %i, %a
  br %c, %exit, %body
body:
  %odd = and i32 %i, %one
  %even = ult i32 %odd, %one
  br %even, %arm, %join
arm:
  %s = add i32 %one, %i
  br %join
join:
  %tmp = phi i32 [%one, %body], [%s, %arm]
  %dead = phi i32 [%dead1, %body], [%s, %arm]
  %pick = phi i32 [%pick1, %body], [%i, %arm]
  %sum = add i32 %acc, %tmp
  %in = add i32 %i, %one
  br %loop
exit:
  %r2 = add i32 %last, %acc
  %res = add i32 %r2, %pick1
  ret i32 %res
}
"""


def test_mem2reg_promotes_interacting_slots_in_one_walk():
    unit = _func(_SLOTS)
    pm = PassManager("mem2reg")
    assert pm.run(unit)
    ops = {i.opcode for i in unit.instructions()}
    assert not ops & {"var", "ld", "st"}
    verify_module(unit.module)
    assert pm.records["mem2reg"].statistics == {"promoted": 6}
    assert print_module(unit.module) == _SLOTS_PROMOTED


def test_inline_simple_call():
    module = parse_module("""
    func @helper (i32 %x) i32 {
    entry:
      %one = const i32 1
      %r = add i32 %x, %one
      ret i32 %r
    }
    func @main (i32 %v) i32 {
    entry:
      %r = call i32 @helper (i32 %v)
      %r2 = call i32 @helper (i32 %r)
      ret i32 %r2
    }
    """)
    main = module.get("main")
    assert inline_calls(main, module) == 2
    assert not any(i.opcode == "call" for i in main.instructions())
    verify_module(module)


def test_inline_rejects_recursion():
    import pytest

    from repro.passes import InlineError

    module = parse_module("""
    func @rec (i32 %x) i32 {
    entry:
      %r = call i32 @rec (i32 %x)
      ret i32 %r
    }
    """)
    with pytest.raises(InlineError, match="recursive"):
        inline_calls(module.get("rec"), module)


def test_unroll_folds_counted_loop():
    unit = _func("""
    entry:
      %zero = const i32 0
      %one = const i32 1
      %ten = const i32 10
      br %loop
    loop:
      %i = phi i32 [%zero, %entry], [%in, %loop]
      %acc = phi i32 [%zero, %entry], [%accn, %loop]
      %accn = add i32 %acc, %i
      %in = add i32 %i, %one
      %cont = ult i32 %in, %ten
      br %cont, %exit, %loop
    exit:
      ret i32 %accn
    """, sig="() i32")
    assert unroll.run(unit) == 1
    cf.run(unit)
    dce.run(unit)
    from repro.passes import tcfe

    tcfe.run(unit)
    ret = next(i for i in unit.instructions() if i.opcode == "ret")
    assert ret.operands[0].opcode == "const"
    assert ret.operands[0].attrs["value"] == sum(range(10))


def test_unroll_leaves_impure_loops_alone():
    module = parse_module("""
    proc @p () -> (i8$ %o) {
    entry:
      %zero = const i8 0
      %one = const i8 1
      %t = const time 1ns
      br %loop
    loop:
      %i = phi i8 [%zero, %entry], [%in, %loop]
      drv i8$ %o, %i after %t
      %in = add i8 %i, %one
      %cont = ult i8 %in, %one
      br %cont, %end, %loop
    end:
      halt
    }
    """)
    assert unroll.run(module.get("p")) == 0
