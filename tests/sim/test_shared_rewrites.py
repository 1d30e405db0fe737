"""Boundary cases of the mux fusion and cell promotion both engines share.

:func:`repro.sim.plan.fused_mux_arrays` picks the ``array`` + ``mux``
pairs that blaze and the interpreter fuse into one conditional, and
:func:`repro.sim.plan.promotable_cells` the ``var`` cells they keep as
plain values.  Each case is one hand-built unit that the analysis must
refuse; interp and blaze must still produce identical traces.
"""

import pytest

from repro.ir import parse_module
from repro.sim import SimulationError, simulate
from repro.sim.plan import fused_mux_arrays, promotable_cells

#: A stimulus process steps the DUT's inputs through three phases.
HARNESS = """
entity @top () -> () {{
  %z8 = const i8 0
  %zs = const {sel} {sel_zero}
  %a = sig i8 %z8
  %b = sig i8 %z8
  %c = sig {sel} %zs
  %y = sig i8 %z8
  inst @stim () -> (i8$ %a, i8$ %b, {sel}$ %c)
  inst @dut (i8$ %a, i8$ %b, {sel}$ %c) -> (i8$ %y)
}}
proc @stim () -> (i8$ %a, i8$ %b, {sel}$ %c) {{
entry:
  %t = const time 1ns
  %a1 = const i8 5
  %b1 = const i8 9
  %c1 = const {sel} {sel_one}
  %c2 = const {sel} {sel_last}
  drv i8$ %a, %a1 after %t
  drv i8$ %b, %b1 after %t
  wait %second for %t
second:
  drv {sel}$ %c, %c1 after %t
  wait %third for %t
third:
  drv {sel}$ %c, %c2 after %t
  halt
}}
{dut}
"""

_I1 = {"sel": "i1", "sel_zero": "0", "sel_one": "1", "sel_last": "0"}


def _module(dut, **sel):
    return parse_module(HARNESS.format(dut=dut, **{**_I1, **sel}))


def _traces(module):
    """Interp and blaze traces, or the error each engine raised."""
    outcomes = []
    for backend in ("interp", "blaze"):
        try:
            result = simulate(module, "top", backend=backend)
        except SimulationError as exc:
            outcomes.append(("raises", str(exc)))
        else:
            outcomes.append(result.trace.changes)
    return outcomes


def _named(unit):
    return {inst.name: inst for inst in unit.instructions() if inst.name}


def _values(trace):
    return [value for _, value in trace["top.y"]]


MUX_DUT = """
proc @dut (i8$ %a, i8$ %b, {sel}$ %c) -> (i8$ %y) {{
entry:
  %ap = prb i8$ %a
  %bp = prb i8$ %b
  %cp = prb {sel}$ %c
  %t = const time 0s
  %arr = [i8 %ap, %bp]
  %m = mux i8 %arr, %cp
  {extra}
  drv i8$ %y, %out after %t
  wait %entry for %a, %b, %c
}}
"""


def test_private_two_choice_mux_is_fused():
    """The control case: one use, an i1 selector."""
    module = _module(MUX_DUT.format(sel="i1", extra="%out = add i8 %m, %m"))
    dut = _named(module.get("dut"))
    assert fused_mux_arrays(module.get("dut")) == {id(dut["arr"])}
    interp, blaze = _traces(module)
    assert interp == blaze
    assert _values(interp) == [0, 10, 18, 10]   # 2*a, 2*b, 2*a


def test_array_with_a_second_use_is_not_fused():
    module = _module(MUX_DUT.format(
        sel="i1",
        extra="%e = extf i8, [2 x i8] %arr, 0\n  %out = add i8 %m, %e"))
    assert fused_mux_arrays(module.get("dut")) == set()
    interp, blaze = _traces(module)
    assert interp == blaze
    assert _values(interp) == [0, 10, 14, 10]   # a+a, b+a, a+a


@pytest.mark.parametrize("last", ['"0"', '"X"'], ids=["known", "unknown"])
def test_logic_selector_mux_is_not_fused(last):
    module = _module(
        MUX_DUT.format(sel="l1", extra="%out = add i8 %m, %m"),
        sel="l1", sel_zero='"0"', sel_one='"1"', sel_last=last)
    assert fused_mux_arrays(module.get("dut")) == set()
    interp, blaze = _traces(module)
    assert interp == blaze
    if last == '"X"':
        assert interp == ("raises", "mux selector is unknown (X)")
    else:
        assert _values(interp) == [0, 10, 18, 10]


#: Three ways a var's pointer leaves ld/st: as a call argument and
#: through a field or slice projection.
ESCAPES = {
    "call": """
  %r = call i8 @peek (i8* %v)
  %out = add i8 %r, %ld""",
    "extf": """
  %f = extf i8*, [2 x i8]* %v, 1
  st i8* %f, %ap
  %ld2 = ld [2 x i8]* %v
  %r = extf i8, [2 x i8] %ld2, 1
  %out = add i8 %r, %ld""",
    "exts": """
  %f = exts i4*, i8* %v, 4, 4
  %nib = trunc i8 %ap to i4
  st i4* %f, %nib
  %r = ld i8* %v
  %out = add i8 %r, %ld""",
}

VAR_DUT = """
func @peek (i8* %p) i8 {{
entry:
  %x = ld i8* %p
  ret i8 %x
}}
proc @dut (i8$ %a, i8$ %b, i1$ %c) -> (i8$ %y) {{
entry:
  %ap = prb i8$ %a
  %bp = prb i8$ %b
  %t = const time 0s
  %local = var i8 %bp
  %ld = ld i8* %local
  {init}
  {escape}
  drv i8$ %y, %out after %t
  wait %entry for %a, %b, %c
}}
"""


@pytest.mark.parametrize("route", sorted(ESCAPES))
def test_escaping_var_is_not_promoted(route):
    if route == "extf":
        init = "%pair = [i8 %bp, %bp]\n  %v = var [2 x i8] %pair"
    else:
        init = "%v = var i8 %bp"
    module = _module(VAR_DUT.format(init=init, escape=ESCAPES[route]))
    dut = _named(module.get("dut"))
    # Only the control cell, used by ld alone, is promoted.
    assert promotable_cells(module.get("dut")) == {id(dut["local"])}
    interp, blaze = _traces(module)
    assert interp == blaze
    # ld is b (9); the escaped cell reads back b, a (5) stored into
    # field 1, or b with a's low nibble stored into bits 4..7.
    assert _values(interp) == [0, {"call": 9 + 9, "extf": 5 + 9,
                                   "exts": 0x59 + 9}[route]]
