"""No unboxed ``lN`` value leaves compiled code.

Blaze and cycle keep a known, strong ``lN`` value as a plain ``int``
while it stays in a unit's locals, and box it back into a
:class:`~repro.ir.LogicVec` wherever it leaves the unit.  Two checks:
every four-state suite design ends with only boxed values in its
signals and trace histories, and one small unit per boxing point feeds
an ``lN`` op's result into that point and must match the interpreter's
trace and output.
"""

import pytest

from repro.designs import DESIGNS, compile_design
from repro.ir import LogicVec, parse_module
from repro.sim import simulate

ENGINES = ("interp", "blaze", "cycle")
FOUR_STATE = ("gray_l", "fir_l", "lfsr_l", "lzc_l", "fifo_l", "cdc_gray_l",
              "cdc_strobe_l", "rr_arbiter_l", "stream_delayer_l", "riscv_l",
              "sorter_l")


def assert_boxed(value, ty, where):
    """Every ``lN`` part of ``value`` (of type ``ty``) is a LogicVec, and
    every array and struct is a tuple."""
    if ty.is_logic:
        assert type(value) is LogicVec, (where, value)
    elif ty.is_array:
        assert type(value) is tuple and len(value) == ty.length, \
            (where, value)
        for element in value:
            assert_boxed(element, ty.element, where)
    elif ty.is_struct:
        assert type(value) is tuple and len(value) == len(ty.fields), \
            (where, value)
        for field, field_type in zip(value, ty.fields):
            assert_boxed(field, field_type, where)


def assert_all_boxed(result):
    types = {}
    for sig in result.kernel.signals:
        element = sig.type.element
        assert_boxed(sig.value, element, sig.name)
        types[sig.name] = element
    for name, history in result.trace.changes.items():
        for fs, value in history:
            assert_boxed(value, types[name], (name, fs))


@pytest.mark.parametrize("backend", ("blaze", "cycle"))
@pytest.mark.parametrize("name", FOUR_STATE)
def test_four_state_designs_keep_every_value_boxed(name, backend):
    result = simulate(compile_design(name, 50), DESIGNS[name].top,
                      backend=backend)
    assert result.trace.changes
    assert_all_boxed(result)


# Each unit computes %v = "0011" + "0001" = "0100", an int inside blaze
# and cycle code, and hands it to one boxing point.  Unboxed, the trace
# or a print would show 4 instead of 0100, or the runtime would fail.
_OPERANDS = """
  %a = const l4 "0011"
  %b = const l4 "0001"
  %v = add l4 %a, %b
  %t = const time 1ns
"""

UNITS = {
    "drv": ("l4", "drv l4$ %s, %v after %t"),
    "call": ("l4", """call void @show (l4 %v)
  drv l4$ %s, %v after %t"""),
    "ret": ("l4", """%r = call l4 @inc (l4 %a)
  call void @llhd.print (l4 %r)
  drv l4$ %s, %r after %t"""),
    "st": ("l4", """%z = const l8 "00000000"
  %cell = var l8 %z
  %lo = exts l4*, l8* %cell, 0, 4
  st l4* %lo, %v
  %hi = exts l4*, l8* %cell, 4, 4
  %x = ld l4* %lo
  %w = xor l4 %x, %b
  st l4* %hi, %w
  %all = ld l8* %cell
  call void @llhd.print (l8 %all)
  %y = ld l4* %hi
  drv l4$ %s, %y after %t"""),
    "array": ("[2 x l4]", """%arr = [l4 %v, %a]
  drv [2 x l4]$ %s, %arr after %t"""),
    "struct": ("{l4, i8}", """%k = const i8 7
  %st = {l4 %v, i8 %k}
  drv {l4, i8}$ %s, %st after %t"""),
    "insf": ("[2 x l4]", """%arr = [l4 %a, %b]
  %i = const i1 1
  %one = insf [2 x l4] %arr, l4 %v, 1
  %two = insf [2 x l4] %one, l4 %v, %i
  drv [2 x l4]$ %s, %two after %t"""),
    "inss": ("l8", """%c = const l8 "00010000"
  %base = add l8 %c, %c
  %w = inss l8 %base, l4 %v, 0, 4
  drv l8$ %s, %w after %t"""),
    "llhd.print": ("l4", """call void @llhd.print (l4 %v)
  drv l4$ %s, %v after %t"""),
    "llhd.assert": ("l4", """%one = const l1 "1"
  %zero = const l1 "0"
  %ok = or l1 %one, %zero
  %bad = and l1 %one, %zero
  call void @llhd.assert (l1 %ok)
  call void @llhd.assert (l1 %bad)
  drv l4$ %s, %v after %t"""),
}

_PROCESS_UNIT = """
func @show (l4 %x) void {{
entry:
  call void @llhd.print (l4 %x)
  ret
}}
func @inc (l4 %x) l4 {{
entry:
  %one = const l4 "0001"
  %r = add l4 %x, %one
  ret l4 %r
}}
entity @top () -> () {{
  {init}
  %s = sig {ty} %init
  inst @p () -> ({ty}$ %s)
}}
proc @p () -> ({ty}$ %s) {{
entry:{operands}  {body}
  halt
}}
"""

#: The initial value of the unit's signal %s, by its type.
_INIT = {
    "l4": '%init = const l4 "0000"',
    "l8": '%init = const l8 "00000000"',
    "[2 x l4]": '%e = const l4 "0000"\n  %init = [2 x l4 %e]',
    "{l4, i8}": ('%e = const l4 "0000"\n  %k = const i8 0\n'
                 '  %init = {l4 %e, i8 %k}'),
}

# reg: the data value %d = %q + 1 of a rising-edge flip-flop.
_REG_UNIT = """
entity @top () -> () {
  %z = const l4 "0000"
  %q = sig l4 %z
  %c0 = const l1 "0"
  %clk = sig l1 %c0
  inst @clock () -> (l1$ %clk)
  inst @ff (l1$ %clk) -> (l4$ %q)
}
entity @ff (l1$ %clk) -> (l4$ %q) {
  %qp = prb l4$ %q
  %one = const l4 "0001"
  %d = add l4 %qp, %one
  %clkp = prb l1$ %clk
  %t = const time 1ns
  reg l4$ %q, %d rise %clkp after %t
}
proc @clock () -> (l1$ %clk) {
entry:
  %lo = const l1 "0"
  %hi = const l1 "1"
  %t = const time 2ns
  drv l1$ %clk, %hi after %t
  wait %fall for %t
fall:
  drv l1$ %clk, %lo after %t
  wait %rise for %t
rise:
  drv l1$ %clk, %hi after %t
  halt
}
"""


def _unit_text(point):
    if point == "reg":
        return _REG_UNIT
    ty, body = UNITS[point]
    return _PROCESS_UNIT.format(ty=ty, init=_INIT[ty], operands=_OPERANDS,
                                body=body)


def _run(point, backend):
    result = simulate(parse_module(_unit_text(point)), "top",
                      backend=backend)
    assert_all_boxed(result)
    return (result.trace.changes, result.kernel.output,
            result.assertion_failures)


@pytest.mark.parametrize("point", ["reg"] + sorted(UNITS))
def test_boxing_point_matches_the_interpreter(point):
    reference = _run(point, "interp")
    changes, output, failures = reference
    assert any(len(history) > 1 for history in changes.values())
    for backend in ENGINES[1:]:
        assert _run(point, backend) == reference, backend


def test_boxing_point_units_print_bits():
    """The printing units print the boxed bit string, never a decimal."""
    for point, printed in (("call", ["0100"]), ("ret", ["0100"]),
                           ("llhd.print", ["0100"]),
                           ("st", ["01010100"])):
        for backend in ENGINES:
            assert _run(point, backend)[1] == printed, (point, backend)
    for backend in ENGINES:
        assert len(_run("llhd.assert", backend)[2]) == 1, backend
