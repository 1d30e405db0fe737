"""Boundary cases of the rewrites blaze and the interpreter share.

:func:`repro.sim.plan.local_rewrites` picks the ``array`` + ``mux``
pairs that blaze and the interpreter fuse into one conditional, and the
``var`` cells they keep as plain values; each refusal case is one
hand-built unit, and interp and blaze must still produce identical
traces.

:func:`repro.sim.plan.forwarding` decides which promoted-cell loads and
stores and which repeated probes only rename a value, and which cells a
block writes back.  Each of its cases is a hand-built unit run on interp,
blaze and cycle against a hand-computed trace.  A rule bug that interp
and blaze shared would agree with itself, so every suite design also
runs on interp with nothing forwarded, and must give the same trace and
counters as the forwarded run.
"""

import pytest

from repro import sim
from repro.designs import ALL_DESIGNS, DESIGNS, compile_design
from repro.ir import parse_module
from repro.sim import SimulationError, simulate
from repro.sim.interp import Design
from repro.sim.plan import forwarding, local_rewrites

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
    assert local_rewrites(module.get("dut"))[0] == {id(dut["arr"])}
    interp, blaze = _traces(module)
    assert interp == blaze
    assert _values(interp) == [0, 10, 18, 10]   # 2*a, 2*b, 2*a


def test_array_with_a_second_use_is_not_fused():
    module = _module(MUX_DUT.format(
        sel="i1",
        extra="%e = extf i8, [2 x i8] %arr, 0\n  %out = add i8 %m, %e"))
    assert local_rewrites(module.get("dut"))[0] == set()
    interp, blaze = _traces(module)
    assert interp == blaze
    assert _values(interp) == [0, 10, 14, 10]   # a+a, b+a, a+a


@pytest.mark.parametrize("last", ['"0"', '"X"'], ids=["known", "unknown"])
def test_logic_selector_mux_is_not_fused(last):
    module = _module(
        MUX_DUT.format(sel="l1", extra="%out = add i8 %m, %m"),
        sel="l1", sel_zero='"0"', sel_one='"1"', sel_last=last)
    assert local_rewrites(module.get("dut"))[0] == set()
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
    assert local_rewrites(module.get("dut"))[1] == {id(dut["local"])}
    interp, blaze = _traces(module)
    assert interp == blaze
    # ld is b (9); the escaped cell reads back b, a (5) stored into
    # field 1, or b with a's low nibble stored into bits 4..7.
    assert _values(interp) == [0, {"call": 9 + 9, "extf": 5 + 9,
                                   "exts": 0x59 + 9}[route]]


# -- forwarding ----------------------------------------------------------------

ENGINES = ("interp", "blaze", "cycle")


def _history(module, until_fs=None):
    """``top.y``'s history, the same on interp, blaze and cycle."""
    histories = [simulate(module, "top", until_fs=until_fs, backend=b)
                 .trace.changes["top.y"] for b in ENGINES]
    assert histories[0] == histories[1] == histories[2]
    return histories[0]


def _forwarding(unit):
    return forwarding(unit, local_rewrites(unit)[1])


NS = 1_000_000

LOAD_BEFORE_STORE = """
entity @top () -> () {
  %z = const i8 0
  %y = sig i8 %z
  inst @p () -> (i8$ %y)
}
proc @p () -> (i8$ %y) {
entry:
  %f = const i1 0
  %t = const time 1ns
  %c = var i1 %f
  br %loop
loop:
  %v = ld i1* %c
  %w = ld i1* %c
  %nv = not i1 %v
  st i1* %c, %nv
  br %v, %low, %high
low:
  %ten = const i8 10
  %twenty = const i8 20
  %lows = [i8 %ten, %twenty]
  %lo = mux i8 %lows, %w
  drv i8$ %y, %lo after %t
  wait %loop for %t
high:
  %thirty = const i8 30
  %forty = const i8 40
  %highs = [i8 %thirty, %forty]
  %hi = mux i8 %highs, %w
  drv i8$ %y, %hi after %t
  wait %loop for %t
}
"""


def test_load_before_store_used_after_the_block_is_copied():
    """``%v`` and ``%w`` read ``%c`` before ``loop`` toggles it; the
    branch on ``%v`` and the muxes on ``%w`` in ``low``/``high`` must see
    the value before the write-back."""
    module = parse_module(LOAD_BEFORE_STORE)
    unit = module.get("p")
    named = _named(unit)
    forwards, copies, flushes, _ = _forwarding(unit)
    assert copies == {id(named["v"]): named["c"], id(named["w"]): named["c"]}
    assert not forwards
    assert flushes[id(named["v"].parent)] == ((named["c"], named["nv"]),)
    # c alternates 0, 1, 0, ... from t=0: low picks 10, high picks 40,
    # each drive 1 ns later.  Branching on the written-back value would
    # give 30, 20, ...; muxing on it, 20, 30, ...
    assert _history(module, until_fs=4 * NS) == [
        (0, 0), (NS, 10), (2 * NS, 40), (3 * NS, 10), (4 * NS, 40)]


STORE_LOAD_TWICE = """
proc @dut (i8$ %a, i8$ %b, i1$ %c) -> (i8$ %y) {
entry:
  %t = const time 0s
  %z = const i8 0
  %cell = var i8 %z
  br %body
body:
  %ap = prb i8$ %a
  %bp = prb i8$ %b
  st i8* %cell, %ap
  %l1 = ld i8* %cell
  %s = add i8 %l1, %bp
  st i8* %cell, %s
  %l2 = ld i8* %cell
  br %out
out:
  %sum = add i8 %l1, %l2
  drv i8$ %y, %sum after %t
  wait %body for %a, %b, %c
}
"""


def test_store_load_store_load_reads_each_store():
    """Each ``ld`` reads the last ``st`` before it: ``%l1`` is a,
    ``%l2`` a + b, and both stay valid in the next block."""
    module = _module(STORE_LOAD_TWICE)
    named = _named(module.get("dut"))
    forwards, copies, _, _ = _forwarding(module.get("dut"))
    assert forwards[id(named["l1"])] is named["ap"]
    assert forwards[id(named["l2"])] is named["s"]
    assert not copies
    # 2a + b: 0 until a = 5, b = 9 at 1 ns.
    assert _history(module) == [(0, 0), (NS, 19)]


SWAP = """
proc @dut (i8$ %a, i8$ %b, i1$ %c) -> (i8$ %y) {
entry:
  %t = const time 0s
  %one = const i8 1
  %two = const i8 2
  %ca = var i8 %one
  %cb = var i8 %two
  br %body
body:
  %la = ld i8* %ca
  %lb = ld i8* %cb
  st i8* %ca, %lb
  st i8* %cb, %la
  %ra = ld i8* %ca
  %rb = ld i8* %cb
  %ten = const i8 10
  %m = mul i8 %ra, %ten
  %o = add i8 %m, %rb
  drv i8$ %y, %o after %t
  wait %body for %a, %b, %c
}
"""


def test_swapped_cells_are_written_back_in_parallel():
    """Each cell holds the other's slot, so the write-back must read
    both slots before it writes either."""
    module = _module(SWAP)
    named = _named(module.get("dut"))
    _, _, flushes, _ = _forwarding(module.get("dut"))
    assert flushes[id(named["la"].parent)] == (
        (named["ca"], named["cb"]), (named["cb"], named["ca"]))
    # 10a + b of the swapped pair, one swap per activation (0, 1, 2, 3 ns).
    assert _history(module) == [(0, 21), (NS, 12), (2 * NS, 21),
                                (3 * NS, 12)]


LOOP = """
proc @dut (i8$ %a, i8$ %b, i1$ %c) -> (i8$ %y) {
entry:
  %t = const time 0s
  %z = const i8 0
  %one = const i8 1
  %acc = var i8 %z
  %tmp = var i8 %z
  %ap = prb i8$ %a
  br %head
head:
  %i = phi i8 [%z, %entry], [%in, %body]
  %go = ult i8 %i, %ap
  br %go, %exit, %body
body:
  %av = ld i8* %acc
  %bp = prb i8$ %b
  %s = add i8 %av, %bp
  st i8* %acc, %s
  st i8* %tmp, %s
  %in = add i8 %i, %one
  br %head
exit:
  st i8* %tmp, %i
  %tv = ld i8* %tmp
  %r = ld i8* %acc
  %out = add i8 %r, %tv
  drv i8$ %y, %out after %t
  wait %entry for %a, %b, %c
}
"""


def test_loop_writes_back_only_live_cells():
    """``body`` writes ``%acc``, which the back edge reads, and ``%tmp``,
    which ``exit`` overwrites before any read: only ``%acc`` is written
    back."""
    module = _module(LOOP)
    named = _named(module.get("dut"))
    _, _, flushes, _ = _forwarding(module.get("dut"))
    assert flushes[id(named["av"].parent)] == ((named["acc"], named["s"]),)
    # a iterations adding b, plus the final count: a * b + a.
    assert _history(module) == [(0, 0), (NS, 50)]


PROBES = """
entity @top () -> () {
  %z = const i8 0
  %pair = [i8 %z, %z]
  %s = sig [2 x i8] %pair
  %y = sig i8 %z
  inst @p () -> ([2 x i8]$ %s, i8$ %y)
}
proc @p () -> ([2 x i8]$ %s, i8$ %y) {
entry:
  %t0 = const time 0s
  %t1 = const time 1ns
  %one = const i8 1
  %seven = const i8 7
  %nine = const i8 9
  %f = extf i8$, [2 x i8]$ %s, 1
  %w1 = prb [2 x i8]$ %s
  %p1 = prb i8$ %f
  %new = [i8 %seven, %nine]
  drv [2 x i8]$ %s, %new after %t0
  %w2 = prb [2 x i8]$ %s
  %p2 = prb i8$ %f
  %e2 = extf i8, [2 x i8] %w2, 0
  %sum2 = add i8 %e2, %p2
  %first = add i8 %sum2, %one
  drv i8$ %y, %first after %t0
  wait %next for %t1
next:
  %w3 = prb [2 x i8]$ %s
  %p3 = prb i8$ %f
  %e3 = extf i8, [2 x i8] %w3, 0
  %sum3 = add i8 %e3, %p3
  drv i8$ %y, %sum3 after %t0
  halt
}
"""


def test_repeated_probe_reads_the_first_and_a_wait_ends_it():
    """No time passes inside a block, so a second ``prb`` of the whole
    signal or of its projection is the first one, even after a ``drv``;
    after the ``wait`` the probes see the driven value."""
    module = parse_module(PROBES)
    named = _named(module.get("p"))
    forwards, _, _, _ = _forwarding(module.get("p"))
    assert forwards == {id(named["w2"]): named["w1"],
                        id(named["p2"]): named["p1"]}
    # 0 + 0 + 1 in the first activation, then 7 + 9.
    assert _history(module) == [(0, 1), (NS, 16)]


COUNT_IN_A_CELL = """
func @count (i32 %n) i32 {
entry:
  %zero = const i32 0
  %one = const i32 1
  %i = var i32 %zero
  br %loop
loop:
  %iv = ld i32* %i
  %done = eq i32 %iv, %n
  br %done, %body, %exit
body:
  %next = add i32 %iv, %one
  st i32* %i, %next
  br %loop
exit:
  %r = ld i32* %i
  ret i32 %r
}
entity @top () -> () {
  %z = const i32 0
  %y = sig i32 %z
  inst @caller () -> (i32$ %y)
}
proc @caller () -> (i32$ %y) {
entry:
  %n = const i32 {n}
  %r = call i32 @count (i32 %n)
  %t = const time 1ns
  drv i32$ %y, %r after %t
  halt
}
"""


@pytest.mark.parametrize("backend", ENGINES)
def test_function_cell_loop_spends_the_step_budget(backend, monkeypatch):
    """A promoted cell's loop still takes one step per back edge."""
    monkeypatch.setattr(Design, "MAX_FUNCTION_STEPS", 5)
    result = simulate(parse_module(COUNT_IN_A_CELL.replace("{n}", "5")),
                      "top", backend=backend)
    assert result.trace.changes["top.y"] == [(0, 0), (NS, 5)]
    with pytest.raises(SimulationError) as raised:
        simulate(parse_module(COUNT_IN_A_CELL.replace("{n}", "6")), "top",
                 backend=backend)
    assert str(raised.value) == \
        "@count: function execution exceeded 5 steps"


def _nothing_forwarded(unit, promoted):
    return {}, {}, {}, set()


@pytest.mark.parametrize("name", ALL_DESIGNS)
def test_forwarding_matches_the_unforwarded_plan(name, monkeypatch):
    """Interp with every cell a real cell and every probe run must give
    the forwarded run's trace, counters and assertion failures."""
    module = compile_design(name, 40)
    top = DESIGNS[name].top
    forwarded = simulate(module, top)
    monkeypatch.setattr(sim.plan, "forwarding", _nothing_forwarded)
    plain = simulate(module, top)
    assert plain.trace.changes == forwarded.trace.changes
    assert plain.stats == forwarded.stats
    assert plain.assertion_failures == forwarded.assertion_failures
