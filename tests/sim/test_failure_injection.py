"""Simulator failure modes: combinational loops, bad designs, limits."""

import pytest

from repro.ir import parse_module
from repro.sim import SimulationError, simulate
from repro.sim.interp import Design


def test_zero_delay_feedback_loop_hits_delta_limit():
    """An inverter driving itself with zero delay oscillates across
    deltas; the kernel must detect it instead of hanging."""
    module = parse_module("""
    entity @osc () -> () {
      %z = const i1 0
      %s = sig i1 %z
      %sp = prb i1$ %s
      %n = not i1 %sp
      %t = const time 0s
      drv i1$ %s, %n after %t
    }
    """)
    with pytest.raises(SimulationError, match="delta cycle limit"):
        simulate(module, "osc")


def test_delta_loop_detected_on_all_backends():
    text = """
    entity @osc () -> () {
      %z = const i1 0
      %s = sig i1 %z
      %sp = prb i1$ %s
      %n = not i1 %sp
      %t = const time 0s
      drv i1$ %s, %n after %t
    }
    """
    for backend in ("interp", "blaze", "cycle"):
        with pytest.raises(SimulationError, match="delta cycle limit"):
            simulate(parse_module(text), "osc", backend=backend)


def test_top_must_be_entity():
    module = parse_module("""
    proc @p () -> () {
    entry:
      halt
    }
    """)
    with pytest.raises(SimulationError, match="must be an entity"):
        simulate(module, "p")


def test_undefined_top():
    module = parse_module("entity @e () -> () {\n}")
    with pytest.raises(SimulationError, match="not defined"):
        simulate(module, "ghost")


def test_until_fs_stops_simulation():
    module = parse_module("""
    entity @top () -> () {
      %z = const i8 0
      %s = sig i8 %z
      inst @ticker () -> (i8$ %s)
    }
    proc @ticker () -> (i8$ %s) {
    entry:
      br %loop
    loop:
      %sp = prb i8$ %s
      %one = const i8 1
      %next = add i8 %sp, %one
      %t = const time 10ns
      drv i8$ %s, %next after %t
      wait %loop for %t
    }
    """)
    result = simulate(module, "top", until_fs=95_000_000)
    assert result.final_time_fs <= 95_000_000
    # ~9 increments in 95ns at 10ns period.
    assert result.trace.history("top.s")[-1][1] in (9, 10)


def test_llhd_finish_stops_simulation():
    module = parse_module("""
    entity @top () -> () {
      %z = const i8 0
      %s = sig i8 %z
      inst @ticker () -> (i8$ %s)
      inst @stopper () -> ()
    }
    proc @ticker () -> (i8$ %s) {
    entry:
      br %loop
    loop:
      %sp = prb i8$ %s
      %one = const i8 1
      %next = add i8 %sp, %one
      %t = const time 1ns
      drv i8$ %s, %next after %t
      wait %loop for %t
    }
    proc @stopper () -> () {
    entry:
      %t = const time 5ns
      wait %stop for %t
    stop:
      call void @llhd.finish ()
      halt
    }
    """)
    result = simulate(module, "top")
    assert result.kernel.finished
    assert result.final_time_fs <= 6_000_000


#: A bad aggregate access in a process step.
_IN_PROCESS = """
entity @top () -> () {{
  inst @bad () -> ()
}}
proc @bad () -> () {{
entry:
  %z = const i8 0
  %arr = [4 x i8 %z]
  %idx = const {ty} {bad}
  {access}
  halt
}}
"""

#: The same access in an entity body, failing in the elaboration walk.
_AT_ELABORATION = """
entity @top () -> () {{
  %z = const i8 0
  %arr = [4 x i8 %z]
  %idx = const {ty} {bad}
  {access}
}}
"""

#: The same access in an entity body, failing when a later index change
#: re-activates the entity.
_ON_WAKEUP = """
entity @top () -> () {{
  %z = const i8 0
  %arr = [4 x i8 %z]
  %ok = const {ty} {good}
  %s = sig {ty} %ok
  %idx = prb {ty}$ %s
  {access}
  inst @poke () -> ({ty}$ %s)
}}
proc @poke () -> ({ty}$ %s) {{
entry:
  %bad = const {ty} {bad}
  %t = const time 1ns
  drv {ty}$ %s, %bad after %t
  halt
}}
"""

#: A dynamic extf through a var pointer, then ``ld`` or ``st``.
_THROUGH_POINTER = """
entity @top () -> () {{
  inst @bad () -> ()
}}
proc @bad () -> () {{
entry:
  %z = const i8 0
  %arr = [4 x i8 %z]
  %p = var [4 x i8] %arr
  %idx = const i8 9
  %e = extf i8*, [4 x i8]* %p, %idx
  {access}
  halt
}}
"""

_ACCESSES = {
    "extf": "%v = extf i8, [4 x i8] %arr, %idx",
    "insf": "%n = insf [4 x i8] %arr, i8 %z, %idx",
}
#: (index type, good index, bad index, message template over the op).
_INDICES = {
    "range": ("i8", "0", "9", "{op} index 9 out of range for 4 elements"),
    "x": ("l8", '"00000000"', '"XXXXXXXX"', "dynamic index is unknown (X)"),
}
_PLACES = {
    "process": _IN_PROCESS,
    "elaboration": _AT_ELABORATION,
    "wakeup": _ON_WAKEUP,
}

FAILURES = {
    f"{op}-{index}-{place}": (
        template.format(ty=ty, good=good, bad=bad, access=access),
        message.format(op=op))
    for op, access in _ACCESSES.items()
    for index, (ty, good, bad, message) in _INDICES.items()
    for place, template in _PLACES.items()
}
FAILURES.update({
    f"pointer-{op}": (_THROUGH_POINTER.format(access=access),
                      "index 9 out of range for aggregate of 4 elements")
    for op, access in (("ld", "%v = ld i8* %e"), ("st", "st i8* %e, %z"))
})


@pytest.mark.parametrize("case", sorted(FAILURES))
@pytest.mark.parametrize("backend", ("interp", "blaze", "cycle"))
def test_extf_out_of_range_raises(backend, case):
    """A bad dynamic extf/insf index fails with one text on every engine,
    wherever the access runs: a process step, the elaboration walk, an
    entity re-activation, or a cell projection read or written."""
    text, message = FAILURES[case]
    with pytest.raises(SimulationError) as raised:
        simulate(parse_module(text), "top", backend=backend)
    assert str(raised.value) == message


@pytest.mark.parametrize("backend", ("interp", "blaze", "cycle"))
def test_block_without_terminator_raises(backend):
    """Compiled code would otherwise fall off the end of the block's
    branch: the same error as the interpreter's, never a hang or a
    Python syntax error."""
    module = parse_module("""
    entity @top () -> () {
      %z = const i8 0
      %y = sig i8 %z
      inst @p () -> (i8$ %y)
    }
    proc @p () -> (i8$ %y) {
    entry:
      br %next
    next:
      %one = const i8 1
    }
    """)
    with pytest.raises(SimulationError) as raised:
        simulate(module, "top", backend=backend)
    assert str(raised.value) == "@p: block without terminator"


def test_max_function_steps_guard():
    """A function whose loop never ends is stopped with one text on
    every engine (compiled functions used to hang)."""
    text = """
    func @forever () void {
    entry:
      br %loop
    loop:
      br %loop
    }
    entity @top () -> () {
      inst @caller () -> ()
    }
    proc @caller () -> () {
    entry:
      call void @forever ()
      halt
    }
    """
    for backend in ("interp", "blaze", "cycle"):
        with pytest.raises(SimulationError) as raised:
            simulate(parse_module(text), "top", backend=backend)
        assert str(raised.value) == \
            "@forever: function execution exceeded 2000000 steps"


_COUNT_TO = """
func @count (i32 %n) i32 {{
entry:
  %zero = const i32 0
  br %loop
loop:
  %i = phi i32 [%zero, %entry], [%next, %body]
  %done = eq i32 %i, %n
  br %done, %body, %exit
body:
  %one = const i32 1
  %next = add i32 %i, %one
  br %loop
exit:
  ret i32 %i
}}
entity @top () -> () {{
  %z = const i32 0
  %s = sig i32 %z
  inst @caller () -> (i32$ %s)
}}
proc @caller () -> (i32$ %s) {{
entry:
  %n = const i32 {n}
  %r = call i32 @count (i32 %n)
  %t = const time 1ns
  drv i32$ %s, %r after %t
  halt
}}
"""


@pytest.mark.parametrize("backend", ("interp", "blaze", "cycle"))
def test_function_step_budget_counts_back_edges(backend, monkeypatch):
    """The budget is the number of taken back edges: a loop of exactly
    the budget passes, one more iteration fails, on every engine."""
    monkeypatch.setattr(Design, "MAX_FUNCTION_STEPS", 5)
    result = simulate(parse_module(_COUNT_TO.format(n=5)), "top",
                      backend=backend)
    assert result.trace.history("top.s")[-1][1] == 5
    with pytest.raises(SimulationError) as raised:
        simulate(parse_module(_COUNT_TO.format(n=6)), "top",
                 backend=backend)
    assert str(raised.value) == \
        "@count: function execution exceeded 5 steps"


_LATE_UNDEFINED_CALL = """
declare func @ext (i8) i8
func @pick (i1 %c, i8 %x) i8 {
entry:
  br %c, %plain, %external
plain:
  ret i8 %x
external:
  %r = call i8 @ext (i8 %x)
  ret i8 %r
}
entity @top () -> () {
  %z = const i8 0
  %y = sig i8 %z
  inst @p () -> (i8$ %y)
}
proc @p () -> (i8$ %y) {
entry:
  %no = const i1 0
  %x = const i8 7
  %a = call i8 @pick (i1 %no, i8 %x)
  %t = const time 1ns
  drv i8$ %y, %a after %t
  %later = const time 5ns
  wait %late for %later
late:
  %yes = const i1 1
  %b = call i8 @pick (i1 %yes, i8 %x)
  drv i8$ %y, %b after %t
  halt
}
"""


@pytest.mark.parametrize("backend", ("interp", "blaze", "cycle"))
def test_undefined_callee_raises_only_when_called(backend):
    """A callee without a body is an error of the call that runs it,
    not of the unit that names it."""
    result = simulate(parse_module(_LATE_UNDEFINED_CALL), "top",
                      until_fs=2_000_000, backend=backend)
    assert result.trace.history("top.y") == [(0, 0), (1_000_000, 7)]
    with pytest.raises(SimulationError) as raised:
        simulate(parse_module(_LATE_UNDEFINED_CALL), "top",
                 backend=backend)
    assert str(raised.value) == "call to undefined function @ext"


_ASSERTS = """
func @check (i1 %c) void {
entry:
  call void @llhd.assert (i1 %c)
  ret
}
entity @top () -> () {
  %z = const i1 0
  %s = sig i1 %z
  inst @p () -> (i1$ %s)
  inst @e (i1$ %s) -> ()
}
proc @p () -> (i1$ %s) {
entry:
  %no = const i1 0
  call void @check (i1 %no)
  call void @llhd.assert (i1 %no)
  halt
}
entity @e (i1$ %s) -> () {
  %v = prb i1$ %s
  call void @llhd.assert (i1 %v)
  call void @check (i1 %v)
}
"""


@pytest.mark.parametrize("backend", ("interp", "blaze", "cycle"))
def test_assertion_names_the_calling_instance_or_function(backend):
    result = simulate(parse_module(_ASSERTS), "top", backend=backend)
    assert sorted(result.assertion_failures) == sorted([
        "assertion failed at 0fs in @check",
        "assertion failed at 0fs in top.p",
        "assertion failed at 0fs in @check",
        "assertion failed at 0fs in top.e"])
