"""The one trace-recording rule, :func:`repro.sim.trace.record`.

Every engine writes its histories through ``record``, which keeps each
one collapsed as it is written: one entry per femtosecond, no two
consecutive entries of equal value.  The engine tests read
``kernel.trace.changes`` straight after ``kernel.run()``, so a raw,
uncollapsed history fails them.
"""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.ir import LogicVec, parse_module
from repro.sim import Kernel, Trace
from repro.sim.blaze import elaborate_compiled
from repro.sim.cycle import CycleKernel, elaborate_cycle
from repro.sim.interp import elaborate
from repro.sim.levelize import elaborate_levelized
from repro.sim.trace import record

NS = 1_000_000

# -- the rule ------------------------------------------------------------------


def _recorded(writes, history=None):
    history = [] if history is None else history
    for fs, value in writes:
        record((history,), fs, value)
    return history


def test_write_at_a_later_femtosecond_appends():
    assert _recorded([(0, 1), (5, 2)]) == [(0, 1), (5, 2)]


def test_write_at_the_last_femtosecond_overwrites():
    assert _recorded([(0, 1), (5, 2), (5, 3)]) == [(0, 1), (5, 3)]


def test_write_back_to_the_previous_value_pops():
    assert _recorded([(0, 1), (5, 2), (5, 1)]) == [(0, 1)]
    # The popped instant is gone: a later change appends after (0, 1).
    assert _recorded([(0, 1), (5, 2), (5, 1), (7, 4)]) == [(0, 1), (7, 4)]


def test_write_equal_to_the_last_value_is_dropped():
    assert _recorded([(0, 1), (5, 1)]) == [(0, 1)]
    assert _recorded([(0, 1), (5, 2), (6, 2)]) == [(0, 1), (5, 2)]


def test_first_entry_is_never_popped():
    assert _recorded([(0, 1), (0, 2)]) == [(0, 2)]
    assert _recorded([(0, 1), (0, 2), (0, 1)]) == [(0, 1)]


def test_every_history_of_a_net_is_written():
    a, b = [(0, "Z")], [(0, "1")]
    record((a, b), 5, "Z")
    assert a == [(0, "Z")]
    assert b == [(0, "1"), (5, "Z")]


def _last_wins_then_collapsed(writes):
    """The two-pass rule ``record`` replaces: keep the last write of
    every femtosecond, then drop each entry equal to the one before."""
    raw = []
    for fs, value in writes:
        if raw and raw[-1][0] == fs:
            raw[-1] = (fs, value)
        else:
            raw.append((fs, value))
    collapsed = []
    for fs, value in raw:
        if not collapsed or collapsed[-1][1] != value:
            collapsed.append((fs, value))
    return collapsed


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                max_size=30))
def test_record_equals_last_wins_then_collapsed(steps):
    """Over any write sequence with non-decreasing time, the history is
    what per-femtosecond last-wins followed by a collapse builds."""
    writes = []
    fs = 0
    for advance, value in steps:
        fs += advance
        writes.append((fs, value))
    assert _recorded(writes) == _last_wins_then_collapsed(writes)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                min_size=1, max_size=30),
       st.integers(0, 3), st.integers(0, 2))
def test_direct_append_is_what_record_does_after_the_last_entry(
        steps, advance, value):
    """A single-name history ends in the net's value, so a change at a
    femtosecond after its last entry is a plain append (the levelized
    cone's commit takes this shortcut)."""
    writes = []
    fs = 0
    for step, v in steps:
        fs += step
        writes.append((fs, v))
    history = _recorded(writes)
    assert history[-1][1] == writes[-1][1]
    fs += advance
    assume(fs != history[-1][0] and value != writes[-1][1])
    assert _recorded([(fs, value)], list(history)) == \
        history + [(fs, value)]


# -- every engine records by it ------------------------------------------------

_KERNELS = {"interp": Kernel, "blaze": Kernel, "cycle": CycleKernel,
            "levelized": Kernel}


def _raw_changes(source, engine, tmp_path):
    """Elaborate and run ``source``; the histories as ``run`` left them."""
    module = parse_module(source)
    kernel = _KERNELS[engine](trace=Trace())
    if engine == "interp":
        elaborate(module, "top", kernel)
    elif engine == "blaze":
        elaborate_compiled(module, "top", kernel)
    elif engine == "cycle":
        elaborate_cycle(module, "top", kernel)
    else:
        design = elaborate_levelized(module, "top", kernel,
                                     cache_dir=str(tmp_path))
        assert kernel.stats["cone_gates"] == 1 and design.cone is not None
    kernel.run()
    return kernel.trace.changes


# At 1ns the testbench pulses %a to 1 for two deltas; the inverter's
# output follows it and back within the same femtosecond.
_GLITCH = """
entity @cell_inv_i1 (i1$ %a0) -> (i1$ %y) {
  %0 = prb i1$ %a0
  %t = const time 0s
  %n = not i1 %0
  drv i1$ %y, %n after %t
}

proc @tb () -> (i1$ %a) {
entry:
  %t1 = const time 1ns
  wait %pulse for %t1
pulse:
  %one = const i1 1
  %zero = const i1 0
  %d1 = const time 0s 1d
  %d3 = const time 0s 3d
  drv i1$ %a, %one after %d1
  drv i1$ %a, %zero after %d3
  halt
}

entity @top () -> () {
  %z = const i1 0
  %a = sig i1 %z
  %y = sig i1 %z
  inst @cell_inv_i1 (i1$ %a) -> (i1$ %y)
  inst @tb () -> (i1$ %a)
}
"""


@pytest.mark.parametrize("engine", list(_KERNELS))
def test_zero_delay_glitch_leaves_no_entry(engine, tmp_path):
    changes = _raw_changes(_GLITCH, engine, tmp_path)
    assert changes["top.a"] == [(0, 0)]
    assert changes["top.y"] == [(0, 1)]


# %a and %b merge through `con`; the merged net takes the resolved value
# 1 without a write, so %a's history still ends in Z when Z is driven.
_CON = """
proc @drive_z () -> (l1$ %b) {
entry:
  %v = const l1 "Z"
  %t = const time 1ns
  drv l1$ %b, %v after %t
  halt
}

entity @top () -> () {
  %z = const l1 "Z"
  %one = const l1 "1"
  %a = sig l1 %z
  %b = sig l1 %one
  con l1$ %a, %b
  inst @drive_z () -> (l1$ %b)
}
"""


@pytest.mark.parametrize("engine", ["interp", "blaze", "cycle"])
def test_con_merged_names_keep_their_own_history(engine, tmp_path):
    changes = _raw_changes(_CON, engine, tmp_path)
    z, one = LogicVec("Z"), LogicVec("1")
    assert changes["top.a"] == [(0, z)]
    assert changes["top.b"] == [(0, one), (1 * NS, z)]
