"""Regression tests for kernel correctness bugs.

Covers:

* ``con`` merging of nets that already hold pending transactions from
  the *same* driver (the old code clobbered one timeline);
* diagnosis of conflicting two-valued initial values on ``con``;
* shift evaluation on nine-valued operands (X/Z propagate instead of
  raising) — in both engines;
* transport-delay cancellation semantics of the sorted
  :class:`~repro.sim.engine.DriverTimeline` (the bisect rewrite must be
  behaviour-identical to the list-rebuild original);
* multi-trigger ``reg`` edge tracking agreeing between engines, and a
  first trigger whose edge fires under a false condition handing over
  to the next trigger;
* the wait protocol: a process stays registered on the nets of its last
  wait and nowhere else, a halted process on none, and a stale timeout
  never takes the place of a wake in the same round;
* the net's slot for its only pending transaction: a net whose drives
  overlap moves onto the timelines with every trace and counter kept,
  and drivers that waited in the slot still combine in first-drive
  order.
"""

import sys
from pathlib import Path

import pytest

from repro.designs import ALL_DESIGNS, DESIGNS, compile_design
from repro.ir import LogicVec, parse_module
from repro.ir.values import TimeValue
from repro.moore import compile_sv
from repro.passes.pipeline import lower_to_structural
from repro.sim import SimulationError, simulate
from repro.sim.blaze import BlazeProcessInstance, elaborate_compiled
from repro.sim.cycle import CycleKernel, elaborate_cycle
from repro.sim.engine import ON_TIMELINES, DriverTimeline, Kernel, SignalRef
from repro.sim.interp import ProcessInstance, elaborate


NS = 1_000_000


def test_connect_merges_pending_timelines_per_driver():
    # One entity (one driver key) drives two nets, then connects them:
    # both transactions must survive onto the merged net.
    module = parse_module("""
    entity @top () -> () {
      %z = const i8 0
      %v1 = const i8 11
      %v2 = const i8 22
      %t1 = const time 1ns
      %t2 = const time 2ns
      %a = sig i8 %z
      %b = sig i8 %z
      drv i8$ %a, %v1 after %t1
      drv i8$ %b, %v2 after %t2
      con i8$ %a, %b
    }
    """)
    result = simulate(module, "top")
    assert result.trace.history("top.a") == [
        (0, 0), (1 * NS, 11), (2 * NS, 22)]


def test_connect_merges_same_driver_same_time_deterministically():
    # Same driver, same maturity time on both nets: exactly one value
    # wins, the simulation does not lose the instant entirely.
    module = parse_module("""
    entity @top () -> () {
      %z = const i8 0
      %v1 = const i8 11
      %v2 = const i8 22
      %t1 = const time 1ns
      %a = sig i8 %z
      %b = sig i8 %z
      drv i8$ %a, %v1 after %t1
      drv i8$ %b, %v2 after %t1
      con i8$ %a, %b
    }
    """)
    result = simulate(module, "top")
    history = result.trace.history("top.a")
    assert history[0] == (0, 0)
    assert history[1][0] == 1 * NS
    assert history[1][1] in (11, 22)


def test_connect_merge_keeps_one_transaction_per_time():
    # One driver puts "0" on %a and "Z" on %b at 1ns, then con merges
    # them.  The merged timeline keeps "Z" alone, the value maturing
    # both at once yields, and it resolves against @other's "1".
    # Keeping both would resolve "0" with "1", then apply "Z" alone.
    module = parse_module("""
    entity @top () -> () {
      %u = const l1 "U"
      %lo = const l1 "0"
      %z = const l1 "Z"
      %t1 = const time 1ns
      %a = sig l1 %u
      %b = sig l1 %u
      drv l1$ %a, %lo after %t1
      drv l1$ %b, %z after %t1
      inst @other () -> (l1$ %a)
      con l1$ %a, %b
    }
    entity @other () -> (l1$ %a) {
      %hi = const l1 "1"
      %t1 = const time 1ns
      drv l1$ %a, %hi after %t1
    }
    """)
    result = simulate(module, "top")
    assert result.trace.history("top.a") == [
        (0, LogicVec("U")), (1 * NS, LogicVec("1"))]


def test_connect_conflicting_initial_values_diagnosed():
    # iN has no resolution function: silently picking one initial value
    # was the old behaviour, now it is an error.
    module = parse_module("""
    entity @top () -> () {
      %one = const i8 1
      %two = const i8 2
      %a = sig i8 %one
      %b = sig i8 %two
      con i8$ %a, %b
    }
    """)
    with pytest.raises(SimulationError, match="conflicting initial"):
        simulate(module, "top")


def test_connect_logic_initial_values_resolve():
    # lN nets resolve via IEEE 1164 instead of erroring.
    module = parse_module("""
    entity @top () -> () {
      %u = const l4 "ZZ01"
      %v = const l4 "01ZZ"
      %a = sig l4 %u
      %b = sig l4 %v
      con l4$ %a, %b
    }
    """)
    result = simulate(module, "top")
    net = result.design.signal("top.a").find()
    assert net.value == LogicVec("0101")


@pytest.mark.parametrize("backend", ["interp", "blaze", "cycle"])
def test_shift_of_unknown_vector_propagates_x(backend):
    module = parse_module("""
    entity @top () -> () {
      %init = const l8 "00000000"
      %s = sig l8 %init
      inst @driver () -> (l8$ %s)
    }
    proc @driver () -> (l8$ %s) {
    entry:
      %x = const l8 "0000X010"
      %one = const i8 1
      %r = shl l8 %x, %one
      %t = const time 1ns
      drv l8$ %s, %r after %t
      halt
    }
    """)
    result = simulate(module, "top", backend=backend)
    assert result.trace.value_at("top.s", NS) == LogicVec("XXXXXXXX")


@pytest.mark.parametrize("backend", ["interp", "blaze", "cycle"])
@pytest.mark.parametrize("op", ["shl", "shr"])
def test_shift_by_unknown_amount_propagates_x(backend, op):
    module = parse_module("""
    entity @top () -> () {
      %init = const l8 "00000000"
      %s = sig l8 %init
      inst @driver () -> (l8$ %s)
    }
    proc @driver () -> (l8$ %s) {
    entry:
      %x = const l8 "00000110"
      %amt = const l8 "0000000X"
      %r = OP l8 %x, %amt
      %t = const time 1ns
      drv l8$ %s, %r after %t
      halt
    }
    """.replace("OP", op))
    result = simulate(module, "top", backend=backend)
    assert result.trace.value_at("top.s", NS) == LogicVec("XXXXXXXX")


@pytest.mark.parametrize("backend", ["interp", "blaze"])
def test_int_shift_by_unknown_amount_is_an_error(backend):
    # An iN result cannot encode "unknown"; this must raise, not wrap.
    module = parse_module("""
    entity @top () -> () {
      %z = const i8 0
      %s = sig i8 %z
      inst @driver () -> (i8$ %s)
    }
    proc @driver () -> (i8$ %s) {
    entry:
      %x = const i8 6
      %amt = const l8 "0000000X"
      %r = shl i8 %x, %amt
      %t = const time 1ns
      drv i8$ %s, %r after %t
      halt
    }
    """)
    with pytest.raises(SimulationError, match="unknown"):
        simulate(module, "top", backend=backend)


# -- transport-delay timeline semantics ---------------------------------------

def _times(timeline):
    return [t for t, _, _ in timeline]


def test_driver_timeline_cancels_at_or_after():
    tl = DriverTimeline()
    tl.schedule((5, 0, 0), (), 1)
    tl.schedule((7, 0, 0), (), 2)
    tl.schedule((9, 0, 0), (), 3)
    # Scheduling at t=7 cancels the pending t=7 and t=9 transactions.
    tl.schedule((7, 0, 0), (), 4)
    assert list(tl) == [((5, 0, 0), (), 1), ((7, 0, 0), (), 4)]
    # Scheduling before everything wipes the timeline.
    tl.schedule((1, 0, 0), (), 5)
    assert list(tl) == [((1, 0, 0), (), 5)]


def test_driver_timeline_mature_pops_prefix_returns_latest():
    tl = DriverTimeline()
    tl.schedule((2, 0, 0), (), "a")
    tl.schedule((3, 0, 0), (), "b")
    tl.schedule((9, 0, 0), (), "c")
    assert tl.mature((1, 0, 0)) is None
    assert tl.mature((3, 5, 0)) == ((), "b")
    assert _times(tl) == [(9, 0, 0)]
    assert tl.mature((9, 0, 0)) == ((), "c")
    assert len(tl) == 0


def test_kernel_transport_cancellation_unchanged():
    """Figure-2-style semantics through the public kernel interface."""
    kernel = Kernel()
    sig = kernel.create_signal("s", None, 0)
    # Drive 1 at 5ns, then (still at t=0) drive 2 at 3ns: the later
    # pending transaction is cancelled (transport-delay model).
    kernel.schedule_drive("drv", sig, 1, TimeValue(5 * NS))
    kernel.schedule_drive("drv", sig, 2, TimeValue(3 * NS))
    # A different driver's timeline is unaffected.
    kernel.schedule_drive("other", sig, 7, TimeValue(5 * NS))
    kernel.run()
    assert sig.value == 7
    assert not any(len(tl) for tl in sig.pending.values())


def test_two_future_edges_from_one_driver_both_apply():
    kernel = Kernel()
    sig = kernel.create_signal("clk", None, 0)
    kernel.schedule_drive("drv", sig, 1, TimeValue(1 * NS))
    kernel.schedule_drive("drv", sig, 0, TimeValue(2 * NS))
    kernel.run(until_fs=int(1.5 * NS))
    assert sig.value == 1
    kernel.run()
    assert sig.value == 0


def test_drive_with_no_other_pending_work_is_held_on_the_net():
    kernel = Kernel()
    sig = kernel.create_signal("s", None, 0)
    kernel.schedule_drive("drv", sig, 1, TimeValue(5 * NS))
    assert sig.slot == ((5 * NS, 0, 0), "drv", (), 1)
    assert len(sig.pending["drv"]) == 0
    # The same driver at or before the held time replaces it.
    kernel.schedule_drive("drv", sig, 2, TimeValue(3 * NS))
    assert sig.slot == ((3 * NS, 0, 0), "drv", (), 2)
    kernel.run()
    assert sig.value == 2 and sig.slot is None
    # A second transaction moves the held one onto its timeline.
    kernel.schedule_drive("drv", sig, 3, TimeValue(1 * NS))
    kernel.schedule_drive("drv", sig, 4, TimeValue(2 * NS))
    assert sig.slot is ON_TIMELINES
    assert [v for _t, _p, v in sig.pending["drv"]] == [3, 4]
    kernel.run()
    assert sig.value == 4 and sig.slot is ON_TIMELINES


def _figure3():
    examples = Path(__file__).resolve().parents[2] / "examples"
    sys.path.insert(0, str(examples))
    try:
        from accumulator_testbench import FIGURE3
    finally:
        sys.path.remove(str(examples))
    return FIGURE3


#: Figure 3's counters: ``(deltas, events, activations)`` per engine,
#: before and after lowering.  The cycle scheduler counts its events
#: its own way.
_FIGURE3_STATS = {
    (False, "interp"): (125, 221, 157), (False, "blaze"): (125, 221, 157),
    (False, "cycle"): (125, 187, 157),
    (True, "interp"): (95, 219, 155), (True, "blaze"): (95, 219, 155),
    (True, "cycle"): (95, 187, 155),
}


@pytest.mark.parametrize("lowered", [False, True],
                         ids=["behavioural", "lowered"])
def test_figure3_overlapping_clock_drives_use_the_timelines(lowered):
    # `clk <= #1ns 1; clk <= #2ns 0` gives acc_tb.clk two pending
    # transactions from one driver: the one net of the design that
    # moves onto the timelines.  Every engine must agree, before and
    # after lowering, with the counters pinned.
    source = _figure3()
    module = compile_sv(source)
    if lowered:
        lower_to_structural(module, strict=False)
    traces = {}
    for backend in ("interp", "blaze", "cycle"):
        result = simulate(module, "acc_tb", backend=backend)
        assert result.ok() and result.output == ["435"]
        stats = result.stats
        assert (stats["deltas"], stats["events"], stats["activations"]) \
            == _FIGURE3_STATS[lowered, backend], backend
        traces[backend] = result.trace.changes
        clk = result.design.signal("acc_tb.clk").find()
        moved = [sig.name for sig in result.kernel.signals
                 if sig._rep is None and sig.slot is ON_TIMELINES]
        if backend == "cycle":
            assert moved == []
        else:
            assert moved == [clk.name]
    assert traces["blaze"] == traces["interp"]
    assert traces["cycle"] == traces["interp"]
    behavioural = simulate(compile_sv(source), "acc_tb").trace
    for name in ("acc_tb.q", "acc_tb.clk", "acc_tb.x", "acc_tb.en"):
        assert traces["interp"][name] == behavioural.changes[name]


# @q drives %s first (at 0ns, for 1ns), @p only at 1ns; at 2ns @p drives
# first and @q second, both for 3ns: held, then moved onto the timelines.
_RACE_AFTER_HELD_DRIVES = """
entity @top () -> () {
  %z = const i8 0
  %s = sig i8 %z
  inst @p () -> (i8$ %s)
  inst @q () -> (i8$ %s)
}
proc @p () -> (i8$ %s) {
entry:
  %t1 = const time 1ns
  %v2 = const i8 2
  %v3 = const i8 3
  wait %first for %t1
first:
  drv i8$ %s, %v2 after %t1
  wait %second for %t1
second:
  drv i8$ %s, %v3 after %t1
  halt
}
proc @q () -> (i8$ %s) {
entry:
  %t1 = const time 1ns
  %t2 = const time 2ns
  %v1 = const i8 1
  %v4 = const i8 4
  drv i8$ %s, %v1 after %t1
  wait %second for %t2
second:
  drv i8$ %s, %v4 after %t1
  halt
}
"""


@pytest.mark.parametrize("backend", ["interp", "blaze", "cycle"])
def test_race_combines_drivers_in_first_drive_order(backend):
    # @q drove %s first, so the 3ns conflict lists @q's 4 before @p's 3,
    # and under the sanitizer @p, the last driver, wins: where a drive
    # waited (slot or timeline) does not reorder the drivers.
    module = parse_module(_RACE_AFTER_HELD_DRIVES)
    result = simulate(module, "top", backend=backend, sanitize=True)
    assert result.trace.history("top.s") == [
        (0, 0), (1 * NS, 1), (2 * NS, 2), (3 * NS, 3)]
    [finding] = result.findings
    assert finding.code == "RACE001" and finding.time_fs == 3 * NS
    assert "values [4, 3]" in finding.message
    with pytest.raises(SimulationError, match=r"different values \(4, 3\)"):
        simulate(parse_module(_RACE_AFTER_HELD_DRIVES), "top",
                 backend=backend)


@pytest.mark.parametrize("backend", ["interp", "blaze"])
def test_multi_trigger_reg_tracks_all_edges(backend):
    # A reg with rise(a) and fall(b) triggers: when the first trigger
    # fires, the second trigger's previous value must still be updated,
    # or a later activation sees a stale edge.  Engines must agree.
    module = parse_module("""
    entity @top () -> () {
      %z1 = const i1 0
      %z8 = const i8 0
      %a = sig i1 %z1
      %b = sig i1 %z1
      %q = sig i8 %z8
      inst @cell (i1$ %a, i1$ %b) -> (i8$ %q)
      inst @stim () -> (i1$ %a, i1$ %b)
    }
    entity @cell (i1$ %a, i1$ %b) -> (i8$ %q) {
      %ap = prb i1$ %a
      %bp = prb i1$ %b
      %v1 = const i8 1
      %v2 = const i8 2
      reg i8$ %q, %v1 rise %ap, %v2 fall %bp
    }
    proc @stim () -> (i1$ %a, i1$ %b) {
    entry:
      %b0 = const i1 0
      %b1 = const i1 1
      %t1 = const time 1ns
      drv i1$ %a, %b1 after %t1
      drv i1$ %b, %b1 after %t1
      wait %step2 for %t1
    step2:
      %t2 = const time 2ns
      drv i1$ %b, %b0 after %t2
      halt
    }
    """)
    result = simulate(module, "top", backend=backend)
    reference = simulate(module, "top", backend="interp")
    assert result.trace.changes == reference.trace.changes
    # rise(a) at 1ns stores 1; fall(b) at 3ns stores 2 — the fall edge
    # is only detected if b's previous value was tracked through the
    # 1ns activation where the rise trigger already fired.
    assert result.trace.value_at("top.q", 2 * NS) == 1
    assert result.trace.value_at("top.q", 4 * NS) == 2


@pytest.mark.parametrize("backend", ["interp", "blaze", "levelized"])
def test_reg_false_condition_falls_through_to_next_trigger(backend,
                                                           tmp_path):
    # Two triggers on one clock: when the first trigger's edge fires but
    # its condition is false, the second trigger is still tested and
    # wins; with the condition true the first one wins.  The cell has a
    # storage-cell shape, so the levelized engine absorbs it.
    module = parse_module("""
    entity @top () -> () {
      %z1 = const i1 0
      %z8 = const i8 0
      %v1 = const i8 1
      %v2 = const i8 2
      %clk = sig i1 %z1
      %en = sig i1 %z1
      %d0 = sig i8 %v1
      %d1 = sig i8 %v2
      %q = sig i8 %z8
      inst @cell (i8$ %d0, i8$ %d1, i1$ %clk, i1$ %en) -> (i8$ %q)
      inst @stim () -> (i1$ %clk, i1$ %en)
    }
    entity @cell (i8$ %d0, i8$ %d1, i1$ %clk, i1$ %en) -> (i8$ %q) {
      %d0p = prb i8$ %d0
      %d1p = prb i8$ %d1
      %clkp = prb i1$ %clk
      %enp = prb i1$ %en
      reg i8$ %q, %d0p rise %clkp if %enp, %d1p rise %clkp
    }
    proc @stim () -> (i1$ %clk, i1$ %en) {
    entry:
      %b0 = const i1 0
      %b1 = const i1 1
      %t0 = const time 0s
      %t1 = const time 1ns
      wait %rise1 for %t1
    rise1:
      drv i1$ %clk, %b1 after %t0
      wait %fall1 for %t1
    fall1:
      drv i1$ %clk, %b0 after %t0
      drv i1$ %en, %b1 after %t0
      wait %rise2 for %t1
    rise2:
      drv i1$ %clk, %b1 after %t0
      wait %done for %t1
    done:
      halt
    }
    """)
    result = simulate(module, "top", backend=backend,
                      cache_dir=str(tmp_path))
    reference = simulate(module, "top", backend="interp")
    assert result.trace.changes == reference.trace.changes
    assert result.trace.value_at("top.q", int(1.5 * NS)) == 2
    assert result.trace.value_at("top.q", int(3.5 * NS)) == 1
    if backend == "levelized":
        assert result.design.report["seqs"] == 1
        assert result.design.report["fallbacks"] == []


ENGINES = ["interp", "blaze", "cycle", "levelized"]


@pytest.mark.parametrize("backend", ENGINES)
def test_stale_timeout_does_not_swallow_a_wake(backend, tmp_path):
    # %b wakes @p at 3ns, which then waits on %a alone.  %a changes at
    # 10ns, the instant the first wait's stale timeout fires; both key
    # on @p's order, and the wake must win.
    module = parse_module("""
    entity @top () -> () {
      %z = const i1 0
      %a = sig i1 %z
      %b = sig i1 %z
      %seen = sig i1 %z
      inst @q () -> (i1$ %a, i1$ %b)
      inst @p (i1$ %a, i1$ %b) -> (i1$ %seen)
    }
    proc @q () -> (i1$ %a, i1$ %b) {
    entry:
      %one = const i1 1
      %t10 = const time 10ns
      %t3 = const time 3ns
      drv i1$ %a, %one after %t10
      drv i1$ %b, %one after %t3
      halt
    }
    proc @p (i1$ %a, i1$ %b) -> (i1$ %seen) {
    entry:
      %t10 = const time 10ns
      wait %w1 for %t10, %b
    w1:
      wait %w2 for %a
    w2:
      %one = const i1 1
      %t1 = const time 1ns
      drv i1$ %seen, %one after %t1
      halt
    }
    """)
    result = simulate(module, "top", backend=backend,
                      cache_dir=str(tmp_path))
    assert result.trace.history("top.seen") == [(0, 0), (11 * NS, 1)]


@pytest.mark.parametrize("backend", ENGINES)
def test_wait_counts_only_the_net_it_waits_on(backend, tmp_path):
    # @p alternates `wait %a` and `wait %b` and counts its wakes.  %a
    # changes at 1, 3, 5, 7 and 9 ns, %b at 2, 6 and 10 ns; the changes
    # of %a at 5 and 9 ns, and none of %b's, fall while @p waits on the
    # other net.
    module = parse_module("""
    entity @top () -> () {
      %z = const i1 0
      %z8 = const i8 0
      %a = sig i1 %z
      %b = sig i1 %z
      %n = sig i8 %z8
      inst @q () -> (i1$ %a, i1$ %b)
      inst @p (i1$ %a, i1$ %b) -> (i8$ %n)
    }
    proc @q () -> (i1$ %a, i1$ %b) {
    entry:
      %lo = const i1 0
      %hi = const i1 1
      %t1 = const time 1ns
      %t2 = const time 2ns
      %t3 = const time 3ns
      %t5 = const time 5ns
      %t6 = const time 6ns
      %t7 = const time 7ns
      %t9 = const time 9ns
      %t10 = const time 10ns
      drv i1$ %a, %hi after %t1
      drv i1$ %a, %lo after %t3
      drv i1$ %a, %hi after %t5
      drv i1$ %a, %lo after %t7
      drv i1$ %a, %hi after %t9
      drv i1$ %b, %hi after %t2
      drv i1$ %b, %lo after %t6
      drv i1$ %b, %hi after %t10
      halt
    }
    proc @p (i1$ %a, i1$ %b) -> (i8$ %n) {
    entry:
      %one = const i8 1
      %d = const time 0s 1d
      br %wa
    wa:
      wait %ga for %a
    ga:
      %n0 = prb i8$ %n
      %n1 = add i8 %n0, %one
      drv i8$ %n, %n1 after %d
      wait %gb for %b
    gb:
      %n2 = prb i8$ %n
      %n3 = add i8 %n2, %one
      drv i8$ %n, %n3 after %d
      br %wa
    }
    """)
    result = simulate(module, "top", backend=backend,
                      cache_dir=str(tmp_path))
    assert result.trace.history("top.n") == [
        (0, 0), (1 * NS, 1), (2 * NS, 2), (3 * NS, 3), (6 * NS, 4),
        (7 * NS, 5), (10 * NS, 6)]


@pytest.mark.parametrize("backend", ["interp", "blaze", "cycle"])
def test_halted_process_is_never_activated_again(backend):
    # @q and @p run once at time 0; %a's change at 1ns wakes @p, which
    # halts; the changes at 2 and 3 ns find no waiter: 3 activations.
    module = parse_module("""
    entity @top () -> () {
      %z = const i1 0
      %a = sig i1 %z
      inst @q () -> (i1$ %a)
      inst @p (i1$ %a) -> ()
    }
    proc @q () -> (i1$ %a) {
    entry:
      %lo = const i1 0
      %hi = const i1 1
      %t1 = const time 1ns
      %t2 = const time 2ns
      %t3 = const time 3ns
      drv i1$ %a, %hi after %t1
      drv i1$ %a, %lo after %t2
      drv i1$ %a, %hi after %t3
      halt
    }
    proc @p (i1$ %a) -> () {
    entry:
      wait %done for %a
    done:
      halt
    }
    """)
    result = simulate(module, "top", backend=backend)
    assert result.trace.history("top.a") == [
        (0, 0), (1 * NS, 1), (2 * NS, 0), (3 * NS, 1)]
    assert result.stats["activations"] == 3
    assert all(not sig.proc_waiters for sig in result.kernel.signals)


class _WaitSpy:
    """Stands in for a blaze process's generator and keeps the signal
    tuple of the last wait it yielded."""

    def __init__(self, gen):
        self.gen = gen
        self.last = ()

    def send(self, value):
        timeout, signals = self.gen.send(value)
        self.last = signals
        return timeout, signals


def _spy_on_waits(design):
    """Record each process's last wait independently of its own
    registration bookkeeping: the blaze generator's yields, or the nets
    interp's wait terminator passes in."""
    last = {}
    for act in design.activities:
        if isinstance(act, BlazeProcessInstance):
            spy = act._gen = _WaitSpy(act._gen)
            last[act] = lambda spy=spy: tuple(
                (s.signal if isinstance(s, SignalRef) else s).find()
                for s in spy.last)
        elif isinstance(act, ProcessInstance):
            box = [()]
            resubscribe = act.resubscribe

            def record(nets, box=box, resubscribe=resubscribe):
                box[0] = nets
                resubscribe(nets)
            act.resubscribe = record
            last[act] = lambda box=box: box[0]
    return last


_ELABORATORS = {
    "interp": (Kernel, elaborate),
    "blaze": (Kernel, elaborate_compiled),
    "cycle": (CycleKernel, elaborate_cycle),
}


@pytest.mark.parametrize("name", ALL_DESIGNS)
def test_waiters_are_the_processes_whose_last_wait_names_the_net(name):
    module = compile_design(name, cycles=20)
    for backend, (kernel_class, elaborator) in _ELABORATORS.items():
        kernel = kernel_class()
        design = elaborator(module, DESIGNS[name].top, kernel)
        last = _spy_on_waits(design)
        kernel.run()
        expected = {}
        for act, nets in last.items():
            if act.status == "waiting":
                for net in nets():
                    expected.setdefault(id(net), set()).add(act.order)
        for sig in kernel.signals:
            assert set(sig.proc_waiters) == expected.get(id(sig), set()), \
                f"{backend}: {sig.name}"
