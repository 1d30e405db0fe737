"""Regression tests for kernel correctness bugs fixed in PR 2.

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
  to the next trigger.
"""

import pytest

from repro.ir import LogicVec, parse_module
from repro.ir.values import TimeValue
from repro.sim import SimulationError, simulate
from repro.sim.engine import DriverTimeline, Kernel


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
