"""Lane semantics of batch simulation.

The batch contract is *per-lane scalar equivalence*: lane k of a K-lane
run — trace, print output, assertion failures, finish time, kernel
statistics — must be byte-identical to the scalar simulation of lane
k's stimulus.  This file pins that contract in both batch modes:

* *vectorized* (uniform stimulus): every design in the suite, each of
  K lanes against the unmodified scalar run;
* *replicated* (divergent stimulus): a hand-written clocked design
  whose per-lane reset/enable phases and finish times all differ, so
  lanes wake, sleep, and die on different schedules — including the
  single-live-lane tail (every other lane finished) — and a seeded
  stimulus sweep over the netlist-level fifo, whose dynamically indexed
  memory sees a different index in every lane.

Plus the degenerate cases (K=1 is the scalar pipeline, bit for bit;
K<1 is rejected) and the compile cache the runs of a blaze or cycle batch share.
"""

import pytest

from repro.designs import ALL_DESIGNS, DESIGNS, compile_design
from repro.interop import netlist_design
from repro.ir import parse_module
from repro.passes.pipeline import lower_to_structural
from repro.sim import BatchStimulus, simulate, simulate_batch
from repro.sim.stimulus import inject_batch_stimulus, inject_lane_stimulus

from ..designs import SUITE_TEST_CYCLES as CYCLES

ENGINES = ("interp", "blaze")


def _assert_lane_matches(ref, lane, what):
    assert ref.trace.differences(lane.trace) == [], \
        f"{what}: {ref.trace.differences(lane.trace)[:4]}"
    assert ref.output == lane.output, what
    assert ref.assertion_failures == lane.assertion_failures, what
    assert ref.final_time_fs == lane.final_time_fs, what
    assert ref.stats == lane.stats, what


# -- vectorized: uniform stimulus across the whole suite ----------------------


@pytest.mark.parametrize("backend", ENGINES)
@pytest.mark.parametrize("name", ALL_DESIGNS)
def test_uniform_lanes_demux_to_the_scalar_run(name, backend):
    """K identical lanes == K copies of the scalar run, on every design."""
    lanes = 4
    batch = simulate_batch(compile_design(name, cycles=CYCLES[name]),
                           DESIGNS[name].top, lanes, backend=backend)
    assert batch.mode == "vectorized"
    ref = simulate(compile_design(name, cycles=CYCLES[name]),
                   DESIGNS[name].top, backend=backend)
    for k in range(lanes):
        _assert_lane_matches(ref, batch.lane(k), f"{name} lane {k}")


# -- replicated: hand-written lane-divergent design ---------------------------

#: Free-running clock (10ns period), a process register with async-ish
#: reset and enable, and a derived net computed by the top entity's own
#: dataflow.  The stimulus process is generated per lane with shifted
#: phases.
_DIVERGENT_DESIGN = """
entity @bt_top () -> () {{
  %z1 = const i1 0
  %z8 = const i8 0
  %clk = sig i1 %z1
  %rst = sig i1 %z1
  %en = sig i1 %z1
  %cnt = sig i8 %z8
  %cv = prb i8$ %cnt
  %lim = const i8 3
  %hot = uge i8 %cv, %lim
  %busy = sig i1 %z1
  %dt = const time 1ns
  drv i1$ %busy, %hot after %dt
  inst @bt_clock () -> (i1$ %clk)
  inst @bt_count (i1$ %clk, i1$ %rst, i1$ %en) -> (i8$ %cnt)
  inst @bt_stim0 () -> (i1$ %rst, i1$ %en)
}}
proc @bt_clock () -> (i1$ %clk) {{
entry:
  %one = const i1 1
  %zero = const i1 0
  %half = const time 5ns
  br %hi
hi:
  drv i1$ %clk, %one after %half
  wait %lo for %half
lo:
  drv i1$ %clk, %zero after %half
  wait %hi for %half
}}
proc @bt_count (i1$ %clk, i1$ %rst, i1$ %en) -> (i8$ %cnt) {{
entry:
  %one = const i8 1
  %z8 = const i8 0
  %eps = const time 0s 1d
  br %loop
loop:
  wait %check for %clk
check:
  %c = prb i1$ %clk
  br %c, %loop, %rising
rising:
  %r = prb i1$ %rst
  br %r, %counting, %clearing
clearing:
  drv i8$ %cnt, %z8 after %eps
  br %loop
counting:
  %e = prb i1$ %en
  br %e, %loop, %bump
bump:
  %v = prb i8$ %cnt
  %nv = add i8 %v, %one
  drv i8$ %cnt, %nv after %eps
  br %loop
}}
{stims}
"""

_STIM_TEMPLATE = """
proc @bt_stim{k} () -> (i1$ %rst, i1$ %en) {{
entry:
  %on = const i1 1
  %off = const i1 0
  %now = const time 0s 1d
  %t_rst = const time {rst}ns
  %t_en_off = const time {en_off}ns
  %t_en_on = const time {en_on}ns
  %t_stop = const time {stop}ns
  drv i1$ %rst, %on after %now
  wait %release for %t_rst
release:
  drv i1$ %rst, %off after %now
  drv i1$ %en, %on after %now
  wait %pause for %t_en_off
pause:
  drv i1$ %en, %off after %now
  wait %resume for %t_en_on
resume:
  drv i1$ %en, %on after %now
  wait %stop for %t_stop
stop:
  call void @llhd.finish ()
  halt
}}
"""


def _lane_phases(k):
    """Shifted reset release / enable toggles / finish, all lane-unique."""
    return dict(k=k, rst=3 + 2 * k, en_off=7 + 3 * k, en_on=6 + 2 * k,
                stop=24 + 7 * k)


def _divergent_module(lane_count, instantiate=0):
    """The clocked design plus ``lane_count`` phase-shifted stimulus
    processes; the top instantiates the one for lane ``instantiate``."""
    stims = "".join(_STIM_TEMPLATE.format(**_lane_phases(k))
                    for k in range(lane_count))
    text = _DIVERGENT_DESIGN.format(stims=stims)
    if instantiate != 0:
        text = text.replace("inst @bt_stim0 ", f"inst @bt_stim{instantiate} ")
    return parse_module(text)


@pytest.mark.parametrize("backend", ENGINES)
def test_divergent_phases_match_per_lane_scalar_runs(backend):
    """Per-lane reset/enable phase shifts and staggered finishes."""
    lanes = 4
    module = _divergent_module(lanes)
    stimulus = BatchStimulus({
        "bt_stim0": [module.get(f"bt_stim{k}") for k in range(lanes)]})
    batch = simulate_batch(module, "bt_top", lanes, backend=backend,
                           stimulus=stimulus)
    assert batch.mode == "replicated"
    finishes = set()
    for k in range(lanes):
        ref = simulate(_divergent_module(lanes, instantiate=k), "bt_top",
                       backend=backend)
        _assert_lane_matches(ref, batch.lane(k), f"lane {k}")
        finishes.add(batch.lane(k).final_time_fs)
    # The point of the design: every lane dies at its own instant.
    assert len(finishes) == lanes


@pytest.mark.parametrize("backend", ENGINES)
def test_single_live_lane_runs_to_its_own_finish(backend):
    """Lane 0 finishes almost immediately; lane 1 must keep running —
    alone — through many more clock cycles, and the dead lane's view
    must stay truncated at its own finish instant."""
    lanes = 2
    module = _divergent_module(lanes)
    stim1 = module.get("bt_stim1")
    # Rebuild lane 0 with an immediate stop: finish on the first wait.
    early = parse_module(_STIM_TEMPLATE.format(
        k=0, rst=1, en_off=2, en_on=2, stop=1)).get("bt_stim0")
    stimulus = BatchStimulus({"bt_stim0": [early, stim1]})
    batch = simulate_batch(module, "bt_top", lanes, backend=backend,
                           stimulus=stimulus)
    assert batch.mode == "replicated"
    lane0, lane1 = batch.lane(0), batch.lane(1)
    assert lane0.final_time_fs < lane1.final_time_fs
    for _, history in lane0.trace.changes.items():
        assert all(fs <= lane0.final_time_fs for fs, _ in history)
    # Lane 1 is bit-for-bit the scalar run despite its dead neighbour.
    scalar_mod = _divergent_module(lanes, instantiate=1)
    ref = simulate(scalar_mod, "bt_top", backend=backend)
    _assert_lane_matches(ref, lane1, "surviving lane")


@pytest.mark.parametrize("backend", ("blaze", "cycle"))
def test_seeded_batch_compiles_each_unit_once(backend, monkeypatch):
    """The runs of one compiled batch share a compile cache: every unit,
    each lane's stimulus variant included, is compiled once per batch."""
    from repro.sim import blaze

    compiled = []
    real_init = blaze.UnitCompiler.__init__

    def counting_init(self, unit):
        compiled.append(unit.name)
        real_init(self, unit)

    monkeypatch.setattr(blaze.UnitCompiler, "__init__", counting_init)
    lanes = 4
    module = _divergent_module(lanes)
    stimulus = BatchStimulus({
        "bt_stim0": [module.get(f"bt_stim{k}") for k in range(lanes)]})
    simulate_batch(module, "bt_top", lanes, backend=backend,
                   stimulus=stimulus)
    assert sorted(compiled) == sorted(set(compiled))
    assert {f"bt_stim{k}" for k in range(lanes)} <= set(compiled)


@pytest.mark.parametrize("backend", ENGINES)
def test_seeded_netlist_fifo_lanes_match_scalar_interp_runs(backend):
    """A seeded K=4 sweep over the netlist-level fifo: every lane must be
    the scalar interp run of that lane's stimulus.  The lanes index the
    fifo memory with different pointers, which the lane-widened engine
    this replaced rejected as divergent control."""
    name, lanes, cycles, seed = "fifo", 4, 8, 0
    top = DESIGNS[name].top
    lane_seeds = [seed + k for k in range(lanes)]

    def netlist_module():
        module = compile_design(name, cycles=cycles)
        lower_to_structural(module, strict=False, verify=False)
        return netlist_design(module)

    module = netlist_module()
    stimulus = inject_batch_stimulus(module, top, seed, lane_seeds)
    batch = simulate_batch(module, top, lanes, backend=backend,
                           stimulus=stimulus)
    assert batch.mode == "replicated"
    for k, lane_seed in enumerate(lane_seeds):
        reference = netlist_module()
        assert inject_lane_stimulus(reference, top, seed, lane_seed)
        ref = simulate(reference, top, backend="interp")
        _assert_lane_matches(ref, batch.lane(k), f"lane {k}")


# -- degenerate batches -------------------------------------------------------


@pytest.mark.parametrize("backend", ENGINES)
def test_single_lane_batch_is_the_scalar_pipeline(backend):
    """K=1 without stimulus takes the unmodified scalar path."""
    name = "fifo"
    batch = simulate_batch(compile_design(name, cycles=CYCLES[name]),
                           DESIGNS[name].top, 1, backend=backend)
    assert batch.mode == "scalar"
    ref = simulate(compile_design(name, cycles=CYCLES[name]),
                   DESIGNS[name].top, backend=backend)
    assert ref.trace.differences(batch.lane(0).trace) == []
    assert ref.stats == batch.stats


@pytest.mark.parametrize("lanes", [0, -2])
def test_batch_without_lanes_is_rejected(lanes):
    with pytest.raises(ValueError, match="at least one lane"):
        simulate_batch(compile_design("gray", cycles=CYCLES["gray"]),
                       DESIGNS["gray"].top, lanes)


@pytest.mark.parametrize("backend", ENGINES)
def test_single_lane_stimulus_batch_matches_scalar(backend):
    """K=1 *with* stimulus is one replicated run, bit-for-bit the scalar
    run of that stimulus."""
    module = _divergent_module(1)
    stimulus = BatchStimulus({"bt_stim0": [module.get("bt_stim0")]})
    batch = simulate_batch(module, "bt_top", 1, backend=backend,
                           stimulus=stimulus)
    assert batch.mode == "replicated"
    ref = simulate(_divergent_module(1), "bt_top", backend=backend)
    _assert_lane_matches(ref, batch.lane(0), "single lane")
