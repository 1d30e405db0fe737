"""Cross-engine equivalence over the whole design suite.

The correctness oracle for the simulation layer: every design in
``src/repro/designs`` runs under the reference interpreter and the
compiled (Blaze) engine, and must produce *identical* traces, kernel
statistics, assertion results, and ``llhd.print`` output.  Both engines
share the event-driven kernel, so any divergence is an execution bug —
this is what lets the hot-path refactors evolve without silently
changing semantics.

The independent cycle scheduler is held to trace equivalence only (its
delta accounting legitimately differs); that is covered by
``test_cycle_equivalence`` and the Table 2 benchmark.

The differential fuzz tests extend the oracle with hostile stimulus: a
generated process is spliced into each design's top entity and drives
randomized values — including ``X``/``Z``/``L``/``H`` injections on
nine-valued nets — while all three engines must stay step-for-step
identical (testbench assertions may now fire; they must fire
identically).  A second generator builds closed random nine-valued
dataflow networks with multiple drivers per net, exercising the packed
AND/OR/XOR/NOT planes and the IEEE 1164 resolution path under every
scheduler.
"""

import random

import pytest

from repro.designs import (
    ALL_DESIGNS, DESIGNS, FOUR_STATE_ORDER, compile_design,
)
from repro.ir import Builder, Module, verify_module
from repro.ir.ninevalued import LogicVec, VALUES
from repro.ir.units import Entity, Process
from repro.ir.values import TimeValue
from repro.sim import simulate, simulate_batch
from repro.sim.stimulus import (
    design_driven_names, inject_batch_stimulus, inject_lane_stimulus,
    inject_stimulus, random_logic_text,
)
from repro.sim.values import SimulationError

# Small budgets shared with the staged semantic-preservation harness
# (see tests/designs/__init__.py).
from ..designs import SUITE_TEST_CYCLES as CYCLES  # noqa: E402


def _run(name, backend):
    module = compile_design(name, cycles=CYCLES[name])
    return simulate(module, DESIGNS[name].top, backend=backend)


@pytest.mark.parametrize("name", ALL_DESIGNS)
def test_interp_and_blaze_are_identical(name):
    interp = _run(name, "interp")
    blaze = _run(name, "blaze")
    assert interp.trace.changes == blaze.trace.changes, \
        interp.trace.differences(blaze.trace)
    assert interp.stats == blaze.stats
    assert interp.assertion_failures == blaze.assertion_failures
    assert interp.output == blaze.output
    assert interp.final_time_fs == blaze.final_time_fs


@pytest.mark.parametrize("name", ALL_DESIGNS)
def test_cycle_traces_match(name):
    interp = _run(name, "interp")
    cycle = _run(name, "cycle")
    assert interp.trace.differences(cycle.trace) == []
    assert interp.assertion_failures == cycle.assertion_failures


# -- differential fuzz --------------------------------------------------------

BACKENDS = ("interp", "blaze", "cycle")

# The stimulus splicer lives in repro.sim.stimulus (shared with the CLI
# and the benchmark harness); inject_stimulus keeps the original
# single-rng semantics, so seeds reproduce historical runs byte for
# byte.


def _fuzz_run(module, top, backend):
    """Simulate, treating a SimulationError as part of the behaviour.

    Hostile stimulus can legally make a design hit a runtime error (an
    ``X`` reaching a dynamic index, say).  An erroring run returns the
    error text, which every engine must agree on.
    """
    try:
        return simulate(module, top, backend=backend)
    except SimulationError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ALL_DESIGNS)
def test_fuzzed_stimulus_keeps_engines_identical(name, seed):
    """All three engines agree on every design under injected stimulus."""
    results = {}
    for backend in BACKENDS:
        module = compile_design(name, cycles=CYCLES[name])
        injected = inject_stimulus(module, DESIGNS[name].top,
                                   seed=f"{name}:{seed}")
        assert injected, f"{name}: no injectable signals in top entity"
        verify_module(module)
        results[backend] = _fuzz_run(module, DESIGNS[name].top, backend)
    interp, blaze, cycle = (results[b] for b in BACKENDS)
    if any(isinstance(r, str) for r in results.values()):
        # Every engine raised, with the same text.
        assert interp == blaze == cycle, f"{name}: {results}"
        return
    assert interp.trace.changes == blaze.trace.changes, \
        interp.trace.differences(blaze.trace)
    assert interp.stats == blaze.stats
    assert interp.trace.differences(cycle.trace) == []
    for other in (blaze, cycle):
        assert interp.assertion_failures == other.assertion_failures
        assert interp.output == other.output


def _random_logic_network(seed, n_sigs=4, n_ops=12, width=8, waves=8):
    """A closed random nine-valued dataflow design plus hostile stimulus.

    Two independent stimulus processes drive the same source nets, so the
    kernel's multi-driver IEEE 1164 resolution path runs on every wave;
    the entity computes a random AND/OR/XOR/NOT network over the sources
    into result nets.  Closed under nine-valued operations: no dynamic
    indexing, so no run can error and every trace compares in full.
    """
    rng = random.Random(seed)
    module = Module("fuzz")
    top = Entity("fuzz_top", (), (), (), ())
    module.add(top)
    b = Builder.at_end(top.body)
    init = b.const_logic("U" * width)
    sources = [b.sig(init, name=f"src{i}") for i in range(n_sigs)]
    values = [b.prb(s) for s in sources]
    delay = b.const_time(TimeValue(1_000_000))
    for i in range(n_ops):
        op = rng.choice(("and", "or", "xor", "not"))
        a = rng.choice(values)
        if op == "not":
            value = b.not_(a)
        else:
            value = b.binary(op, a, rng.choice(values))
        values.append(value)
        out = b.sig(init, name=f"out{i}")
        b.drv(out, value, delay)
    for proc_index in range(2):
        proc = Process(f"stim{proc_index}", (), (),
                       [s.type for s in sources],
                       [f"s{i}" for i in range(n_sigs)])
        module.add(proc)
        blocks = [proc.create_block(f"w{i}") for i in range(waves + 1)]
        pb = Builder.at_end(blocks[0])
        for wave, block in enumerate(blocks[:-1]):
            pb.set_insert_point(block)
            for target in rng.sample(proc.outputs, rng.randrange(1, n_sigs)):
                value = pb.const_logic(random_logic_text(rng, width))
                pb.drv(target, value,
                       pb.const_time(TimeValue(rng.randrange(1, 4) * 250_000)))
            pb.wait(blocks[wave + 1],
                    pb.const_time(TimeValue(rng.randrange(1, 4) * 1_000_000)),
                    [])
        pb.set_insert_point(blocks[-1])
        pb.halt()
        Builder.at_end(top.body).inst(proc, [], sources)
    verify_module(module)
    return module


# -- batched fuzz: N seeds as one K=N replicated batch -------------------------

BATCH_FUZZ_LANES = 4


@pytest.mark.parametrize("backend", ("interp", "blaze"))
@pytest.mark.parametrize("name", ALL_DESIGNS)
def test_batched_fuzz_matches_per_lane_scalar_runs(name, backend):
    """N fuzz seeds as one K=N batch, each lane compared.

    Each lane's trace, print output, assertion failures, and finish
    time must be byte-identical to the scalar run of that lane's
    stimulus — the batch correctness contract.  Seeds whose scalar run
    legally errors (hostile stimulus can reach a dynamic index with X)
    are dropped before batching; the surviving seeds run as one
    replicated batch.
    """
    top = DESIGNS[name].top
    lane_seeds = [f"{name}:{k}" for k in range(BATCH_FUZZ_LANES)]
    refs = []
    for lane_seed in lane_seeds:
        module = compile_design(name, cycles=CYCLES[name])
        if not inject_lane_stimulus(module, top, name, lane_seed):
            pytest.skip(f"{name}: no injectable input nets")
        refs.append((lane_seed, _fuzz_run(module, top, backend)))
    good = [(s, r) for s, r in refs if not isinstance(r, str)]
    if len(good) < 2:
        pytest.skip(f"{name}: fewer than two non-erroring fuzz seeds")
    module = compile_design(name, cycles=CYCLES[name])
    stimulus = inject_batch_stimulus(module, top, name,
                                     [s for s, _ in good])
    assert stimulus is not None
    verify_module(module)
    batch = simulate_batch(module, top, len(good), backend=backend,
                           stimulus=stimulus)
    assert batch.mode == "replicated"
    for k, (lane_seed, ref) in enumerate(good):
        lane = batch.lane(k)
        assert ref.trace.differences(lane.trace) == [], \
            f"lane {k} ({lane_seed}): {ref.trace.differences(lane.trace)[:4]}"
        assert ref.output == lane.output, f"lane {k} ({lane_seed})"
        assert ref.assertion_failures == lane.assertion_failures, \
            f"lane {k} ({lane_seed})"
        assert ref.final_time_fs == lane.final_time_fs, \
            f"lane {k} ({lane_seed})"


# -- differential fuzz across the lowering pipeline ---------------------------


@pytest.mark.parametrize("name", ALL_DESIGNS)
def test_fuzzed_stimulus_survives_lowering_to_netlist(name):
    """The X/Z differential splicer, pushed through the full ``lower``
    pipeline and the technology mapper: under hostile nine-valued
    stimulus on the design's input nets (X/Z/W/L/H injections —
    including on clocks), the netlist-level design must trace-match the
    behavioural run.  This is what pins the X-aware ``reg`` edge
    semantics of the lowered registers to the behavioural eq/not/and
    edge detectors.

    Two-valued designs are comparable too: an ``iN`` net with several
    same-instant drivers has no resolution function, but since
    conflicting matured values now raise a deterministic drive-conflict
    error (naming both drivers), behavioural and netlist runs must agree
    on fatality rather than silently letting a driver-order-dependent
    winner through.  The two levels run different instructions, so an
    error compares only as "errored", not by its text.  Agreeing
    same-instant drivers remain legal on both sides.  Nine-valued
    collisions still resolve commutatively under IEEE 1164.

    The stimulus runs a quarter period off the testbenches' 500ps time
    grid (``phase_fs``): an input transition in the same femtosecond as
    a clock edge makes the registered view of that input scheduler-
    dependent, which no lowering can (or should) preserve.
    """
    from repro.interop import netlist_design
    from repro.passes import lower_to_structural

    seed = f"{name}:lower"
    phase = 250_000
    behavioural = compile_design(name, cycles=CYCLES[name])
    exclude = design_driven_names(behavioural, DESIGNS[name].top)
    if not inject_stimulus(behavioural, DESIGNS[name].top, seed=seed,
                            exclude_names=exclude, phase_fs=phase):
        pytest.skip(f"{name}: no injectable input nets")
    verify_module(behavioural)
    ref = _fuzz_run(behavioural, DESIGNS[name].top, "interp")

    # Same compile + same seed = byte-identical module; the stimulus is
    # injected *before* lowering and rides through the pipeline like any
    # other testbench process (rejected by deseq/PL, left behavioural).
    lowered = compile_design(name, cycles=CYCLES[name])
    assert inject_stimulus(lowered, DESIGNS[name].top, seed=seed,
                            exclude_names=exclude, phase_fs=phase)
    lower_to_structural(lowered, strict=False, verify=False)
    linked = netlist_design(lowered)
    low = _fuzz_run(linked, DESIGNS[name].top, "interp")

    # The engines must agree on whether the stimulus is fatal, and on
    # the full trace when it is not.
    assert isinstance(ref, str) == isinstance(low, str), \
        f"{name}: only one of behavioural/netlist hit a runtime error"
    if isinstance(ref, str):
        return
    active = ref.trace.live_signals()
    assert active <= set(low.trace.changes), \
        f"{name}: live signals dropped at netlist level"
    assert ref.trace.differences(low.trace) == []
    assert ref.assertion_failures == low.assertion_failures


@pytest.mark.parametrize("seed", range(6))
def test_random_nine_valued_networks_agree(seed):
    """Random packed-logic networks match across all three schedulers."""
    runs = {}
    for backend in BACKENDS:
        module = _random_logic_network(seed)
        runs[backend] = simulate(module, "fuzz_top", backend=backend)
    interp = runs["interp"]
    assert interp.trace.changes == runs["blaze"].trace.changes, \
        interp.trace.differences(runs["blaze"].trace)
    assert interp.stats == runs["blaze"].stats
    assert interp.trace.differences(runs["cycle"].trace) == []
    # The nets carry genuinely nine-valued traffic, not just 0/1.
    exotic = set()
    for _, history in interp.trace.changes.items():
        for _, value in history:
            exotic.update(str(value))
    assert exotic & set("XZLHWU-"), "stimulus never injected unknowns"
