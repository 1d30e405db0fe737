"""Randomized stimulus generation, shared by tests, CLI, and benchmarks.

The single-seed :func:`inject_stimulus` splices one randomized stimulus
process into a design's top entity — the differential-fuzz workhorse of
``tests/sim/test_engine_equivalence.py``.  The batch variants split the
seed in two: *target selection* always derives from the base seed (so
every lane drives the same nets with the same process signature, which
lets a batch swap one lane's process for another's), while the
*waveform* derives from a per-lane seed.  :func:`inject_batch_stimulus`
packages K waveform variants as a
:class:`~repro.sim.batch.BatchStimulus`; :func:`inject_lane_stimulus`
builds the matching scalar reference run for one lane.
"""

from __future__ import annotations

import random

from ..ir import Builder
from ..ir.units import Process
from ..ir.values import TimeValue
from .batch import BatchStimulus

#: Biased nine-valued alphabet: mostly two-valued so the designs keep
#: making progress, with enough X/Z/L/H/W/U/- to stress the planes.
FUZZ_ALPHABET = "0011" * 4 + "XZLHWU-"

STIMULUS_NAME = "__fuzz_stim__"

#: A stimulus process drives up to ``TARGETS`` nets, in ``WAVES`` waves
#: of ``DRIVES_PER_WAVE`` drives each.
TARGETS = 4
WAVES = 6
DRIVES_PER_WAVE = 3


def random_logic_text(rng, width):
    return "".join(rng.choice(FUZZ_ALPHABET) for _ in range(width))


def stimulus_candidates(module, top_name, exclude_names=frozenset()):
    """The injectable signals of a top entity, in stable name order.

    Keyed by signal *name*, not body position: the same seed must pick
    the same nets before and after the lowering pipeline ran cleanup
    over the entity body (which may renumber or drop instructions).
    ``exclude_names`` removes nets from the pool (e.g. design-driven
    outputs, whose multi-driver conflicts are not preserved across the
    drv -> con rewrite of the technology mapper).
    """
    top = module.get(top_name)
    return sorted(
        (inst for inst in top.body if inst.opcode == "sig"
         and inst.name is not None and inst.name not in exclude_names
         and (inst.type.element.is_int or inst.type.element.is_logic)),
        key=lambda inst: inst.name)


def design_driven_names(module, top_name):
    """Names of top-level nets driven by the design itself — entity
    instance outputs and the top's own continuous assigns.

    Back-driving these is excluded from batch stimulus.  Every lane is
    its own scalar run, so lane equivalence no longer needs the
    exclusion; it stays so that seeded lanes keep driving the nets the
    batch tests and the benchmark were built on.  (The lowering fuzz
    harness excludes them too: the techmap turns drives into net
    merges, where a second driver resolves instead of overwriting.)
    """
    top = module.get(top_name)
    driven = set()
    for inst in top.body:
        if inst.opcode == "inst":
            callee = module.get(inst.callee)
            if callee is not None and getattr(callee, "is_entity", False):
                driven.update(o.name for o in inst.inst_outputs()
                              if o.name is not None)
        elif inst.opcode == "drv":
            target = inst.drv_signal()
            if target.name is not None:
                driven.add(target.name)
    return frozenset(driven)


def stimulus_targets(module, top_name, seed, exclude_names=frozenset()):
    """Pick up to ``TARGETS`` target nets from the base seed alone."""
    candidates = stimulus_candidates(module, top_name, exclude_names)
    if not candidates:
        return []
    rng = random.Random(f"{seed}:targets")
    return rng.sample(candidates, min(len(candidates), TARGETS))


def _emit_waves(proc, rng, phase_fs=0):
    """Fill a stimulus process body with randomized drive waves.

    A nonzero ``phase_fs`` makes the stimulus *race-free*: every drive
    delay is offset by it (shifting transitions off the testbenches'
    500ps time grid) and all drive maturation times are kept pairwise
    distinct.  Two nets changing in the same femtosecond as a clock edge
    make the registered view of them legitimately scheduler-dependent,
    so comparisons across *different* elaborations of one design
    (behavioural vs netlist) need race-free stimulus; same-module
    cross-engine comparisons do not (all engines see the same races).
    """
    blocks = [proc.create_block(f"wave{i}") for i in range(WAVES + 1)]
    b = Builder.at_end(blocks[0])
    now_fs = 0
    used_fs = set()
    for wave, block in enumerate(blocks[:-1]):
        b.set_insert_point(block)
        for _ in range(DRIVES_PER_WAVE):
            target = rng.choice(proc.outputs)
            elem = target.type.element
            if elem.is_logic:
                value = b.const_logic(random_logic_text(rng, elem.width))
            else:
                value = b.const_int(elem, rng.getrandbits(elem.width))
            delay_fs = rng.randrange(1, 4) * 500_000 + phase_fs
            if phase_fs:
                while now_fs + delay_fs in used_fs:
                    delay_fs += 500_000
                used_fs.add(now_fs + delay_fs)
            b.drv(target, value, b.const_time(TimeValue(delay_fs)))
        pause_fs = rng.randrange(1, 5) * 1_000_000
        b.wait(blocks[wave + 1], b.const_time(TimeValue(pause_fs)), [])
        now_fs += pause_fs
    b.set_insert_point(blocks[-1])
    b.halt()


def build_stimulus_process(module, name, targets, seed):
    """One stimulus process over fixed ``targets``, waveform from
    ``seed``.  Added to ``module`` but not instantiated."""
    proc = Process(name, (), (), [s.type for s in targets],
                   [f"t{i}" for i in range(len(targets))])
    module.add(proc)
    _emit_waves(proc, random.Random(seed))
    return proc


def inject_stimulus(module, top_name, seed, exclude_names=frozenset(),
                    phase_fs=0):
    """Splice a randomized stimulus process into the design's top entity.

    Drives random values — nine-valued strings with X/Z/L/H/W/U/-
    injections on ``lN`` nets, random integers on ``iN`` nets — onto up
    to ``TARGETS`` of the top's internal signals at randomized times.
    Returns True if any signal was targeted.  Built from ``Random(seed)``
    only, so every backend sees a byte-identical module.  ``phase_fs``
    shifts the drive times off the testbench clock grid (see
    ``_emit_waves``).
    """
    rng = random.Random(seed)
    candidates = stimulus_candidates(module, top_name, exclude_names)
    if not candidates:
        return False
    targets = rng.sample(candidates, min(len(candidates), TARGETS))
    proc = Process(STIMULUS_NAME, (), (), [s.type for s in targets],
                   [f"t{i}" for i in range(len(targets))])
    module.add(proc)
    _emit_waves(proc, rng, phase_fs)
    top = module.get(top_name)
    Builder.at_end(top.body).inst(proc, [], targets)
    return True


def inject_batch_stimulus(module, top_name, seed, lane_seeds):
    """Inject a K-lane divergent stimulus into the top entity.

    Targets come from the base ``seed``; lane k's waveform from
    ``lane_seeds[k]``.  Lane 0's process is instantiated in the design;
    the returned :class:`BatchStimulus` swaps lane k's replica for the
    k-th variant.  Design-driven nets are always excluded (see
    :func:`design_driven_names`).  Returns None when the top has no
    injectable nets.
    """
    targets = stimulus_targets(module, top_name, seed,
                               design_driven_names(module, top_name))
    if not targets:
        return None
    units = []
    for k, lane_seed in enumerate(lane_seeds):
        name = STIMULUS_NAME if k == 0 else f"{STIMULUS_NAME}l{k}"
        units.append(
            build_stimulus_process(module, name, targets, lane_seed))
    top = module.get(top_name)
    Builder.at_end(top.body).inst(units[0], [], targets)
    return BatchStimulus({units[0].name: units})


def inject_lane_stimulus(module, top_name, seed, lane_seed):
    """The scalar reference of one batch lane: same targets (from the
    base ``seed``), same exclusions, waveform from ``lane_seed``.
    Returns True if any signal was targeted."""
    targets = stimulus_targets(module, top_name, seed,
                               design_driven_names(module, top_name))
    if not targets:
        return False
    proc = build_stimulus_process(module, STIMULUS_NAME, targets, lane_seed)
    top = module.get(top_name)
    Builder.at_end(top.body).inst(proc, [], targets)
    return True
