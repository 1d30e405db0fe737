"""The evaluation design suite (Table 2 of the paper).

Ten designs "ranging from simple arithmetic primitives, over FIFO queues,
clock domain crossings, and data flow blocks, up to a full RISC-V
processor core", each written in the Moore SystemVerilog subset with a
self-checking testbench.

Usage::

    from repro.designs import DESIGNS, compile_design
    module = compile_design("fifo", cycles=100)
"""

from __future__ import annotations

from . import (
    cdc_gray, cdc_strobe, fifo, fir, gray, lfsr, lzc, riscv, rr_arbiter,
    sorter, stream_delayer,
)


class Design:
    """Metadata + source factory for one evaluation design.

    ``four_state=True`` marks a nine-valued variant: the same SystemVerilog
    source compiled with ``logic`` lowered to ``lN`` instead of ``iN``, so
    every signal and operation runs on the IEEE 1164 value representation.
    """

    def __init__(self, module, four_state=False, name=None):
        self.name = name or module.NAME
        self.paper_name = module.PAPER_NAME + (" (9v)" if four_state else "")
        self.paper_loc = module.PAPER_LOC
        self.paper_cycles = module.PAPER_CYCLES
        self.top = module.TOP
        self.four_state = four_state
        self._module = module

    def source(self, cycles=None):
        """The design + testbench SystemVerilog source text."""
        if cycles is None:
            return self._module.source()
        return self._module.source(cycles=cycles)

    def sv_loc(self, cycles=None):
        """Non-empty, non-comment source lines (the paper's LoC metric)."""
        lines = [ln.strip() for ln in self.source(cycles).splitlines()]
        return sum(1 for ln in lines
                   if ln and not ln.startswith("//"))

    def __repr__(self):
        return f"<Design {self.name} ({self.paper_name})>"


DESIGNS = {
    mod.NAME: Design(mod)
    for mod in (gray, fir, lfsr, lzc, fifo, cdc_gray, cdc_strobe,
                rr_arbiter, stream_delayer, riscv, sorter)
}

# Nine-valued variants of every suite design: identical SystemVerilog,
# compiled with four-state lowering, so the simulators exercise the packed
# IEEE 1164 value representation on real data paths — and, since the
# lowering pipeline and technology mapper understand ``lN``, so the
# behavioural → structural → netlist levels all run on nine-valued data.
FOUR_STATE_ORDER = ["gray_l", "fir_l", "lfsr_l", "lzc_l", "fifo_l",
                    "cdc_gray_l", "cdc_strobe_l", "rr_arbiter_l",
                    "stream_delayer_l", "riscv_l", "sorter_l"]
for _mod in (gray, fir, lfsr, lzc, fifo, cdc_gray, cdc_strobe, rr_arbiter,
             stream_delayer, riscv, sorter):
    DESIGNS[f"{_mod.NAME}_l"] = Design(_mod, four_state=True,
                                       name=f"{_mod.NAME}_l")
del _mod

# Table 2 presentation order; ``sorter`` (marked *) extends the paper's
# ten designs with a compute-bound stress row.
TABLE2_ORDER = ["gray", "fir", "lfsr", "lzc", "fifo", "cdc_gray",
                "cdc_strobe", "rr_arbiter", "stream_delayer", "riscv",
                "sorter"]

#: Every design the simulators must agree on: the paper's table plus the
#: nine-valued variants.
ALL_DESIGNS = TABLE2_ORDER + FOUR_STATE_ORDER

#: Designs whose synthesizable core lowers *completely* (every design
#: process becomes an entity; only the testbench stays behavioural), so
#: the design reaches the netlist level under the technology mapper.
#: Since the symbolic unroller and speculative TCFE flattened the
#: loop-heavy combinational cores (``lzc``/``rr_arbiter``/``riscv``),
#: this is the whole suite: all 22 designs.
NETLIST_DESIGNS = list(TABLE2_ORDER) + list(FOUR_STATE_ORDER)


def base_design_name(name):
    """The two-state sibling of a design name (identity if two-state)."""
    return name[:-2] if name.endswith("_l") else name


def expand_cycle_budgets(budgets):
    """Extend a per-design cycle-budget dict to the ``_l`` variants.

    Nine-valued variants run the same SystemVerilog, so every budget
    keyed by a two-state name applies verbatim to its ``_l`` sibling —
    tests and benchmarks share this helper instead of each re-deriving
    the suffix convention.
    """
    out = dict(budgets)
    out.update({f"{name}_l": cycles for name, cycles in budgets.items()
                if f"{name}_l" in DESIGNS})
    return out


def compile_design(name, cycles=None):
    """Compile one design (with testbench) to Behavioural LLHD."""
    from ..moore import compile_sv

    design = DESIGNS[name]
    return compile_sv(design.source(cycles), module_name=name,
                      four_state=design.four_state)


def simulate_design(name, cycles=None, backend="interp"):
    """Compile and simulate one design; returns the SimulationResult."""
    from ..sim import simulate

    design = DESIGNS[name]
    module = compile_design(name, cycles)
    return simulate(module, design.top, backend=backend)


#: Pipeline stages a design can reach, shallowest to deepest.  The first
#: three are transformation stages (every design passes them by
#: construction — they preserve semantics on any input); ``lower``
#: requires every design process to reach the structural level, and
#: ``netlist`` additionally requires the technology mapper to map every
#: lowered entity onto library cells.
STAGES = ("behavioural", "cleanup", "prepare", "lower", "netlist")


def stage_reach(name, cycles=4):
    """Which pipeline stages ``name`` reaches.

    Returns ``(stages, rejections)``: a dict ``stage -> bool`` over
    :data:`STAGES` and the design-process rejection list (empty when the
    design lowers completely).
    """
    from ..interop import netlist_design
    from ..interop.techmap import TechmapError
    from ..passes.pipeline import lower_to_structural

    module = compile_design(name, cycles=cycles)
    report = lower_to_structural(module, strict=False, verify=False)
    rejections = report.design_rejections()
    reach = {"behavioural": True, "cleanup": True, "prepare": True,
             "lower": not rejections, "netlist": False}
    if not rejections:
        try:
            netlist_design(module)
        except TechmapError:
            pass
        else:
            reach["netlist"] = True
    return reach, rejections


def deepest_level(name, cycles=4):
    """The deepest pipeline stage ``name`` reaches (see :data:`STAGES`)."""
    reach, _ = stage_reach(name, cycles=cycles)
    return [s for s in STAGES if reach[s]][-1]


def netlist_engine_report(name, cycles=4):
    """Which simulation engines the design's netlist level supports.

    Returns ``(engines, notes)``: the supported engine names in
    :data:`repro.sim.BACKENDS` order, and human-readable notes — the
    levelized-ineligibility reason when that engine is absent, or its
    per-cell event-driven fallbacks and combinational-cycle diagnoses
    when it is present but degraded.  The event-driven engines simulate
    any well-formed module, so only the levelized engine needs probing
    (in analysis mode: absorption + levelization without code
    generation).  Raises if the design does not reach the netlist level
    — gate on :func:`stage_reach` first.
    """
    from ..interop import netlist_design
    from ..passes.pipeline import lower_to_structural
    from ..sim import BACKENDS, SimulationError
    from ..sim.levelize import elaborate_levelized

    module = compile_design(name, cycles=cycles)
    lower_to_structural(module, strict=False, verify=False)
    linked = netlist_design(module)
    engines = [e for e in BACKENDS if e != "levelized"]
    notes = []
    try:
        design = elaborate_levelized(linked, DESIGNS[name].top,
                                     analysis=True)
    except SimulationError as exc:
        notes.append(f"levelized ineligible: {exc}")
        return engines, notes
    engines.append("levelized")
    report = design.report
    for path, why in report.get("fallbacks", []):
        notes.append(f"levelized event-driven fallback {path}: {why}")
    for members in report.get("cycles", []):
        notes.append("levelized iterative settle (combinational "
                     f"cycle): {', '.join(members[:4])}"
                     + (" ..." if len(members) > 4 else ""))
    return engines, notes


__all__ = ["ALL_DESIGNS", "DESIGNS", "Design", "FOUR_STATE_ORDER",
           "NETLIST_DESIGNS", "STAGES", "TABLE2_ORDER",
           "base_design_name", "compile_design", "deepest_level",
           "expand_cycle_budgets", "netlist_engine_report",
           "simulate_design", "stage_reach"]
