"""The lowering pipeline preserves simulation semantics — staged.

Two layers of evidence:

1. **The staged suite harness** (the strong check): every design of the
   evaluation suite — two-state *and* nine-valued ``_l`` variants — is
   compiled and stopped after each named pipeline stage (``cleanup``,
   ``prepare``, ``lower``, and for fully-lowerable designs the
   ``netlist`` level after technology mapping), then simulated under the
   reference interpreter, the compiled (Blaze) engine, and the cycle
   scheduler.  Every staged trace must be byte-identical to the
   unlowered behavioural reference, signal for signal, and produce the
   same self-check assertion results.  Any miscompilation in CF/CSE/IS,
   ECM, TCM, TCFE, PL, Deseq, or the technology mapper shows up here.

2. **Property tests**: random combinational and sequential SystemVerilog
   designs are generated, lowered, and compared before/after.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.designs import ALL_DESIGNS, DESIGNS, NETLIST_DESIGNS, \
    compile_design
from repro.interop import netlist_design
from repro.moore import compile_sv
from repro.passes import deseq, process_lowering
from repro.passes.inline import InlineError
from repro.passes.manager import PassManager
from repro.passes.pipeline import (
    CLEANUP_SPEC, PREPARE_SPEC, _prepare_process, lower_to_structural,
)
from repro.sim import simulate

_OPS = ["+", "-", "&", "|", "^"]

# -- the staged suite harness --------------------------------------------------

#: Cycle budgets shared with the cross-engine equivalence oracle
#: (see tests/designs/__init__.py).
from ..designs import SUITE_TEST_CYCLES as STAGE_CYCLES  # noqa: E402

STAGES = ("cleanup", "prepare", "lower", "netlist")

ENGINES = ("interp", "blaze", "cycle")


def _engines(stage):
    """Engines exercised per stage: the levelized cone engine absorbs
    techmap library cells, so it joins the matrix at the netlist level
    (where its traces must be byte-identical like everyone else's)."""
    return ENGINES + ("levelized",) if stage == "netlist" else ENGINES


def _cycles(name):
    return STAGE_CYCLES[name]


def _apply_stage(module, stage):
    """Run the pipeline prefix named by ``stage`` on a whole module.

    ``cleanup`` and ``prepare`` mirror what ``lower_to_structural`` runs
    before the PL/Deseq rewrites; both are applied to *every* unit —
    testbenches included, since each pass must preserve semantics on any
    input.  ``lower`` is the full non-strict pipeline (testbench
    processes are rejected and stay behavioural); ``netlist`` maps the
    lowered entities through the technology mapper with a zero gate
    delay and returns the linked module.
    """
    if stage == "cleanup":
        pm = PassManager()
        for unit in module:
            pm.run_spec(CLEANUP_SPEC, unit)
        return module
    if stage == "prepare":
        pm = PassManager()
        for entity in module.entities():
            pm.run_spec(CLEANUP_SPEC, entity)
        for proc in list(module.processes()):
            try:
                pm.run_spec(PREPARE_SPEC, proc)
            except InlineError:
                pass  # stays behavioural; the lower stage reports it
        return module
    lower_to_structural(module, strict=False, verify=False)
    if stage == "netlist":
        return netlist_design(module)
    return module


@pytest.fixture(scope="module")
def references():
    """Unlowered interpreter runs, one per design (cached)."""
    cache = {}

    def get(name):
        if name not in cache:
            module = compile_design(name, cycles=_cycles(name))
            cache[name] = simulate(module, DESIGNS[name].top)
        return cache[name]
    return get


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("name", ALL_DESIGNS)
def test_staged_lowering_preserves_traces(references, name, stage):
    """Suite-wide staged equivalence across all three engines."""
    ref = references(name)
    # Every live signal of the reference must survive the stage under
    # its own name — Trace.differences compares only the intersection of
    # names, so without this a stage that dropped or renamed a live net
    # (e.g. a con merge recording only under the representative) would
    # pass vacuously.
    active = ref.trace.live_signals()
    for backend in _engines(stage):
        module = compile_design(name, cycles=_cycles(name))
        module = _apply_stage(module, stage)
        result = simulate(module, DESIGNS[name].top, backend=backend)
        missing = active - set(result.trace.changes)
        assert not missing, \
            f"{name}/{stage}/{backend}: live signals dropped: {missing}"
        diffs = ref.trace.differences(result.trace)
        assert diffs == [], f"{name}/{stage}/{backend}: {diffs[:4]}"
        assert result.assertion_failures == ref.assertion_failures, \
            f"{name}/{stage}/{backend}"


def test_every_suite_design_is_a_netlist_design():
    """The whole suite — 11 two-state + 11 nine-valued designs — lowers
    to the netlist level; nothing is exempt anymore."""
    assert sorted(NETLIST_DESIGNS) == sorted(ALL_DESIGNS)
    assert len(NETLIST_DESIGNS) == 22


@pytest.mark.parametrize("name", NETLIST_DESIGNS)
def test_netlist_designs_fully_reach_netlist_level(name):
    """Every design core lowers completely (only the testbench remains
    behavioural) and maps onto gate-library cells — ``technology_map``
    itself enforces the NETLIST level contract on every mapped entity."""
    module = compile_design(name, cycles=_cycles(name))
    report = lower_to_structural(module, strict=False, verify=False)
    assert report.design_rejections() == []
    assert report.fully_lowered
    # Rejections that do remain are testbench-only, and each carries a
    # precise reason.
    for proc, why in report.rejected:
        assert report.is_testbench(proc), (proc, why)
        assert why
    linked = netlist_design(module)
    cells = [u.name for u in linked if u.name.startswith("cell_")]
    assert cells, f"{name}: techmap produced no library cells"


@st.composite
def comb_design(draw):
    """A random combinational module: nested if/else over 8-bit signals."""
    n_inputs = draw(st.integers(2, 4))
    inputs = [f"a{i}" for i in range(n_inputs)]

    def expr(depth):
        if depth == 0 or draw(st.booleans()):
            return draw(st.sampled_from(inputs))
        op = draw(st.sampled_from(_OPS))
        return f"({expr(depth - 1)} {op} {expr(depth - 1)})"

    def stmt(depth):
        if depth == 0:
            return f"y = {expr(2)};"
        cond = draw(st.sampled_from(inputs))
        bit = draw(st.integers(0, 7))
        inner = stmt(depth - 1)
        if draw(st.booleans()):
            return (f"if ({cond}[{bit}]) {inner} "
                    f"else y = {expr(1)};")
        return f"if ({cond}[{bit}]) {inner}"

    body = f"y = {expr(2)};\n    " + stmt(draw(st.integers(0, 2)))
    ports = ", ".join(f"input logic [7:0] {name}" for name in inputs)
    design = f"""
module dut ({ports}, output logic [7:0] y);
  always_comb begin
    {body}
  end
endmodule
"""
    stimulus = []
    for step in range(draw(st.integers(2, 5))):
        for name in inputs:
            value = draw(st.integers(0, 255))
            stimulus.append(f"    {name} = 8'd{value};")
        stimulus.append("    #2ns;")
    decls = "\n  ".join(f"logic [7:0] {name};" for name in inputs)
    conns = ", ".join(f".{name}({name})" for name in inputs + ["y"])
    tb = f"""
module tb;
  {decls}
  logic [7:0] y;
  dut d ({conns});
  initial begin
{chr(10).join(stimulus)}
  end
endmodule
"""
    return design + tb


def _lower_dut_only(module):
    for proc in list(module.processes()):
        if proc.name.startswith("tb"):
            continue
        _prepare_process(proc, module)
        if process_lowering.can_lower(proc):
            process_lowering.lower_process(module, proc)
        else:
            assert deseq.desequentialize(module, proc) is not None, \
                "generated design failed to lower"


@given(comb_design())
@settings(max_examples=25, deadline=None)
def test_comb_lowering_preserves_traces(source):
    behavioural = compile_sv(source)
    lowered = compile_sv(source)
    _lower_dut_only(lowered)
    ref = simulate(behavioural, "tb")
    low = simulate(lowered, "tb")
    assert ref.trace.differences(low.trace, signals=["tb.y"]) == []


@st.composite
def seq_design(draw):
    """A random registered datapath with enable/clear controls."""
    op = draw(st.sampled_from(_OPS))
    use_enable = draw(st.booleans())
    use_clear = draw(st.booleans())
    body = f"q <= q {op} x;"
    if use_enable:
        body = f"if (en) {body}"
    if use_clear:
        body = f"if (clr) q <= 8'd0; else begin {body} end"
    design = f"""
module dut (input clk, input en, input clr, input logic [7:0] x,
            output logic [7:0] q);
  always_ff @(posedge clk) begin
    {body}
  end
endmodule
"""
    stim = []
    for _ in range(draw(st.integers(3, 8))):
        stim.append(f"    x = 8'd{draw(st.integers(0, 255))};")
        stim.append(f"    en = 1'b{draw(st.integers(0, 1))};")
        stim.append(f"    clr = 1'b{draw(st.integers(0, 1))};")
        stim.append("    #1ns; clk = 1; #1ns; clk = 0;")
    tb = f"""
module tb;
  logic clk, en, clr;
  logic [7:0] x, q;
  dut d (.clk(clk), .en(en), .clr(clr), .x(x), .q(q));
  initial begin
{chr(10).join(stim)}
  end
endmodule
"""
    return design + tb


@given(seq_design())
@settings(max_examples=25, deadline=None)
def test_seq_lowering_preserves_traces(source):
    behavioural = compile_sv(source)
    lowered = compile_sv(source)
    _lower_dut_only(lowered)
    ref = simulate(behavioural, "tb")
    low = simulate(lowered, "tb")
    assert ref.trace.differences(low.trace, signals=["tb.q"]) == []


@given(seq_design())
@settings(max_examples=10, deadline=None)
def test_seq_lowering_agrees_across_backends(source):
    lowered = compile_sv(source)
    _lower_dut_only(lowered)
    interp = simulate(lowered, "tb")
    blaze = simulate(lowered, "tb", backend="blaze")
    assert interp.trace.differences(blaze.trace) == []
