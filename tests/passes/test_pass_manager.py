"""Unit tests for the pass manager: pipeline-spec parsing, fixpoint
groups, analysis caching and invalidation, and instrumentation."""

import pytest

from repro.analysis import AnalysisManager
from repro.ir import parse_module, verify_module
from repro.passes import (
    PASS_REGISTRY, PIPELINES, FixpointNode, PassError, PassManager,
    PassNode, UnitPass, parse_pipeline, register_pass, register_pipeline,
)


def _func(body, sig="() i32"):
    return parse_module(f"func @f {sig} {{\n{body}\n}}").get("f")


FOLDABLE = """
entry:
  %two = const i32 2
  %three = const i32 3
  %sum = add i32 %two, %three
  %dead = mul i32 %sum, %two
  ret i32 %sum
"""


# -- spec parsing -------------------------------------------------------------


def test_parse_simple_list():
    nodes = parse_pipeline("cf,dce,cse")
    assert [n.name for n in nodes] == ["cf", "dce", "cse"]
    assert all(isinstance(n, PassNode) for n in nodes)


def test_parse_fixpoint_group():
    nodes = parse_pipeline("inline,fixpoint(cf,instsimplify,cse,dce),ecm")
    assert isinstance(nodes[1], FixpointNode)
    assert [c.name for c in nodes[1].children] == \
        ["cf", "instsimplify", "cse", "dce"]
    assert nodes[0].name == "inline" and nodes[2].name == "ecm"


def test_parse_nested_fixpoint():
    nodes = parse_pipeline("fixpoint(cf,fixpoint(cse,dce))")
    assert isinstance(nodes[0], FixpointNode)
    assert isinstance(nodes[0].children[1], FixpointNode)


def test_parse_whitespace_tolerant():
    nodes = parse_pipeline(" cf , fixpoint( cse , dce ) ")
    assert nodes[0].name == "cf"
    assert isinstance(nodes[1], FixpointNode)


def test_parse_named_pipeline_alias_expands():
    nodes = parse_pipeline("cleanup")
    assert isinstance(nodes[0], FixpointNode)
    assert "cleanup" in PIPELINES and "prepare" in PIPELINES


def test_parse_unknown_pass_is_error():
    with pytest.raises(PassError, match="unknown pass"):
        parse_pipeline("cf,not-a-pass")


def test_parse_empty_fixpoint_is_error():
    with pytest.raises(PassError, match="empty fixpoint"):
        parse_pipeline("fixpoint()")


def test_parse_unbalanced_is_error():
    with pytest.raises(PassError):
        parse_pipeline("fixpoint(cf")
    with pytest.raises(PassError):
        parse_pipeline("cf)")


def test_parse_unknown_combinator_is_error():
    with pytest.raises(PassError, match="combinator"):
        parse_pipeline("loop(cf)")


def test_registry_has_the_paper_passes():
    for name in ("cf", "instsimplify", "cse", "dce", "inline", "unroll",
                 "mem2reg", "ecm", "tcm", "tcfe", "pl", "deseq", "lower"):
        assert name in PASS_REGISTRY, name


# -- running ------------------------------------------------------------------


def test_run_single_pass_on_unit():
    unit = _func(FOLDABLE)
    pm = PassManager("cf")
    assert pm.run(unit)
    ret = unit.entry.terminator
    assert ret.operands[0].opcode == "const"
    assert ret.operands[0].attrs["value"] == 5


def test_run_fixpoint_reaches_cleanup_fixpoint():
    unit = _func(FOLDABLE)
    pm = PassManager("fixpoint(cf,instsimplify,cse,dce)")
    assert pm.run(unit)
    # Everything folds to a single const feeding the ret.
    opcodes = [i.opcode for i in unit.entry.instructions]
    assert opcodes == ["const", "ret"]
    verify_module(unit.module)


def test_fixpoint_changed_flags_skip_clean_passes():
    unit = _func(FOLDABLE)
    pm = PassManager()
    pm.run_spec("fixpoint(cf,instsimplify,cse,dce)", unit)
    first = {n: r.runs for n, r in pm.records.items()}
    # A second run over the already-clean unit: every pass runs exactly
    # once more (initial dirty flags), then the group converges.
    pm.run_spec("fixpoint(cf,instsimplify,cse,dce)", unit)
    for name, record in pm.records.items():
        assert record.runs == first[name] + 1, name


_CLEANUP = ("cf", "instsimplify", "cse", "dce")


def _cleanup_runs(pm):
    return {name: pm.records[name].runs for name in _CLEANUP}


def test_pipeline_skips_a_group_that_already_converged():
    once, twice = PassManager(), PassManager()
    once.run_spec("cleanup", _func(FOLDABLE))
    twice.run_spec("cleanup,cleanup", _func(FOLDABLE))
    assert _cleanup_runs(twice) == _cleanup_runs(once)


# ECM hoists %one and %del into the entry block of the first process;
# the second has nothing left to hoist.
_ECM_MOVES = """
proc @p (i1$ %a) -> (i1$ %q) {
entry:
  br %body
body:
  %one = const i1 1
  %del = const time 1ns
  drv i1$ %q, %one after %del
  wait %entry for %a
}
"""

_ECM_KEEPS = """
proc @p (i1$ %a) -> (i1$ %q) {
entry:
  %one = const i1 1
  %del = const time 1ns
  br %body
body:
  drv i1$ %q, %one after %del
  wait %entry for %a
}
"""


@pytest.mark.parametrize("on_module", [False, True],
                         ids=["unit", "module"])
@pytest.mark.parametrize("source, ecm_changes", [(_ECM_MOVES, True),
                                                 (_ECM_KEEPS, False)],
                         ids=["ecm-changes", "ecm-clean"])
def test_group_reruns_only_after_a_reported_change(source, ecm_changes,
                                                   on_module):
    def target():
        module = parse_module(source)
        return module if on_module else module.get("p")

    first = PassManager()
    first.run_spec("cleanup", target())
    pm = PassManager()
    pm.run_spec("cleanup,ecm,cleanup", target())
    assert pm.records["ecm"].changed == int(ecm_changes)
    for name, runs in _cleanup_runs(pm).items():
        if ecm_changes:
            assert runs > _cleanup_runs(first)[name], name
        else:
            assert runs == _cleanup_runs(first)[name], name


def test_run_spec_on_module_applies_unit_passes_to_all_units():
    module = parse_module("""
func @f () i32 {
entry:
  %a = const i32 1
  %b = add i32 %a, %a
  ret i32 %b
}
func @g () i32 {
entry:
  %a = const i32 3
  %b = mul i32 %a, %a
  ret i32 %b
}
""")
    pm = PassManager("cf")
    assert pm.run(module)
    for name in ("f", "g"):
        ret = module.get(name).entry.terminator
        assert ret.operands[0].opcode == "const"


def test_module_pass_on_unit_is_an_error():
    unit = _func(FOLDABLE)
    pm = PassManager("deseq")
    with pytest.raises(PassError, match="module pass"):
        pm.run(unit)


def test_single_always_changing_pass_converges_without_self_redirty():
    # A lone child never re-dirties itself: passes are expected to be
    # internally fixpointed, so the group runs it once and stops.
    @register_pass
    class GreedyPass(UnitPass):
        name = "test-greedy"
        preserves = frozenset()

        def run_on_unit(self, unit, am):
            return True

    try:
        pm = PassManager("fixpoint(test-greedy)")
        pm.run(_func(FOLDABLE))
        assert pm.records["test-greedy"].runs == 1
    finally:
        del PASS_REGISTRY["test-greedy"]


def test_nonconverging_fixpoint_is_detected():
    # Two passes that keep re-dirtying each other must hit the round cap.
    @register_pass
    class PingPass(UnitPass):
        name = "test-ping"
        preserves = frozenset()

        def run_on_unit(self, unit, am):
            return True

    @register_pass
    class PongPass(UnitPass):
        name = "test-pong"
        preserves = frozenset()

        def run_on_unit(self, unit, am):
            return True

    try:
        unit = _func(FOLDABLE)
        pm = PassManager("fixpoint(test-ping,test-pong)")
        with pytest.raises(PassError, match="did not converge"):
            pm.run(unit)
    finally:
        del PASS_REGISTRY["test-ping"]
        del PASS_REGISTRY["test-pong"]


# -- analysis caching ---------------------------------------------------------


BRANCHY = """
entry:
  %c = const i1 1
  br %c, %left, %right
left:
  %x = const i32 1
  ret i32 %x
right:
  %y = const i32 2
  ret i32 %y
"""


def test_analysis_manager_caches_per_unit():
    unit = _func(BRANCHY)
    am = AnalysisManager()
    first = am.get("domtree", unit)
    second = am.get("domtree", unit)
    assert first is second
    assert am.hits == 1 and am.misses == 1


def test_analysis_manager_invalidate_preserved():
    unit = _func(BRANCHY)
    am = AnalysisManager()
    dom = am.get("domtree", unit)
    rpo = am.get("rpo", unit)
    am.invalidate(unit, preserved={"rpo"})
    assert am.get("rpo", unit) is rpo
    assert am.get("domtree", unit) is not dom


def test_cfg_changing_pass_invalidates_cache():
    unit = _func(BRANCHY)
    pm = PassManager()
    dom_before = pm.am.get("domtree", unit)
    pm.run_spec("cf", unit)  # folds the branch, prunes a block
    assert len(unit.blocks) == 2
    assert pm.am.cached("domtree", unit) is None
    assert pm.am.get("domtree", unit) is not dom_before


def test_preserving_pass_keeps_cache():
    # ECM moves instructions but never blocks: cached analyses survive.
    unit = parse_module("""
proc @p (i1$ %a) -> (i1$ %q) {
entry:
  br %body
body:
  %one = const i1 1
  %del = const time 1ns
  drv i1$ %q, %one after %del
  wait %entry for %a
}
""").get("p")
    pm = PassManager()
    dom_before = pm.am.get("domtree", unit)
    changed = pm.run_spec("ecm", unit)
    assert changed  # the const hoists into the entry block
    assert pm.am.cached("domtree", unit) is dom_before


def test_forgotten_units_drop_from_cache():
    unit = _func(BRANCHY)
    am = AnalysisManager()
    am.get("domtree", unit)
    am.forget(unit)
    assert am.cached("domtree", unit) is None


def test_unknown_analysis_is_an_error():
    am = AnalysisManager()
    with pytest.raises(KeyError):
        am.get("no-such-analysis", _func(FOLDABLE))


# -- instrumentation ----------------------------------------------------------


def test_records_track_runs_changed_and_time():
    unit = _func(FOLDABLE)
    pm = PassManager("cf,dce")
    pm.run(unit)
    cf = pm.records["cf"]
    assert cf.runs == 1 and cf.changed == 1 and cf.seconds >= 0.0
    assert cf.statistics.get("folded", 0) >= 1
    dce = pm.records["dce"]
    assert dce.runs == 1 and dce.changed == 1


def test_statistics_table_renders():
    unit = _func(FOLDABLE)
    pm = PassManager("fixpoint(cf,instsimplify,cse,dce)")
    pm.run(unit)
    table = pm.statistics_table()
    for name in ("cf", "instsimplify", "cse", "dce", "analysis cache"):
        assert name in table


def test_verify_each_passes_on_sound_pipeline():
    unit = _func(FOLDABLE)
    pm = PassManager("fixpoint(cf,instsimplify,cse,dce)", verify_each=True)
    pm.run(unit)  # must not raise


def test_verify_each_catches_a_corrupting_pass():
    from repro.ir import VerificationError

    @register_pass
    class CorruptPass(UnitPass):
        name = "test-corrupt"
        preserves = frozenset()

        def run_on_unit(self, unit, am):
            # Drop the terminator: the unit no longer verifies.
            unit.entry.terminator.erase()
            return True

    try:
        unit = _func(FOLDABLE)
        pm = PassManager("test-corrupt", verify_each=True)
        with pytest.raises(VerificationError):
            pm.run(unit)
    finally:
        del PASS_REGISTRY["test-corrupt"]


def test_recursive_pipeline_alias_is_an_error():
    register_pipeline("test-loop-alias", "cf,test-loop-alias")
    try:
        with pytest.raises(PassError, match="recursive"):
            parse_pipeline("test-loop-alias")
    finally:
        del PIPELINES["test-loop-alias"]
