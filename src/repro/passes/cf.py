"""Constant Folding (CF) — section 4.1.

Pure instructions whose operands are all constants are evaluated at
compile time using the *simulator's own* evaluation function, so compiled
constants agree with runtime semantics by construction.  Conditional
branches on constants become unconditional, and unreachable blocks are
pruned.
"""

from __future__ import annotations

from ..analysis.cfg import prune_phi_incoming, remove_unreachable_blocks
from ..analysis.manager import AnalysisManager
from ..ir.instructions import DATAFLOW_OPS, Instruction
from ..sim.eval import evaluate
from ..sim.values import SimulationError
from .manager import PRESERVE_ALL, UnitPass, register_pass

_FOLDABLE = DATAFLOW_OPS - {"const", "array", "struct", "insf", "inss"}


def _const_value(value):
    if isinstance(value, Instruction) and value.opcode == "const":
        return value.attrs["value"]
    return None


def _is_const(value):
    return isinstance(value, Instruction) and value.opcode == "const"


def fold_constants(unit):
    """Fold constant computations in one unit; returns #instructions folded."""
    folded = 0
    for block in list(unit.blocks):
        for inst in list(block.instructions):
            if inst.opcode not in _FOLDABLE:
                continue
            if not inst.type.is_int and not inst.type.is_enum \
                    and not inst.type.is_logic:
                continue
            if not all(_is_const(op) for op in inst.operands):
                continue
            # mux/extf need aggregate operands; only the all-scalar forms
            # reach here, which excludes them naturally.
            try:
                result = evaluate(
                    inst, [op.attrs["value"] for op in inst.operands])
            except SimulationError:
                continue  # e.g. division by zero: leave for runtime
            const = Instruction("const", inst.type, (),
                                {"value": result}, inst.name)
            block.insert(block.index_of(inst), const)
            inst.replace_all_uses_with(const)
            inst.erase()
            folded += 1
    return folded


def fold_branches(unit):
    """Rewrite conditional branches on constants; prune dead blocks."""
    if unit.is_entity:
        return 0
    changed = 0
    for block in list(unit.blocks):
        term = block.terminator
        if term is None or term.opcode != "br" \
                or not term.is_conditional_branch:
            continue
        cond = _const_value(term.branch_condition())
        if cond is None:
            continue
        from ..ir.ninevalued import LogicVec

        if isinstance(cond, LogicVec):
            if not cond.is_two_valued:
                continue  # an unknown branch condition stays a runtime issue
            cond = cond.to_int()
        dest_false, dest_true = term.operands[1], term.operands[2]
        taken = dest_true if cond else dest_false
        not_taken = dest_false if cond else dest_true
        term.erase()
        from ..ir.builder import Builder

        Builder.at_end(block).br(taken)
        if not_taken is not taken:
            # This block no longer feeds not_taken: fix its phis.
            still_pred = any(p is block for p in not_taken.predecessors())
            if not still_pred:
                for phi in not_taken.phis():
                    pairs = [(v, b) for v, b in phi.phi_pairs()
                             if b is not block]
                    from ..analysis.cfg import rebuild_phi

                    rebuild_phi(phi, pairs)
        changed += 1
    if changed:
        remove_unreachable_blocks(unit)
    return changed


def run(unit, am=None):
    """Run CF to a fixpoint on one unit; returns True if anything changed."""
    return ConstantFoldingPass().run_on_unit(
        unit, am if am is not None else AnalysisManager())


@register_pass
class ConstantFoldingPass(UnitPass):
    """Fold constants and constant branches to a fixpoint (§4.1)."""

    name = "cf"
    # Folding an instruction keeps the CFG intact; folding a *branch* does
    # not, so branch folds invalidate precisely below.
    preserves = PRESERVE_ALL

    def run_on_unit(self, unit, am):
        changed = False
        while True:
            folded = fold_constants(unit)
            branches = fold_branches(unit)
            if folded:
                self.stat("folded", folded)
            if branches:
                self.stat("branches", branches)
                am.invalidate(unit)
            if not folded and not branches:
                return changed
            changed = True
