"""Early Code Motion (ECM) — section 4.2.

Eagerly moves instructions "up" the CFG into predecessor blocks to
facilitate later control-flow elimination: constants move to the entry
block, arithmetic moves to the earliest point where all operands are
available, and ``prb`` hoists only within its temporal region — moving a
probe across a ``wait`` would change which instant it samples (Figure 5b
of the paper).
"""

from __future__ import annotations

from ..analysis.manager import AnalysisManager
from ..ir.instructions import DATAFLOW_OPS, DIVISION_OPS, Instruction
from ..ir.values import Argument, Block
from .manager import PRESERVE_ALL, UnitPass, register_pass


def run(unit, am=None):
    """Hoist instructions in one process/function; True if anything moved."""
    return EarlyCodeMotionPass().run_on_unit(
        unit, am if am is not None else AnalysisManager())


@register_pass
class EarlyCodeMotionPass(UnitPass):
    """Hoist instructions up the CFG within TR bounds (§4.2).

    Instructions move between existing blocks; no block or edge changes,
    so the dominator tree and temporal regions it consumes stay valid.
    """

    name = "ecm"
    applies_to = ("func", "proc")
    preserves = PRESERVE_ALL

    def run_on_unit(self, unit, am):
        if unit.is_entity:
            return False
        domtree = am.get("domtree", unit)
        regions = am.get("temporal", unit) if unit.is_process else None
        changed = False
        for block in am.get("rpo", unit):
            for inst in list(block.instructions):
                target = _hoist_target(inst, block, domtree, regions, unit)
                if target is None or target is block:
                    continue
                block.remove(inst)
                index = len(target.instructions)
                if target.terminator is not None:
                    index -= 1
                target.insert(index, inst)
                self.stat("hoisted")
                changed = True
        return changed


def _hoist_target(inst, block, domtree, regions, unit):
    op = inst.opcode
    if op == "prb":
        if regions is None:
            return None
        # Hoist to the entry block of this instruction's temporal region:
        # within a TR all probes observe the same instant.
        tr = regions.region(block)
        entry = regions.entry_block.get(tr)
        if entry is not None and entry is not block \
                and domtree.dominates(entry, block) \
                and _operands_available(inst, entry, domtree):
            return entry
        return None
    if op not in DATAFLOW_OPS:
        return None
    if op in DIVISION_OPS:
        # Division must not be speculated onto paths that guarded it:
        # hoist only when the divisor is a non-zero constant.
        divisor = inst.operands[1]
        if not (isinstance(divisor, Instruction)
                and divisor.opcode == "const"
                and divisor.attrs["value"] != 0):
            return None
    if op == "const":
        return unit.entry
    # Deepest block (by dominator depth) among operand definitions that
    # still dominates the current block.
    target = unit.entry
    for operand in inst.operands:
        if isinstance(operand, (Argument, Block)):
            continue
        def_block = operand.parent
        if def_block is None:
            return None
        if domtree.dominates(target, def_block):
            target = def_block
        elif not domtree.dominates(def_block, target):
            return None  # incomparable definitions: leave in place
    if not domtree.dominates(target, block):
        return None
    # A probe result must not be carried across a wait: if any transitive
    # operand is a prb, the hoist target must stay within that prb's TR.
    if regions is not None and not _same_region_ok(inst, target, regions):
        return None
    return target


def _operands_available(inst, target, domtree):
    for operand in inst.operands:
        if isinstance(operand, (Argument, Block)):
            continue
        def_block = operand.parent
        if def_block is None or not domtree.dominates(def_block, target):
            return False
    return True


def _same_region_ok(inst, target, regions):
    """Moving ``inst`` to ``target`` must not detach it from prb operands'
    region: a value computed from a probe is only meaningful in the probe's
    instant."""
    for operand in inst.operands:
        if isinstance(operand, Instruction) and operand.opcode == "prb":
            if operand.parent is None:
                return False
            if regions.region_of.get(id(operand.parent)) != \
                    regions.region_of.get(id(target)):
                return False
    return True
