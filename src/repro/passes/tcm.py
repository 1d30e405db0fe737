"""Temporal Code Motion (TCM) — section 4.3.

Moves ``drv`` instructions into a single exiting block of their temporal
region, making the drive unconditional in control flow but conditional in
data (the path condition becomes the drv's condition operand):

1. Ensure each TR has a single exiting block, inserting an auxiliary block
   when several arcs leave one TR toward another (section 4.3.2).
2. Move each drv to its TR's exiting block, attaching the branch-decision
   chain from the closest common dominator as the drive condition
   (section 4.3.3).
3. Coalesce drives of the same signal in the exiting block into one drive
   whose value is selected by the conditions (realized directly as the
   array+mux form that TCFE would otherwise produce from a phi).
"""

from __future__ import annotations

from ..analysis.manager import AnalysisManager
from ..ir.builder import Builder
from .manager import PRESERVE_ALL, UnitPass, register_pass


class TCMError(Exception):
    """Raised when a drive cannot be scheduled into its TR exit."""


def run(unit, am=None):
    """Run TCM on a process; returns True if the unit changed."""
    return TemporalCodeMotionPass().run_on_unit(
        unit, am if am is not None else AnalysisManager())


@register_pass
class TemporalCodeMotionPass(UnitPass):
    """Move drives into a single exiting block per TR (§4.3).

    Step 1 may insert auxiliary blocks (invalidated precisely when it
    does); steps 2 and 3 only move and insert instructions, so the
    analyses refreshed after step 1 remain valid afterwards.
    """

    name = "tcm"
    applies_to = ("proc",)
    preserves = PRESERVE_ALL

    def run_on_unit(self, unit, am):
        if not unit.is_process:
            return False
        changed = _single_exit_per_region(unit, am.get("temporal", unit))
        if changed:
            self.stat("aux_blocks")
            am.invalidate(unit)
        regions = am.get("temporal", unit)
        domtree = am.get("domtree", unit)
        moved = _move_drives(unit, regions, domtree)
        if moved:
            self.stat("moved_drives")
        coalesced = _coalesce_drives(unit, regions)
        if coalesced:
            self.stat("coalesced")
        return changed | moved | coalesced


# -- step 1: single exiting block per TR ---------------------------------------


def _single_exit_per_region(unit, regions):
    changed = False
    for tr in regions.regions():
        # Arcs from `tr` into each other TR, grouped by target entry block.
        arcs = {}
        for block in regions.blocks_of(tr):
            term = block.terminator
            if term is None or term.opcode != "br":
                continue
            for succ in block.successors():
                succ_tr = regions.region_of.get(id(succ))
                if succ_tr is not None and succ_tr != tr:
                    arcs.setdefault(id(succ), (succ, []))[1].append(block)
        for _, (target, sources) in arcs.items():
            if len(sources) < 2:
                continue
            # Insert an auxiliary block: all sources branch to it, and it
            # branches to the target TR's entry (Figure 5d's %aux).
            aux = unit.create_block("aux")
            for source in sources:
                term = source.terminator
                for i, op in enumerate(term.operands):
                    if op is target:
                        term.set_operand(i, aux)
            # Phis in the target lose per-edge resolution when edges merge:
            # only targets without phis are handled (canonical HDL forms).
            if target.phis():
                raise TCMError(
                    f"@{unit.name}: cannot merge arcs into block with phis")
            Builder.at_end(aux).br(target)
            changed = True
    return changed


# -- step 2: move drives into the exiting block --------------------------------


def _move_drives(unit, regions, domtree):
    changed = False
    for tr in regions.regions():
        exits = regions.exiting_blocks(tr)
        if len(exits) != 1:
            continue  # leave drives; lowering will reject if needed
        exit_block = exits[0]
        for block in regions.blocks_of(tr):
            for inst in list(block.instructions):
                if inst.opcode != "drv" or block is exit_block:
                    continue
                if not _move_one_drive(unit, inst, block, exit_block,
                                       domtree, regions):
                    continue
                changed = True
    return changed


def _move_one_drive(unit, drv, block, exit_block, domtree, regions):
    dominator = domtree.common_dominator(block, exit_block)
    if dominator is None:
        return False
    condition = _path_condition(unit, dominator, block, domtree, regions,
                                exit_block)
    if condition is _UNREACHABLE:
        return False
    block.remove(drv)
    index = len(exit_block.instructions)
    if exit_block.terminator is not None:
        index -= 1
    exit_block.insert(index, drv)
    if condition is not None:
        existing = drv.drv_condition()
        if existing is not None:
            builder = Builder.before(drv)
            condition = builder.and_(existing, condition)
        if drv.attrs.get("has_cond"):
            drv.set_operand(3, condition)
        else:
            drv.attrs["has_cond"] = True
            drv.add_operand(condition)
    return True


_UNREACHABLE = object()


def _path_condition(unit, dominator, target, domtree, regions, exit_block):
    """The condition under which control flows ``dominator -> target``.

    Returns None for "always", an i1 SSA value otherwise, or _UNREACHABLE
    if a required branch condition does not dominate the exit block (the
    materialized condition would break SSA dominance).
    """
    memo = {id(dominator): None}
    builder = Builder(exit_block,
                      max(0, len(exit_block.instructions) - 1)
                      if exit_block.terminator is not None
                      else len(exit_block.instructions))
    not_cache = {}

    def negate(value):
        cached = not_cache.get(id(value))
        if cached is None:
            cached = builder.not_(value)
            not_cache[id(value)] = cached
        return cached

    def visit(block):
        if id(block) in memo:
            return memo[id(block)]
        terms = []
        for pred in block.predecessors():
            if not domtree.dominates(dominator, pred):
                continue
            if regions.region_of.get(id(pred)) != \
                    regions.region_of.get(id(block)):
                continue  # arcs from other TRs (e.g. loop back-edges)
            term = pred.terminator
            if term is None:
                continue
            pred_cond = visit(pred)
            if pred_cond is _UNREACHABLE:
                return _mark(block, _UNREACHABLE)
            edge_cond = None
            if term.opcode == "br" and term.is_conditional_branch:
                cond_value = term.branch_condition()
                if not domtree.value_dominates(cond_value, exit_block.terminator
                                               or exit_block.instructions[-1]):
                    return _mark(block, _UNREACHABLE)
                dest_false, dest_true = term.operands[1], term.operands[2]
                if dest_true is block and dest_false is block:
                    edge_cond = None
                elif dest_true is block:
                    edge_cond = cond_value
                else:
                    edge_cond = negate(cond_value)
            combined = _and(builder, pred_cond, edge_cond)
            terms.append(combined)
        if not terms:
            return _mark(block, _UNREACHABLE)
        result = terms[0]
        for term_cond in terms[1:]:
            result = _or(builder, result, term_cond)
        return _mark(block, result)

    def _mark(block, value):
        memo[id(block)] = value
        return value

    return visit(target)


def _and(builder, a, b):
    if a is None:
        return b
    if b is None:
        return a
    return builder.and_(a, b)


def _or(builder, a, b):
    if a is None or b is None:
        return None  # "always" absorbs
    return builder.or_(a, b)


# -- step 3: coalesce same-signal drives in the exit block ----------------------


def _coalesce_drives(unit, regions):
    changed = False
    for tr in regions.regions():
        exits = regions.exiting_blocks(tr)
        if len(exits) != 1:
            continue
        exit_block = exits[0]
        groups = {}
        for inst in exit_block.instructions:
            if inst.opcode != "drv":
                continue
            key = (id(inst.drv_signal()), id(inst.drv_delay()))
            groups.setdefault(key, []).append(inst)
        for drvs in groups.values():
            if len(drvs) < 2:
                continue
            _coalesce_group(exit_block, drvs)
            changed = True
    return changed


def _coalesce_group(exit_block, drvs):
    """Merge ordered drives of one signal: the last satisfied one wins.

    The merged drive replaces the group's *last* member in place rather
    than moving to the end of the block: scheduling is transport-
    cancelling (a drive deletes this driver's pending transactions at or
    after its time), so reordering a drive past a same-signal drive with
    a different delay would change which transactions survive.
    """
    last = drvs[-1]
    builder = Builder.before(last)
    value = drvs[0].drv_value()
    condition = drvs[0].drv_condition()
    for drv in drvs[1:]:
        v, c = drv.drv_value(), drv.drv_condition()
        if c is None:
            # An unconditional later drive overrides everything before it.
            value, condition = v, None
        else:
            choices = builder.array([value, v])
            value = builder.mux(choices, c)
            condition = None if condition is None \
                else builder.or_(condition, c)
    signal = last.drv_signal()
    delay = last.drv_delay()
    for drv in drvs[:-1]:
        drv.erase()
    index = exit_block.index_of(last)
    last.erase()
    Builder(exit_block, index).drv(signal, value, delay, condition)
