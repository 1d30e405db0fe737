"""Memory-to-register promotion — section 2.5.8.

Promotes ``var`` stack slots whose only uses are direct ``ld``/``st`` into
SSA values with phi nodes, using the classic iterated-dominance-frontier
phi placement [Cytron et al.].  The paper requires all stack and heap
memory instructions to be promoted before lowering to Structural LLHD, as
memory has no hardware equivalent.

All of a unit's slots are promoted together, as in Cytron et al.'s
renaming: phis are placed slot by slot (in :func:`promotable_vars`
order, each at the head of its block), then one preorder walk of the
dominator tree keeps one current value per slot, rewrites every load
and erases every store, and finally every phi is wired and the trivial
ones are pruned once.  The cost is one walk per unit, not one per slot.
"""

from __future__ import annotations

from ..analysis.manager import AnalysisManager
from ..ir.instructions import Instruction
from .manager import PRESERVE_ALL, UnitPass, register_pass


def promotable_vars(unit):
    """``var``/``alloc`` instructions used only by direct ld/st."""
    out = []
    for block in unit.blocks:
        for inst in block.instructions:
            if inst.opcode not in ("var", "alloc"):
                continue
            ok = True
            for use in inst.uses:
                user = use.user
                if user.opcode == "ld":
                    continue
                if user.opcode == "st" and use.index == 0:
                    continue
                ok = False
                break
            if ok:
                out.append(inst)
    return out


def run(unit, am=None):
    """Promote all promotable vars in a CF unit; returns True if changed."""
    return Mem2RegPass().run_on_unit(
        unit, am if am is not None else AnalysisManager())


@register_pass
class Mem2RegPass(UnitPass):
    """Promote stack slots to SSA values with phi nodes (§2.5.8).

    Inserts phis and erases ld/st/var instructions inside existing blocks;
    the CFG — and with it the dominator tree it consumes — is unchanged.
    """

    name = "mem2reg"
    applies_to = ("func", "proc")
    preserves = PRESERVE_ALL

    def run_on_unit(self, unit, am):
        if unit.is_entity:
            return False
        candidates = promotable_vars(unit)
        if not candidates:
            return False
        domtree = am.get("domtree", unit)
        reachable = {id(b) for b in domtree.order}
        slots = [var for var in candidates if id(var.parent) in reachable]
        if slots:
            _promote(slots, domtree)
            self.stat("promoted", len(slots))
        return True


def _promote(slots, domtree):
    # 1. Phi placement at the iterated dominance frontier of each slot's
    #    definitions: its stores' blocks plus its var's own block, whose
    #    init value acts as the initial store.  Only blocks that the var's
    #    block strictly dominates get a phi: every load of the slot is
    #    dominated by the var, and every path from any other block to a
    #    load passes the var, which re-initialises the slot (a var inside
    #    a loop).  Nor does such a block's frontier hold a strictly
    #    dominated block, so it needs no further iteration.  A phi goes to
    #    the head of its block, so a later slot's phi precedes an earlier
    #    slot's.
    frontier = domtree.dominance_frontier()
    slot_phis = [[] for _ in slots]
    block_phis = {}  # id(block) -> [(slot index, phi)]
    for k, var in enumerate(slots):
        home = var.parent
        def_blocks = {id(home): home}
        for use in var.uses:
            if use.user.opcode == "st":
                def_blocks[id(use.user.parent)] = use.user.parent
        placed = set()
        worklist = list(def_blocks.values())
        while worklist:
            block = worklist.pop()
            for df_block in frontier.get(id(block), []):
                if id(df_block) in placed:
                    continue
                placed.add(id(df_block))
                if df_block is home or not domtree.dominates(home,
                                                             df_block):
                    continue
                phi = Instruction("phi", var.type.pointee, (), None,
                                  var.name)
                df_block.insert(0, phi)
                slot_phis[k].append(phi)
                block_phis.setdefault(id(df_block), []).append((k, phi))
                if id(df_block) not in def_blocks:
                    def_blocks[id(df_block)] = df_block
                    worklist.append(df_block)

    # 2. One renaming walk over the dominator tree, in preorder, with one
    #    current value per slot.  None stands for the slot's init value,
    #    read from its var only once the walk has renamed the loads that
    #    may feed it.
    children = {id(b): [] for b in domtree.order}
    for block in domtree.order:
        idom = domtree.immediate_dominator(block)
        if idom is not None:
            children[id(idom)].append(block)
    slot_of = {id(var): k for k, var in enumerate(slots)}
    incoming = {}  # id(phi) -> [(value, pred_block)]
    stack = [(domtree.order[0], [None] * len(slots))]
    while stack:
        block, current = stack.pop()
        current = list(current)
        for k, phi in block_phis.get(id(block), ()):
            current[k] = phi
        kept = []
        for inst in block.instructions:
            op = inst.opcode
            if op == "ld" or op == "st":
                k = slot_of.get(id(inst.operands[0]))
                if k is not None:
                    if op == "st":
                        current[k] = inst.operands[1]
                    else:
                        value = current[k]
                        inst.replace_all_uses_with(
                            slots[k].operands[0] if value is None
                            else value)
                    # Erased: the block's list is rebuilt below, once.
                    inst.parent = None
                    inst.drop_operands()
                    continue
            else:
                k = slot_of.get(id(inst))
                if k is not None:
                    current[k] = inst.operands[0]
            kept.append(inst)
        block.instructions[:] = kept
        for succ in block.successors():
            for k, phi in block_phis.get(id(succ), ()):
                incoming.setdefault(id(phi), []).append((current[k], block))
        stack.extend((child, current)
                     for child in reversed(children[id(block)]))

    # 3. Wire up phi operands (deduplicate multi-edge predecessors), drop
    #    the vars, and prune the phis that ended up trivial.
    for var, phis in zip(slots, slot_phis):
        init_value = var.operands[0]
        for phi in phis:
            seen = set()
            for value, pred in incoming.get(id(phi), []):
                if id(pred) in seen:
                    continue
                seen.add(id(pred))
                phi.add_operand(value if value is not None else init_value)
                phi.add_operand(pred)
        var.erase()
    _prune_trivial_phis({phi for phis in slot_phis for phi in phis})


def _prune_trivial_phis(candidates):
    again = True
    while again:
        again = False
        for phi in list(candidates):
            if phi.parent is None:
                candidates.discard(phi)
                continue
            values = {id(v) for v, _ in phi.phi_pairs() if v is not phi}
            if len(values) == 1:
                replacement = next(v for v, _ in phi.phi_pairs()
                                   if v is not phi)
                phi.replace_all_uses_with(replacement)
                phi.erase()
                candidates.discard(phi)
                again = True
