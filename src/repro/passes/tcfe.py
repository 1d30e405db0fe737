"""Total Control Flow Elimination (TCFE) — section 4.4.

Replaces control flow with data flow: branches become multiplexers.  After
TCM most blocks are empty; TCFE

* threads jumps through empty forwarding blocks,
* if-converts diamonds and triangles (phi → mux on the branch condition),
* merges straight-line block chains,

until (for the canonical HDL forms) one block per temporal region remains:
combinational processes end with a single block/TR, sequential processes
with two (section 4.4).

If-conversion is *speculative*: a side block whose instructions are pure
and total (no division, no possibly-unknown ``mux`` selector or shift
amount, no dynamic aggregate index — anything that could raise at
runtime on the not-taken path) is hoisted into the branching block and
then converted.  This is what collapses ``case`` cascades — chains of
triangles whose arms compute values — into nested muxes.
"""

from __future__ import annotations

from ..analysis.cfg import rebuild_phi, remove_unreachable_blocks
from ..ir.builder import Builder
from ..ir.instructions import DIVISION_OPS
from ..ir.values import Block
from .manager import UnitPass, register_pass

#: Cap on instructions hoisted out of one side block per conversion;
#: conversions accumulate code up a cascade, so this bounds the growth.
SPECULATE_LIMIT = 256


def _speculatable(inst):
    """Safe to execute on a path that would not have run it: pure and
    incapable of raising a runtime error on any operand values."""
    if not inst.is_pure:
        return False
    op = inst.opcode
    if op in DIVISION_OPS:
        return False  # division by zero
    if op == "mux" and inst.operands[1].type.is_logic:
        return False  # an X selector is a runtime error
    if op in ("shl", "shr") and not inst.operands[0].type.is_logic \
            and inst.operands[1].type.is_logic:
        return False  # unknown shift amount on an integer is an error
    if op in ("extf", "insf") and inst.has_dynamic_index:
        return False  # dynamic index may be out of range
    return True


def run(unit):
    """Run TCFE to a fixpoint; returns True if the CFG changed."""
    return TotalControlFlowEliminationPass().run_on_unit(unit, None)


@register_pass
class TotalControlFlowEliminationPass(UnitPass):
    """Replace control flow with data flow: branches become muxes (§4.4).

    Rewrites the CFG wholesale, so it preserves no cached analyses.
    """

    name = "tcfe"
    applies_to = ("func", "proc")
    preserves = frozenset()

    def run_on_unit(self, unit, am):
        if not unit.is_process and not unit.is_function:
            return False
        changed = False
        progress = True
        while progress:
            progress = False
            if _thread_empty_blocks(unit):
                self.stat("threaded")
                progress = True
            if _if_convert(unit):
                self.stat("if_converted")
                progress = True
            if _merge_chains(unit):
                self.stat("merged")
                progress = True
            changed |= progress
        return changed


def _is_empty_forward(block):
    """Only an unconditional br, no phis."""
    return (len(block.instructions) == 1
            and block.terminator is not None
            and block.terminator.opcode == "br"
            and not block.terminator.is_conditional_branch)


def _thread_empty_blocks(unit):
    changed = False
    for block in list(unit.blocks):
        if block is unit.entry or not _is_empty_forward(block):
            continue
        target = block.successors()[0]
        if target is block:
            continue
        # Retargeting is unsafe if the target has phis and a predecessor of
        # `block` already reaches the target by another edge.
        if target.phis():
            preds = {id(p) for p in target.predecessors() if p is not block}
            if any(id(p) in preds for p in block.predecessors()):
                continue
            for phi in target.phis():
                pairs = []
                for value, pred in phi.phi_pairs():
                    if pred is block:
                        pairs.extend(
                            (value, p) for p in block.predecessors())
                    else:
                        pairs.append((value, pred))
                rebuild_phi(phi, pairs)
        for use in list(block.uses):
            user = use.user
            if user.opcode in ("br", "wait"):
                user.set_operand(use.index, target)
        if not block.uses:
            block.terminator.erase()
            unit.remove_block(block)
            changed = True
    if changed:
        remove_unreachable_blocks(unit)
    return changed


def _if_convert(unit):
    changed = False
    for block in list(unit.blocks):
        term = block.terminator
        if term is None or term.opcode != "br" \
                or not term.is_conditional_branch:
            continue
        cond = term.branch_condition()
        dest_false, dest_true = term.operands[1], term.operands[2]
        if dest_false is dest_true:
            join = dest_false
            _replace_phis_single_edge(join, block)
            term.erase()
            Builder.at_end(block).br(join)
            changed = True
            continue
        join = _diamond_join(block, dest_false, dest_true)
        if join is not None:
            _convert_diamond(unit, block, cond, dest_false, dest_true, join)
            changed = True
            continue
        join = _triangle_join(block, dest_false, dest_true)
        if join is not None:
            through = dest_true if join is dest_false else dest_false
            _convert_triangle(unit, block, cond, through, join,
                              through_is_true=(through is dest_true))
            changed = True
    if changed:
        remove_unreachable_blocks(unit)
    return changed


def _only_branch_to(block, join):
    """True if ``block`` is a convertible side block of a diamond or
    triangle toward ``join``: a single predecessor, an unconditional
    ``br join``, no phis, and a body of speculatable instructions (they
    will be hoisted into the branching block by the conversion)."""
    term = block.terminator
    if term is None or term.opcode != "br" or term.is_conditional_branch:
        return False
    if block.successors() != [join] or len(block.predecessors()) != 1:
        return False
    if block.phis():
        return False
    body = [i for i in block.instructions if i is not term]
    if len(body) > SPECULATE_LIMIT:
        return False
    return all(_speculatable(i) for i in body)


def _hoist_side(block, side):
    """Move ``side``'s body (all but the terminator) into ``block``,
    before its terminator — speculation, guarded by ``_speculatable``."""
    index = block.index_of(block.terminator)
    for inst in [i for i in side.instructions
                 if i is not side.terminator]:
        side.remove(inst)
        block.insert(index, inst)
        index += 1


def _diamond_join(block, dest_false, dest_true):
    if not dest_false.successors() or not dest_true.successors():
        return None
    join_f = dest_false.successors()[0]
    if not _only_branch_to(dest_false, join_f):
        return None
    if not _only_branch_to(dest_true, join_f):
        return None
    return join_f


def _triangle_join(block, dest_false, dest_true):
    # One destination is the join itself, the other flows through to it.
    for through, join in ((dest_true, dest_false),
                          (dest_false, dest_true)):
        if _only_branch_to(through, join):
            return join
    return None


def _convert_diamond(unit, block, cond, dest_false, dest_true, join):
    _hoist_side(block, dest_false)
    _hoist_side(block, dest_true)
    builder = Builder.before(block.terminator)
    for phi in join.phis():
        v_false = v_true = None
        others = []
        for value, pred in phi.phi_pairs():
            if pred is dest_false:
                v_false = value
            elif pred is dest_true:
                v_true = value
            else:
                others.append((value, pred))
        if v_false is None or v_true is None:
            return
        choices = builder.array([v_false, v_true])
        mux = builder.mux(choices, cond)
        rebuild_phi(phi, others + [(mux, block)])
    term = block.terminator
    term.erase()
    Builder.at_end(block).br(join)


def _convert_triangle(unit, block, cond, through, join, through_is_true):
    _hoist_side(block, through)
    builder = Builder.before(block.terminator)
    for phi in join.phis():
        v_block = v_through = None
        others = []
        for value, pred in phi.phi_pairs():
            if pred is block:
                v_block = value
            elif pred is through:
                v_through = value
            else:
                others.append((value, pred))
        if v_block is None or v_through is None:
            return
        if through_is_true:
            choices = builder.array([v_block, v_through])
        else:
            choices = builder.array([v_through, v_block])
        mux = builder.mux(choices, cond)
        rebuild_phi(phi, others + [(mux, block)])
    term = block.terminator
    term.erase()
    Builder.at_end(block).br(join)


def _replace_phis_single_edge(join, pred):
    """Both branch edges lead to join: phi entries from pred collapse."""
    for phi in join.phis():
        # Keep the first entry for pred, drop duplicates.
        seen = False
        pairs = []
        for value, block in phi.phi_pairs():
            if block is pred:
                if seen:
                    continue
                seen = True
            pairs.append((value, block))
        rebuild_phi(phi, pairs)


def _merge_chains(unit):
    changed = False
    for block in list(unit.blocks):
        term = block.terminator
        if term is None or term.opcode != "br" \
                or term.is_conditional_branch:
            continue
        succ = term.operands[0]
        if succ is block or succ is unit.entry:
            continue
        preds = succ.predecessors()
        if len(preds) != 1 or preds[0] is not block:
            continue
        if any(use.user is not term for use in succ.uses):
            continue  # referenced by a wait elsewhere
        # Fold single-predecessor phis, then splice instructions.
        for phi in succ.phis():
            rebuild_phi(phi, phi.phi_pairs())
        term.erase()
        for inst in list(succ.instructions):
            succ.remove(inst)
            block.append(inst)
        unit.remove_block(succ)
        changed = True
    return changed
