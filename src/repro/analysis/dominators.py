"""Dominator tree and dominance frontiers.

Implements the Cooper–Harvey–Kennedy iterative algorithm.  Used by the
verifier (SSA dominance checking), mem2reg (phi placement via iterated
dominance frontiers), CSE (scoped value numbering), and TCM (closest common
dominator of drive and exit blocks, section 4.3.3 of the paper).
"""

from __future__ import annotations

from .cfg import reverse_postorder


class DominatorTree:
    """Immutable dominator information for one control-flow unit."""

    def __init__(self, unit):
        self.unit = unit
        self.order = reverse_postorder(unit)
        self._rpo_index = {id(b): i for i, b in enumerate(self.order)}
        self.idom = {}  # id(block) -> immediate dominator block
        self._compute()

    def _compute(self):
        if not self.order:
            return
        entry = self.order[0]
        idom = {id(entry): entry}
        changed = True
        while changed:
            changed = False
            for block in self.order[1:]:
                preds = [p for p in block.predecessors()
                         if id(p) in idom and id(p) in self._rpo_index]
                if not preds:
                    continue
                new_idom = preds[0]
                for p in preds[1:]:
                    new_idom = self._intersect(idom, new_idom, p)
                if idom.get(id(block)) is not new_idom:
                    idom[id(block)] = new_idom
                    changed = True
        self.idom = idom

    def _intersect(self, idom, a, b):
        while a is not b:
            while self._rpo_index[id(a)] > self._rpo_index[id(b)]:
                a = idom[id(a)]
            while self._rpo_index[id(b)] > self._rpo_index[id(a)]:
                b = idom[id(b)]
        return a

    # -- queries -----------------------------------------------------------

    def immediate_dominator(self, block):
        """The immediate dominator, or None for the entry/unreachable."""
        dom = self.idom.get(id(block))
        if dom is None or dom is block:
            return None
        return dom

    def dominates(self, a, b):
        """True if block ``a`` dominates block ``b`` (reflexive)."""
        while True:
            if a is b:
                return True
            nxt = self.idom.get(id(b))
            if nxt is None or nxt is b:
                return False
            b = nxt

    def common_dominator(self, a, b):
        """The closest block dominating both ``a`` and ``b`` (or None)."""
        if id(a) not in self.idom or id(b) not in self.idom:
            return None
        while a is not b:
            ia, ib = self._rpo_index[id(a)], self._rpo_index[id(b)]
            if ia > ib:
                a = self.idom[id(a)]
            else:
                b = self.idom[id(b)]
        return a

    def dominance_frontier(self):
        """Map ``id(block) -> set of blocks`` in its dominance frontier."""
        frontier = {id(b): [] for b in self.order}
        frontier_ids = {id(b): set() for b in self.order}
        for block in self.order:
            preds = [p for p in block.predecessors()
                     if id(p) in self._rpo_index]
            if len(preds) < 2:
                continue
            for pred in preds:
                runner = pred
                while runner is not self.idom[id(block)]:
                    if id(block) not in frontier_ids[id(runner)]:
                        frontier_ids[id(runner)].add(id(block))
                        frontier[id(runner)].append(block)
                    runner = self.idom[id(runner)]
        return frontier

    def value_dominates(self, value, user_inst, operand_index=None):
        """True if the definition of ``value`` dominates its use.

        Arguments and constants-in-entry trivially dominate.  For a use in
        a phi, the definition must dominate the *predecessor* terminator
        rather than the phi itself.
        """
        from ..ir.instructions import Instruction
        from ..ir.values import Argument, Block

        if isinstance(value, (Argument, Block)):
            return True
        if not isinstance(value, Instruction):
            return True
        def_block = value.parent
        if def_block is None:
            return False
        if user_inst.opcode == "phi" and operand_index is not None:
            pred = user_inst.operands[operand_index + 1]
            return self.dominates(def_block, pred)
        use_block = user_inst.parent
        if def_block is use_block:
            defs = def_block.instructions
            return defs.index(value) < defs.index(user_inst)
        return self.dominates(def_block, use_block)
