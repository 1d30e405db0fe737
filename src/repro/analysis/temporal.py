"""Temporal region (TR) analysis (section 4.3.1 of the paper).

``wait`` instructions subdivide a process into *temporal regions*: sets of
basic blocks that execute during one fixed instant of physical time.  Two
``prb``s of the same signal inside one TR observe the same value; across a
``wait`` boundary they may not.  TRs are the bounds within which ``prb`` and
``drv`` may be rearranged without changing behaviour.

TR assignment rules (verbatim from the paper):

1. If any predecessor has a ``wait`` terminator, or this is the entry
   block, generate a new TR.
2. If all predecessors have the same TR, inherit that TR.
3. If they have distinct TRs, generate a new TR.

A consequence of rule 3 is that each TR has one unique *entry block* that
control transfers to from other TRs.
"""

from __future__ import annotations

from .cfg import reverse_postorder


class TemporalRegions:
    """TR assignment for one process."""

    def __init__(self, unit):
        self.unit = unit
        self.region_of = {}   # id(block) -> TR number
        self._blocks = {}     # TR number -> [blocks]
        self.entry_block = {}  # TR number -> unique entry block
        self._compute()

    def _compute(self):
        order = reverse_postorder(self.unit)
        next_tr = 0
        for block in order:
            preds = [p for p in block.predecessors()
                     if id(p) in {id(b) for b in order}]
            new_region_needed = (
                not preds
                or any(p.terminator is not None
                       and p.terminator.opcode == "wait" for p in preds))
            if new_region_needed:
                tr = next_tr
                next_tr += 1
                self.entry_block[tr] = block
            else:
                pred_trs = {self.region_of[id(p)] for p in preds
                            if id(p) in self.region_of}
                if len(pred_trs) == 1:
                    tr = pred_trs.pop()
                else:
                    tr = next_tr
                    next_tr += 1
                    self.entry_block[tr] = block
            self.region_of[id(block)] = tr
            self._blocks.setdefault(tr, []).append(block)

    # -- queries -----------------------------------------------------------

    @property
    def count(self):
        return len(self._blocks)

    def regions(self):
        """TR numbers in creation order."""
        return sorted(self._blocks)

    def blocks_of(self, tr):
        """Blocks assigned to a TR, in reverse postorder."""
        return list(self._blocks.get(tr, []))

    def region(self, block):
        return self.region_of[id(block)]

    def exiting_blocks(self, tr):
        """Blocks of ``tr`` with a successor outside ``tr`` (or a wait)."""
        out = []
        for block in self.blocks_of(tr):
            term = block.terminator
            if term is None:
                continue
            if term.opcode in ("wait", "halt"):
                out.append(block)
                continue
            for succ in block.successors():
                if self.region_of.get(id(succ)) != tr:
                    out.append(block)
                    break
        return out
