"""Process Lowering (PL) — section 4.5.

A process reduced to a single block whose ``wait`` terminator observes all
probed signals (and has no timeout) behaves exactly like an entity: its
body re-executes whenever an input changes.  PL removes the wait and moves
the instructions into an entity with the same signature.
"""

from __future__ import annotations

from ..ir.instructions import DATAFLOW_OPS, Instruction
from ..ir.units import Entity
from .clone import clone_instruction
from .manager import PRESERVE_ALL, ModulePass, register_pass

_ENTITY_OK = DATAFLOW_OPS | frozenset({"sig", "prb", "drv", "call"})


def can_lower(proc):
    """True if PL applies: single self-looping block, total sensitivity."""
    if not proc.is_process or len(proc.blocks) != 1:
        return False
    block = proc.blocks[0]
    term = block.terminator
    if term is None or term.opcode != "wait":
        return False
    if term.wait_time() is not None:
        return False
    if term.wait_dest() is not block:
        return False
    observed = {id(s) for s in term.wait_signals()}
    for inst in block.instructions[:-1]:
        if inst.opcode not in _ENTITY_OK:
            return False
        if inst.opcode == "prb":
            root = _root_signal(inst.operands[0])
            if root is None or id(root) not in observed:
                return False
    return True


def _root_signal(value):
    """Follow extf/exts projections back to the underlying signal."""
    while isinstance(value, Instruction) and value.opcode in ("extf", "exts"):
        value = value.operands[0]
    if value.type.is_signal:
        return value
    return None


def lower_process(module, proc):
    """Replace a PL-eligible process with an equivalent entity in-place."""
    assert can_lower(proc)
    entity = Entity(
        proc.name,
        [a.type for a in proc.inputs], [a.name for a in proc.inputs],
        [a.type for a in proc.outputs], [a.name for a in proc.outputs])
    value_map = {}
    for old, new in zip(proc.args, entity.args):
        value_map[id(old)] = new
    block = proc.blocks[0]
    for inst in block.instructions[:-1]:
        entity.body.append(clone_instruction(inst, value_map))
    module.remove(proc.name)
    module.add(entity)
    return entity


def run(module, am=None):
    """Lower every eligible process; returns the number lowered."""
    lowered = 0
    for proc in list(module.processes()):
        if can_lower(proc):
            lower_process(module, proc)
            if am is not None:
                am.forget(proc)
            lowered += 1
    return lowered


@register_pass
class ProcessLoweringPass(ModulePass):
    """Rewrite single-block fully-sensitive processes as entities (§4.5).

    Lowered processes are replaced wholesale; analyses cached for other
    units stay valid, and the replaced process is forgotten precisely.
    """

    name = "pl"
    preserves = PRESERVE_ALL

    def run_on_module(self, module, am):
        lowered = run(module, am)
        if lowered:
            self.stat("lowered", lowered)
        return bool(lowered)
