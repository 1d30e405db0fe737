"""Instruction and region cloning, shared by inlining, unrolling, and
desequentialization (which copies the drive DFG into a new entity)."""

from __future__ import annotations

from ..ir.instructions import Instruction, RegTrigger


def clone_instruction(inst, value_map):
    """Clone one instruction, remapping operands through ``value_map``.

    ``value_map`` maps ``id(original_value) -> replacement`` for operands
    and branch-target blocks; unmapped operands are reused as-is (valid for
    values that remain in scope, e.g. when cloning within one unit).
    """
    operands = [value_map.get(id(op), op) for op in inst.operands]
    attrs = dict(inst.attrs)
    if inst.opcode == "reg":
        attrs["triggers"] = [
            RegTrigger(t.mode, t.value, t.trigger, t.cond, t.delay)
            for t in attrs["triggers"]]
    clone = Instruction(inst.opcode, inst.type, operands, attrs, inst.name)
    value_map[id(inst)] = clone
    return clone


def clone_blocks_into(unit, blocks, value_map, name_suffix=""):
    """Clone a list of blocks (with their instructions) into ``unit``.

    Returns the list of new blocks.  ``value_map`` is extended with both
    block and instruction mappings; it should already map external values
    (e.g. arguments) if they are to be substituted.
    """
    new_blocks = []
    for block in blocks:
        new_block = unit.create_block(
            (block.name or "bb") + name_suffix)
        value_map[id(block)] = new_block
        new_blocks.append(new_block)
    for block, new_block in zip(blocks, new_blocks):
        for inst in block.instructions:
            new_block.append(clone_instruction(inst, value_map))
    return new_blocks


def materialize_constant(value, ty, emit):
    """Build a constant instruction (tree) for a runtime ``value``.

    Aggregate values (tuples) become ``array``/``struct`` trees of
    element constants — the same shape ``sig`` initializers use; scalar
    ``iN`` values are masked to their width.  Every created instruction
    is passed through ``emit`` (which must insert or stage it, and
    return it).  Raises ValueError for an aggregate whose type is
    neither array nor struct.  Shared by desequentialization (cloning
    specialized drive values into an entity) and the loop unroller
    (staging per-iteration constants into the preheader).
    """
    if isinstance(value, tuple):
        if ty.is_array:
            parts = [materialize_constant(v, ty.element, emit)
                     for v in value]
            return emit(Instruction("array", ty, parts))
        if ty.is_struct:
            parts = [materialize_constant(v, fty, emit)
                     for v, fty in zip(value, ty.fields)]
            return emit(Instruction("struct", ty, parts))
        raise ValueError(f"cannot materialize aggregate constant of {ty}")
    if ty.is_int:
        value &= (1 << ty.width) - 1
    return emit(Instruction("const", ty, (), {"value": value}))
