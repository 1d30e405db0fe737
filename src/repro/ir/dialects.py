"""The three levels (dialects) of the multi-level IR (section 2.2).

* **Behavioural LLHD** captures circuit descriptions in higher-level HDLs,
  including simulation constructs and testbenches — the full IR.
* **Structural LLHD** limits the description to input-to-output relations:
  everything representable by an entity.
* **Netlist LLHD** further limits to entities plus signal creation
  (``sig``), connection (``con``), delay (``del``), and sub-circuit
  instantiation (``inst``).

The constructs of Netlist LLHD are a strict subset of Structural LLHD,
which is a strict subset of Behavioural LLHD; the levels are realized here
as increasingly strict verifier modes rather than separate IRs.
"""

from __future__ import annotations

from .instructions import DATAFLOW_OPS

BEHAVIOURAL = "behavioural"
STRUCTURAL = "structural"
NETLIST = "netlist"

LEVELS = (BEHAVIOURAL, STRUCTURAL, NETLIST)

# Opcodes allowed inside an entity at the STRUCTURAL level.
STRUCTURAL_OPCODES = DATAFLOW_OPS | frozenset({
    "sig", "prb", "drv", "reg", "inst", "con", "del",
})

# Opcodes allowed inside an entity at the NETLIST level.  Constants are
# permitted because ``sig`` requires an initial value; ``array``/``struct``
# over constants are the aggregate form of the same thing (a memory's
# initial contents) and are checked contextually in level_violations.
NETLIST_OPCODES = frozenset({"sig", "con", "del", "inst", "const"})

_NETLIST_AGGREGATE = frozenset({"const", "array", "struct"})


def _is_constant_aggregate(inst):
    """array/struct instructions whose whole tree is constant."""
    if inst.opcode not in ("array", "struct"):
        return False
    return all(
        getattr(op, "opcode", None) in _NETLIST_AGGREGATE
        and (op.opcode == "const" or _is_constant_aggregate(op))
        for op in inst.operands)


def allowed_opcodes(level):
    """The entity-body opcode allowlist for a level (None = unrestricted)."""
    if level == BEHAVIOURAL:
        return None
    if level == STRUCTURAL:
        return STRUCTURAL_OPCODES
    if level == NETLIST:
        return NETLIST_OPCODES
    raise ValueError(f"unknown LLHD level {level!r}")


def level_violations(module, level):
    """Return a list of human-readable violations of ``level`` in ``module``.

    An empty list means the module is a valid member of the level's subset.
    """
    if level == BEHAVIOURAL:
        return []
    issues = []
    opcodes = allowed_opcodes(level)
    for unit in module:
        if not unit.is_entity:
            issues.append(
                f"@{unit.name}: {unit.kind} units are not allowed in "
                f"{level} LLHD")
            continue
        for inst in unit.instructions():
            if inst.opcode not in opcodes:
                if level == NETLIST and _is_constant_aggregate(inst):
                    continue  # aggregate constant (e.g. a sig's initial)
                issues.append(
                    f"@{unit.name}: instruction '{inst.opcode}' is not "
                    f"allowed in {level} LLHD")
    return issues


def is_at_level(module, level):
    """True if the module is valid at the given level."""
    return not level_violations(module, level)


def classify(module):
    """Return the strictest level the module belongs to."""
    if is_at_level(module, NETLIST):
        return NETLIST
    if is_at_level(module, STRUCTURAL):
        return STRUCTURAL
    return BEHAVIOURAL
