"""Evaluation of pure data-flow instructions.

``evaluate(inst, operands)`` computes the result of one side-effect-free
instruction from already-evaluated operand values.  It is shared by the
reference interpreter, the compiled simulators, and the constant-folding
pass (which runs it on constant operands at compile time), so all agree on
arithmetic semantics by construction.

Semantics notes:

* ``iN`` arithmetic wraps modulo 2^N; division/modulo by zero raises
  :class:`SimulationError`.
* ``sdiv``/``srem`` truncate toward zero; ``smod`` follows the divisor's
  sign (as in VHDL's mod/rem pair).
* ``lN`` logic ops use the IEEE 1164 tables; arithmetic on ``lN`` degrades
  to all-``X`` unless both operands are two-valued.
* shifts of an ``lN`` value degrade to all-``X`` when either the shifted
  value or the shift amount contains non-two-valued bits, mirroring the
  arithmetic rule; an unknown shift amount applied to an ``iN`` value is
  an error (an integer cannot represent "unknown").
* ``eq``/``neq`` on ``lN`` compare the X01-normalized bits.

``evaluate`` dispatches through :data:`EVALUATORS`, a per-opcode function
table — interpreters resolve the evaluator once per instruction when they
predecode (see :mod:`repro.sim.plan`) instead of re-matching opcode
strings on every execution.

:func:`extf` and :func:`insf` are the dynamic-index aggregate rules: the
evaluators here call them, and so does the code blaze and cycle
generate, so an index that is out of range or unknown fails with one
text on every engine.
"""

from __future__ import annotations

from ..ir.instructions import BINARY_OPS, COMPARE_OPS, DIVISION_OPS
from ..ir.ninevalued import LogicVec
from .values import (
    SimulationError, dynamic_index, extract_path, from_signed, insert_path,
    mask, to_signed,
)


def _int_binary(op, a, b, width):
    m = mask(width)
    if op == "add":
        return (a + b) & m
    if op == "sub":
        return (a - b) & m
    if op == "mul":
        return (a * b) & m
    if op in DIVISION_OPS and (
            b == 0 or (op[0] == "s" and to_signed(b, width) == 0)):
        raise SimulationError(f"{op}: division by zero")
    if op == "udiv":
        return a // b
    if op == "umod" or op == "urem":
        return a % b
    sa, sb = to_signed(a, width), to_signed(b, width)
    if op == "sdiv":
        q = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            q = -q
        return from_signed(q, width)
    if op == "srem":
        r = abs(sa) % abs(sb)
        if sa < 0:
            r = -r
        return from_signed(r, width)
    if op == "smod":
        return from_signed(sa - sb * (sa // sb), width)
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    raise SimulationError(f"unknown integer op {op}")


def _logic_binary(op, a, b):
    if op == "and":
        return a.and_(b)
    if op == "or":
        return a.or_(b)
    if op == "xor":
        return a.xor(b)
    # Arithmetic on logic vectors: the two-valued fast path tests the
    # unknown planes once per vector and computes on the value planes
    # directly; anything unknown degrades to all-X.
    if a._unk | b._unk:
        return LogicVec.filled("X", a.width)
    width = a.width
    return LogicVec.from_int(_int_binary(op, a._val, b._val, width), width)


def logic_compare(op, a, b):
    """Compare two ``lN`` values; unknowns make every comparison false.

    ``eq``/``neq`` compare the X01-normalized values (an ``X`` anywhere
    makes the answer unknown, i.e. 0); ordered comparisons require both
    operands two-valued and then compare the integer interpretations.
    Each test is a single unknown-plane check plus a value-plane compare.
    """
    if a._unk | b._unk:
        return 0
    if op == "eq":
        return int(a._val == b._val)
    if op == "neq":
        return int(a._val != b._val)
    ia, ib = a._val, b._val
    if op[0] == "s":
        ia, ib = to_signed(ia, a.width), to_signed(ib, b.width)
    rel = op[1:]
    if rel == "lt":
        return int(ia < ib)
    if rel == "gt":
        return int(ia > ib)
    if rel == "le":
        return int(ia <= ib)
    if rel == "ge":
        return int(ia >= ib)
    raise SimulationError(f"unknown comparison {op}")


def logic_level(value):
    """The integer level of a trigger value, or -1 when unknown.

    ``reg`` edge detection compares trigger levels against 0/1; a
    two-valued nine-valued trigger contributes its X01 integer value
    (any width, matching the ``iN`` trigger semantics) while ``X``/``Z``
    phases return -1 and so match neither edge.
    """
    if isinstance(value, LogicVec):
        if value._unk == 0:
            return value._val
        return -1
    return value


def _compare(op, a, b, inst):
    ty = inst.operands[0].type
    if ty.is_logic:
        return logic_compare(op, a, b)
    if op == "eq":
        return int(a == b)
    if op == "neq":
        return int(a != b)
    width = ty.width
    if op[0] == "u":
        sa, sb = a, b
    else:
        sa, sb = to_signed(a, width), to_signed(b, width)
    rel = op[1:]
    if rel == "lt":
        return int(sa < sb)
    if rel == "gt":
        return int(sa > sb)
    if rel == "le":
        return int(sa <= sb)
    if rel == "ge":
        return int(sa >= sb)
    raise SimulationError(f"unknown comparison {op}")


def shift_amount(amount):
    """Normalize a shift amount to an int, or None if it is unknown."""
    if isinstance(amount, LogicVec):
        if not amount.is_two_valued:
            return None
        return amount.to_int()
    return amount


def logic_neg(a):
    """Negate an ``lN`` value; degrades to all-``X`` unless two-valued."""
    if a._unk:
        return LogicVec.filled("X", a.width)
    return LogicVec.from_int(-a._val, a.width)


def logic_shift(op, a, amount):
    """Shift an ``lN`` value, propagating unknowns as all-``X``."""
    amount = shift_amount(amount)
    if amount is None or a._unk:
        return LogicVec.filled("X", a.width)
    return LogicVec.from_int(int_shift(op, a._val, amount, a.width), a.width)


def int_shift(op, a, amount, width):
    """Shift an ``iN`` value; an unknown amount has no iN encoding.

    An amount of at least the width shifts every bit out: the result is
    0 without building the ``2**amount``-bit intermediate.
    """
    amount = shift_amount(amount)
    if amount is None:
        raise SimulationError(f"{op}: shift amount is unknown (X)")
    if op == "shl":
        return (a << amount) & mask(width) if amount < width else 0
    return a >> amount


def path_of(inst):
    """The projection path step for an extf/exts on a signal or pointer."""
    if inst.opcode == "extf":
        return ("field", inst.attrs["index"])
    inner = inst.operands[0].type
    if inner.is_signal:
        inner = inner.element
    elif inner.is_pointer:
        inner = inner.pointee
    if inner.is_int:
        kind = "int"
    elif inner.is_logic:
        kind = "logic"
    else:
        kind = "array"
    return ("slice", inst.attrs["offset"], inst.attrs["length"], kind)


def extf(agg, index):
    """``extf``: element ``index`` of an array or struct value."""
    index = dynamic_index(index)
    if not 0 <= index < len(agg):
        raise SimulationError(
            f"extf index {index} out of range for {len(agg)} elements")
    return agg[index]


def insf(agg, value, index):
    """``insf``: a copy of ``agg`` with element ``index`` replaced."""
    index = dynamic_index(index)
    if not 0 <= index < len(agg):
        raise SimulationError(
            f"insf index {index} out of range for {len(agg)} elements")
    return agg[:index] + (value,) + agg[index + 1:]


def _eval_extf(inst, operands):
    index = inst.attrs.get("index")
    return extf(operands[0], operands[1] if index is None else index)


def _eval_insf(inst, operands):
    index = inst.attrs.get("index")
    return insf(operands[0], operands[1],
                operands[2] if index is None else index)


def _eval_const(inst, operands):
    return inst.attrs["value"]


def _eval_binary(inst, operands):
    a, b = operands
    if isinstance(a, LogicVec):
        return _logic_binary(inst.opcode, a, b)
    return _int_binary(inst.opcode, a, b, inst.type.width)


def _eval_compare(inst, operands):
    return _compare(inst.opcode, operands[0], operands[1], inst)


def _eval_not(inst, operands):
    a = operands[0]
    if isinstance(a, LogicVec):
        return a.not_()
    return (~a) & mask(inst.type.width)


def _eval_neg(inst, operands):
    a = operands[0]
    if isinstance(a, LogicVec):
        return logic_neg(a)
    return (-a) & mask(inst.type.width)


def _eval_shift(inst, operands):
    a, amount = operands
    if isinstance(a, LogicVec):
        return logic_shift(inst.opcode, a, amount)
    return int_shift(inst.opcode, a, amount, inst.type.width)


def _eval_zext(inst, operands):
    a = operands[0]
    if isinstance(a, LogicVec):
        return a.zext(inst.type.width)
    return a


def _eval_sext(inst, operands):
    a = operands[0]
    if isinstance(a, LogicVec):
        return a.sext(inst.type.width)
    src_width = inst.operands[0].type.width
    return from_signed(to_signed(a, src_width), inst.type.width)


def _eval_trunc(inst, operands):
    a = operands[0]
    if isinstance(a, LogicVec):
        return a.trunc(inst.type.width)
    return a & mask(inst.type.width)


def _eval_array(inst, operands):
    if inst.attrs.get("splat"):
        return (operands[0],) * inst.type.length
    return tuple(operands)


def _eval_struct(inst, operands):
    return tuple(operands)


def _eval_exts(inst, operands):
    return extract_path(operands[0], (path_of(inst),))


def _eval_inss(inst, operands):
    agg, value = operands
    return insert_path(agg, (path_of(inst),), value)


def mux_select(choices, sel):
    """The mux choice at ``sel``, clamped to the last; X is an error."""
    if isinstance(sel, LogicVec):
        if not sel.is_two_valued:
            raise SimulationError("mux selector is unknown (X)")
        sel = sel.to_int()
    return choices[min(sel, len(choices) - 1)]


def _eval_mux(inst, operands):
    return mux_select(*operands)


#: Per-opcode evaluator functions ``fn(inst, operands) -> value``.
EVALUATORS = {
    "const": _eval_const,
    "not": _eval_not,
    "neg": _eval_neg,
    "shl": _eval_shift,
    "shr": _eval_shift,
    "zext": _eval_zext,
    "sext": _eval_sext,
    "trunc": _eval_trunc,
    "array": _eval_array,
    "struct": _eval_struct,
    "extf": _eval_extf,
    "insf": _eval_insf,
    "exts": _eval_exts,
    "inss": _eval_inss,
    "mux": _eval_mux,
}
for _op in sorted(BINARY_OPS - {"shl", "shr"}):
    EVALUATORS[_op] = _eval_binary
for _op in sorted(COMPARE_OPS):
    EVALUATORS[_op] = _eval_compare
del _op


def evaluate(inst, operands):
    """Evaluate one pure instruction; ``operands`` are runtime values."""
    fn = EVALUATORS.get(inst.opcode)
    if fn is None:
        raise SimulationError(
            f"evaluate: not a pure instruction: {inst.opcode}")
    return fn(inst, operands)
