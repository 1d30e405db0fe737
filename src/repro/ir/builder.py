"""Convenience builder for constructing LLHD IR.

The :class:`Builder` keeps an insertion point (a block, or an entity body)
and offers one method per instruction that computes the result type,
validates operands, and appends the instruction.  This is the primary
construction API used by the Moore frontend, the passes, and tests.

Example — the accumulator flip-flop entity of Figure 5::

    ent = Entity("acc_ff", [signal_type(int_type(1)), signal_type(int_type(32))],
                 ["clk", "d"], [signal_type(int_type(32))], ["q"])
    b = Builder.at_end(ent.body)
    delay = b.const_time(TimeValue.parse("1ns"))
    clkp = b.prb(ent.inputs[0])
    dp = b.prb(ent.inputs[1])
    b.reg(ent.outputs[0], [("rise", dp, clkp, None, delay)])
"""

from __future__ import annotations

from .instructions import Instruction, RegTrigger, BINARY_OPS, COMPARE_OPS
from .ninevalued import LogicVec
from .types import (
    array_type, int_type, pointer_type, signal_type, struct_type, time_type,
    void_type,
)
from .values import Block, TimeValue, Value


def _check_condition(what, cond):
    """A branch, drive or storage condition is an ``i1``, if present."""
    if cond is not None and (not cond.type.is_int or cond.type.width != 1):
        raise TypeError(f"{what} condition must be i1, got {cond.type}")


class Builder:
    """Inserts instructions at a position inside a block."""

    def __init__(self, block=None, index=None):
        self.block = block
        self.index = index  # None means "append at end"

    @classmethod
    def at_end(cls, block):
        """Builder appending at the end of ``block`` (or an entity body)."""
        return cls(block, None)

    @classmethod
    def before(cls, inst):
        """Builder inserting just before ``inst``."""
        return cls(inst.parent, inst.parent.index_of(inst))

    def set_insert_point(self, block, index=None):
        self.block = block
        self.index = index

    def insert(self, inst):
        """Insert a pre-built instruction at the current position."""
        if self.block is None:
            raise RuntimeError("builder has no insertion point")
        if self.index is None:
            self.block.append(inst)
        else:
            self.block.insert(self.index, inst)
            self.index += 1
        return inst

    # -- constants ------------------------------------------------------------

    def const_int(self, ty, value, name=None):
        """``const iN value`` (also used for nN enum constants)."""
        if ty.is_int:
            value &= (1 << ty.width) - 1
        elif ty.is_enum:
            if not 0 <= value < ty.states:
                raise ValueError(f"enum value {value} out of range for {ty}")
        else:
            raise TypeError(f"const_int needs an iN or nN type, got {ty}")
        return self.insert(Instruction("const", ty, (), {"value": value}, name))

    def const_time(self, value, name=None):
        """``const time <value>`` where value is a :class:`TimeValue`."""
        if not isinstance(value, TimeValue):
            value = TimeValue.parse(value)
        return self.insert(
            Instruction("const", time_type(), (), {"value": value}, name))

    def const_logic(self, value, name=None):
        """``const lN "…"`` where value is a :class:`LogicVec` or string."""
        if not isinstance(value, LogicVec):
            value = LogicVec(value)
        from .types import logic_type

        ty = logic_type(value.width)
        return self.insert(Instruction("const", ty, (), {"value": value}, name))

    # -- integer / logic computation ----------------------------------------

    def _binary(self, op, a, b, name=None):
        if a.type is not b.type:
            raise TypeError(f"{op}: operand types differ: {a.type} vs {b.type}")
        if not (a.type.is_int or a.type.is_logic):
            raise TypeError(f"{op}: needs iN or lN operands, got {a.type}")
        return self.insert(Instruction(op, a.type, (a, b), None, name))

    def add(self, a, b, name=None):
        return self._binary("add", a, b, name)

    def sub(self, a, b, name=None):
        return self._binary("sub", a, b, name)

    def mul(self, a, b, name=None):
        return self._binary("mul", a, b, name)

    def udiv(self, a, b, name=None):
        return self._binary("udiv", a, b, name)

    def sdiv(self, a, b, name=None):
        return self._binary("sdiv", a, b, name)

    def umod(self, a, b, name=None):
        return self._binary("umod", a, b, name)

    def smod(self, a, b, name=None):
        return self._binary("smod", a, b, name)

    def urem(self, a, b, name=None):
        return self._binary("urem", a, b, name)

    def srem(self, a, b, name=None):
        return self._binary("srem", a, b, name)

    def and_(self, a, b, name=None):
        return self._binary("and", a, b, name)

    def or_(self, a, b, name=None):
        return self._binary("or", a, b, name)

    def xor(self, a, b, name=None):
        return self._binary("xor", a, b, name)

    def shl(self, a, amount, name=None):
        if not a.type.is_int and not a.type.is_logic:
            raise TypeError(f"shl: needs iN or lN value, got {a.type}")
        return self.insert(Instruction("shl", a.type, (a, amount), None, name))

    def shr(self, a, amount, name=None):
        if not a.type.is_int and not a.type.is_logic:
            raise TypeError(f"shr: needs iN or lN value, got {a.type}")
        return self.insert(Instruction("shr", a.type, (a, amount), None, name))

    def binary(self, op, a, b, name=None):
        """Generic binary arithmetic dispatch (used by frontends)."""
        if op not in BINARY_OPS:
            raise ValueError(f"not a binary op: {op}")
        if op in ("shl", "shr"):
            return self.insert(Instruction(op, a.type, (a, b), None, name))
        return self._binary(op, a, b, name)

    def not_(self, a, name=None):
        if not (a.type.is_int or a.type.is_logic):
            raise TypeError(f"not: needs iN or lN operand, got {a.type}")
        return self.insert(Instruction("not", a.type, (a,), None, name))

    def neg(self, a, name=None):
        if not (a.type.is_int or a.type.is_logic):
            raise TypeError(f"neg: needs iN or lN operand, got {a.type}")
        return self.insert(Instruction("neg", a.type, (a,), None, name))

    def compare(self, op, a, b, name=None):
        """``eq``/``neq`` on any type; ordered comparisons on iN/lN."""
        if op not in COMPARE_OPS:
            raise ValueError(f"not a comparison: {op}")
        if a.type is not b.type:
            raise TypeError(f"{op}: operand types differ: {a.type} vs {b.type}")
        if op not in ("eq", "neq") and not (a.type.is_int or a.type.is_logic):
            raise TypeError(f"{op}: ordered compare needs iN or lN, "
                            f"got {a.type}")
        return self.insert(Instruction(op, int_type(1), (a, b), None, name))

    def eq(self, a, b, name=None):
        return self.compare("eq", a, b, name)

    def neq(self, a, b, name=None):
        return self.compare("neq", a, b, name)

    def ult(self, a, b, name=None):
        return self.compare("ult", a, b, name)

    def slt(self, a, b, name=None):
        return self.compare("slt", a, b, name)

    # -- casts ------------------------------------------------------------------

    @staticmethod
    def _cast_kinds_ok(value, ty):
        """Casts stay within one value kind: iN→iN or lN→lN."""
        return (value.type.is_int and ty.is_int) or \
            (value.type.is_logic and ty.is_logic)

    def zext(self, value, ty, name=None):
        if not self._cast_kinds_ok(value, ty) or ty.width < value.type.width:
            raise TypeError(f"zext {value.type} to {ty} is invalid")
        return self.insert(Instruction("zext", ty, (value,), None, name))

    def sext(self, value, ty, name=None):
        if not self._cast_kinds_ok(value, ty) or ty.width < value.type.width:
            raise TypeError(f"sext {value.type} to {ty} is invalid")
        return self.insert(Instruction("sext", ty, (value,), None, name))

    def trunc(self, value, ty, name=None):
        if not self._cast_kinds_ok(value, ty) or ty.width > value.type.width:
            raise TypeError(f"trunc {value.type} to {ty} is invalid")
        return self.insert(Instruction("trunc", ty, (value,), None, name))

    # -- aggregates ---------------------------------------------------------------

    def array(self, elements, name=None):
        """Array literal ``[T %a, %b, ...]`` from one or more elements."""
        elements = list(elements)
        if not elements:
            raise ValueError("array literal needs >= 1 element")
        elem_ty = elements[0].type
        for e in elements:
            if e.type is not elem_ty:
                raise TypeError("array elements must have uniform type")
        ty = array_type(len(elements), elem_ty)
        return self.insert(
            Instruction("array", ty, elements, {"splat": False}, name))

    def array_splat(self, length, value, name=None):
        """Array splat ``[N x T %v]``: N copies of one value."""
        ty = array_type(length, value.type)
        return self.insert(
            Instruction("array", ty, (value,), {"splat": True}, name))

    def struct(self, fields, name=None):
        """Struct literal ``{T %a, %b, ...}``."""
        fields = list(fields)
        ty = struct_type([f.type for f in fields])
        return self.insert(Instruction("struct", ty, fields, None, name))

    @staticmethod
    def _project(ty, wrap_check=True):
        """Return (inner_ty, wrapper) where wrapper rebuilds sig/ptr around."""
        if ty.is_signal:
            return ty.element, signal_type
        if ty.is_pointer:
            return ty.pointee, pointer_type
        return ty, lambda t: t

    def extf(self, agg, index, name=None):
        """Extract field/element ``index`` (int or dynamic iN value).

        Works on arrays and structs, and projects *through* signals and
        pointers: extracting from ``[4 x i8]$`` yields an ``i8$`` sub-signal
        (section 2.5.6 of the paper).
        """
        inner, wrap = self._project(agg.type)
        if isinstance(index, Value):
            if not inner.is_array:
                raise TypeError("dynamic extf index requires an array")
            result = wrap(inner.element)
            return self.insert(Instruction(
                "extf", result, (agg, index), {"index": None}, name))
        if inner.is_array:
            if not 0 <= index < inner.length:
                raise IndexError(f"extf index {index} out of range for {inner}")
            result = wrap(inner.element)
        elif inner.is_struct:
            result = wrap(inner.fields[index])
        else:
            raise TypeError(f"extf needs an array or struct, got {agg.type}")
        return self.insert(Instruction(
            "extf", result, (agg,), {"index": index}, name))

    def insf(self, agg, value, index, name=None):
        """Insert ``value`` at field/element ``index``; yields the new aggregate."""
        ty = agg.type
        if isinstance(index, Value):
            if not ty.is_array:
                raise TypeError("dynamic insf index requires an array")
            return self.insert(Instruction(
                "insf", ty, (agg, value, index), {"index": None}, name))
        if ty.is_array:
            if value.type is not ty.element:
                raise TypeError("insf element type mismatch")
        elif ty.is_struct:
            if value.type is not ty.fields[index]:
                raise TypeError("insf field type mismatch")
        else:
            raise TypeError(f"insf needs an array or struct, got {ty}")
        return self.insert(Instruction(
            "insf", ty, (agg, value), {"index": index}, name))

    def exts(self, agg, offset, length, name=None):
        """Extract a slice: bits of an iN/lN or elements of an array.

        Projects through signals and pointers like :meth:`extf`.
        """
        inner, wrap = self._project(agg.type)
        if inner.is_array:
            result = wrap(array_type(length, inner.element))
        elif inner.is_int:
            result = wrap(int_type(length))
        elif inner.is_logic:
            from .types import logic_type

            result = wrap(logic_type(length))
        else:
            raise TypeError(f"exts needs iN, lN, or array, got {agg.type}")
        return self.insert(Instruction(
            "exts", result, (agg,), {"offset": offset, "length": length}, name))

    def inss(self, agg, value, offset, length, name=None):
        """Insert a slice into an iN/lN or array; yields the new value."""
        return self.insert(Instruction(
            "inss", agg.type, (agg, value),
            {"offset": offset, "length": length}, name))

    def mux(self, values, selector, name=None):
        """Select among the elements of an array value by a discriminator."""
        if not values.type.is_array:
            raise TypeError(f"mux needs an array of choices, got {values.type}")
        return self.insert(Instruction(
            "mux", values.type.element, (values, selector), None, name))

    def phi(self, pairs, name=None):
        """Phi node from ``[(value, predecessor_block), ...]``."""
        pairs = list(pairs)
        ty = pairs[0][0].type
        operands = []
        for value, block in pairs:
            if value.type is not ty:
                raise TypeError("phi operand types must match")
            operands += [value, block]
        return self.insert(Instruction("phi", ty, operands, None, name))

    # -- signals ------------------------------------------------------------------

    def sig(self, init, name=None):
        """Create a signal with the given initial value."""
        return self.insert(Instruction(
            "sig", signal_type(init.type), (init,), None, name))

    def prb(self, sig, name=None):
        """Probe the current value of a signal."""
        if not sig.type.is_signal:
            raise TypeError(f"prb needs a signal, got {sig.type}")
        return self.insert(Instruction(
            "prb", sig.type.element, (sig,), None, name))

    def drv(self, sig, value, delay, cond=None):
        """Drive ``value`` onto ``sig`` after ``delay`` (optionally gated)."""
        if not sig.type.is_signal:
            raise TypeError(f"drv needs a signal, got {sig.type}")
        if value.type is not sig.type.element:
            raise TypeError(
                f"drv value type {value.type} does not match signal {sig.type}")
        if not delay.type.is_time:
            raise TypeError(f"drv delay must be a time, got {delay.type}")
        _check_condition("drv", cond)
        operands = [sig, value, delay]
        attrs = {"has_cond": cond is not None}
        if cond is not None:
            operands.append(cond)
        return self.insert(Instruction("drv", void_type(), operands, attrs))

    def con(self, a, b):
        """Connect two signals into one net (bidirectional)."""
        if a.type is not b.type:
            raise TypeError(f"con: signal types differ: {a.type} vs {b.type}")
        return self.insert(Instruction("con", void_type(), (a, b)))

    def delayed(self, source, delay, name=None):
        """``del``: a new signal following ``source`` with a fixed delay."""
        if not source.type.is_signal:
            raise TypeError(f"del needs a signal, got {source.type}")
        return self.insert(Instruction(
            "del", source.type, (source, delay), None, name))

    def reg(self, sig, triggers):
        """Create a storage element on ``sig``.

        ``triggers`` is a list of ``(mode, value, trigger, cond, delay)``
        tuples; ``cond``/``delay`` may be None.  Modes: ``low``, ``high``,
        ``rise``, ``fall``, ``both``.
        """
        operands = [sig]
        descs = []
        for mode, value, trigger, cond, delay in triggers:
            _check_condition("reg", cond)
            vi = len(operands)
            operands.append(value)
            ti = len(operands)
            operands.append(trigger)
            ci = di = None
            if cond is not None:
                ci = len(operands)
                operands.append(cond)
            if delay is not None:
                di = len(operands)
                operands.append(delay)
            descs.append(RegTrigger(mode, vi, ti, ci, di))
        return self.insert(Instruction(
            "reg", void_type(), operands, {"triggers": descs}))

    # -- hierarchy -------------------------------------------------------------------

    def inst(self, callee, inputs=(), outputs=()):
        """Instantiate a process or entity, wiring inputs and outputs."""
        name = callee if isinstance(callee, str) else callee.name
        operands = list(inputs) + list(outputs)
        return self.insert(Instruction(
            "inst", void_type(), operands,
            {"callee": name, "num_inputs": len(list(inputs))}))

    # -- memory ------------------------------------------------------------------------

    def var(self, init, name=None):
        """Stack allocation initialized with ``init``; yields a pointer."""
        return self.insert(Instruction(
            "var", pointer_type(init.type), (init,), None, name))

    def alloc(self, init, name=None):
        """Heap allocation initialized with ``init``; yields a pointer."""
        return self.insert(Instruction(
            "alloc", pointer_type(init.type), (init,), None, name))

    def free(self, ptr):
        """Release a heap allocation."""
        return self.insert(Instruction("free", void_type(), (ptr,)))

    def ld(self, ptr, name=None):
        """Load the value behind a pointer."""
        if not ptr.type.is_pointer:
            raise TypeError(f"ld needs a pointer, got {ptr.type}")
        return self.insert(Instruction(
            "ld", ptr.type.pointee, (ptr,), None, name))

    def st(self, ptr, value):
        """Store a value through a pointer."""
        if not ptr.type.is_pointer:
            raise TypeError(f"st needs a pointer, got {ptr.type}")
        if value.type is not ptr.type.pointee:
            raise TypeError(
                f"st value type {value.type} does not match {ptr.type}")
        return self.insert(Instruction("st", void_type(), (ptr, value)))

    # -- control and time flow ------------------------------------------------------------

    def call(self, callee, args=(), result_type=None, name=None):
        """Call a function (or an ``llhd.*`` intrinsic)."""
        callee_name = callee if isinstance(callee, str) else callee.name
        ty = result_type if result_type is not None else void_type()
        return self.insert(Instruction(
            "call", ty, tuple(args), {"callee": callee_name}, name))

    def br(self, dest):
        """Unconditional branch."""
        return self.insert(Instruction("br", void_type(), (dest,)))

    def br_cond(self, cond, dest_false, dest_true):
        """Conditional branch: ``br %cond, %bb_false, %bb_true``."""
        _check_condition("branch", cond)
        return self.insert(Instruction(
            "br", void_type(), (cond, dest_false, dest_true)))

    def wait(self, dest, time=None, signals=()):
        """Suspend until a signal changes and/or a time has passed."""
        operands = [dest]
        attrs = {"has_time": time is not None}
        if time is not None:
            if not time.type.is_time:
                raise TypeError(f"wait time must be a time, got {time.type}")
            operands.append(time)
        for s in signals:
            if not s.type.is_signal:
                raise TypeError(f"wait observes signals, got {s.type}")
            operands.append(s)
        return self.insert(Instruction("wait", void_type(), operands, attrs))

    def halt(self):
        """Suspend the process forever."""
        return self.insert(Instruction("halt", void_type()))

    def ret(self, value=None):
        """Return from a function (optionally with a value)."""
        operands = (value,) if value is not None else ()
        return self.insert(Instruction("ret", void_type(), operands))
