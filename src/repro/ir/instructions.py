"""The LLHD instruction set.

Instructions are SSA values (they may be used as operands) with an opcode,
an operand list, and a small attribute dictionary for non-value payloads
(constant values, static indices, callee names, trigger descriptors).

The set follows section 2.5 of the paper:

* data flow: ``const``, ``array``, ``struct``, ``insf``/``extf`` (field or
  element insert/extract), ``inss``/``exts`` (slice insert/extract),
  ``mux``, ``phi``, casts (``zext``/``sext``/``trunc``), logic and
  arithmetic, shifts, comparisons;
* signals: ``sig``, ``prb``, ``drv``, ``con``, ``del``, ``reg``;
* hierarchy: ``inst``;
* memory: ``var``, ``ld``, ``st``, ``alloc``, ``free``;
* control and time flow: ``br``, ``call``, ``ret``, ``wait``, ``halt``.
"""

from __future__ import annotations

from .values import Block, Use, Value

# -- opcode classification ----------------------------------------------------

TERMINATORS = frozenset({"br", "wait", "halt", "ret"})

UNARY_OPS = frozenset({"not", "neg"})

BINARY_OPS = frozenset({
    "add", "sub", "mul", "udiv", "sdiv", "umod", "smod", "urem", "srem",
    "and", "or", "xor", "shl", "shr",
})

COMPARE_OPS = frozenset({
    "eq", "neq", "ult", "ugt", "ule", "uge", "slt", "sgt", "sle", "sge",
})

CAST_OPS = frozenset({"zext", "sext", "trunc"})

# Instructions that must never be removed even when their result is unused.
SIDE_EFFECTS = frozenset({
    "drv", "st", "call", "inst", "con", "reg", "free",
    "br", "wait", "halt", "ret",
})

# Instructions whose result depends on mutable state, so two textually equal
# occurrences are not interchangeable (CSE must skip them).
STATEFUL = frozenset({"prb", "ld", "var", "alloc", "sig", "del", "phi"})

ALL_OPCODES = (
    TERMINATORS | UNARY_OPS | BINARY_OPS | COMPARE_OPS | CAST_OPS
    | frozenset({
        "const", "array", "struct", "insf", "extf", "inss", "exts",
        "mux", "phi", "sig", "prb", "drv", "con", "del", "reg", "inst",
        "var", "ld", "st", "alloc", "free", "call",
    })
)


class RegTrigger:
    """Descriptor of one ``reg`` trigger clause.

    A ``reg`` stores a value when a trigger fires.  The mode is one of
    ``rise``, ``fall``, ``both`` (edge-sensitive) or ``high``, ``low``
    (level-sensitive).  The fields are operand indices into the owning
    instruction; ``cond`` and ``delay`` may be None.
    """

    __slots__ = ("mode", "value", "trigger", "cond", "delay")

    MODES = ("low", "high", "rise", "fall", "both")

    def __init__(self, mode, value, trigger, cond=None, delay=None):
        if mode not in self.MODES:
            raise ValueError(f"invalid reg trigger mode {mode!r}")
        self.mode = mode
        self.value = value
        self.trigger = trigger
        self.cond = cond
        self.delay = delay


class Instruction(Value):
    """One LLHD instruction; also the SSA value it defines (if non-void)."""

    def __init__(self, opcode, type, operands=(), attrs=None, name=None):
        if opcode not in ALL_OPCODES:
            raise ValueError(f"unknown opcode {opcode!r}")
        super().__init__(type, name)
        self.opcode = opcode
        self.operands = []
        self.attrs = dict(attrs) if attrs else {}
        self.parent = None  # owning Block
        for op in operands:
            self.add_operand(op)

    # -- operand maintenance -------------------------------------------------

    def add_operand(self, value):
        index = len(self.operands)
        self.operands.append(value)
        value._add_use(Use(self, index))
        return index

    def set_operand(self, index, value):
        old = self.operands[index]
        if old is value:
            return
        old._remove_use(self, index)
        self.operands[index] = value
        value._add_use(Use(self, index))

    def drop_operands(self):
        """Remove this instruction's uses of all its operands."""
        for index, op in enumerate(self.operands):
            op._remove_use(self, index)
        self.operands = []

    def erase(self):
        """Unlink from the parent block and release all operand uses."""
        if self.parent is not None:
            self.parent.remove(self)
        self.drop_operands()

    # -- generic queries -------------------------------------------------------

    @property
    def is_terminator(self):
        return self.opcode in TERMINATORS

    @property
    def has_side_effects(self):
        if self.opcode == "call":
            return True
        return self.opcode in SIDE_EFFECTS

    @property
    def is_pure(self):
        """True if the instruction may be freely duplicated, moved, or CSE'd."""
        return (self.opcode not in SIDE_EFFECTS
                and self.opcode not in STATEFUL)

    # -- opcode-specific accessors --------------------------------------------
    # These keep the flat operand layout navigable.  Layouts:
    #   br (uncond):  [dest]
    #   br (cond):    [cond, dest_false, dest_true]
    #   wait:         [dest, time?, *signals]        attrs: has_time
    #   drv:          [sig, value, delay, cond?]     attrs: has_cond
    #   call:         [*args]                        attrs: callee
    #   inst:         [*inputs, *outputs]            attrs: callee, num_inputs
    #   phi:          [v0, b0, v1, b1, ...]
    #   mux:          [array, selector]
    #   reg:          [sig, ...per trigger...]       attrs: triggers
    #   extf/insf:    [agg(, value), index?]         attrs: index (None=dynamic)
    #   exts/inss:    [agg(, value)]                 attrs: offset, length
    #   del:          [source, delay]                (result is the new signal)
    #   con:          [sigA, sigB]

    @property
    def is_conditional_branch(self):
        return self.opcode == "br" and len(self.operands) == 3

    def branch_condition(self):
        assert self.is_conditional_branch
        return self.operands[0]

    def wait_dest(self):
        assert self.opcode == "wait"
        return self.operands[0]

    def wait_time(self):
        assert self.opcode == "wait"
        return self.operands[1] if self.attrs.get("has_time") else None

    def wait_signals(self):
        assert self.opcode == "wait"
        start = 2 if self.attrs.get("has_time") else 1
        return self.operands[start:]

    def drv_signal(self):
        assert self.opcode == "drv"
        return self.operands[0]

    def drv_value(self):
        assert self.opcode == "drv"
        return self.operands[1]

    def drv_delay(self):
        assert self.opcode == "drv"
        return self.operands[2]

    def drv_condition(self):
        assert self.opcode == "drv"
        return self.operands[3] if self.attrs.get("has_cond") else None

    def call_args(self):
        assert self.opcode == "call"
        return list(self.operands)

    @property
    def callee(self):
        return self.attrs["callee"]

    def inst_inputs(self):
        assert self.opcode == "inst"
        return self.operands[: self.attrs["num_inputs"]]

    def inst_outputs(self):
        assert self.opcode == "inst"
        return self.operands[self.attrs["num_inputs"]:]

    def phi_pairs(self):
        """Iterate ``(value, predecessor_block)`` pairs of a phi."""
        assert self.opcode == "phi"
        ops = self.operands
        return [(ops[i], ops[i + 1]) for i in range(0, len(ops), 2)]

    def phi_value_for(self, block):
        for value, pred in self.phi_pairs():
            if pred is block:
                return value
        raise KeyError(f"phi has no incoming edge from {block!r}")

    def reg_signal(self):
        assert self.opcode == "reg"
        return self.operands[0]

    def reg_triggers(self):
        """Iterate resolved trigger clauses as dicts of values."""
        assert self.opcode == "reg"
        ops = self.operands
        for t in self.attrs["triggers"]:
            yield {
                "mode": t.mode,
                "value": ops[t.value],
                "trigger": ops[t.trigger],
                "cond": ops[t.cond] if t.cond is not None else None,
                "delay": ops[t.delay] if t.delay is not None else None,
            }

    @property
    def has_dynamic_index(self):
        return (self.opcode in ("extf", "insf")
                and self.attrs.get("index") is None)

    def successors(self):
        return [op for op in self.operands if isinstance(op, Block)]

    def __repr__(self):
        label = self.name if self.name is not None else "?"
        return f"<inst {self.opcode} %{label}>"
