"""SSA values, uses, arguments, blocks, and the ``time`` constant value.

LLHD adheres to SSA form: every value has a single, static definition, which
maps directly onto digital circuits where every wire has a single driver.
The in-memory design follows LLVM: instructions *are* values, operands are
explicit references, and every value maintains a use list so passes can
rewrite the graph with ``replace_all_uses_with``.
"""

from __future__ import annotations

from .types import label_type


class TimeValue:
    """A point in time or a delay: ``(femtoseconds, delta, epsilon)``.

    LLHD models simulation time as physical time in femtoseconds plus two
    sub-physical ordering dimensions: the *delta* step orders zero-time
    iterations (as in VHDL delta cycles), and the *epsilon* step orders
    drive application inside one delta.
    """

    __slots__ = ("fs", "delta", "epsilon")

    _UNITS = {"s": 10**15, "ms": 10**12, "us": 10**9, "ns": 10**6,
              "ps": 10**3, "fs": 1}

    def __init__(self, fs=0, delta=0, epsilon=0):
        self.fs = fs
        self.delta = delta
        self.epsilon = epsilon

    @classmethod
    def parse(cls, text):
        """Parse a physical time literal such as ``"2ns"`` or ``"1.5us"``."""
        text = text.strip()
        for unit in sorted(cls._UNITS, key=len, reverse=True):
            if text.endswith(unit):
                num = text[: -len(unit)]
                scale = cls._UNITS[unit]
                if "." in num:
                    whole, frac = num.split(".", 1)
                    fs = int(whole or 0) * scale
                    fs += int(frac) * scale // 10 ** len(frac)
                else:
                    fs = int(num) * scale
                return cls(fs)
        raise ValueError(f"invalid time literal {text!r}")

    def as_tuple(self):
        return (self.fs, self.delta, self.epsilon)

    def __eq__(self, other):
        return (isinstance(other, TimeValue)
                and self.as_tuple() == other.as_tuple())

    def __lt__(self, other):
        return self.as_tuple() < other.as_tuple()

    def __le__(self, other):
        return self.as_tuple() <= other.as_tuple()

    def __hash__(self):
        return hash(("TimeValue",) + self.as_tuple())

    def __str__(self):
        parts = [format_fs(self.fs)]
        if self.delta or self.epsilon:
            parts.append(f"{self.delta}d")
        if self.epsilon:
            parts.append(f"{self.epsilon}e")
        return " ".join(parts)

    def __repr__(self):
        return f"TimeValue({self.fs}, {self.delta}, {self.epsilon})"


def format_fs(fs):
    """Format femtoseconds using the largest exact unit, e.g. ``2000000 -> 2ns``."""
    if fs == 0:
        return "0s"
    for unit, scale in sorted(TimeValue._UNITS.items(), key=lambda kv: -kv[1]):
        if fs % scale == 0:
            return f"{fs // scale}{unit}"
    return f"{fs}fs"


class Use:
    """One use of a value: ``user.operands[index] is value``."""

    __slots__ = ("user", "index")

    def __init__(self, user, index):
        self.user = user
        self.index = index

    def __repr__(self):
        return f"Use({self.user!r}, {self.index})"


class Value:
    """Base class for everything that can appear as an operand."""

    #: Monotonic creation counter.  ``serial`` gives every value a total
    #: order that tracks construction order — unlike ``id()``, which the
    #: allocator hands out arbitrarily, so two compiles of the same
    #: source agree on relative serials.  Passes that need a
    #: deterministic tie-break (e.g. DNF term ordering in deseq) sort by
    #: it; anything ordered by ``id()`` would flip run to run and leak
    #: into the emitted IR, breaking bitcode-hash-keyed caches.
    _next_serial = 0

    def __init__(self, type, name=None):
        self.type = type
        self.name = name
        self.uses = []
        self.serial = Value._next_serial
        Value._next_serial += 1

    @property
    def is_used(self):
        return bool(self.uses)

    def replace_all_uses_with(self, new):
        """Rewrite every use of this value to refer to ``new`` instead."""
        if new is self:
            return
        for use in list(self.uses):
            use.user.set_operand(use.index, new)

    def _add_use(self, use):
        self.uses.append(use)

    def _remove_use(self, user, index):
        for i, use in enumerate(self.uses):
            if use.user is user and use.index == index:
                del self.uses[i]
                return
        raise AssertionError(f"use of {self!r} by {user!r}[{index}] not found")

    def __repr__(self):
        label = self.name if self.name is not None else "?"
        return f"<{type(self).__name__} %{label}: {self.type}>"


class Argument(Value):
    """A unit input or output argument.

    For processes and entities, ``direction`` distinguishes input signals
    from output signals; functions only have inputs.
    """

    def __init__(self, type, name, parent=None, direction="in"):
        super().__init__(type, name)
        self.parent = parent
        self.direction = direction


class Block(Value):
    """A basic block: an ordered list of instructions ending in a terminator.

    Blocks are values of label type so that branch instructions can refer to
    them through the regular operand/use machinery — this is what lets TCFE
    retarget edges with ``replace_all_uses_with``.
    """

    def __init__(self, name=None):
        super().__init__(label_type(), name)
        self.instructions = []
        self.parent = None  # owning unit

    # -- structural editing -------------------------------------------------

    def append(self, inst):
        """Append an instruction, maintaining parent links."""
        inst.parent = self
        self.instructions.append(inst)
        return inst

    def insert(self, index, inst):
        inst.parent = self
        self.instructions.insert(index, inst)
        return inst

    def remove(self, inst):
        """Unlink an instruction from this block (operand uses kept)."""
        self.instructions.remove(inst)
        inst.parent = None

    def index_of(self, inst):
        return self.instructions.index(inst)

    # -- queries --------------------------------------------------------------

    @property
    def terminator(self):
        """The terminator instruction, or None for (unfinished) blocks."""
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successors(self):
        """Successor blocks in terminator operand order."""
        term = self.terminator
        if term is None:
            return []
        return [op for op in term.operands if isinstance(op, Block)]

    def predecessors(self):
        """Predecessor blocks (distinct, in discovery order)."""
        preds = []
        seen = set()
        for use in self.uses:
            user = use.user
            if user.is_terminator and user.parent is not None:
                pred = user.parent
                if id(pred) not in seen:
                    seen.add(id(pred))
                    preds.append(pred)
        return preds

    def phis(self):
        """The phi instructions at the head of this block."""
        out = []
        for inst in self.instructions:
            if inst.opcode == "phi":
                out.append(inst)
            else:
                break
        return out

    def __iter__(self):
        return iter(self.instructions)

    def __len__(self):
        return len(self.instructions)

    def __repr__(self):
        return f"<Block %{self.name or '?'} ({len(self.instructions)} insts)>"
