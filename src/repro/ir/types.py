"""LLHD type system.

LLHD is strongly typed: every value carries a type.  Beyond the types found
in an imperative compiler IR (``void``, ``iN``, ``T*``, arrays, structs) the
paper defines four hardware-specific types (section 2.3):

* ``time`` — a point in (simulation) time,
* ``nN``   — an enumeration value with N distinct states,
* ``lN``   — an N-bit nine-valued logic vector (IEEE 1164),
* ``T$``   — a signal carrying a value of type T.

Types are interned: constructing the same type twice yields the same object,
so types may be compared with ``is`` or ``==`` interchangeably.
"""

from __future__ import annotations


class Type:
    """Base class of all LLHD types.

    Types are immutable and interned; identity equality holds.
    """

    _cache: dict = {}

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return id(self)

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"

    # -- convenience predicates -------------------------------------------

    @property
    def is_void(self):
        return isinstance(self, VoidType)

    @property
    def is_int(self):
        return isinstance(self, IntType)

    @property
    def is_enum(self):
        return isinstance(self, EnumType)

    @property
    def is_logic(self):
        return isinstance(self, LogicType)

    @property
    def is_time(self):
        return isinstance(self, TimeType)

    @property
    def is_signal(self):
        return isinstance(self, SignalType)

    @property
    def is_pointer(self):
        return isinstance(self, PointerType)

    @property
    def is_array(self):
        return isinstance(self, ArrayType)

    @property
    def is_struct(self):
        return isinstance(self, StructType)

    @property
    def is_aggregate(self):
        return self.is_array or self.is_struct


class VoidType(Type):
    """The ``void`` type: the absence of a value."""

    def __str__(self):
        return "void"


class TimeType(Type):
    """The ``time`` type: a point in time (fs, delta, epsilon)."""

    def __str__(self):
        return "time"


class LabelType(Type):
    """The type of basic blocks when used as branch targets.

    Not part of the surface syntax; it exists so blocks can participate in
    the uniform use-list machinery.
    """

    def __str__(self):
        return "label"


class IntType(Type):
    """``iN``: an N-bit two-valued integer."""

    def __init__(self, width):
        self.width = width

    def __str__(self):
        return f"i{self.width}"


class EnumType(Type):
    """``nN``: an enumeration with N distinct values (0 .. N-1)."""

    def __init__(self, states):
        self.states = states

    def __str__(self):
        return f"n{self.states}"


class LogicType(Type):
    """``lN``: an N-bit nine-valued (IEEE 1164) logic vector."""

    def __init__(self, width):
        self.width = width

    def __str__(self):
        return f"l{self.width}"


class PointerType(Type):
    """``T*``: a pointer to stack or heap memory holding a ``T``."""

    def __init__(self, pointee):
        self.pointee = pointee

    def __str__(self):
        return f"{self.pointee}*"


class SignalType(Type):
    """``T$``: a signal (physical wire) carrying a value of type ``T``."""

    def __init__(self, element):
        self.element = element

    def __str__(self):
        return f"{self.element}$"


class ArrayType(Type):
    """``[N x T]``: an array of N elements of type T."""

    def __init__(self, length, element):
        self.length = length
        self.element = element

    def __str__(self):
        return f"[{self.length} x {self.element}]"


class StructType(Type):
    """``{T1, T2, ...}``: a structure with positional fields."""

    def __init__(self, fields):
        self.fields = tuple(fields)

    def __str__(self):
        return "{" + ", ".join(str(f) for f in self.fields) + "}"


def _intern(key, factory):
    cached = Type._cache.get(key)
    if cached is None:
        cached = factory()
        Type._cache[key] = cached
    return cached


def void_type():
    """Return the interned ``void`` type."""
    return _intern("void", VoidType)


def time_type():
    """Return the interned ``time`` type."""
    return _intern("time", TimeType)


def label_type():
    """Return the interned label type (for basic-block targets)."""
    return _intern("label", LabelType)


#: The widest ``iN``/``lN`` type, LLVM's cap on integer widths (2**23
#: bits); a wider constant's mask alone would not fit in memory.
MAX_WIDTH = 1 << 23


def int_type(width):
    """Return the interned ``iN`` type of the given bit width."""
    if not 1 <= width <= MAX_WIDTH:
        raise ValueError(
            f"integer width must be in 1..{MAX_WIDTH}, got {width}")
    return _intern(("i", width), lambda: IntType(width))


def enum_type(states):
    """Return the interned ``nN`` type with the given number of states."""
    if states < 1:
        raise ValueError(f"enum must have >= 1 states, got {states}")
    return _intern(("n", states), lambda: EnumType(states))


def logic_type(width):
    """Return the interned ``lN`` nine-valued logic type."""
    if not 1 <= width <= MAX_WIDTH:
        raise ValueError(
            f"logic width must be in 1..{MAX_WIDTH}, got {width}")
    return _intern(("l", width), lambda: LogicType(width))


def pointer_type(pointee):
    """Return the interned pointer type ``pointee*``."""
    return _intern(("ptr", pointee), lambda: PointerType(pointee))


def signal_type(element):
    """Return the interned signal type ``element$``."""
    if element.is_signal or element.is_pointer or element.is_void:
        raise ValueError(f"cannot form a signal of {element}")
    return _intern(("sig", element), lambda: SignalType(element))


def array_type(length, element):
    """Return the interned array type ``[length x element]``."""
    if length < 0:
        raise ValueError(f"array length must be >= 0, got {length}")
    return _intern(("arr", length, element), lambda: ArrayType(length, element))


def struct_type(fields):
    """Return the interned struct type ``{f0, f1, ...}``."""
    fields = tuple(fields)
    return _intern(("struct", fields), lambda: StructType(fields))


def parse_type(text):
    """Parse a type from its textual syntax, e.g. ``"i32$"`` or ``"[4 x i8]"``.

    This is a convenience wrapper used by tests and the REPL; the full parser
    in :mod:`repro.ir.parser` has its own type parsing integrated with the
    token stream.
    """
    from .parser import parse_type_text

    return parse_type_text(text)


def bit_width(ty):
    """Return the number of bits needed to store a value of ``ty``.

    Used by the bitcode writer and the size-accounting of Table 4, and by
    ``inss``/``exts`` on integers.  Signals and pointers report the width of
    their element/pointee.
    """
    if ty.is_int or ty.is_logic:
        return ty.width
    if ty.is_enum:
        return max(1, (ty.states - 1).bit_length())
    if ty.is_time:
        return 96
    if ty.is_array:
        return ty.length * bit_width(ty.element)
    if ty.is_struct:
        return sum(bit_width(f) for f in ty.fields)
    if ty.is_signal:
        return bit_width(ty.element)
    if ty.is_pointer:
        return bit_width(ty.pointee)
    if ty.is_void:
        return 0
    raise TypeError(f"no bit width for {ty!r}")
