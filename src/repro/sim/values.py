"""Runtime value representation shared by all simulators.

Mapping from LLHD types to Python runtime values:

=========  ==========================================
``iN``     ``int`` (unsigned, masked to N bits)
``nN``     ``int`` (0 .. N-1)
``lN``     :class:`repro.ir.LogicVec`; in a compiled
           unit's locals also an ``int`` standing for
           a known, strong value, boxed wherever it
           leaves the unit (:mod:`repro.sim.optable`)
``time``   :class:`repro.ir.TimeValue`
array      ``tuple`` of element values, or a
           :class:`PackedLogicArray` when the element
           type is ``lN``
struct     ``tuple`` of field values
=========  ==========================================

All values are immutable, so aggregates can be compared and traced without
defensive copies.  Sub-signal projections (``extf``/``exts`` through ``$``)
are realized as *paths*: sequences of ``("field", i)`` / ``("slice", off,
len, kind)`` steps that this module can read from and write into whole
values.

Arrays of ``lN`` are *plane-packed*: :class:`PackedLogicArray` stores all
elements in one :class:`LogicVec`, so a sub-signal drive into one element
is a single O(1) ``splice`` instead of a Python tuple rebuild, and whole-
value equality (the hot test in transaction maturation and tracing) is a
plane comparison.  The class implements the tuple protocol (indexing,
slicing, concatenation, equality against plain tuples), so existing
consumers need no changes.
"""

from __future__ import annotations

from ..ir.ninevalued import LogicVec
from ..ir.values import TimeValue


class SimulationError(Exception):
    """Raised for runtime errors during simulation (e.g. division by zero)."""


class PackedLogicArray:
    """An immutable array of same-width ``lN`` values, plane-packed.

    Element ``i`` occupies bits ``[i*W, (i+1)*W)`` of a single backing
    :class:`LogicVec` (element 0 at the LSB end, matching the LSB-based
    offsets of array slice paths).  Behaves like a tuple of
    :class:`LogicVec` for indexing, slicing, iteration, concatenation,
    and equality — including equality against actual tuples — while
    element insertion and whole-array comparison are O(1) plane ops.
    """

    __slots__ = ("_data", "_length", "_width")

    def __init__(self, data, length, width):
        self._data = data      # one LogicVec of length*width bits
        self._length = length
        self._width = width

    @classmethod
    def from_elements(cls, elements):
        """Pack a sequence of equal-width ``LogicVec`` elements."""
        elements = tuple(elements)
        if not elements:
            return ()
        width = elements[0]._width
        val = unk = weak = aux = 0
        for i, e in enumerate(elements):
            sh = i * width
            val |= e._val << sh
            unk |= e._unk << sh
            weak |= e._weak << sh
            aux |= e._aux << sh
        data = LogicVec._make(len(elements) * width, val, unk, weak, aux)
        return cls(data, len(elements), width)

    @property
    def data(self):
        """The backing :class:`LogicVec` (all elements, planes packed)."""
        return self._data

    @property
    def elem_width(self):
        return self._width

    def __len__(self):
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._length)
            if step != 1:
                return tuple(self[i] for i in range(start, stop, step))
            n = max(0, stop - start)
            if n == 0:
                return ()
            return PackedLogicArray(
                self._data.slice_(start * self._width, n * self._width),
                n, self._width)
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(index)
        return self._data.slice_(index * self._width, self._width)

    def __iter__(self):
        for i in range(self._length):
            yield self[i]

    def with_item(self, index, value):
        """A copy with element ``index`` replaced — one plane splice."""
        return PackedLogicArray(
            self._data.splice(index * self._width, value),
            self._length, self._width)

    def with_slice(self, offset, values):
        """A copy with ``values`` written at element ``offset``."""
        out = self._data
        if isinstance(values, PackedLogicArray):
            return PackedLogicArray(
                out.splice(offset * self._width, values._data),
                self._length, self._width)
        for i, v in enumerate(values):
            out = out.splice((offset + i) * self._width, v)
        return PackedLogicArray(out, self._length, self._width)

    def __add__(self, other):
        if isinstance(other, PackedLogicArray):
            if self._length == 0:
                return other
            # other holds the *higher-index* elements.
            return PackedLogicArray(
                other._data.concat(self._data),
                self._length + other._length, self._width)
        other = tuple(other)
        if not other:
            return self
        if all(type(v) is LogicVec and v._width == self._width
               for v in other):
            packed = PackedLogicArray.from_elements(other)
            return self.__add__(packed)
        return tuple(self) + other

    def __radd__(self, other):
        other = tuple(other)
        if not other:
            return self
        if all(type(v) is LogicVec and v._width == self._width
               for v in other):
            return PackedLogicArray.from_elements(other).__add__(self)
        return other + tuple(self)

    def __eq__(self, other):
        if isinstance(other, PackedLogicArray):
            return (self._length == other._length
                    and self._width == other._width
                    and self._data == other._data)
        if isinstance(other, tuple):
            return self._length == len(other) and \
                all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __hash__(self):
        # Must agree with the equal tuple of elements.
        return hash(tuple(self))

    def __repr__(self):
        return f"PackedLogicArray({list(self)!r})"


def pack_array(elements):
    """Pack a tuple of values into a :class:`PackedLogicArray` if possible.

    Used by the ``array`` evaluators/codegen: arrays of ``lN`` pack,
    everything else stays a plain tuple.
    """
    elements = tuple(elements)
    if elements and all(type(v) is LogicVec for v in elements):
        w = elements[0]._width
        if all(v._width == w for v in elements):
            return PackedLogicArray.from_elements(elements)
    return elements


def default_value(ty):
    """The initial value of a type: zeros for iN/nN, all-``U`` for lN."""
    if ty.is_int or ty.is_enum:
        return 0
    if ty.is_logic:
        return LogicVec.filled("U", ty.width)
    if ty.is_time:
        return TimeValue(0)
    if ty.is_array:
        if ty.element.is_logic and ty.length:
            return PackedLogicArray.from_elements(
                [LogicVec.filled("U", ty.element.width)] * ty.length)
        return tuple(default_value(ty.element) for _ in range(ty.length))
    if ty.is_struct:
        return tuple(default_value(f) for f in ty.fields)
    if ty.is_signal:
        return default_value(ty.element)
    raise SimulationError(f"no default value for type {ty}")


def mask(width):
    return (1 << width) - 1


def to_signed(value, width):
    """Reinterpret an unsigned N-bit value as two's-complement."""
    if value & (1 << (width - 1)):
        return value - (1 << width)
    return value


def from_signed(value, width):
    """Truncate a Python int into an unsigned N-bit representation."""
    return value & mask(width)


def dynamic_index(value):
    """A dynamic ``extf``/``insf`` index as an ``int``; ``X`` raises."""
    if isinstance(value, LogicVec):
        if not value.is_two_valued:
            raise SimulationError("dynamic index is unknown (X)")
        return value.to_int()
    return value


def extract_path(value, path):
    """Read the sub-value denoted by a projection path."""
    for step in path:
        tag = step[0]
        if tag == "field":
            index = step[1]
            if not 0 <= index < len(value):
                raise SimulationError(
                    f"index {index} out of range for aggregate of "
                    f"{len(value)} elements")
            value = value[index]
        else:  # ("slice", offset, length, kind)
            _, offset, length, kind = step
            if kind == "int":
                value = (value >> offset) & mask(length)
            elif kind == "logic":
                # O(1) plane extraction; offset counts from the LSB.
                value = value.slice_(offset, length)
            else:  # array slice
                value = value[offset:offset + length]
    return value


def insert_path(value, path, new):
    """Write ``new`` into ``value`` at the projection path; returns a copy."""
    if not path:
        return new
    step, rest = path[0], path[1:]
    tag = step[0]
    if tag == "field":
        index = step[1]
        if not 0 <= index < len(value):
            raise SimulationError(
                f"index {index} out of range for aggregate of "
                f"{len(value)} elements")
        inner = insert_path(value[index], rest, new)
        if type(value) is PackedLogicArray:
            return value.with_item(index, inner)
        return value[:index] + (inner,) + value[index + 1:]
    # ("slice", offset, length, kind)
    _, offset, length, kind = step
    if kind == "int":
        inner = insert_path(extract_path(value, (step,)), rest, new)
        cleared = value & ~(mask(length) << offset)
        return cleared | ((inner & mask(length)) << offset)
    if kind == "logic":
        inner = insert_path(extract_path(value, (step,)), rest, new)
        return value.splice(offset, inner)
    inner = insert_path(value[offset:offset + length], rest, new)
    if type(value) is PackedLogicArray:
        return value.with_slice(offset, inner)
    return value[:offset] + tuple(inner) + value[offset + length:]


def format_value(value):
    """Human-readable form for traces: aggregates bracketed, ints decimal."""
    if isinstance(value, (tuple, PackedLogicArray)):
        return "[" + ", ".join(format_value(v) for v in value) + "]"
    return str(value)
