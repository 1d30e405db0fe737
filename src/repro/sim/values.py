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
array      ``tuple`` of element values
struct     ``tuple`` of field values
=========  ==========================================

All values are immutable, so aggregates can be compared and traced without
defensive copies.  Sub-signal projections (``extf``/``exts`` through ``$``)
are realized as *paths*: sequences of ``("field", i)`` / ``("slice", off,
len, kind)`` steps that this module can read from and write into whole
values.
"""

from __future__ import annotations

from ..ir.ninevalued import LogicVec
from ..ir.values import TimeValue


class SimulationError(Exception):
    """Raised for runtime errors during simulation (e.g. division by zero)."""


def default_value(ty):
    """The initial value of a type: zeros for iN/nN, all-``U`` for lN."""
    if ty.is_int or ty.is_enum:
        return 0
    if ty.is_logic:
        return LogicVec.filled("U", ty.width)
    if ty.is_time:
        return TimeValue(0)
    if ty.is_array:
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
    return value[:offset] + inner + value[offset + length:]


def format_value(value):
    """Human-readable form for traces: aggregates bracketed, ints decimal."""
    if isinstance(value, tuple):
        return "[" + ", ".join(format_value(v) for v in value) + "]"
    return str(value)
