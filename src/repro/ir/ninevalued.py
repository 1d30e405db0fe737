"""IEEE 1164 nine-valued logic, bit-plane packed.

The ``lN`` type models the states a physical signal wire may be in, beyond
the fundamental 0 and 1: drive strength, drive collisions, floating gates,
and unknown values.  The nine values are:

====== =============================
``U``  uninitialized
``X``  forcing unknown
``0``  forcing zero
``1``  forcing one
``Z``  high impedance
``W``  weak unknown
``L``  weak zero
``H``  weak one
``-``  don't care
====== =============================

Representation
--------------

:class:`LogicVec` packs an N-bit vector into **four parallel width-bit
integers** (bit planes), the dense machine layout the paper's llhd-sim
uses for signal state instead of one heap object per bit:

======== =====================================================
``val``  1 where the X01 interpretation of the bit is ``1``
         (states ``1 H Z -``; for ``Z``/``-`` the bit serves
         only to distinguish states inside the unknown group)
``unk``  1 where the bit is not two-valued (``U X Z W -``)
``weak`` 1 for the weak-strength states (``W L H``)
``aux``  1 for ``U`` and ``-`` (disambiguates the unknown group)
======== =====================================================

Every state has a unique ``(unk, val, weak, aux)`` tuple::

    0=0000  1=0100  L=0010  H=0110  X=1000
    Z=1100  W=1010  U=1001  -=1101      (order: unk val weak aux)

All bitwise operations — AND/OR/XOR/NOT, the IEEE 1164 resolution
function, X01 normalization, zero/sign extension, truncation, slicing and
splicing — are O(1) whole-vector integer expressions on the planes; no
per-bit Python loop survives.  Useful derived masks::

    hi = val & ~unk          # bits that read as 1   (1, H)
    lo = ~val & ~unk & M     # bits that read as 0   (0, L)
    uu = unk & aux & ~val    # uninitialized bits    (U)

The external interface is unchanged: ``bits`` is still the MSB-first
string over :data:`VALUES` (materialized lazily, and what the printer and
bitcode serialize), ``from_int``/``filled``/the text constructor behave
exactly as before, and equality/hashing agree with the string semantics.

The packed operations are property- and exhaustively tested against the
verbatim IEEE 1164-1993 tables, which live in ``tests/ir/oracle1164.py``
as a test-only reference oracle (all 81 operand pairs per binary table,
resolution lattice laws, and random wide vectors against the bitwise
zip of the oracle).
"""

from __future__ import annotations

VALUES = "UX01ZWLH-"

# Conversion to the X01 subset (kept here because it is interface, not
# implementation: eq/neq and ``to_x01`` are specified in terms of it).
TO_X01 = {
    "U": "X", "X": "X", "0": "0", "1": "1", "Z": "X",
    "W": "X", "L": "0", "H": "1", "-": "X",
}

# Per-state plane membership, in VALUES order  U X 0 1 Z W L H -
_VAL_TR = str.maketrans(VALUES, "000110011")
_UNK_TR = str.maketrans(VALUES, "110011001")
_WEAK_TR = str.maketrans(VALUES, "000001110")
_AUX_TR = str.maketrans(VALUES, "100000001")
_VALID = frozenset(VALUES)

# Rendering: plane bits -> state character.  The 4-bit code is
# val | unk<<1 | weak<<2 | aux<<3; invalid combinations cannot be
# constructed through the public API.
_CODE_CHARS = ["0", "1", "X", "Z", "L", "H", "W", "?",
               "?", "?", "U", "-", "?", "?", "?", "?"]


class LogicVec:
    """An immutable N-bit nine-valued logic vector (bit-plane packed).

    Bits are presented MSB-first through :attr:`bits` as a string over
    :data:`VALUES`, matching the textual constant syntax ``const l4
    "01XZ"``; bit 0 (the last character) is the least significant bit of
    each plane integer.

    Immutability is part of the public contract — every operation
    returns a new vector, ``bits``/``width`` are read-only properties,
    and equality/hashing assume the planes never change.  It is enforced
    at the API surface, not with a ``__setattr__`` guard: a guard forces
    every internal write through ``object.__setattr__`` and measured
    ~2× on the hot whole-vector operations, defeating the point of the
    packed representation.  The underscore plane slots are write-once
    internals; nothing outside this module may assign them.
    """

    __slots__ = ("_width", "_val", "_unk", "_weak", "_aux", "_bits")

    def __init__(self, bits):
        bits = str(bits)
        if not bits:
            raise ValueError("logic vector must have >= 1 bit")
        if not _VALID.issuperset(bits):
            for b in bits:
                if b not in _VALID:
                    raise ValueError(f"invalid logic value {b!r}")
        self._width = len(bits)
        self._val = int(bits.translate(_VAL_TR), 2)
        self._unk = int(bits.translate(_UNK_TR), 2)
        self._weak = int(bits.translate(_WEAK_TR), 2)
        self._aux = int(bits.translate(_AUX_TR), 2)
        self._bits = bits

    @classmethod
    def _make(cls, width, val, unk, weak, aux):
        """Internal constructor from already-canonical planes."""
        self = object.__new__(cls)
        self._width = width
        self._val = val
        self._unk = unk
        self._weak = weak
        self._aux = aux
        self._bits = None
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, value, width):
        """Build a vector from an integer, two's-complement truncated."""
        if width < 1:
            raise ValueError("logic vector must have >= 1 bit")
        return cls._make(width, value & ((1 << width) - 1), 0, 0, 0)

    @classmethod
    def filled(cls, bit, width):
        """Build a vector with all bits set to ``bit`` (e.g. all-``X``)."""
        if bit not in _VALID or len(bit) != 1:
            raise ValueError(f"invalid logic value {bit!r}")
        if width < 1:
            raise ValueError("logic vector must have >= 1 bit")
        m = (1 << width) - 1
        return cls._make(
            width,
            m if bit in "1HZ-" else 0,
            m if bit in "UXZW-" else 0,
            m if bit in "WLH" else 0,
            m if bit in "U-" else 0)

    # -- queries -----------------------------------------------------------

    @property
    def width(self):
        return self._width

    @property
    def bits(self):
        """The MSB-first string form (materialized lazily, then cached)."""
        b = self._bits
        if b is None:
            width, val, unk, weak, aux = \
                self._width, self._val, self._unk, self._weak, self._aux
            if unk == 0 and weak == 0:
                b = format(val, f"0{width}b")
            else:
                chars = _CODE_CHARS
                b = "".join(
                    chars[(val >> j) & 1 | ((unk >> j) & 1) << 1
                          | ((weak >> j) & 1) << 2 | ((aux >> j) & 1) << 3]
                    for j in range(width - 1, -1, -1))
            self._bits = b
        return b

    @property
    def is_two_valued(self):
        """True if every bit maps cleanly onto 0 or 1 (including L/H)."""
        return self._unk == 0

    def to_int(self):
        """Interpret as an unsigned integer; requires :attr:`is_two_valued`."""
        if self._unk:
            raise ValueError(f"logic vector {self.bits!r} has no integer value")
        return self._val

    def to_x01(self):
        """Map every bit into the {X, 0, 1} subset."""
        unk = self._unk
        return LogicVec._make(self._width, self._val & ~unk, unk, 0, 0)

    # -- bitwise operations --------------------------------------------------

    def _check_width(self, other):
        if self._width != other._width:
            raise ValueError(
                f"width mismatch: {self._width} vs {other._width}")

    def and_(self, other):
        """Nine-valued AND: 0 dominates, then U, then X; weak reads 01."""
        self._check_width(other)
        m = (1 << self._width) - 1
        known_a, known_b = ~self._unk, ~other._unk
        lo = (~self._val & known_a | ~other._val & known_b) & m
        r1 = self._val & known_a & other._val & known_b
        uu = (self._unk & self._aux & ~self._val
              | other._unk & other._aux & ~other._val) & ~lo
        return LogicVec._make(self._width, r1, m & ~(lo | r1), 0, uu)

    def or_(self, other):
        """Nine-valued OR: 1 dominates, then U, then X."""
        self._check_width(other)
        m = (1 << self._width) - 1
        known_a, known_b = ~self._unk, ~other._unk
        r1 = self._val & known_a | other._val & known_b
        lo = ~self._val & known_a & ~other._val & known_b & m
        uu = (self._unk & self._aux & ~self._val
              | other._unk & other._aux & ~other._val) & ~r1
        return LogicVec._make(self._width, r1, m & ~(lo | r1), 0, uu)

    def xor(self, other):
        """Nine-valued XOR: U dominates; any other unknown gives X."""
        self._check_width(other)
        m = (1 << self._width) - 1
        uu = (self._unk & self._aux & ~self._val
              | other._unk & other._aux & ~other._val)
        both2 = m & ~self._unk & ~other._unk
        r1 = (self._val ^ other._val) & both2
        return LogicVec._make(self._width, r1, m & ~both2, 0, uu)

    def not_(self):
        """Nine-valued NOT: inverts 01/LH, keeps U, maps the rest to X."""
        m = (1 << self._width) - 1
        unk = self._unk
        return LogicVec._make(
            self._width, ~self._val & ~unk & m, unk,
            0, unk & self._aux & ~self._val)

    def resolve(self, other):
        """Bitwise IEEE 1164 resolution with another driver's value."""
        self._check_width(other)
        m = (1 << self._width) - 1
        a_unk, b_unk = self._unk, other._unk
        a_val, b_val = self._val, other._val
        a_weak, b_weak = self._weak, other._weak
        a_aux, b_aux = self._aux, other._aux
        uu = a_unk & a_aux & ~a_val | b_unk & b_aux & ~b_val
        # X and '-' force the result to X against everything but U.
        badx = (a_unk & ~a_weak & (~a_val | a_aux)
                | b_unk & ~b_weak & (~b_val | b_aux)) & ~uu
        rem = m & ~uu & ~badx
        # Forcing 0/1 beat weak and Z; a forcing conflict is X.
        f0a = ~a_val & ~a_unk & ~a_weak
        f1a = a_val & ~a_unk & ~a_weak
        f0b = ~b_val & ~b_unk & ~b_weak
        f1b = b_val & ~b_unk & ~b_weak
        any0 = (f0a | f0b) & rem
        any1 = (f1a | f1b) & rem
        conflict = any0 & any1
        r0f = any0 & ~any1
        r1f = any1 & ~any0
        # Neither driver forcing: both in {Z, W, L, H}.
        nf = rem & ~any0 & ~any1
        za = a_unk & a_val & ~a_aux
        zb = b_unk & b_val & ~b_aux
        wa, wb = a_unk & a_weak, b_unk & b_weak
        la, lb = ~a_unk & ~a_val & a_weak, ~b_unk & ~b_val & b_weak
        ha, hb = ~a_unk & a_val & a_weak, ~b_unk & b_val & b_weak
        r_z = za & zb & nf
        r_w = nf & (wa | wb | la & hb | ha & lb)
        r_l = nf & (la & (lb | zb) | za & lb)
        r_h = nf & (ha & (hb | zb) | za & hb)
        return LogicVec._make(
            self._width,
            r1f | r_z | r_h,
            uu | badx | conflict | r_z | r_w,
            r_w | r_l | r_h,
            uu)

    # -- width changes -------------------------------------------------------

    def zext(self, width):
        """Zero-extend to ``width`` bits (pad with ``0`` above the MSB)."""
        if width < self._width:
            raise ValueError(f"zext {self._width} to {width} is invalid")
        return LogicVec._make(width, self._val, self._unk, self._weak,
                              self._aux)

    def sext(self, width):
        """Sign-extend to ``width`` bits by replicating the MSB.

        A nine-valued MSB replicates as-is: an ``X`` sign bit yields
        ``X`` padding, matching IEEE 1164 intuition.
        """
        w = self._width
        if width < w:
            raise ValueError(f"sext {w} to {width} is invalid")
        pad = ((1 << (width - w)) - 1) << w
        j = w - 1
        return LogicVec._make(
            width,
            self._val | (pad if (self._val >> j) & 1 else 0),
            self._unk | (pad if (self._unk >> j) & 1 else 0),
            self._weak | (pad if (self._weak >> j) & 1 else 0),
            self._aux | (pad if (self._aux >> j) & 1 else 0))

    def trunc(self, width):
        """Truncate to the low ``width`` bits."""
        if width > self._width:
            raise ValueError(f"trunc {self._width} to {width} is invalid")
        m = (1 << width) - 1
        return LogicVec._make(width, self._val & m, self._unk & m,
                              self._weak & m, self._aux & m)

    # -- slicing / splicing ---------------------------------------------------

    def slice_(self, offset, length):
        """The ``length``-bit slice starting at LSB-based bit ``offset``."""
        m = (1 << length) - 1
        return LogicVec._make(
            length,
            (self._val >> offset) & m,
            (self._unk >> offset) & m,
            (self._weak >> offset) & m,
            (self._aux >> offset) & m)

    def splice(self, offset, other):
        """A copy with ``other`` written at LSB-based bit ``offset``."""
        if offset < 0 or offset + other._width > self._width:
            raise ValueError(
                f"splice of {other._width} bits at offset {offset} "
                f"does not fit a {self._width}-bit vector")
        keep = ~(((1 << other._width) - 1) << offset)
        return LogicVec._make(
            self._width,
            self._val & keep | other._val << offset,
            self._unk & keep | other._unk << offset,
            self._weak & keep | other._weak << offset,
            self._aux & keep | other._aux << offset)

    # -- dunder plumbing -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, LogicVec):
            return (self._width == other._width
                    and self._val == other._val
                    and self._unk == other._unk
                    and self._weak == other._weak
                    and self._aux == other._aux)
        return False

    def __hash__(self):
        return hash(("LogicVec", self._width, self._val, self._unk,
                     self._weak, self._aux))

    def __str__(self):
        return self.bits

    def __repr__(self):
        return f'LogicVec("{self.bits}")'


def resolve_many(values):
    """Resolve a non-empty list of :class:`LogicVec` drivers into one value.

    Single pass over the drivers: each contributes its per-category bit
    masks (U, forcing-X, forcing 0/1, weak W/L/H — Z is the resolution
    identity and contributes nothing), and the masks combine once at the
    end.  This is O(drivers) plane operations total, independent of how
    the pairwise fold would associate, and agrees with the pairwise fold
    exactly because IEEE 1164 resolution is associative and commutative.
    """
    first = None
    width = m = 0
    anyU = anyX = any0 = any1 = anyW = anyL = anyH = 0
    n = 0
    for v in values:
        n += 1
        if first is None:
            first = v
            width = v._width
            m = (1 << width) - 1
        elif v._width != width:
            raise ValueError(f"width mismatch: {width} vs {v._width}")
        unk, val, weak, aux = v._unk, v._val, v._weak, v._aux
        uu = unk & aux & ~val
        anyU |= uu
        # X and '-' force the result to X against everything but U.
        anyX |= unk & ~weak & (~val | aux) & ~uu
        known = ~unk & ~weak
        any0 |= ~val & known & m
        any1 |= val & known
        anyW |= unk & weak
        anyL |= ~unk & ~val & weak
        anyH |= ~unk & val & weak
    if n == 1:
        return first
    if first is None:
        raise ValueError("resolve_many of an empty driver list")
    rem = m & ~anyU
    x = (anyX | (any0 & any1)) & rem
    rem &= ~x
    f0 = any0 & rem
    f1 = any1 & rem
    # Neither U/X nor forcing: all drivers in {Z, W, L, H}.
    nf = rem & ~f0 & ~f1
    r_w = nf & (anyW | (anyL & anyH))
    r_l = nf & anyL & ~r_w
    r_h = nf & anyH & ~r_w
    r_z = nf & ~r_w & ~r_l & ~r_h
    return LogicVec._make(
        width,
        f1 | r_z | r_h,
        anyU | x | r_z | r_w,
        r_w | r_l | r_h,
        anyU)


# -- single-bit helpers ---------------------------------------------------------
#
# The classic table-lookup interface, preserved for tests and callers that
# work one bit at a time.  The 81-entry maps are derived from the packed
# plane operations at import; the verbatim IEEE 1164 tables live in
# tests/ir/oracle1164.py and the test suite asserts these agree with them
# for every operand pair.

def _derive(op):
    return {(a, b): getattr(LogicVec(a), op)(LogicVec(b)).bits
            for a in VALUES for b in VALUES}


_AND = _derive("and_")
_OR = _derive("or_")
_XOR = _derive("xor")
_RESOLVE = _derive("resolve")
_NOT = {a: LogicVec(a).not_().bits for a in VALUES}


def resolve_bits(a, b):
    """Resolve two single-bit logic values driven onto the same wire."""
    return _RESOLVE[a, b]


def and_bits(a, b):
    """Nine-valued AND of two single-bit values."""
    return _AND[a, b]


def or_bits(a, b):
    """Nine-valued OR of two single-bit values."""
    return _OR[a, b]


def xor_bits(a, b):
    """Nine-valued XOR of two single-bit values."""
    return _XOR[a, b]


def not_bit(a):
    """Nine-valued NOT of a single-bit value."""
    return _NOT[a]
