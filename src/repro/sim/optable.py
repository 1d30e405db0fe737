"""The engines' opcode table: one emitted form per value class.

Every pure op the blaze code generator emits — and, through
:func:`repro.sim.compiled.build_template`, every levelized cell — comes
from :data:`TABLE`, keyed by ``(opcode, value class)``; the interpreter
compiles its steps from the same entries (:func:`entry` hands it the
width constants as ints), and its ``reg`` edge tests are :func:`edge`
predicates compiled from the edge entries.  The value class
names the runtime representation of the operands: ``iN`` (a masked
``int``, as are ``nN`` enum values), ``lN`` (a plane-packed
:class:`~repro.ir.LogicVec`) or ``agg``
(any other value, compared with plain ``==``).  A key whose operands
differ in class joins the per-operand classes: ``"lN,iN"`` shifts an
``lN`` value by an ``iN`` amount, ``"agg,lN"`` is a mux over an ``lN``
selector.

Each opcode's two-valued semantics is written *once*, as an expression
over the operands' integer values (:data:`_TWO_VALUED`).  That
expression is the ``iN`` form, inlined at the use site.  For a class
with an ``lN`` operand the same expression becomes the fast path of a
generated module-level helper (``_add_ll``, ``_shl_li``, ...).  An
``lN`` operand is a :class:`~repro.ir.LogicVec` or an ``int`` standing
for a known, strong value (``type(x) is int``).  Guarded on the
LogicVec operands' ``_unk`` planes, the helper computes on the integer
values and returns an unboxed ``int``.  When the guard fails it boxes
its other ``lN`` operands and returns what :mod:`repro.sim.eval`
computes — its fallback is the call ``eval.py`` makes for the same op —
so unknown-value semantics live in one place and ``eval.py`` stays the
executable spec.  Ops that keep drive strength (``zext``, ``sext``,
``trunc``, ``exts``) and the exact ``both`` edge also guard on the
``_weak`` plane, so ``L``/``H`` bits take the exact fallback.  Wherever
a value leaves the code that computed it, :func:`box` makes it a
LogicVec again; the interpreter's steps box each :data:`UNBOXED`
entry's result at once.

Emitted forms use only literals and the names in :data:`GLOBALS`, so
an emitted expression runs in any namespace holding those names.
"""

from __future__ import annotations

import functools
import string

from ..ir.instructions import BINARY_OPS, COMPARE_OPS, DIVISION_OPS
from ..ir.ninevalued import LogicVec
from .eval import (
    _int_binary, _logic_binary, int_shift, logic_compare, logic_level,
    logic_neg, logic_shift, mux_select,
)
from .values import SimulationError, mask

#: Two-valued semantics over integer operand values ``{a}``/``{b}``.
#: Width constants: ``{w}`` result width, ``{m}`` its mask, ``{s}`` the
#: first operand's sign bit, ``{pad}`` the bits ``sext`` adds, ``{off}``
#: the ``exts`` offset, ``{n}``/``{last}`` a mux's choice count and
#: last index.  Edge tests read ``{a}`` as the trigger now and ``{b}``
#: as its previous value.
_TWO_VALUED = {
    "add": "({a} + {b}) & {m}",
    "sub": "({a} - {b}) & {m}",
    "mul": "({a} * {b}) & {m}",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "not": "~{a} & {m}",
    "neg": "-{a} & {m}",
    "eq": "1 if {a} == {b} else 0",
    "neq": "1 if {a} != {b} else 0",
    "ult": "1 if {a} < {b} else 0",
    "ugt": "1 if {a} > {b} else 0",
    "ule": "1 if {a} <= {b} else 0",
    "uge": "1 if {a} >= {b} else 0",
    # Flipping the sign bit maps two's-complement order onto unsigned.
    "slt": "1 if {a} ^ {s} < {b} ^ {s} else 0",
    "sgt": "1 if {a} ^ {s} > {b} ^ {s} else 0",
    "sle": "1 if {a} ^ {s} <= {b} ^ {s} else 0",
    "sge": "1 if {a} ^ {s} >= {b} ^ {s} else 0",
    # An amount >= the width shifts every bit out; testing it first
    # never builds the 2**amount-bit intermediate.
    "shl": "({a} << {b}) & {m} if {b} < {w} else 0",
    "shr": "{a} >> {b}",
    "zext": "{a}",
    "sext": "{a} | {pad} if {a} & {s} else {a}",
    "trunc": "{a} & {m}",
    "exts": "({a} >> {off}) & {m}",
    "mux": "{a}[{b} if {b} < {n} else {last}]",
    "rise": "{b} == 0 and {a} == 1",
    "fall": "{b} == 1 and {a} == 0",
    "high": "{a} == 1",
    "low": "{a} == 0",
    # A 'both' edge fires on any change of the exact value (X -> 0
    # counts), so it is plain inequality in every class.
    "both": "{b} != {a}",
}
for _op in sorted(DIVISION_OPS):
    _TWO_VALUED[_op] = f"_ibin({_op!r}, {{a}}, {{b}}, {{w}})"

#: opcode -> {value class with an lN operand: fallback}.  Each fallback
#: is the call eval.py makes for the op (or the LogicVec method it calls);
#: ``{A}``/``{B}`` are the operands boxed, where that call needs a
#: LogicVec and the operand may be an int.
_FALLBACK = {
    "not": {"lN": "{a}.not_()"},
    "neg": {"lN": "_lneg({a})"},
    "zext": {"lN": "{a}.zext({w})"},
    "sext": {"lN": "{a}.sext({w})"},
    "trunc": {"lN": "{a}.trunc({w})"},
    "exts": {"lN": "{a}.slice_({off}, {w})"},
    "mux": {"agg,lN": "_mux({a}, {b})"},
    "rise": {"lN": "_lvl({a}) == 1 and _lvl({b}) in (0, -1)"},
    "fall": {"lN": "_lvl({a}) == 0 and _lvl({b}) in (1, -1)"},
    "high": {"lN": "_lvl({a}) == 1"},
    "low": {"lN": "_lvl({a}) == 0"},
    "both": {"lN": "{b} != {a}"},
}
for _op in sorted(BINARY_OPS - {"shl", "shr"}):
    _FALLBACK[_op] = {"lN": f"_lbin({_op!r}, {{A}}, {{B}})"}
for _op in sorted(COMPARE_OPS):
    _FALLBACK[_op] = {"lN": f"_lcmp({_op!r}, {{A}}, {{B}})"}
for _op in ("shl", "shr"):
    _FALLBACK[_op] = {
        "lN": f"_lshift({_op!r}, {{A}}, {{b}})",
        "lN,iN": f"_lshift({_op!r}, {{A}}, {{b}})",
        "iN,lN": f"_ishift({_op!r}, {{a}}, {{b}}, {{w}})",
    }
del _op

#: Ops that also guard on the weak plane: those whose result keeps each
#: bit's drive strength (an L stays L), and 'both', where L is not 0.
_GUARDS_WEAK = frozenset({"zext", "sext", "trunc", "exts", "both"})
#: Ops whose result is an i1 flag, a chosen element or a bool, never a
#: vector of the first operand's class.
_RAW_RESULT = COMPARE_OPS | {"mux", "rise", "fall", "high", "low", "both"}
#: The entries whose fast path returns an int standing for an lN vector
#: of the result width ``{w}``.
UNBOXED = frozenset((op, cls) for op, classes in _FALLBACK.items()
                    for cls in classes
                    if op not in _RAW_RESULT and cls.startswith("lN"))

_LETTER = {"iN": "i", "lN": "l", "agg": "a"}


def _fields(template):
    return [f for _, f, _, _ in string.Formatter().parse(template) if f]


def box(value, width):
    """Source turning the ``lN`` value named ``value``, if an ``int``,
    into ``LogicVec._make(width, value, 0, 0, 0)``."""
    return (f"(_mk({width}, {value}, 0, 0, 0) if type({value}) is int "
            f"else {value})")


def _helper(op, cls):
    """Name, source and call form of the guarded helper for (op, cls)."""
    fast = _TWO_VALUED[op]
    fallback = _FALLBACK[op][cls]
    classes = cls.split(",")
    if len(classes) == 1 and "{b}" in fast:
        classes *= 2
    names = ["a", "b"][:len(classes)]
    vector = (op, cls) in UNBOXED
    # A vector entry takes its result width, which the interpreter boxes
    # the result with.
    fields = _fields(fast) + _fields(fallback) + ["w"] * vector
    params = list(dict.fromkeys(
        names + [f for f in fields if f not in ("A", "B")]))
    same = {p: p for p in params}
    logic = [x for x, c in zip(names, classes) if c == "lN"]
    name = f"_{op}_{''.join(_LETTER[c] for c in classes)}"
    lines = [f"def {name}({', '.join(params)}):"]
    for x in logic:
        # The operand that failed its guard is a LogicVec already.  A
        # vector op's operands are as wide as its result, a compare's as
        # each other.
        width = "w" if vector else f"{x}._width"
        boxed = {y.upper(): y if y == x else box(y, width) for y in names}
        planes = f"{x}._unk | {x}._weak" if op in _GUARDS_WEAK \
            else f"{x}._unk"
        lines += [f"    if type({x}) is int:", f"        {x}v = {x}",
                  f"    elif {planes}:",
                  f"        return {fallback.format(**same, **boxed)}",
                  "    else:", f"        {x}v = {x}._val"]
    lines.append("    return " + fast.format(
        **{**same, **{x: x + "v" for x in logic}}))
    call = f"{name}({', '.join('{' + p + '}' for p in params)})"
    return name, "\n".join(lines) + "\n", call


def _build():
    table, sources = {}, {}
    for op, fast in _TWO_VALUED.items():
        table[op, "agg,iN" if op == "mux" else "iN"] = fast
        for cls in _FALLBACK[op]:
            name, sources[name], table[op, cls] = _helper(op, cls)
    # Aggregates (and times) only compare for equality.
    table["eq", "agg"] = _TWO_VALUED["eq"]
    table["neq", "agg"] = _TWO_VALUED["neq"]
    return table, sources


#: (opcode, value class) -> emitted form: a ``str.format`` template over
#: operand expressions ``{a}``/``{b}`` and the width constants.
TABLE, _SOURCES = _build()

#: Every name an emitted form may reference: the generated helpers, the
#: runtime function the inline division forms call and the one :func:`box`
#: calls.
GLOBALS = {"_ibin": _int_binary, "_mk": LogicVec._make}
_namespace = {
    **GLOBALS, "_lbin": _logic_binary, "_lcmp": logic_compare,
    "_lneg": logic_neg, "_lshift": logic_shift, "_ishift": int_shift,
    "_lvl": logic_level, "_mux": mux_select,
}
for _name, _source in sorted(_SOURCES.items()):
    exec(compile(_source, f"<optable:{_name}>", "exec"), _namespace)
    GLOBALS[_name] = _namespace[_name]
del _name, _source


def signature(types):
    """The table's value-class key for a sequence of operand types."""
    classes = ["iN" if t.is_int or t.is_enum else
               "lN" if t.is_logic else "agg" for t in types]
    if len(set(classes)) == 1:
        return classes[0]
    return ",".join(classes)


#: Width constants from (result type, operand types, exts offset).
_CONSTANTS = {
    "w": lambda result, types, offset: result.width,
    "m": lambda result, types, offset: mask(result.width),
    "s": lambda result, types, offset: 1 << (types[0].width - 1),
    "pad": lambda result, types, offset: (mask(result.width)
                                          ^ mask(types[0].width)),
    "off": lambda result, types, offset: offset,
    "n": lambda result, types, offset: types[0].length,
    "last": lambda result, types, offset: types[0].length - 1,
}
#: Constants emitted as hex literals (bit masks); the rest print decimal.
_HEX = frozenset({"m", "s", "pad"})


def entry(op, types, result=None, offset=None):
    """The table key for ``op`` over operand ``types`` and its constants.

    Returns ``((op, value class), {name: int})`` with the width constants
    the entry's form uses, or None when the table has no entry.
    """
    key = (op, signature(types))
    template = TABLE.get(key)
    if template is None:
        return None
    return key, {field: _CONSTANTS[field](result, types, offset)
                 for field in _fields(template) if field in _CONSTANTS}


@functools.lru_cache(maxsize=4096)
def _form(op, types, result, offset):
    found = entry(op, types, result, offset)
    if found is None:
        raise SimulationError(
            f"optable: cannot compile {op} on {signature(types)} values")
    key, constants = found
    # Constants filled in; the operands become positional fields.
    fields = {"a": "{0}", "b": "{1}"}
    for field, value in constants.items():
        fields[field] = hex(value) if field in _HEX else str(value)
    return TABLE[key].format(**fields)


def emit(op, operands, types, result=None, offset=None):
    """The source expression for ``op`` over operand expressions.

    ``types`` are the operand types, which pick the entry; the result
    type and an ``exts`` offset supply its width constants.  The edge
    tests (``rise``, ``fall``, ``high``, ``low``, ``both``) pass the
    trigger's current and previous value and the trigger type only.
    """
    return _form(op, tuple(types), result, offset).format(*operands)


@functools.lru_cache(maxsize=None)
def edge(mode, ty):
    """The ``reg`` trigger test for ``mode`` on a ``ty`` trigger.

    Compiled once per (mode, trigger type) from the same edge entry
    blaze inlines: ``test(now, previous)`` is true when the trigger fires.
    """
    form = emit(mode, ["now", "prev"], [ty])
    return eval(compile(f"lambda now, prev: {form}", f"<optable:{mode}>",
                        "eval"), dict(GLOBALS))
