"""Code generation and the on-disk compile cache for levelized cones.

Two halves:

* **templates** — :func:`build_template` decides which library cells
  are combinational gates and compiles each such cell *type* once to a
  short straight-line Python recipe via the blaze :class:`UnitCompiler`
  (the per-opcode expression emitter is shared with the event-driven
  compiled engine; the input ports become ``__INk__`` placeholders that
  are substituted with ``V[slot]`` reads per gate instance);
* **cone modules** — :func:`generate_source` concatenates the gate
  recipes in levelized order into one ``_settle_all(V)`` returning the
  list of net slots it changed.  ``V`` holds every net's value boxed, as
  its signal does; an ``lN`` gate's result goes through
  :func:`_changed`, which boxes it only when it differs from the slot.
  The module is self-contained given :data:`CONE_GLOBALS`, the blaze
  runtime helper namespace plus that helper.

Compiled cones are cached on disk, content-addressed by the sha256 of
:data:`importlib.util.MAGIC_NUMBER` plus the cone's generated source.
An entry is the marshalled pair ``(key, code object)``, so a warm run
skips ``compile()``.  The key covers everything the code object is
built from, so a cone from another code generator or another Python
interpreter sits under another key and is never loaded.  The
levelization is deterministic (stable slot numbering, heap-ordered
Kahn), so the same design regenerates the same source and hits across
processes.  A hit must record its own key, unmarshal, exec and define
a callable ``_settle_all``; an entry failing any of these counts as a
cache error and is recompiled and overwritten.  The cache directory
is ``--cache-dir``, else ``$REPRO_CACHE_DIR``, else
``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``; writes are atomic
(temp file + rename) and best-effort.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import tempfile
from importlib.util import MAGIC_NUMBER
from types import CodeType

from ..ir.instructions import Instruction
from ..ir.ninevalued import LogicVec
from ..ir.values import TimeValue
from .blaze import _BASE_GLOBALS, UnitCompiler
from .eval import EVALUATORS, path_of
from .values import SimulationError

_make = LogicVec._make


class TemplateError(Exception):
    """The cell body cannot be turned into a straight-line recipe."""


def _const_literal(value):
    """A source expression reconstructing a cell-body constant."""
    if isinstance(value, bool):
        return repr(int(value))
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, LogicVec):
        return repr(value)   # LogicVec("01XZ...") round-trips
    if isinstance(value, tuple):
        inner = ", ".join(_const_literal(v) for v in value)
        tail = "," if len(value) == 1 else ""
        return f"({inner}{tail})"
    raise TemplateError(
        f"cell constant {value!r} has no source literal")


class CellTemplate:
    """One cell type's body as substitutable straight-line Python.

    ``out_expr`` is the driven value, with the body's last line folded
    in when that line computes it; ``width`` is the output's width when
    it is an ``lN`` net (the value may then be an unboxed ``int``), else
    None.
    """

    __slots__ = ("unit", "lines", "out_expr", "width", "n_inputs")

    def __init__(self, unit, lines, out_expr, width, n_inputs):
        self.unit = unit
        self.lines = lines
        self.out_expr = out_expr
        self.width = width
        self.n_inputs = n_inputs


def _projection_probe_expr(comp, placeholders, src):
    """Expression for a probe through an extf/exts chain of a port
    (memory read-port wiring cells)."""
    chain = []
    value = src
    while isinstance(value, Instruction) and value.opcode in ("extf",
                                                              "exts"):
        chain.append(value)
        value = value.operands[0]
    root_ph = placeholders.get(id(value))
    if root_ph is None:
        raise TemplateError("probe source is not an input port")
    steps = []
    for inst in reversed(chain):
        if inst.opcode == "exts":
            steps.append(repr(path_of(inst)))
        else:
            index = inst.attrs.get("index")
            if index is not None:
                steps.append(f"('field', {index})")
            else:
                nm = comp.names.get(id(inst.operands[1]))
                if nm is None:
                    raise TemplateError(
                        "dynamic field index is not a port probe")
                steps.append(f"('field', dynamic_index({nm}))")
    return f"_extract({root_ph}, ({', '.join(steps)},))"


def build_template(unit):
    """Classify one library cell as combinational and compile it into a
    :class:`CellTemplate`.

    A cell qualifies when its body is exactly one unconditional drive of
    its sole output with a constant zero delay, fed by probes of its
    input ports (directly or through ``extf``/``exts`` chains over them)
    and pure ops (every opcode in :data:`repro.sim.eval.EVALUATORS`).
    Anything else raises :class:`TemplateError`, whose text is the
    levelized engine's reason for running the cell event-driven.
    """
    comp = UnitCompiler(unit)
    placeholders = {}
    for k, arg in enumerate(unit.inputs):
        placeholders[id(arg)] = f"__IN{k}__"
    lines = []
    drive = None
    probes = 0
    for inst in unit.body:
        op = inst.opcode
        if op == "drv":
            if drive is not None:
                raise TemplateError("cell drives more than once")
            drive = inst
            continue
        if op == "prb":
            src = inst.operands[0]
            ph = placeholders.get(id(src))
            if ph is not None:
                comp.names[id(inst)] = ph
                continue
            expr = _projection_probe_expr(comp, placeholders, src)
            name = f"p{probes}"
            probes += 1
            comp.names[id(inst)] = name
            lines.append(f"{name} = {expr}")
            continue
        if op in ("extf", "exts") and inst.type.is_signal:
            continue   # input projection chain, folded at the probe
        if op not in EVALUATORS:
            raise TemplateError(f"'{op}' is not a pure cell op")
        if op == "const":
            value = inst.attrs["value"]
            if isinstance(value, TimeValue):
                continue   # the drive delay; not part of the data path
            comp.names[id(inst)] = _const_literal(value)
            continue
        if id(inst) in comp._elided:
            continue   # fused into its consuming mux
        try:
            expr = comp.expr(inst)
        except SimulationError as exc:
            raise TemplateError(str(exc))
        lines.append(f"{comp.name(inst)} = {expr}")
    if drive is None:
        raise TemplateError("cell has no output drive")
    if drive.drv_condition() is not None or len(unit.outputs) != 1 \
            or drive.drv_signal() is not unit.outputs[0]:
        raise TemplateError("cell drive is conditional or not of its "
                            "sole output")
    delay = drive.drv_delay()
    if delay.opcode != "const":
        raise TemplateError("gate delay is not a constant")
    d = delay.attrs["value"]
    if d.fs or d.delta or d.epsilon:
        raise TemplateError(f"non-zero gate delay {d}")
    if comp._const_counter:
        raise TemplateError("cell body binds runtime-only constants")
    value = drive.drv_value()
    out_expr = comp.name(value)
    if lines and lines[-1].startswith(f"{out_expr} = "):
        out_expr = lines.pop()[len(out_expr) + 3:]
    width = value.type.width if value.type.is_logic else None
    return CellTemplate(unit, lines, out_expr, width, len(unit.inputs))


# -- source generation ---------------------------------------------------------


def _changed(value, old, width):
    """An ``lN`` gate's result ``value``, boxed, if it differs from
    ``old``, the box its slot holds; else None.

    An ``int`` (a known, strong vector) is compared with ``old``'s
    planes, so an unchanged result is never boxed; a LogicVec is
    compared by identity, then by value.
    """
    if type(value) is int:
        if value == old._val and not (old._unk | old._weak):
            return None
        return _make(width, value, 0, 0, 0)
    if value is old or value == old:
        return None
    return value


#: The namespace a cone module runs in.
CONE_GLOBALS = {**_BASE_GLOBALS, "_changed": _changed}


def _emit_gate(buf, template, in_slots, out_slot):
    subst = [(f"__IN{k}__", f"V[{s}]")
             for k, s in enumerate(in_slots)]

    def sub(text):
        for ph, rep in subst:
            if ph in text:
                text = text.replace(ph, rep)
        return text

    for line in template.lines:
        buf.append(f"    {sub(line)}")
    out = sub(template.out_expr)
    if template.width is None:
        buf.append(f"    t = {out}")
        buf.append(f"    if t != V[{out_slot}]:")
    else:
        buf.append(f"    t = _changed({out}, V[{out_slot}], {template.width})")
        buf.append("    if t is not None:")
    buf.append(f"        V[{out_slot}] = t")
    buf.append(f"        ap({out_slot})")


def generate_source(gates):
    """Module source defining ``_settle_all(V)`` over the ordered
    ``(template, in_slots, out_slot)`` gates."""
    buf = ["def _settle_all(V):", "    ch = []", "    ap = ch.append"]
    for template, in_slots, out_slot in gates:
        _emit_gate(buf, template, in_slots, out_slot)
    buf.append("    return ch")
    buf.append("")
    return "\n".join(buf)


# -- the content-addressed cache -----------------------------------------------


def default_cache_dir():
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return os.path.join(xdg, "repro")
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def _load(entry, key):
    """Exec a cache entry; None when it fails validation."""
    ns = dict(CONE_GLOBALS)
    try:
        recorded, code = marshal.loads(entry)
        if recorded != key or type(code) is not CodeType:
            return None
        exec(code, ns)
    except Exception:
        return None
    return ns if callable(ns.get("_settle_all")) else None


def _store(path, entry):
    """Atomic best-effort write (temp file + rename)."""
    try:
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(entry)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        pass   # a read-only or full cache never fails the simulation


def _count(stats, hits, misses, errors):
    stats["cache_hits"] = stats.get("cache_hits", 0) + hits
    stats["cache_misses"] = stats.get("cache_misses", 0) + misses
    stats["cache_errors"] = stats.get("cache_errors", 0) + errors


def compile_cone(plan, cache_dir, stats):
    """The cone's executable namespace, via the cache when possible."""
    source = generate_source(plan.gates)
    key = hashlib.sha256(MAGIC_NUMBER + source.encode()).hexdigest()
    path = os.path.join(cache_dir or default_cache_dir(), f"{key}.marshal")
    errors = 0
    try:
        with open(path, "rb") as fh:
            entry = fh.read()
    except OSError:
        entry = None
    if entry is not None:
        ns = _load(entry, key)
        if ns is not None:
            _count(stats, 1, 0, 0)
            return ns
        errors = 1
    code = compile(source, "<levelized-cone>", "exec")
    ns = dict(CONE_GLOBALS)
    exec(code, ns)
    _store(path, marshal.dumps((key, code)))
    _count(stats, 0, 1, errors)
    return ns
