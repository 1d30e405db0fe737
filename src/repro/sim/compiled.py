"""Code generation and the on-disk compile cache for levelized cones.

Two halves:

* **templates** — each library cell *type* compiles once to a short
  straight-line Python recipe via the blaze :class:`UnitCompiler` (the
  per-opcode expression emitter is shared with the event-driven
  compiled engine; the input ports become ``__INk__`` placeholders that
  are substituted with ``V[slot]`` reads per gate instance);
* **cone modules** — :func:`generate_source` concatenates the gate
  recipes in levelized order into ``_settle_all(V)`` plus one
  specialized ``_settle_d<k>(V)`` per clock domain, each returning the
  list of net slots it changed.  The module is self-contained given the
  blaze runtime helper namespace and carries its own identity
  (``KEY``/``N_NETS``/``CODEGEN``) for validation.

Generated modules are cached on disk, content-addressed by the sha256
of the module's bitcode (:func:`repro.ir.bitcode.write_module`) plus
the top name and a code-generator salt, :data:`CODEGEN`: the digest of
the opcode table the cell templates are emitted from
(:data:`repro.sim.optable.DIGEST`), so a cone cached by an older code
generator is never reloaded.  The levelization itself is
deterministic (stable slot numbering, heap-ordered Kahn), so the same
bitcode always regenerates the same source.  A warm run skips code
generation entirely; a corrupted, stale, or truncated entry fails
validation and falls back to a fresh compile that overwrites it.  The
cache directory is ``--cache-dir``, else ``$REPRO_CACHE_DIR``, else
``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``; writes are atomic
(temp file + rename) and best-effort.
"""

from __future__ import annotations

import hashlib
import os
import tempfile

from ..ir.instructions import Instruction
from ..ir.ninevalued import LogicVec
from ..ir.values import TimeValue
from .blaze import _BASE_GLOBALS, UnitCompiler
from .eval import path_of
from .optable import DIGEST as CODEGEN
from .values import SimulationError


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
    """One cell type's body as substitutable straight-line Python."""

    __slots__ = ("unit", "lines", "out_expr", "n_inputs")

    def __init__(self, unit, lines, out_expr, n_inputs):
        self.unit = unit
        self.lines = lines
        self.out_expr = out_expr
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
                steps.append(f"('field', _idx({nm}))")
    return f"_extract({root_ph}, ({', '.join(steps)},))"


def build_template(unit):
    """Compile one library cell entity into a :class:`CellTemplate`.

    Only called for bodies that already passed
    :func:`repro.interop.techmap.cell_eval_form` comb classification;
    raises :class:`TemplateError` for anything it cannot express as
    self-contained source (the caller falls back to event-driven
    execution for that cell type).
    """
    comp = UnitCompiler(unit)
    placeholders = {}
    for k, arg in enumerate(unit.inputs):
        placeholders[id(arg)] = f"__IN{k}__"
    lines = []
    out_expr = None
    probes = 0
    for inst in unit.body:
        op = inst.opcode
        if op == "drv":
            out_expr = comp.name(inst.drv_value())
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
    if out_expr is None:
        raise TemplateError("cell has no output drive")
    if comp._const_counter:
        raise TemplateError("cell body binds runtime-only constants")
    return CellTemplate(unit, lines, out_expr, len(unit.inputs))


# -- source generation ---------------------------------------------------------


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
    buf.append(f"    t = {sub(template.out_expr)}")
    buf.append(f"    if t != V[{out_slot}]:")
    buf.append(f"        V[{out_slot}] = t")
    buf.append(f"        ap({out_slot})")


def _emit_settle(buf, name, gates, members=None):
    buf.append(f"def {name}(V):")
    buf.append("    ch = []")
    buf.append("    ap = ch.append")
    positions = range(len(gates)) if members is None else members
    for pos in positions:
        template, in_slots, out_slot = gates[pos]
        _emit_gate(buf, template, in_slots, out_slot)
    buf.append("    return ch")


def generate_source(plan, key):
    """The cone as a self-contained Python module (one string)."""
    buf = []
    buf.append("# Levelized cone generated by repro.sim.compiled.")
    buf.append("# Safe to delete; regenerated on the next cold run.")
    buf.append(f"CODEGEN = {CODEGEN!r}")
    buf.append(f"KEY = {key!r}")
    buf.append(f"N_NETS = {len(plan.slot_sigs)}")
    buf.append(f"N_GATES = {len(plan.gates)}")
    buf.append("")
    _emit_settle(buf, "_settle_all", plan.gates)
    for di, (slot, covered, members) in enumerate(plan.domains):
        buf.append("")
        _emit_settle(buf, f"_settle_d{di}", plan.gates, members)
    buf.append("")
    if plan.domains:
        buf.append("DOMAINS = (")
        for di, (slot, covered, members) in enumerate(plan.domains):
            cov = ", ".join(map(str, sorted(covered)))
            buf.append(f"    ({slot}, frozenset(({cov},)), "
                       f"_settle_d{di}),")
        buf.append(")")
    else:
        buf.append("DOMAINS = ()")
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


def cone_cache_key(module, top):
    """sha256 over the module bitcode, the top, and the codegen salt."""
    from ..ir.bitcode import write_module

    digest = hashlib.sha256()
    digest.update(f"levelized:{CODEGEN}:{top}:".encode())
    digest.update(write_module(module))
    return digest.hexdigest()


def _load(source, key, n_nets):
    """Exec a cone module; None when it fails validation."""
    ns = dict(_BASE_GLOBALS)
    try:
        exec(compile(source, "<levelized-cone>", "exec"), ns)
    except Exception:
        return None
    if (ns.get("CODEGEN") != CODEGEN
            or ns.get("KEY") != key
            or ns.get("N_NETS") != n_nets
            or not callable(ns.get("_settle_all"))
            or not isinstance(ns.get("DOMAINS"), tuple)):
        return None
    return ns


def _store(path, source):
    """Atomic best-effort write (temp file + rename)."""
    try:
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(source)
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


def compile_cone(plan, module, top, cache_dir, stats):
    """The cone's executable namespace, via the cache when possible."""
    key = cone_cache_key(module, top)
    directory = cache_dir or default_cache_dir()
    path = os.path.join(directory, f"{key}.py")
    n_nets = len(plan.slot_sigs)
    errors = 0
    try:
        with open(path) as fh:
            cached = fh.read()
    except OSError:
        cached = None
    if cached is not None:
        ns = _load(cached, key, n_nets)
        if ns is not None:
            _count(stats, 1, 0, 0)
            return ns
        errors = 1
    source = generate_source(plan, key)
    ns = _load(source, key, n_nets)
    if ns is None:
        raise SimulationError(
            "levelized: generated cone module failed to compile "
            "(this is a bug in repro.sim.compiled)")
    _store(path, source)
    _count(stats, 0, 1, errors)
    return ns
