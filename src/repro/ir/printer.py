"""Human-readable text representation of LLHD IR.

The syntax follows the paper's figures (Figure 2 and Figure 5): one unit per
top-level item, block labels terminated by ``:``, instructions indented two
spaces, and all instructions carrying enough type annotations to determine
every operand type.  The printer and :mod:`repro.ir.parser` round-trip:
``parse(print(module))`` reproduces an equivalent module (property-tested).
"""

from __future__ import annotations

import io

from .instructions import BINARY_OPS, CAST_OPS, COMPARE_OPS, UNARY_OPS
from .ninevalued import LogicVec
from .values import Block, TimeValue


class _Namer:
    """Assigns stable, unique local names (%foo, %foo1, %42) within a unit."""

    def __init__(self):
        self.names = {}
        self.taken = set()
        self.counter = 0

    def name_of(self, value):
        name = self.names.get(id(value))
        if name is not None:
            return name
        base = value.name
        if base is None:
            while str(self.counter) in self.taken:
                self.counter += 1
            name = str(self.counter)
            self.counter += 1
        else:
            name = base
            suffix = 0
            while name in self.taken:
                suffix += 1
                name = f"{base}{suffix}"
        self.taken.add(name)
        self.names[id(value)] = name
        return name


def print_module(module):
    """Render a whole module as LLHD assembly text."""
    out = io.StringIO()
    first = True
    for decl in module.declarations.values():
        if not first:
            out.write("\n")
        first = False
        _print_declaration(out, decl)
    for unit in module:
        if not first:
            out.write("\n")
        first = False
        print_unit(unit, out)
    return out.getvalue()


def print_unit(unit, out=None):
    """Render one unit as LLHD assembly text."""
    own = out is None
    if own:
        out = io.StringIO()
    namer = _Namer()
    if unit.is_function:
        args = ", ".join(
            f"{a.type} %{namer.name_of(a)}" for a in unit.args)
        out.write(f"func @{unit.name} ({args}) {unit.return_type} {{\n")
        _print_blocks(out, unit, namer)
    elif unit.is_process:
        ins = ", ".join(f"{a.type} %{namer.name_of(a)}" for a in unit.inputs)
        outs = ", ".join(f"{a.type} %{namer.name_of(a)}" for a in unit.outputs)
        out.write(f"proc @{unit.name} ({ins}) -> ({outs}) {{\n")
        _print_blocks(out, unit, namer)
    else:
        ins = ", ".join(f"{a.type} %{namer.name_of(a)}" for a in unit.inputs)
        outs = ", ".join(f"{a.type} %{namer.name_of(a)}" for a in unit.outputs)
        out.write(f"entity @{unit.name} ({ins}) -> ({outs}) {{\n")
        for inst in unit.body:
            out.write(f"  {format_instruction(inst, namer)}\n")
    out.write("}\n")
    if own:
        return out.getvalue()
    return None


def _print_declaration(out, decl):
    ins = ", ".join(str(t) for t in decl.input_types)
    if decl.kind == "func":
        ret = decl.return_type
        out.write(f"declare func @{decl.name} ({ins}) {ret}\n")
    else:
        outs = ", ".join(str(t) for t in decl.output_types)
        out.write(f"declare {decl.kind} @{decl.name} ({ins}) -> ({outs})\n")


def _print_blocks(out, unit, namer):
    # Pre-name blocks so forward branch references are stable.
    for block in unit.blocks:
        namer.name_of(block)
    for block in unit.blocks:
        out.write(f"{namer.name_of(block)}:\n")
        for inst in block:
            out.write(f"  {format_instruction(inst, namer)}\n")


def _const_text(value):
    if isinstance(value, TimeValue):
        return f"time {value}"
    if isinstance(value, LogicVec):
        return f'"{value.bits}"'
    return str(value)


def format_instruction(inst, namer=None):
    """Render a single instruction (used by the printer and error messages)."""
    if namer is None:
        namer = _Namer()
    n = lambda v: f"%{namer.name_of(v)}"
    op = inst.opcode
    ops = inst.operands

    def lhs():
        return f"{n(inst)} = "

    if op == "const":
        value = inst.attrs["value"]
        if inst.type.is_time:
            return f"{lhs()}const {_const_text(value)}"
        return f"{lhs()}const {inst.type} {_const_text(value)}"
    if op in BINARY_OPS or op in COMPARE_OPS:
        return f"{lhs()}{op} {ops[0].type} {n(ops[0])}, {n(ops[1])}"
    if op in UNARY_OPS:
        return f"{lhs()}{op} {ops[0].type} {n(ops[0])}"
    if op in CAST_OPS:
        return f"{lhs()}{op} {ops[0].type} {n(ops[0])} to {inst.type}"
    if op == "array":
        if inst.attrs.get("splat"):
            ty = inst.type
            return f"{lhs()}[{ty.length} x {ty.element} {n(ops[0])}]"
        elems = ", ".join(n(o) for o in ops)
        return f"{lhs()}[{inst.type.element} {elems}]"
    if op == "struct":
        fields = ", ".join(f"{o.type} {n(o)}" for o in ops)
        return f"{lhs()}{{{fields}}}"
    if op == "extf":
        idx = inst.attrs.get("index")
        idx_txt = n(ops[1]) if idx is None else str(idx)
        return f"{lhs()}extf {inst.type}, {ops[0].type} {n(ops[0])}, {idx_txt}"
    if op == "insf":
        idx = inst.attrs.get("index")
        idx_txt = n(ops[2]) if idx is None else str(idx)
        return (f"{lhs()}insf {ops[0].type} {n(ops[0])}, "
                f"{ops[1].type} {n(ops[1])}, {idx_txt}")
    if op == "exts":
        return (f"{lhs()}exts {inst.type}, {ops[0].type} {n(ops[0])}, "
                f"{inst.attrs['offset']}, {inst.attrs['length']}")
    if op == "inss":
        return (f"{lhs()}inss {ops[0].type} {n(ops[0])}, "
                f"{ops[1].type} {n(ops[1])}, "
                f"{inst.attrs['offset']}, {inst.attrs['length']}")
    if op == "mux":
        return f"{lhs()}mux {inst.type} {n(ops[0])}, {n(ops[1])}"
    if op == "phi":
        pairs = ", ".join(
            f"[{n(v)}, {n(b)}]" for v, b in inst.phi_pairs())
        return f"{lhs()}phi {inst.type} {pairs}"
    if op == "sig":
        return f"{lhs()}sig {ops[0].type} {n(ops[0])}"
    if op == "prb":
        return f"{lhs()}prb {ops[0].type} {n(ops[0])}"
    if op == "drv":
        text = (f"drv {ops[0].type} {n(ops[0])}, {n(ops[1])} "
                f"after {n(ops[2])}")
        cond = inst.drv_condition()
        if cond is not None:
            text += f" if {n(cond)}"
        return text
    if op == "con":
        return f"con {ops[0].type} {n(ops[0])}, {n(ops[1])}"
    if op == "del":
        return f"{lhs()}del {ops[0].type} {n(ops[0])} after {n(ops[1])}"
    if op == "reg":
        clauses = []
        for t in inst.reg_triggers():
            clause = f"{n(t['value'])} {t['mode']} {n(t['trigger'])}"
            if t["cond"] is not None:
                clause += f" if {n(t['cond'])}"
            if t["delay"] is not None:
                clause += f" after {n(t['delay'])}"
            clauses.append(clause)
        sig = inst.reg_signal()
        return f"reg {sig.type} {n(sig)}, " + ", ".join(clauses)
    if op == "inst":
        ins = ", ".join(f"{o.type} {n(o)}" for o in inst.inst_inputs())
        outs = ", ".join(f"{o.type} {n(o)}" for o in inst.inst_outputs())
        return f"inst @{inst.callee} ({ins}) -> ({outs})"
    if op in ("var", "alloc"):
        return f"{lhs()}{op} {ops[0].type} {n(ops[0])}"
    if op == "free":
        return f"free {ops[0].type} {n(ops[0])}"
    if op == "ld":
        return f"{lhs()}ld {ops[0].type} {n(ops[0])}"
    if op == "st":
        return f"st {ops[0].type} {n(ops[0])}, {n(ops[1])}"
    if op == "call":
        args = ", ".join(f"{o.type} {n(o)}" for o in ops)
        prefix = "" if inst.type.is_void else lhs()
        return f"{prefix}call {inst.type} @{inst.callee} ({args})"
    if op == "br":
        if inst.is_conditional_branch:
            return (f"br {n(ops[0])}, {n(ops[1])}, {n(ops[2])}")
        return f"br {n(ops[0])}"
    if op == "wait":
        text = f"wait {n(ops[0])}"
        rest = ops[1:]
        if rest:
            text += " for " + ", ".join(n(o) for o in rest)
        return text
    if op == "halt":
        return "halt"
    if op == "ret":
        if ops:
            return f"ret {ops[0].type} {n(ops[0])}"
        return "ret"
    raise NotImplementedError(f"printer: unhandled opcode {op}")
