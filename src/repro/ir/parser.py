"""Parser for the human-readable LLHD assembly.

Grammar and operand layouts mirror :mod:`repro.ir.printer` exactly, so the
two round-trip.  Because LLHD text is self-describing (every instruction
carries type annotations for its operands), the parser can build typed IR in
a single pass; only phi incoming values may reference not-yet-defined
values, which are resolved through placeholders at the end of each unit.
"""

from __future__ import annotations

import re

from .builder import Builder
from .instructions import (
    BINARY_OPS, CAST_OPS, COMPARE_OPS, Instruction, UNARY_OPS,
)
from .ninevalued import LogicVec
from .types import (
    array_type, enum_type, int_type, logic_type, pointer_type, signal_type,
    struct_type, time_type, void_type,
)
from .units import Entity, Function, Module, Process, UnitDecl
from .values import TimeValue, Value


class ParseError(Exception):
    """Raised on malformed LLHD assembly, with a line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>;[^\n]*)
  | (?P<arrow>->)
  | (?P<timepart>\d+\.\d+[a-z]+|\d+[a-z]+\d*[a-z]*)
  | (?P<number>-?\d+)
  | (?P<global>@[A-Za-z0-9_.\-]+)
  | (?P<local>%[A-Za-z0-9_.\-]+)
  | (?P<string>"[^"]*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<punct>[(){}\[\],:=*$])
""", re.VERBOSE)

# timepart matches e.g. "1ns", "2d", "0s", "1.5us", and also bare width
# suffixed idents like "32" + "x"?  No: "x" separator lexes as ident.


class _Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r})"


def _tokenize(text):
    tokens = []
    pos = 0
    line = 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line)
        kind = m.lastgroup
        value = m.group()
        line += value.count("\n")
        pos = m.end()
        if kind in ("ws", "comment"):
            continue
        tokens.append(_Token(kind, value, line))
    tokens.append(_Token("eof", "", line))
    return tokens


class _Placeholder(Value):
    """Stand-in for a phi operand defined later in the unit."""

    def __init__(self, type, ref_name, line):
        super().__init__(type, ref_name)
        self.ref_name = ref_name
        self.line = line


class Parser:
    """Recursive-descent parser for LLHD assembly text."""

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token helpers -----------------------------------------------------

    @property
    def tok(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def check(self, kind, text=None):
        tok = self.tok
        if tok.kind != kind:
            return False
        if text is not None and tok.text != text:
            return False
        return True

    def accept(self, kind, text=None):
        if self.check(kind, text):
            return self.advance()
        return None

    def expect(self, kind, text=None):
        tok = self.accept(kind, text)
        if tok is None:
            want = text if text is not None else kind
            raise ParseError(
                f"expected {want!r}, found {self.tok.text!r}", self.tok.line)
        return tok

    def error(self, message):
        raise ParseError(message, self.tok.line)

    # -- types ---------------------------------------------------------------

    def parse_type(self):
        line = self.tok.line
        try:
            return self._parse_derived_type()
        except (TypeError, ValueError) as exc:   # the type builders' checks
            raise ParseError(str(exc), line) from None

    def _parse_derived_type(self):
        ty = self._parse_base_type()
        while True:
            if self.accept("punct", "*"):
                ty = pointer_type(ty)
            elif self.accept("punct", "$"):
                ty = signal_type(ty)
            else:
                return ty

    def _parse_base_type(self):
        if self.accept("punct", "["):
            length = int(self.expect("number").text)
            self.expect("ident", "x")
            elem = self.parse_type()
            self.expect("punct", "]")
            return array_type(length, elem)
        if self.accept("punct", "{"):
            fields = []
            if not self.check("punct", "}"):
                fields.append(self.parse_type())
                while self.accept("punct", ","):
                    fields.append(self.parse_type())
            self.expect("punct", "}")
            return struct_type(fields)
        tok = self.expect("ident")
        name = tok.text
        if name == "void":
            return void_type()
        if name == "time":
            return time_type()
        m = re.fullmatch(r"([inl])(\d+)", name)
        if m:
            kind, width = m.group(1), int(m.group(2))
            if kind == "i":
                return int_type(width)
            if kind == "n":
                return enum_type(width)
            return logic_type(width)
        raise ParseError(f"unknown type {name!r}", tok.line)

    # -- module --------------------------------------------------------------

    def parse_module(self, name="module"):
        module = Module(name)
        while not self.check("eof"):
            if self.check("ident", "declare"):
                module.declare(self._parse_declaration())
            elif self.check("ident", "func"):
                module.add(self._parse_function())
            elif self.check("ident", "proc"):
                module.add(self._parse_process())
            elif self.check("ident", "entity"):
                module.add(self._parse_entity())
            else:
                self.error(f"expected unit, found {self.tok.text!r}")
        return module

    def _parse_declaration(self):
        self.expect("ident", "declare")
        kind = self.expect("ident").text
        if kind not in ("func", "proc", "entity"):
            self.error(f"invalid declared unit kind {kind!r}")
        name = self.expect("global").text[1:]
        self.expect("punct", "(")
        ins = []
        if not self.check("punct", ")"):
            ins.append(self.parse_type())
            while self.accept("punct", ","):
                ins.append(self.parse_type())
        self.expect("punct", ")")
        if kind == "func":
            ret = self.parse_type()
            return UnitDecl(name, kind, ins, (), ret)
        self.expect("arrow")
        self.expect("punct", "(")
        outs = []
        if not self.check("punct", ")"):
            outs.append(self.parse_type())
            while self.accept("punct", ","):
                outs.append(self.parse_type())
        self.expect("punct", ")")
        return UnitDecl(name, kind, ins, outs)

    def _parse_arg_list(self):
        """Parse ``(T %name, ...)`` returning (types, names)."""
        self.expect("punct", "(")
        types, names = [], []
        if not self.check("punct", ")"):
            while True:
                types.append(self.parse_type())
                names.append(self.expect("local").text[1:])
                if not self.accept("punct", ","):
                    break
        self.expect("punct", ")")
        return types, names

    def _parse_function(self):
        self.expect("ident", "func")
        name = self.expect("global").text[1:]
        types, names = self._parse_arg_list()
        ret = self.parse_type()
        unit = Function(name, types, names, ret)
        self._parse_body(unit)
        return unit

    def _parse_process(self):
        self.expect("ident", "proc")
        name = self.expect("global").text[1:]
        in_types, in_names = self._parse_arg_list()
        self.expect("arrow")
        out_types, out_names = self._parse_arg_list()
        unit = Process(name, in_types, in_names, out_types, out_names)
        self._parse_body(unit)
        return unit

    def _parse_entity(self):
        self.expect("ident", "entity")
        name = self.expect("global").text[1:]
        in_types, in_names = self._parse_arg_list()
        self.expect("arrow")
        out_types, out_names = self._parse_arg_list()
        unit = Entity(name, in_types, in_names, out_types, out_names)
        self.expect("punct", "{")
        self.values = {a.name: a for a in unit.args}
        self.blocks = {}
        self.placeholders = []
        builder = Builder.at_end(unit.body)
        while not self.check("punct", "}"):
            self._parse_instruction(builder)
        self.expect("punct", "}")
        self._resolve_placeholders()
        return unit

    def _parse_body(self, unit):
        """Parse ``{ label: inst* ... }`` for control-flow units."""
        self.expect("punct", "{")
        self.values = {a.name: a for a in unit.args}
        self.blocks = {}
        self.placeholders = []
        # Pre-scan for block labels so forward branches resolve.
        depth = 1
        i = self.pos
        while depth > 0:
            tok = self.tokens[i]
            if tok.kind == "punct" and tok.text == "{":
                depth += 1
            elif tok.kind == "punct" and tok.text == "}":
                depth -= 1
            elif (tok.kind == "ident" and self.tokens[i + 1].kind == "punct"
                  and self.tokens[i + 1].text == ":" and depth == 1):
                label = tok.text
                if label in self.blocks:
                    raise ParseError(f"duplicate block label {label!r}",
                                     tok.line)
                self.blocks[label] = unit.create_block(label)
            elif tok.kind == "eof":
                self.error("unterminated unit body")
            i += 1
        builder = Builder()
        while not self.check("punct", "}"):
            label_tok = self.expect("ident")
            self.expect("punct", ":")
            block = self.blocks[label_tok.text]
            builder.set_insert_point(block)
            while not self.check("punct", "}") and not self._at_label():
                self._parse_instruction(builder)
        self.expect("punct", "}")
        self._resolve_placeholders()

    def _at_label(self):
        return (self.tok.kind == "ident"
                and self.tokens[self.pos + 1].kind == "punct"
                and self.tokens[self.pos + 1].text == ":")

    def _resolve_placeholders(self):
        for ph in self.placeholders:
            value = self.values.get(ph.ref_name)
            if value is None:
                raise ParseError(f"undefined value %{ph.ref_name}", ph.line)
            if value.type is not ph.type:
                raise ParseError(
                    f"%{ph.ref_name} has type {value.type}, "
                    f"expected {ph.type}", ph.line)
            ph.replace_all_uses_with(value)

    # -- values ----------------------------------------------------------------

    def _define(self, name, value):
        if name in self.values:
            raise ParseError(f"redefinition of %{name}", self.tok.line)
        value.name = name
        self.values[name] = value
        return value

    def _value(self, expected_type=None):
        """Parse ``%name`` and resolve it against the symbol table."""
        tok = self.expect("local")
        name = tok.text[1:]
        value = self.values.get(name)
        if value is None:
            raise ParseError(f"undefined value %{name}", tok.line)
        if expected_type is not None and value.type is not expected_type:
            raise ParseError(
                f"%{name} has type {value.type}, expected {expected_type}",
                tok.line)
        return value

    def _value_or_placeholder(self, expected_type):
        """Parse ``%name``; allow forward references (phi operands)."""
        tok = self.expect("local")
        name = tok.text[1:]
        value = self.values.get(name)
        if value is not None:
            if value.type is not expected_type:
                raise ParseError(
                    f"%{name} has type {value.type}, "
                    f"expected {expected_type}", tok.line)
            return value
        ph = _Placeholder(expected_type, name, tok.line)
        self.placeholders.append(ph)
        return ph

    def _block_ref(self):
        tok = self.expect("local")
        name = tok.text[1:]
        block = self.blocks.get(name)
        if block is None:
            raise ParseError(f"undefined block %{name}", tok.line)
        return block

    def _typed_value(self):
        """Parse ``T %name`` and check the annotation."""
        ty = self.parse_type()
        return self._value(ty)

    # -- instructions -------------------------------------------------------------

    _ALIASES = {"div": "udiv", "mod": "umod", "rem": "urem"}

    def _parse_instruction(self, builder):
        result_name = None
        if self.check("local"):
            result_name = self.advance().text[1:]
            self.expect("punct", "=")
            if self.check("punct", "["):
                return self._parse_array_literal(builder, result_name)
            if self.check("punct", "{"):
                return self._parse_struct_literal(builder, result_name)
        tok = self.expect("ident")
        op = self._ALIASES.get(tok.text, tok.text)
        handler = getattr(self, f"_inst_{op}", None)
        if handler is None and op in BINARY_OPS | COMPARE_OPS:
            handler = self._inst_binary_like
        elif handler is None and op in UNARY_OPS:
            handler = self._inst_unary
        elif handler is None and op in CAST_OPS:
            handler = self._inst_cast
        if handler is None:
            raise ParseError(f"unknown instruction {op!r}", tok.line)
        try:
            inst = handler(builder, op)
        except (TypeError, ValueError) as exc:   # the builder's checks
            raise ParseError(str(exc), tok.line) from None
        if result_name is not None:
            if inst.type.is_void:
                raise ParseError(
                    f"{op} produces no result to bind", tok.line)
            self._define(result_name, inst)
        return inst

    def _parse_array_literal(self, builder, result_name):
        self.expect("punct", "[")
        # Splat form: [N x T %v]; literal form: [T %a, %b, ...]
        if (self.check("number")
                and self.tokens[self.pos + 1].kind == "ident"
                and self.tokens[self.pos + 1].text == "x"):
            length = int(self.advance().text)
            self.expect("ident", "x")
            ty = self.parse_type()
            value = self._value(ty)
            self.expect("punct", "]")
            inst = builder.array_splat(length, value)
        else:
            ty = self.parse_type()
            elems = [self._value(ty)]
            while self.accept("punct", ","):
                elems.append(self._value(ty))
            self.expect("punct", "]")
            inst = builder.array(elems)
        return self._define(result_name, inst)

    def _parse_struct_literal(self, builder, result_name):
        self.expect("punct", "{")
        fields = []
        if not self.check("punct", "}"):
            while True:
                fields.append(self._typed_value())
                if not self.accept("punct", ","):
                    break
        self.expect("punct", "}")
        return self._define(result_name, builder.struct(fields))

    # Individual instruction parsers. Each returns the created Instruction.

    def _inst_const(self, builder, op):
        if self.check("ident", "time"):
            self.advance()
            value = self._parse_time_literal()
            return builder.const_time(value)
        ty = self.parse_type()
        if ty.is_logic:
            text = self.expect("string").text[1:-1]
            vec = LogicVec(text)
            if vec.width != ty.width:
                self.error(f"logic constant width {vec.width} != {ty}")
            return builder.const_logic(vec)
        value = int(self.expect("number").text)
        return builder.const_int(ty, value)

    def _parse_time_literal(self):
        fs = delta = eps = 0
        saw = False
        while True:
            if self.check("timepart"):
                text = self.advance().text
                saw = True
                if text.endswith("d") and text[:-1].isdigit():
                    delta = int(text[:-1])
                elif text.endswith("e") and text[:-1].isdigit():
                    eps = int(text[:-1])
                else:
                    fs = TimeValue.parse(text).fs
            elif self.check("number", "0"):
                # bare "0" is not a valid unit; require 0s
                self.error("time literal needs a unit (e.g. 0s)")
            else:
                break
        if not saw:
            self.error("expected time literal")
        return TimeValue(fs, delta, eps)

    def _inst_binary_like(self, builder, op):
        ty = self.parse_type()
        a = self._value(ty)
        self.expect("punct", ",")
        if op in ("shl", "shr"):
            b = self._value()
            return builder.binary(op, a, b)
        b = self._value(ty)
        if op in COMPARE_OPS:
            return builder.compare(op, a, b)
        return builder.binary(op, a, b)

    def _inst_unary(self, builder, op):
        ty = self.parse_type()
        a = self._value(ty)
        if op == "not":
            return builder.not_(a)
        return builder.neg(a)

    def _inst_cast(self, builder, op):
        ty = self.parse_type()
        a = self._value(ty)
        self.expect("ident", "to")
        to = self.parse_type()
        return getattr(builder, op)(a, to)

    def _inst_extf(self, builder, op):
        self.parse_type()  # result type (redundant; recomputed)
        self.expect("punct", ",")
        agg = self._typed_value()
        self.expect("punct", ",")
        if self.check("local"):
            index = self._value()
        else:
            index = int(self.expect("number").text)
        return builder.extf(agg, index)

    def _inst_insf(self, builder, op):
        agg = self._typed_value()
        self.expect("punct", ",")
        value = self._typed_value()
        self.expect("punct", ",")
        if self.check("local"):
            index = self._value()
        else:
            index = int(self.expect("number").text)
        return builder.insf(agg, value, index)

    def _inst_exts(self, builder, op):
        self.parse_type()
        self.expect("punct", ",")
        agg = self._typed_value()
        self.expect("punct", ",")
        offset = int(self.expect("number").text)
        self.expect("punct", ",")
        length = int(self.expect("number").text)
        return builder.exts(agg, offset, length)

    def _inst_inss(self, builder, op):
        agg = self._typed_value()
        self.expect("punct", ",")
        value = self._typed_value()
        self.expect("punct", ",")
        offset = int(self.expect("number").text)
        self.expect("punct", ",")
        length = int(self.expect("number").text)
        return builder.inss(agg, value, offset, length)

    def _inst_mux(self, builder, op):
        self.parse_type()  # element type
        arr = self._value()
        self.expect("punct", ",")
        sel = self._value()
        return builder.mux(arr, sel)

    def _inst_phi(self, builder, op):
        ty = self.parse_type()
        pairs = []
        while True:
            self.expect("punct", "[")
            value = self._value_or_placeholder(ty)
            self.expect("punct", ",")
            block = self._block_ref()
            self.expect("punct", "]")
            pairs.append((value, block))
            if not self.accept("punct", ","):
                break
        return builder.phi(pairs)

    def _inst_sig(self, builder, op):
        init = self._typed_value()
        return builder.sig(init)

    def _inst_prb(self, builder, op):
        sig = self._typed_value()
        return builder.prb(sig)

    def _inst_drv(self, builder, op):
        sig = self._typed_value()
        self.expect("punct", ",")
        value = self._value(sig.type.element)
        self.expect("ident", "after")
        delay = self._value()
        cond = None
        if self.accept("ident", "if"):
            cond = self._value()
        return builder.drv(sig, value, delay, cond)

    def _inst_con(self, builder, op):
        a = self._typed_value()
        self.expect("punct", ",")
        b = self._value(a.type)
        return builder.con(a, b)

    def _inst_del(self, builder, op):
        src = self._typed_value()
        self.expect("ident", "after")
        delay = self._value()
        return builder.delayed(src, delay)

    def _inst_reg(self, builder, op):
        sig = self._typed_value()
        triggers = []
        while self.accept("punct", ","):
            value = self._value(sig.type.element)
            mode_tok = self.expect("ident")
            if mode_tok.text not in ("low", "high", "rise", "fall", "both"):
                raise ParseError(
                    f"invalid reg trigger mode {mode_tok.text!r}",
                    mode_tok.line)
            trigger = self._value()
            cond = delay = None
            if self.accept("ident", "if"):
                cond = self._value()
            if self.accept("ident", "after"):
                delay = self._value()
            triggers.append((mode_tok.text, value, trigger, cond, delay))
        if not triggers:
            self.error("reg needs at least one trigger clause")
        return builder.reg(sig, triggers)

    def _inst_inst(self, builder, op):
        callee = self.expect("global").text[1:]
        self.expect("punct", "(")
        inputs = []
        if not self.check("punct", ")"):
            while True:
                inputs.append(self._typed_value())
                if not self.accept("punct", ","):
                    break
        self.expect("punct", ")")
        self.expect("arrow")
        self.expect("punct", "(")
        outputs = []
        if not self.check("punct", ")"):
            while True:
                outputs.append(self._typed_value())
                if not self.accept("punct", ","):
                    break
        self.expect("punct", ")")
        return builder.inst(callee, inputs, outputs)

    def _inst_var(self, builder, op):
        return builder.var(self._typed_value())

    def _inst_alloc(self, builder, op):
        return builder.alloc(self._typed_value())

    def _inst_free(self, builder, op):
        return builder.free(self._typed_value())

    def _inst_ld(self, builder, op):
        return builder.ld(self._typed_value())

    def _inst_st(self, builder, op):
        ptr = self._typed_value()
        self.expect("punct", ",")
        value = self._value(ptr.type.pointee)
        return builder.st(ptr, value)

    def _inst_call(self, builder, op):
        ty = self.parse_type()
        callee = self.expect("global").text[1:]
        self.expect("punct", "(")
        args = []
        if not self.check("punct", ")"):
            while True:
                args.append(self._typed_value())
                if not self.accept("punct", ","):
                    break
        self.expect("punct", ")")
        return builder.call(callee, args, ty)

    def _inst_br(self, builder, op):
        first = self.expect("local").text[1:]
        if self.accept("punct", ","):
            cond = self.values.get(first)
            if cond is None:
                self.error(f"undefined value %{first}")
            dest_false = self._block_ref()
            self.expect("punct", ",")
            dest_true = self._block_ref()
            return builder.br_cond(cond, dest_false, dest_true)
        block = self.blocks.get(first)
        if block is None:
            self.error(f"undefined block %{first}")
        return builder.br(block)

    def _inst_wait(self, builder, op):
        dest = self._block_ref()
        time = None
        signals = []
        if self.accept("ident", "for"):
            while True:
                value = self._value()
                if value.type.is_time:
                    if time is not None:
                        self.error("wait has more than one time operand")
                    time = value
                else:
                    signals.append(value)
                if not self.accept("punct", ","):
                    break
        return builder.wait(dest, time, signals)

    def _inst_halt(self, builder, op):
        return builder.halt()

    def _inst_ret(self, builder, op):
        if self.check("ident") and not self._at_label():
            # "ret T %v" — a type follows
            value = self._typed_value()
            return builder.ret(value)
        if self.check("punct", "[") or self.check("punct", "{"):
            value = self._typed_value()
            return builder.ret(value)
        return builder.ret()


def parse_module(text, name="module"):
    """Parse LLHD assembly text into a :class:`Module`."""
    return Parser(text).parse_module(name)


def parse_type_text(text):
    """Parse a standalone type, e.g. ``"i32$"``."""
    parser = Parser(text)
    ty = parser.parse_type()
    if not parser.check("eof"):
        parser.error("trailing input after type")
    return ty
