"""Statement codegen: always/initial blocks → LLHD processes, and
SystemVerilog functions → LLHD functions.

All mutable state (locals and blocking-assigned module signals) lives in
``var`` cells during codegen, so no phi construction is needed here; the
mem2reg pass promotes the cells to SSA form during lowering.  Shadow cells
for blocking-assigned signals are initialized from a probe at the top of
each activation and flushed back with delta-delay drives at every
suspension point (see codegen module docstring).
"""

from __future__ import annotations

import dataclasses

from ..ir.builder import Builder
from ..ir.ninevalued import LogicVec
from ..ir.types import int_type, logic_type
from ..ir.units import Process
from ..ir.values import TimeValue
from . import ast
from .codegen import ExprContext, MooreError, TypedValue, _const_eval, \
    _try_const, _width_of

_ZERO_DELAY = TimeValue(0)


def scan_body(*roots):
    """One walk over the AST below ``roots``: ``(written, read,
    blocking)``, the base identifiers assigned anywhere, every identifier
    read, and the base identifiers of blocking assignments and
    post-increments."""
    written, read, blocking = set(), set(), set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls is list or cls is tuple:
            stack.extend(node)
            continue
        if cls is ast.Identifier:
            read.add(node.name)
        elif cls is ast.Assign:
            base = node.target
            while isinstance(base, (ast.Index, ast.PartSelect)):
                base = base.base
            if isinstance(base, ast.Identifier):
                written.add(base.name)
                if node.blocking:
                    blocking.add(base.name)
        elif cls is ast.PostIncrement and \
                isinstance(node.target, ast.Identifier):
            blocking.add(node.target.name)
        stack.extend(getattr(node, name)
                     for name in _CHILD_FIELDS.get(cls, ()))
    return written, read, blocking


#: AST class -> the fields :func:`scan_body` descends into: those whose
#: default is not a plain number, string or bool.
_CHILD_FIELDS = {
    cls: tuple(f.name for f in dataclasses.fields(cls)
               if not isinstance(f.default, (int, str)))
    for cls in vars(ast).values()
    if isinstance(cls, type) and dataclasses.is_dataclass(cls)
}


class _Lvalue:
    """A resolved assignment target inside a process or function."""

    def __init__(self, kind, base, steps, element_ty, signal_name=None,
                 dirty=None):
        self.kind = kind            # "signal" | "cell"
        self.base = base            # signal value or cell pointer value
        self.steps = steps          # list of ("extf", idx) / ("exts", o, l)
        self.element_ty = element_ty
        self.signal_name = signal_name
        self.dirty = dirty          # dirty-flag cell for shadowed signals


class BodyGen(ExprContext):
    """Shared statement generator for processes and functions."""

    def __init__(self, elab, unit):
        super().__init__(elab, Builder())
        self.unit = unit
        self.block = None
        self._block_count = 0

    # -- block plumbing ---------------------------------------------------------

    def new_block(self, name):
        self._block_count += 1
        return self.unit.create_block(f"{name}{self._block_count}")

    def set_block(self, block):
        self.block = block
        self.builder.set_insert_point(block)

    # -- statement dispatch ----------------------------------------------------

    def stmt(self, node):
        method = getattr(self, f"_stmt_{type(node).__name__}", None)
        if method is None:
            raise MooreError(f"unsupported statement {type(node).__name__}",
                             getattr(node, "line", None))
        method(node)

    def _stmt_Block(self, node):
        for sub in node.statements:
            self.stmt(sub)

    def _stmt_VarDecl(self, node):
        ty, signed = self.elab.lower_type(node.data_type)
        if node.init is not None:
            init = self.adapt(self.expr(node.init, _width_of(ty)), ty)
            init_value = init.value
        else:
            init_value = self._default_const(ty)
        cell = self.builder.var(init_value, name=node.name)
        self.declare_local(node.name, cell, ty, signed)

    def _default_const(self, ty, value=0):
        if ty.is_int:
            return self.builder.const_int(ty, value)
        if ty.is_logic:
            return self.builder.const_logic(
                LogicVec.from_int(value, ty.width))
        if ty.is_array:
            element = self._default_const(ty.element, value)
            return self.builder.array_splat(ty.length, element)
        raise MooreError(f"cannot build default value of type {ty}")

    def _stmt_Assign(self, node):
        lvalue = self.lvalue(node.target)
        hint = _width_of(lvalue.element_ty)
        value = self.expr(node.value, hint)
        if node.op:
            current = self.read_lvalue(lvalue)
            value = self._apply_compound(node.op, current, value)
        value = self.adapt(value, lvalue.element_ty)
        if node.blocking:
            if node.delay is not None:
                raise MooreError("blocking assignment delays are not "
                                 "supported", node.line)
            self.write_lvalue(lvalue, value)
        else:
            delay = TimeValue.parse(node.delay.text) \
                if node.delay is not None else _ZERO_DELAY
            self.drive_lvalue(lvalue, value, delay, node.line)

    def _apply_compound(self, op, current, value):
        fake = ast.Binary(op=op)
        arith = {"+": "add", "-": "sub", "*": "mul", "&": "and",
                 "|": "or", "^": "xor"}
        if op in arith:
            a, b = self._unify(current, value)
            return TypedValue(
                self.builder.binary(arith[op], a.value, b.value),
                a.signed and b.signed)
        if op in ("<<", ">>"):
            method = self.builder.shl if op == "<<" else self.builder.shr
            return TypedValue(method(current.value, value.value),
                              current.signed)
        raise MooreError(f"unsupported compound assignment {op}=")

    def _stmt_If(self, node):
        cond = self.to_bool(self.expr(node.cond))
        then_block = self.new_block("if.then")
        join = self.new_block("if.join")
        if node.else_body is not None:
            else_block = self.new_block("if.else")
            self.builder.br_cond(cond, else_block, then_block)
            self.set_block(else_block)
            self.stmt(node.else_body)
            self.builder.br(join)
        else:
            self.builder.br_cond(cond, join, then_block)
        self.set_block(then_block)
        self.stmt(node.then_body)
        self.builder.br(join)
        self.set_block(join)

    def _stmt_Case(self, node):
        subject = self.expr(node.subject)
        done = self.new_block("case.join")
        default_body = None
        arms = []
        for labels, body in node.items:
            if labels is None:
                default_body = body
            else:
                arms.append((labels, body))
        for labels, body in arms:
            conds = []
            for label in labels:
                conds.append(self._case_match(subject, label, node.wildcard))
            cond = conds[0]
            for extra in conds[1:]:
                cond = self.builder.or_(cond, extra)
            body_block = self.new_block("case.arm")
            next_block = self.new_block("case.next")
            self.builder.br_cond(cond, next_block, body_block)
            self.set_block(body_block)
            self.stmt(body)
            self.builder.br(done)
            self.set_block(next_block)
        if default_body is not None:
            self.stmt(default_body)
        self.builder.br(done)
        self.set_block(done)

    def _case_match(self, subject, label, wildcard):
        if wildcard and isinstance(label, ast.Number) and label.has_xz:
            # casez: x/z bits are don't-care. Recover the mask from the
            # literal text at parse time is lost; treat x bits as 0-mask
            # by rebuilding from the stored value: conservative fallback —
            # compare the non-wildcard low bits only is not recoverable,
            # so match everything with the same defined bits via equality
            # on the masked value.
            width = label.width or subject.width
            mask_value = label.value  # defined bits (x already zeroed)
            label_tv = self.const(width, label.value)
            a, b = self._unify(subject, label_tv)
            return self.builder.eq(a.value, b.value)
        label_tv = self.expr(label, subject.width)
        a, b = self._unify(subject, label_tv)
        return self.builder.eq(a.value, b.value)

    def _stmt_For(self, node):
        if node.init is not None:
            self.stmt(node.init)
        header = self.new_block("for.head")
        body = self.new_block("for.body")
        exit_block = self.new_block("for.exit")
        self.builder.br(header)
        self.set_block(header)
        if node.cond is not None:
            cond = self.to_bool(self.expr(node.cond))
            self.builder.br_cond(cond, exit_block, body)
        else:
            self.builder.br(body)
        self.set_block(body)
        self.stmt(node.body)
        if node.step is not None:
            if isinstance(node.step, ast.PostIncrement):
                self._post_increment(node.step)
            else:
                self.stmt(node.step)
        self.builder.br(header)
        self.set_block(exit_block)

    def _stmt_While(self, node):
        header = self.new_block("while.head")
        body = self.new_block("while.body")
        exit_block = self.new_block("while.exit")
        self.builder.br(header)
        self.set_block(header)
        cond = self.to_bool(self.expr(node.cond))
        self.builder.br_cond(cond, exit_block, body)
        self.set_block(body)
        self.stmt(node.body)
        self.builder.br(header)
        self.set_block(exit_block)

    def _stmt_DoWhile(self, node):
        body = self.new_block("do.body")
        exit_block = self.new_block("do.exit")
        self.builder.br(body)
        self.set_block(body)
        self.stmt(node.body)
        cond = self.to_bool(self.expr(node.cond))
        self.builder.br_cond(cond, exit_block, body)
        self.set_block(exit_block)

    def _stmt_ExprStmt(self, node):
        expr = node.expr
        if isinstance(expr, ast.PostIncrement):
            self._post_increment(expr)
            return
        if isinstance(expr, ast.SystemCall):
            self._system_statement(expr)
            return
        if isinstance(expr, ast.FunctionCall):
            self.call(expr.name, expr.args, expr.line, statement=True)
            return
        raise MooreError("expression has no effect", node.line)

    def _post_increment(self, expr):
        lvalue = self.lvalue(expr.target)
        current = self.read_lvalue(lvalue)
        one = self.const(current.width, 1)
        if expr.op == "++":
            updated = self.builder.add(current.value, one.value)
        else:
            updated = self.builder.sub(current.value, one.value)
        self.write_lvalue(lvalue, TypedValue(updated, current.signed))
        return current

    def _expr_PostIncrement(self, node, width_hint):
        return self._post_increment(node)

    def _system_statement(self, node):
        if node.name in ("$display", "$write", "$error", "$warning",
                         "$info"):
            args = [self.expr(a).value for a in node.args
                    if not isinstance(a, ast.StringLiteral)]
            self.builder.call("llhd.print", args, None)
            return
        if node.name in ("$finish", "$stop"):
            self.builder.call("llhd.finish", [], None)
            return
        raise MooreError(f"unsupported system task {node.name}", node.line)

    def _stmt_AssertStmt(self, node):
        cond = self.to_bool(self.expr(node.cond))
        self.builder.call("llhd.assert", [cond], None)

    # -- interface for subclasses -----------------------------------------------

    def declare_local(self, name, cell, ty, signed):
        raise NotImplementedError

    def lvalue(self, expr):
        raise NotImplementedError

    def read_lvalue(self, lvalue):
        """Load the current value of a resolved lvalue."""
        base = lvalue.base
        if lvalue.kind == "cell":
            value = base
            for step in lvalue.steps:
                value = self._project_ptr(value, step)
            return TypedValue(self.builder.ld(value), False)
        probed = self._probe_target(lvalue)
        return TypedValue(probed, False)

    def _probe_target(self, lvalue):
        target = lvalue.base
        for step in lvalue.steps:
            target = self._project_sig(target, step)
        return self.builder.prb(target)

    def _project_ptr(self, pointer, step):
        if step[0] == "extf":
            return self.builder.extf(pointer, step[1])
        return self.builder.exts(pointer, step[1], step[2])

    def _project_sig(self, signal, step):
        if step[0] == "extf":
            return self.builder.extf(signal, step[1])
        return self.builder.exts(signal, step[1], step[2])

    def _resolve_projection(self, expr, base_lvalue):
        """Extend an lvalue with Index/PartSelect steps."""
        if isinstance(expr, ast.Index):
            inner = self._resolve_projection(expr.base, base_lvalue)
            ty = inner.element_ty
            index = _try_const(expr.index, self.elab.params)
            if ty.is_array:
                if index is None:
                    index = self.expr(expr.index).value
                inner.steps.append(("extf", index))
                inner.element_ty = ty.element
                return inner
            if index is None:
                raise MooreError(
                    "dynamic bit-select assignment targets are not "
                    "supported; assign the full vector", expr.line)
            inner.steps.append(("exts", index, 1))
            inner.element_ty = logic_type(1) if ty.is_logic else int_type(1)
            return inner
        if isinstance(expr, ast.PartSelect):
            inner = self._resolve_projection(expr.base, base_lvalue)
            msb = _const_eval(expr.msb, self.elab.params)
            lsb = _const_eval(expr.lsb, self.elab.params)
            lo, width = min(msb, lsb), abs(msb - lsb) + 1
            inner.steps.append(("exts", lo, width))
            if inner.element_ty.is_array:
                from ..ir.types import array_type

                inner.element_ty = array_type(width,
                                              inner.element_ty.element)
            elif inner.element_ty.is_logic:
                inner.element_ty = logic_type(width)
            else:
                inner.element_ty = int_type(width)
            return inner
        return base_lvalue(expr)


class ProcessBodyGen(BodyGen):
    """Generates one LLHD process from an always/initial block."""

    def __init__(self, elab, always_ast, name):
        self.always = always_ast
        self.name = name
        written, read, blocking = scan_body(
            always_ast.body,
            [event.signal for event in always_ast.events or ()])
        self.written_signals = [n for n in elab.signals if n in written]
        self.input_signals = [n for n in elab.signals
                              if n in read and n not in written]
        # Blocking-assigned module signals get shadow cells.
        self.shadowed = {n for n in blocking if n in elab.signals}
        in_types = [elab.signals[n].type for n in self.input_signals]
        out_types = [elab.signals[n].type for n in self.written_signals]
        unit = Process(name, in_types, self.input_signals,
                       out_types, self.written_signals)
        super().__init__(elab, unit)
        self.bindings = {}
        for arg, n in zip(unit.inputs, self.input_signals):
            ty, signed = elab.signal_types[n]
            self.bindings[n] = ["sig", arg, ty, signed]
        for arg, n in zip(unit.outputs, self.written_signals):
            ty, signed = elab.signal_types[n]
            self.bindings[n] = ["sig", arg, ty, signed]
        self.shadow_cells = {}

    # -- activation scaffolding -------------------------------------------------

    def run(self):
        kind = self.always.kind
        events = self.always.events
        if kind == "initial" or kind == "final":
            entry = self.new_block("entry")
            self.set_block(entry)
            self._init_shadows()
            self.stmt(self.always.body)
            self._flush_shadows()
            self.builder.halt()
        elif kind in ("always_comb", "always_latch") or (
                events is not None and not any(e.edge for e in events)):
            entry = self.new_block("entry")
            self.set_block(entry)
            self._init_shadows()
            self.stmt(self.always.body)
            self._flush_shadows()
            observed = [b[1] for b in self.bindings.values()
                        if b[0] in ("sig", "shadow")]
            self.builder.wait(entry, None, observed)
        elif events:
            self._edge_triggered(events)
        else:
            # Plain `always` without sensitivity: free-running loop
            # (clock generators); must contain delays to be well-formed.
            entry = self.new_block("loop")
            self.set_block(entry)
            self._init_shadows()
            self.stmt(self.always.body)
            self._flush_shadows()
            self.builder.br(entry)
        parent_inputs = [self.elab.signals[n] for n in self.input_signals]
        parent_outputs = [self.elab.signals[n] for n in self.written_signals]
        return self.unit, parent_inputs, parent_outputs

    def _edge_term(self, old, news, edge):
        """An i1 "this edge fired" term from old/new trigger values.

        Two-valued triggers keep the change-and-level pattern of Figure 5.
        Nine-valued triggers compare X01 levels against the edge's target
        level, so ``X``/``Z`` phases match neither edge while ``X → 1``
        still counts as a rising edge (IEEE 1800 semantics).
        """
        if news.type.is_logic:
            target = self.builder.const_logic("1" if edge == "posedge"
                                              else "0")
            now_at = self.builder.eq(news, target)
            was_at = self.builder.eq(old, target)
            return self.builder.and_(now_at, self.builder.not_(was_at))
        changed = self.builder.neq(old, news)
        if edge == "posedge":
            return self.builder.and_(changed, news)
        return self.builder.and_(changed, self.builder.not_(news))

    def _edge_triggered(self, events):
        init = self.new_block("init")
        check = self.new_block("check")
        body = self.new_block("body")
        self.set_block(init)
        olds = []
        observed = []
        for event in events:
            signal = self._event_signal(event)
            observed.append(signal)
            if event.edge is not None:
                olds.append(self.builder.prb(signal))
            else:
                olds.append(None)
        self.builder.wait(check, None, observed)
        self.set_block(check)
        fire = None
        for event, old, signal in zip(events, olds, observed):
            news = self.builder.prb(signal)
            if event.edge is None:
                term = None  # any change on a plain event wakes us anyway
                continue
            term = self._edge_term(old, news, event.edge)
            fire = term if fire is None else self.builder.or_(fire, term)
        if fire is None:
            self.builder.br(body)
        else:
            self.builder.br_cond(fire, init, body)
        self.set_block(body)
        self._init_shadows()
        self.stmt(self.always.body)
        self._flush_shadows()
        self.builder.br(init)

    def _event_signal(self, event):
        expr = event.signal
        if isinstance(expr, ast.Identifier):
            binding = self.bindings.get(expr.name)
            if binding is None or binding[0] not in ("sig", "shadow"):
                raise MooreError(
                    f"sensitivity on non-signal {expr.name!r}",
                    getattr(expr, "line", None))
            return binding[1]
        raise MooreError("unsupported sensitivity expression",
                         getattr(expr, "line", None))

    def _init_shadows(self):
        for name in sorted(self.shadowed):
            binding = self.bindings[name]
            probed = self.builder.prb(binding[1])
            cell = self.builder.var(probed, name=f"{name}_sh")
            zero = self.builder.const_int(int_type(1), 0)
            dirty = self.builder.var(zero, name=f"{name}_dirty")
            self.shadow_cells[name] = (cell, dirty)

    def _flush_shadows(self):
        """Drive each shadow back to its signal — but only if it was
        written since the last flush.  An unconditional flush would
        re-drive stale values over other drivers of the same signal
        (e.g. a counter incremented by an always_ff while the testbench
        merely initialized it)."""
        zero_time = None
        for name in sorted(self.shadowed):
            cell, dirty = self.shadow_cells[name]
            was_written = self.builder.ld(dirty)
            value = self.builder.ld(cell)
            if zero_time is None:
                zero_time = self.builder.const_time(TimeValue(0))
            self.builder.drv(self.bindings[name][1], value, zero_time,
                             was_written)
            fresh = self.builder.const_int(int_type(1), 0)
            self.builder.st(dirty, fresh)

    # -- identifier access -----------------------------------------------------------

    def declare_local(self, name, cell, ty, signed):
        self.bindings[name] = ["local", cell, ty, signed]

    def _shadow_value(self, name):
        """The current value of a shadowed signal: the process's own
        unflushed write if dirty, the live signal value otherwise."""
        cell, dirty = self.shadow_cells[name]
        signal = self.bindings[name][1]
        was_written = self.builder.ld(dirty)
        live = self.builder.prb(signal)
        own = self.builder.ld(cell)
        choices = self.builder.array([live, own])
        return self.builder.mux(choices, was_written)

    def read(self, name, line=None):
        if name in self.shadowed:
            signed = self.bindings[name][3]
            return TypedValue(self._shadow_value(name), signed)
        binding = self.bindings.get(name)
        if binding is not None:
            kind, value, ty, signed = binding
            if kind == "sig":
                return TypedValue(self.builder.prb(value), signed)
            return TypedValue(self.builder.ld(value), signed)
        if name in self.elab.params:
            return self.const(32, self.elab.params[name], signed=True)
        raise MooreError(f"unknown identifier {name!r}", line)

    def call(self, name, args, line=None, statement=False):
        info = self.elab.functions.get(name)
        if info is None:
            raise MooreError(f"unknown function {name!r}", line)
        llhd_name, ret_ty, ret_signed, arg_types, arg_signed = info
        values = []
        for arg_expr, ty in zip(args, arg_types):
            tv = self.adapt(self.expr(arg_expr, _width_of(ty)), ty)
            values.append(tv.value)
        result = self.builder.call(llhd_name, values, ret_ty)
        if ret_ty.is_void:
            return None
        return TypedValue(result, ret_signed)

    # -- lvalues ----------------------------------------------------------------------

    def lvalue(self, expr):
        def base_lvalue(node):
            if not isinstance(node, ast.Identifier):
                raise MooreError("unsupported assignment target",
                                 getattr(node, "line", None))
            name = node.name
            if name in self.shadowed:
                cell, dirty = self.shadow_cells[name]
                _, _, ty, _ = self.bindings[name]
                return _Lvalue("cell", cell, [], ty, signal_name=name,
                               dirty=dirty)
            binding = self.bindings.get(name)
            if binding is None:
                raise MooreError(f"unknown assignment target {name!r}",
                                 node.line)
            kind, value, ty, _signed = binding
            if kind == "sig":
                return _Lvalue("signal", value, [], ty, signal_name=name)
            return _Lvalue("cell", value, [], ty)

        return self._resolve_projection(expr, base_lvalue)

    def write_lvalue(self, lvalue, value):
        if lvalue.kind == "cell":
            if lvalue.dirty is not None and lvalue.steps:
                # Read-modify-write of part of a shadowed signal: refresh
                # the shadow from the live value first, or the untouched
                # parts would flush stale data over other drivers.
                root = self._shadow_value(lvalue.signal_name)
                self.builder.st(lvalue.base, root)
            target = lvalue.base
            for step in lvalue.steps:
                target = self._project_ptr(target, step)
            self.builder.st(target, value.value)
            if lvalue.dirty is not None:
                one = self.builder.const_int(int_type(1), 1)
                self.builder.st(lvalue.dirty, one)
            return
        # Blocking write to a signal that somehow has no shadow: model as
        # an immediate (delta) drive.
        self.drive_lvalue(lvalue, value, _ZERO_DELAY, None)

    def drive_lvalue(self, lvalue, value, delay, line):
        name = lvalue.signal_name
        if name is None:
            raise MooreError("nonblocking assignment to a local variable",
                             line)
        signal = self.bindings[name][1]
        target = signal
        for step in lvalue.steps:
            target = self._project_sig(target, step)
        delay_const = self.builder.const_time(delay)
        self.builder.drv(target, value.value, delay_const)

    # -- timing statements ---------------------------------------------------------------

    def _stmt_Delay(self, node):
        self._flush_shadows()
        amount = self.builder.const_time(TimeValue.parse(node.amount.text))
        resume = self.new_block("after")
        self.builder.wait(resume, amount, [])
        self.set_block(resume)

    def _stmt_EventWait(self, node):
        self._flush_shadows()
        wait_block = self.new_block("evwait")
        check = self.new_block("evcheck")
        cont = self.new_block("evcont")
        self.builder.br(wait_block)
        self.set_block(wait_block)
        olds = []
        observed = []
        for event in node.events:
            signal = self._event_signal(event)
            observed.append(signal)
            olds.append(self.builder.prb(signal)
                        if event.edge is not None else None)
        self.builder.wait(check, None, observed)
        self.set_block(check)
        fire = None
        for event, old, signal in zip(node.events, olds, observed):
            if event.edge is None:
                continue
            news = self.builder.prb(signal)
            term = self._edge_term(old, news, event.edge)
            fire = term if fire is None else self.builder.or_(fire, term)
        if fire is None:
            self.builder.br(cont)
        else:
            self.builder.br_cond(fire, wait_block, cont)
        self.set_block(cont)


class FunctionBodyGen(BodyGen):
    """Generates the body of an LLHD function from a SV function."""

    def __init__(self, elab, func, decl, ret_ty, ret_signed, arg_signed):
        super().__init__(elab, func)
        self.decl = decl
        self.ret_ty = ret_ty
        self.ret_signed = ret_signed
        self.bindings = {}
        self._written = scan_body(decl.body)[0]
        self._arg_signed = arg_signed
        self.ret_cell = None
        self.exit_block = None

    def run(self):
        entry = self.new_block("entry")
        self.exit_block = self.new_block("exit")
        self.set_block(entry)
        for arg, (name, _), signed in zip(self.unit.args,
                                          self.decl.args,
                                          self._arg_signed):
            if name in self._written:
                cell = self.builder.var(arg, name=name)
                self.bindings[name] = ["local", cell, arg.type, signed]
            else:
                self.bindings[name] = ["value", arg, arg.type, signed]
        if not self.ret_ty.is_void:
            init = self._default_const(self.ret_ty)
            self.ret_cell = self.builder.var(init, name="retval")
            self.bindings[self.decl.name] = [
                "local", self.ret_cell, self.ret_ty, self.ret_signed]
        self.stmt(self.decl.body)
        self.builder.br(self.exit_block)
        self.set_block(self.exit_block)
        if self.ret_ty.is_void:
            self.builder.ret()
        else:
            result = self.builder.ld(self.ret_cell)
            self.builder.ret(result)
        # Keep the exit block last for readability.
        self.unit.blocks.remove(self.exit_block)
        self.unit.blocks.append(self.exit_block)

    def declare_local(self, name, cell, ty, signed):
        self.bindings[name] = ["local", cell, ty, signed]

    def read(self, name, line=None):
        binding = self.bindings.get(name)
        if binding is not None:
            kind, value, ty, signed = binding
            if kind == "value":
                return TypedValue(value, signed)
            return TypedValue(self.builder.ld(value), signed)
        if name in self.elab.params:
            return self.const(32, self.elab.params[name], signed=True)
        raise MooreError(f"unknown identifier {name!r}", line)

    def call(self, name, args, line=None, statement=False):
        info = self.elab.functions.get(name)
        if info is None:
            raise MooreError(f"unknown function {name!r}", line)
        llhd_name, ret_ty, ret_signed, arg_types, arg_signed = info
        values = []
        for arg_expr, ty in zip(args, arg_types):
            tv = self.adapt(self.expr(arg_expr, _width_of(ty)), ty)
            values.append(tv.value)
        result = self.builder.call(llhd_name, values, ret_ty)
        if ret_ty.is_void:
            return None
        return TypedValue(result, ret_signed)

    def lvalue(self, expr):
        def base_lvalue(node):
            if not isinstance(node, ast.Identifier):
                raise MooreError("unsupported assignment target",
                                 getattr(node, "line", None))
            binding = self.bindings.get(node.name)
            if binding is None or binding[0] == "value":
                raise MooreError(
                    f"cannot assign to {node.name!r} in a function",
                    node.line)
            return _Lvalue("cell", binding[1], [], binding[2])

        return self._resolve_projection(expr, base_lvalue)

    def write_lvalue(self, lvalue, value):
        target = lvalue.base
        for step in lvalue.steps:
            target = self._project_ptr(target, step)
        self.builder.st(target, value.value)

    def drive_lvalue(self, lvalue, value, delay, line):
        raise MooreError("nonblocking assignment inside a function", line)

    def _stmt_ReturnStmt(self, node):
        if node.value is not None:
            value = self.adapt(self.expr(node.value,
                                         _width_of(self.ret_ty)),
                               self.ret_ty)
            self.builder.st(self.ret_cell, value.value)
        dead = self.new_block("postret")
        self.builder.br(self.exit_block)
        self.set_block(dead)
