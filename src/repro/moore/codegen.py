"""Code generation: Moore AST → Behavioural LLHD.

Mapping (section 3 of the paper):

* SystemVerilog modules → LLHD entities (hierarchy, §3.1);
* ``always``/``always_ff``/``always_comb``/``initial`` blocks → LLHD
  processes, instantiated from the entity (§3.2), with edge-sensitive
  lists generating the canonical probe/wait/compare pattern of Figure 5;
* continuous assigns → probe/compute/drive data flow in the entity body;
* functions → LLHD functions;
* parameters and generate-for are elaborated (unrolled) here, as the
  paper prescribes (§3.3) — LLHD itself has no meta-programming layer.

Variable semantics: inside a process, blocking-assigned module signals are
*shadowed* in a stack cell (``var``) initialized from a probe at the top
of each activation; reads go through the shadow, and the accumulated value
is flushed to the signal with a delta-delay drive at each suspension
point.  ``mem2reg`` later promotes the shadows to SSA, which is what makes
Moore-generated processes lowerable by the §4 pipeline.

Width semantics are simplified relative to IEEE 1800: operands widen to
the larger operand (zero- or sign-extended by signedness), assignments
truncate/extend to the target; ``bit`` and ``logic`` both map to ``iN``
(two-valued — the IR's nine-valued ``lN`` remains available through the
builder API).
"""

from __future__ import annotations

from ..ir.builder import Builder
from ..ir.ninevalued import LogicVec
from ..ir.types import (
    array_type, int_type, logic_type, signal_type, void_type,
)
from ..ir.units import Entity, Function, Module, Process
from ..ir.values import TimeValue
from . import ast
from .lexer import MooreSyntaxError
from .parser import parse_source


class MooreError(Exception):
    """Raised on semantic errors during elaboration/codegen."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class TypedValue:
    """An LLHD value plus SystemVerilog signedness."""

    __slots__ = ("value", "signed")

    def __init__(self, value, signed=False):
        self.value = value
        self.signed = signed

    @property
    def width(self):
        return self.value.type.width


def compile_source(source, top=None, module_name="moore", four_state=False):
    """Compile SystemVerilog source text to a Behavioural LLHD module.

    All modules in the source are elaborated with their default
    parameters; parametrized instantiations produce specialized entities
    with mangled names.  ``top`` is accepted for symmetry but elaboration
    is whole-source.

    With ``four_state=True``, every data-typed value lowers to the
    nine-valued ``lN`` type instead of the two-valued ``iN`` — the
    IEEE 1164 simulation mode, where ``'x``/``'z`` literals and unknown
    propagation are live.  Conditions, edge tests, and comparisons
    produce ``i1`` as before (an unknown condition is false).
    """
    tree = parse_source(source)
    generator = CodeGenerator(tree, module_name, four_state=four_state)
    return generator.compile()


class CodeGenerator:
    def __init__(self, tree, module_name="moore", four_state=False):
        self.tree = tree
        self.module = Module(module_name)
        self.module_asts = {m.name: m for m in tree.modules}
        self.four_state = four_state
        self.elaborated = {}   # (name, frozen params) -> entity name
        self._specializations = 0

    def compile(self):
        for module_ast in self.tree.modules:
            self.elaborate(module_ast.name, {})
        return self.module

    def elaborate(self, name, param_overrides):
        """Elaborate a module with parameter overrides; returns entity name."""
        module_ast = self.module_asts.get(name)
        if module_ast is None:
            raise MooreError(f"unknown module {name!r}")
        params = {}
        for parameter in module_ast.parameters:
            if parameter.name in param_overrides:
                params[parameter.name] = param_overrides[parameter.name]
            elif parameter.default is not None:
                params[parameter.name] = _const_eval(parameter.default, {})
            else:
                raise MooreError(
                    f"module {name}: parameter {parameter.name} has no "
                    f"value", parameter.line)
        key = (name, tuple(sorted(params.items())))
        if key in self.elaborated:
            return self.elaborated[key]
        if param_overrides:
            self._specializations += 1
            entity_name = f"{name}__{self._specializations}"
        else:
            entity_name = name
        self.elaborated[key] = entity_name
        ModuleElaborator(self, module_ast, params, entity_name).run()
        return entity_name


def _const_eval(expr, env):
    """Evaluate an elaboration-time constant expression."""
    if isinstance(expr, ast.Number):
        return expr.value
    if isinstance(expr, ast.Identifier):
        if expr.name in env:
            return env[expr.name]
        raise MooreError(f"{expr.name!r} is not an elaboration constant",
                         expr.line)
    if isinstance(expr, ast.Unary):
        value = _const_eval(expr.operand, env)
        if expr.op == "-":
            return -value
        if expr.op == "~":
            return ~value
        if expr.op == "!":
            return int(not value)
        raise MooreError(f"constant unary {expr.op!r} unsupported",
                         expr.line)
    if isinstance(expr, ast.Binary):
        a = _const_eval(expr.lhs, env)
        b = _const_eval(expr.rhs, env)
        ops = {
            "+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
            "/": lambda: a // b, "%": lambda: a % b,
            "<<": lambda: a << b, ">>": lambda: a >> b,
            "<": lambda: int(a < b), "<=": lambda: int(a <= b),
            ">": lambda: int(a > b), ">=": lambda: int(a >= b),
            "==": lambda: int(a == b), "!=": lambda: int(a != b),
            "&": lambda: a & b, "|": lambda: a | b, "^": lambda: a ^ b,
            "&&": lambda: int(bool(a) and bool(b)),
            "||": lambda: int(bool(a) or bool(b)),
        }
        if expr.op not in ops:
            raise MooreError(f"constant binary {expr.op!r} unsupported",
                             expr.line)
        return ops[expr.op]()
    if isinstance(expr, ast.Ternary):
        return (_const_eval(expr.if_true, env)
                if _const_eval(expr.cond, env)
                else _const_eval(expr.if_false, env))
    if isinstance(expr, ast.SystemCall) and expr.name == "$clog2":
        value = _const_eval(expr.args[0], env)
        return max(1, (max(value - 1, 0)).bit_length())
    raise MooreError("expression is not an elaboration constant",
                     getattr(expr, "line", None))


class ModuleElaborator:
    """Elaborates one module (with bound parameters) into an entity."""

    def __init__(self, generator, module_ast, params, entity_name):
        self.generator = generator
        self.module_ast = module_ast
        self.params = dict(params)
        self.four_state = generator.four_state
        self.entity_name = entity_name
        self.signals = {}       # name -> LLHD value of signal type
        self.signal_types = {}  # name -> (element type, signed)
        self.functions = {}     # local name -> llhd function name
        self.entity = None
        self.builder = None
        self._prb_cache = {}
        self._const_cache = {}
        self._process_count = 0

    # -- types ----------------------------------------------------------------

    def data_type(self, width):
        """The scalar data type for ``width`` bits: iN, or lN four-state."""
        return logic_type(width) if self.four_state else int_type(width)

    def lower_type(self, data_type):
        env = self.params
        if data_type is None:
            return self.data_type(1), False
        base_width = 1
        signed = data_type.signed
        if data_type.base in ("int", "integer"):
            base_width = 32
            signed = True
        if data_type.packed is not None:
            msb = _const_eval(data_type.packed[0], env)
            lsb = _const_eval(data_type.packed[1], env)
            base_width = abs(msb - lsb) + 1
        ty = self.data_type(base_width)
        for dim in reversed(data_type.unpacked or []):
            kind, first, second = dim
            if kind == "size":
                length = _const_eval(first, env)
            else:
                hi = _const_eval(first, env)
                lo = _const_eval(second, env)
                length = abs(hi - lo) + 1
            ty = array_type(length, ty)
        return ty, signed

    # -- elaboration -------------------------------------------------------------

    def run(self):
        in_types, in_names, out_types, out_names = [], [], [], []
        port_info = []
        for port in self.module_ast.ports:
            ty, signed = self.lower_type(port.data_type)
            sig_ty = signal_type(ty)
            if port.direction == "input":
                in_types.append(sig_ty)
                in_names.append(port.name)
            else:
                out_types.append(sig_ty)
                out_names.append(port.name)
            port_info.append((port.name, ty, signed))
        self.entity = Entity(self.entity_name, in_types, in_names,
                             out_types, out_names)
        self.generator.module.add(self.entity)
        self.builder = Builder.at_end(self.entity.body)
        in_iter = iter(self.entity.inputs)
        out_iter = iter(self.entity.outputs)
        for port, (name, ty, signed) in zip(self.module_ast.ports,
                                            port_info):
            arg = next(in_iter) if port.direction == "input" \
                else next(out_iter)
            self.signals[name] = arg
            self.signal_types[name] = (ty, signed)
        self._process_items(self.module_ast.items, self.params)

    def _process_items(self, items, env):
        for item in items:
            self._process_item(item, env)

    def _process_item(self, item, env):
        if isinstance(item, ast.Parameter):
            self.params[item.name] = _const_eval(item.default, env)
        elif isinstance(item, ast.NetDecl):
            self._declare_net(item, env)
        elif isinstance(item, ast.ContinuousAssign):
            self._continuous_assign(item)
        elif isinstance(item, ast.AlwaysBlock):
            self._always_block(item)
        elif isinstance(item, ast.FunctionDecl):
            self._function_decl(item)
        elif isinstance(item, ast.Instantiation):
            self._instantiate(item, env)
        elif isinstance(item, ast.GenerateFor):
            self._generate_for(item, env)
        else:
            raise MooreError(f"unsupported module item {type(item).__name__}",
                             getattr(item, "line", None))

    def _declare_net(self, item, env):
        ty, signed = self.lower_type(item.data_type)
        init_value = 0
        if item.init is not None:
            init_value = _const_eval(item.init, env)
        init = self._default_const(ty, init_value)
        sig = self.builder.sig(init, name=item.name)
        self.signals[item.name] = sig
        self.signal_types[item.name] = (ty, signed)

    def _default_const(self, ty, value=0):
        if ty.is_int:
            return self.builder.const_int(ty, value)
        if ty.is_logic:
            return self.builder.const_logic(
                LogicVec.from_int(value, ty.width))
        if ty.is_array:
            element = self._default_const(ty.element, value)
            return self.builder.array_splat(ty.length, element)
        raise MooreError(f"cannot build initial value of type {ty}")

    # -- continuous assigns (entity data flow) -----------------------------------

    def _entity_read(self, name, line=None):
        sig = self.signals.get(name)
        if sig is None:
            if name in self.params:
                return TypedValue(
                    self._default_const(self.data_type(32),
                                        self.params[name]), True)
            raise MooreError(f"unknown identifier {name!r}", line)
        cached = self._prb_cache.get(name)
        if cached is None:
            cached = self.builder.prb(sig, name=f"{name}p")
            self._prb_cache[name] = cached
        signed = self.signal_types[name][1]
        return TypedValue(cached, signed)

    def _continuous_assign(self, item):
        ctx = EntityExprContext(self)
        target, element_ty = self._entity_lvalue(item.target, ctx)
        value = ctx.expr(item.value, width_hint=_width_of(element_ty))
        value = ctx.adapt(value, element_ty)
        delay = self.builder.const_time(
            TimeValue.parse(item.delay.text) if item.delay is not None
            else TimeValue(0))
        self.builder.drv(target, value.value, delay)

    def _entity_lvalue(self, expr, ctx):
        if isinstance(expr, ast.Identifier):
            sig = self.signals.get(expr.name)
            if sig is None:
                raise MooreError(f"unknown signal {expr.name!r}", expr.line)
            return sig, sig.type.element
        if isinstance(expr, ast.Index):
            base, base_ty = self._entity_lvalue(expr.base, ctx)
            index = _try_const(expr.index, self.params)
            if base_ty.is_array:
                if index is not None:
                    proj = self.builder.extf(base, index)
                else:
                    idx = ctx.expr(expr.index)
                    proj = self.builder.extf(base, idx.value)
                return proj, base_ty.element
            if index is None:
                raise MooreError(
                    "dynamic bit-select on assignment targets must be "
                    "constant in continuous assigns", expr.line)
            return self.builder.exts(base, index, 1), int_type(1)
        if isinstance(expr, ast.PartSelect):
            base, base_ty = self._entity_lvalue(expr.base, ctx)
            msb = _const_eval(expr.msb, self.params)
            lsb = _const_eval(expr.lsb, self.params)
            lo, width = min(msb, lsb), abs(msb - lsb) + 1
            proj = self.builder.exts(base, lo, width)
            return proj, proj.type.element
        raise MooreError("unsupported assignment target", expr.line)

    # -- instantiation -----------------------------------------------------------------

    def _instantiate(self, item, env):
        overrides = {}
        child_ast = self.generator.module_asts.get(item.module)
        if child_ast is None:
            raise MooreError(f"unknown module {item.module!r}", item.line)
        param_names = [p.name for p in child_ast.parameters]
        for i, (name, expr) in enumerate(item.param_overrides):
            key = name if name is not None else param_names[i]
            overrides[key] = _const_eval(expr, env)
        entity_name = self.generator.elaborate(item.module, overrides)
        child = self.generator.module.get(entity_name)

        port_names = [p.name for p in child_ast.ports]
        connections = {}
        if item.wildcard:
            for port in port_names:
                if port in self.signals:
                    connections[port] = self.signals[port]
        positional = 0
        for name, expr in item.connections:
            if name == "*":
                for port in port_names:
                    if port not in connections and port in self.signals:
                        connections[port] = self.signals[port]
                continue
            if name is None:
                name = port_names[positional]
                positional += 1
            if expr is None:
                continue
            connections[name] = self._port_signal(expr)
        child_arg_types = {a.name: a.type for a in child.args}
        inputs, outputs = [], []
        for port in child_ast.ports:
            bound = connections.get(port.name)
            if bound is None:
                init = self._default_const(
                    child_arg_types[port.name].element)
                bound = self.builder.sig(
                    init, name=f"{item.name}_{port.name}")
            if port.direction == "input":
                inputs.append(bound)
            else:
                outputs.append(bound)
        self.builder.inst(entity_name, inputs, outputs)

    def _port_signal(self, expr):
        if isinstance(expr, ast.Identifier) and expr.name in self.signals:
            return self.signals[expr.name]
        if isinstance(expr, ast.Index):
            ctx = EntityExprContext(self)
            base = self._port_signal(expr.base)
            index = _try_const(expr.index, self.params)
            if base.type.element.is_array:
                if index is None:
                    idx = ctx.expr(expr.index)
                    return self.builder.extf(base, idx.value)
                return self.builder.extf(base, index)
            if index is None:
                raise MooreError("dynamic port bit-select unsupported",
                                 expr.line)
            return self.builder.exts(base, index, 1)
        if isinstance(expr, ast.PartSelect):
            base = self._port_signal(expr.base)
            msb = _const_eval(expr.msb, self.params)
            lsb = _const_eval(expr.lsb, self.params)
            return self.builder.exts(base, min(msb, lsb),
                                     abs(msb - lsb) + 1)
        if isinstance(expr, (ast.Number, ast.UnbasedUnsized)):
            value = expr.value if isinstance(expr, ast.Number) else (
                0 if expr.fill == "0" else -1)
            width = expr.width if isinstance(expr, ast.Number) \
                and expr.width else 32
            const = self._default_const(self.data_type(width), value)
            return self.builder.sig(const)
        raise MooreError("unsupported port connection expression",
                         getattr(expr, "line", None))

    # -- generate ---------------------------------------------------------------------------

    def _generate_for(self, item, env):
        value = _const_eval(item.init, env)
        iterations = 0
        while True:
            loop_env = dict(env)
            loop_env[item.genvar] = value
            if not _const_eval(item.cond, loop_env):
                break
            iterations += 1
            if iterations > 4096:
                raise MooreError("generate-for exceeds 4096 iterations",
                                 item.line)
            saved = self.params.get(item.genvar)
            self.params[item.genvar] = value
            for sub in item.items:
                if isinstance(sub, ast.Instantiation):
                    sub = ast.Instantiation(
                        module=sub.module, name=f"{sub.name}_{value}",
                        param_overrides=sub.param_overrides,
                        connections=sub.connections,
                        wildcard=sub.wildcard, line=sub.line)
                self._process_item(sub, loop_env)
            if saved is None:
                self.params.pop(item.genvar, None)
            else:
                self.params[item.genvar] = saved
            # Step: evaluate the step statement on the genvar.
            value = self._eval_genvar_step(item.step, item.genvar, value,
                                           loop_env)

    def _eval_genvar_step(self, step, genvar, value, env):
        if isinstance(step, ast.PostIncrement):
            return value + (1 if step.op == "++" else -1)
        if isinstance(step, ast.Assign):
            env = dict(env)
            env[genvar] = value
            if step.op:
                return _const_eval(
                    ast.Binary(op=step.op, lhs=ast.Identifier(name=genvar),
                               rhs=step.value), env)
            return _const_eval(step.value, env)
        raise MooreError("unsupported generate-for step")

    # -- functions --------------------------------------------------------------------------

    def _function_decl(self, item):
        llhd_name = f"{self.entity_name}_{item.name}"
        arg_types = []
        arg_signed = []
        arg_names = []
        for name, data_type in item.args:
            ty, signed = self.lower_type(data_type)
            arg_types.append(ty)
            arg_signed.append(signed)
            arg_names.append(name)
        if item.return_type is not None:
            ret_ty, ret_signed = self.lower_type(item.return_type)
        else:
            ret_ty, ret_signed = void_type(), False
        func = Function(llhd_name, arg_types, arg_names, ret_ty)
        self.generator.module.add(func)
        self.functions[item.name] = (llhd_name, ret_ty, ret_signed,
                                     arg_types, arg_signed)
        from .procgen import FunctionBodyGen

        FunctionBodyGen(self, func, item, ret_ty, ret_signed,
                        arg_signed).run()

    # -- always blocks ------------------------------------------------------------------------

    def _always_block(self, item):
        from .procgen import ProcessBodyGen

        self._process_count += 1
        name = f"{self.entity_name}_{item.kind}_{self._process_count}"
        gen = ProcessBodyGen(self, item, name)
        process, inputs, outputs = gen.run()
        self.generator.module.add(process)
        self.builder.inst(process.name, inputs, outputs)


def _width_of(ty):
    return ty.width if ty.is_int else None


def _try_const(expr, env):
    try:
        return _const_eval(expr, env)
    except MooreError:
        return None


# ------------------------------------------------------------------------------
# Expression contexts
# ------------------------------------------------------------------------------


class ExprContext:
    """Shared expression codegen; subclasses provide identifier access."""

    def __init__(self, elaborator, builder):
        self.elab = elaborator
        self.builder = builder

    # subclass interface -------------------------------------------------------

    def read(self, name, line=None):
        raise NotImplementedError

    def call(self, name, args, line=None):
        raise NotImplementedError

    # helpers ---------------------------------------------------------------------

    def data_type(self, width):
        return self.elab.data_type(width)

    def const(self, width, value, signed=False):
        if self.elab.four_state:
            return TypedValue(self.builder.const_logic(
                LogicVec.from_int(value, width)), signed)
        return TypedValue(
            self.builder.const_int(int_type(width), value), signed)

    def _const_like(self, ty, value):
        """A constant of ``ty``'s kind (iN or lN) with the given value."""
        if ty.is_logic:
            return self.builder.const_logic(
                LogicVec.from_int(value, ty.width))
        return self.builder.const_int(ty, value)

    def _to_logic(self, tv):
        """Lift an i1 truth value into l1 (four-state contexts).

        Comparison and boolean results stay ``i1``; when one feeds a
        nine-valued signal or operand, select between the ``0``/``1``
        logic constants — there is no iN→lN cast instruction.
        """
        if tv.width != 1:
            raise MooreError(
                f"cannot lift i{tv.width} into a nine-valued context")
        zero = self.builder.const_logic("0")
        one = self.builder.const_logic("1")
        choices = self.builder.array([zero, one])
        return TypedValue(self.builder.mux(choices, tv.value), tv.signed)

    def adapt(self, tv, target_ty):
        """Widen/truncate a typed value to an iN/lN target type."""
        if not (target_ty.is_int or target_ty.is_logic):
            return tv
        if target_ty.is_logic and tv.value.type.is_int:
            tv = self._to_logic(tv)
        width = tv.width
        target = target_ty.width
        if width == target:
            return tv
        if width < target:
            if tv.signed:
                return TypedValue(
                    self.builder.sext(tv.value, target_ty), tv.signed)
            return TypedValue(
                self.builder.zext(tv.value, target_ty), tv.signed)
        return TypedValue(
            self.builder.trunc(tv.value, target_ty), tv.signed)

    def to_bool(self, tv):
        """An i1 truth value; unknown nine-valued bits count as false."""
        if tv.value.type.is_logic:
            zero = self._const_like(tv.value.type, 0)
            return self.builder.neq(tv.value, zero)
        if tv.width == 1:
            return tv.value
        zero = self.builder.const_int(tv.value.type, 0)
        return self.builder.neq(tv.value, zero)

    def _unify(self, a, b):
        width = max(a.width, b.width)
        if a.value.type.is_logic or b.value.type.is_logic:
            ty = logic_type(width)  # mixed iN operands are lifted by adapt
        else:
            ty = int_type(width)
        return self.adapt(a, ty), self.adapt(b, ty)

    # main dispatch -----------------------------------------------------------------

    def expr(self, node, width_hint=None):
        method = getattr(self, f"_expr_{type(node).__name__}", None)
        if method is None:
            raise MooreError(
                f"unsupported expression {type(node).__name__}",
                getattr(node, "line", None))
        return method(node, width_hint)

    def _expr_Number(self, node, width_hint):
        width = node.width or width_hint or 32
        # IEEE 1800: unsized decimal literals are signed, based literals
        # (8'hFF etc.) are unsigned.  Signedness decides slt-vs-ult when
        # both comparison operands are signed.
        return self.const(width, node.value, signed=node.width is None)

    def _expr_UnbasedUnsized(self, node, width_hint):
        width = width_hint or 1
        if self.elab.four_state and node.fill in ("x", "z"):
            vec = LogicVec.filled(node.fill.upper(), width)
            return TypedValue(self.builder.const_logic(vec), False)
        value = 0 if node.fill in ("0", "x", "z") else (1 << width) - 1
        return self.const(width, value)

    def _expr_TimeLiteral(self, node, width_hint):
        return TypedValue(
            self.builder.const_time(TimeValue.parse(node.text)), False)

    def _expr_Identifier(self, node, width_hint):
        return self.read(node.name, node.line)

    def _expr_Unary(self, node, width_hint):
        if node.op == "!":
            operand = self.expr(node.operand)
            b = self.to_bool(operand)
            one = self.builder.const_int(int_type(1), 1)
            return TypedValue(self.builder.xor(b, one), False)
        if node.op == "~":
            operand = self.expr(node.operand, width_hint)
            return TypedValue(self.builder.not_(operand.value),
                              operand.signed)
        if node.op == "-":
            operand = self.expr(node.operand, width_hint)
            return TypedValue(self.builder.neg(operand.value), True)
        if node.op in ("&", "|", "^"):
            return self._reduction(node)
        raise MooreError(f"unsupported unary {node.op!r}", node.line)

    def _reduction(self, node):
        operand = self.expr(node.operand)
        width = operand.width
        if node.op == "&":
            ones = self._const_like(operand.value.type, (1 << width) - 1)
            return TypedValue(self.builder.eq(operand.value, ones), False)
        if node.op == "|":
            zero = self._const_like(operand.value.type, 0)
            return TypedValue(self.builder.neq(operand.value, zero), False)
        # ^: parity via xor-fold.
        value = operand.value
        shift = 1
        while shift < width:
            amount = self.builder.const_int(int_type(32), shift)
            value = self.builder.xor(value, self.builder.shr(value, amount))
            shift <<= 1
        bit1 = logic_type(1) if value.type.is_logic else int_type(1)
        return TypedValue(self.builder.trunc(value, bit1)
                          if width > 1 else value, False)

    _CMP = {"<": ("ult", "slt"), ">": ("ugt", "sgt"),
            "<=": ("ule", "sle"), ">=": ("uge", "sge")}

    def _expr_Binary(self, node, width_hint):
        op = node.op
        if op in ("&&", "||"):
            a = self.to_bool(self.expr(node.lhs))
            b = self.to_bool(self.expr(node.rhs))
            method = self.builder.and_ if op == "&&" else self.builder.or_
            return TypedValue(method(a, b), False)
        if op in ("==", "!=", "===", "!=="):
            a, b = self._unify(self.expr(node.lhs), self.expr(node.rhs))
            method = self.builder.eq if op in ("==", "===") \
                else self.builder.neq
            return TypedValue(method(a.value, b.value), False)
        if op in self._CMP:
            a, b = self._unify(self.expr(node.lhs), self.expr(node.rhs))
            signed = a.signed and b.signed
            opcode = self._CMP[op][1 if signed else 0]
            return TypedValue(
                self.builder.compare(opcode, a.value, b.value), False)
        if op in ("<<", ">>", "<<<", ">>>"):
            a = self.expr(node.lhs, width_hint)
            amount = self.expr(node.rhs)
            method = self.builder.shl if op in ("<<", "<<<") \
                else self.builder.shr
            return TypedValue(method(a.value, amount.value), a.signed)
        arith = {"+": "add", "-": "sub", "*": "mul", "&": "and",
                 "|": "or", "^": "xor"}
        if op in arith:
            a, b = self._unify(self.expr(node.lhs, width_hint),
                               self.expr(node.rhs, width_hint))
            signed = a.signed and b.signed
            return TypedValue(
                self.builder.binary(arith[op], a.value, b.value), signed)
        if op in ("/", "%"):
            a, b = self._unify(self.expr(node.lhs, width_hint),
                               self.expr(node.rhs, width_hint))
            signed = a.signed and b.signed
            opcode = {"/": ("udiv", "sdiv"), "%": ("umod", "smod")}[op]
            return TypedValue(
                self.builder.binary(opcode[1 if signed else 0],
                                    a.value, b.value), signed)
        raise MooreError(f"unsupported binary {op!r}", node.line)

    def _expr_Ternary(self, node, width_hint):
        cond = self.to_bool(self.expr(node.cond))
        a = self.expr(node.if_false, width_hint)
        b = self.expr(node.if_true, width_hint)
        a, b = self._unify(a, b)
        choices = self.builder.array([a.value, b.value])
        return TypedValue(self.builder.mux(choices, cond),
                          a.signed and b.signed)

    def _expr_Index(self, node, width_hint):
        base = self.expr(node.base)
        index = _try_const(node.index, self.elab.params)
        if base.value.type.is_array:
            if index is not None:
                return TypedValue(self.builder.extf(base.value, index),
                                  False)
            idx = self.expr(node.index)
            return TypedValue(self.builder.extf(base.value, idx.value),
                              False)
        # Bit select on an integer / logic vector.
        if index is not None:
            return TypedValue(
                self.builder.exts(base.value, index, 1), False)
        idx = self.expr(node.index)
        shifted = self.builder.shr(base.value, idx.value)
        bit1 = logic_type(1) if shifted.type.is_logic else int_type(1)
        return TypedValue(self.builder.trunc(shifted, bit1), False)

    def _expr_PartSelect(self, node, width_hint):
        base = self.expr(node.base)
        msb = _const_eval(node.msb, self.elab.params)
        lsb = _const_eval(node.lsb, self.elab.params)
        lo, width = min(msb, lsb), abs(msb - lsb) + 1
        return TypedValue(self.builder.exts(base.value, lo, width), False)

    def _expr_Concat(self, node, width_hint):
        parts = [self.expr(p) for p in node.parts]
        total = sum(p.width for p in parts)
        ty = self.data_type(total)
        result = None
        offset = total
        for part in parts:
            offset -= part.width
            extended = self.adapt(TypedValue(part.value, False), ty)
            if offset:
                amount = self.builder.const_int(int_type(32), offset)
                shifted = self.builder.shl(extended.value, amount)
            else:
                shifted = extended.value
            result = shifted if result is None \
                else self.builder.or_(result, shifted)
        return TypedValue(result, False)

    def _expr_Replicate(self, node, width_hint):
        count = _const_eval(node.count, self.elab.params)
        value = self.expr(node.value)
        parts = ast.Concat(parts=[node.value] * count, line=node.line)
        if count == 1:
            return value
        return self._expr_Concat(parts, width_hint)

    def _expr_FunctionCall(self, node, width_hint):
        return self.call(node.name, node.args, node.line)

    def _expr_SystemCall(self, node, width_hint):
        if node.name == "$clog2":
            value = _const_eval(node.args[0], self.elab.params)
            return self.const(32, max(1, (max(value - 1, 0)).bit_length()))
        if node.name in ("$signed", "$unsigned"):
            inner = self.expr(node.args[0], width_hint)
            return TypedValue(inner.value, node.name == "$signed")
        if node.name == "$time":
            # Approximation: constant 0 (only used in prints).
            return self.const(64, 0)
        raise MooreError(f"unsupported system call {node.name}", node.line)


class EntityExprContext(ExprContext):
    """Expression evaluation inside an entity body (continuous assigns)."""

    def __init__(self, elaborator):
        super().__init__(elaborator, elaborator.builder)

    def read(self, name, line=None):
        return self.elab._entity_read(name, line)

    def call(self, name, args, line=None):
        info = self.elab.functions.get(name)
        if info is None:
            raise MooreError(f"unknown function {name!r}", line)
        llhd_name, ret_ty, ret_signed, arg_types, arg_signed = info
        values = []
        for arg_expr, ty in zip(args, arg_types):
            tv = self.adapt(self.expr(arg_expr, _width_of(ty)), ty)
            values.append(tv.value)
        result = self.builder.call(llhd_name, values, ret_ty)
        return TypedValue(result, ret_signed)
