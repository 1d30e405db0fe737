"""The LLHD-Blaze analogue: a compiled simulator.

The paper's LLHD-Blaze JIT-compiles LLHD units to LLVM IR and lets LLVM
optimize them for the simulation host.  The pure-Python equivalent here
translates every unit into Python source once, compiles it with
``compile()``, and executes the resulting code objects:

* processes become *generator functions* — ``wait`` is a ``yield`` of the
  subscription request, so resumption is native generator resumption
  instead of interpreting a program counter.  What a block only renames
  costs no line (:func:`~repro.sim.plan.forwarding`, shared with the
  interpreter): a promoted cell lives in a local, a forwarded ``ld`` or
  repeated ``prb`` takes the name of the value it reads, the block
  writes its cells back in one tuple assignment before its terminator,
  and a ``const`` is named by its literal or runtime-constant global;
* entities become *bind-time closures*: a generated ``__bind__`` factory
  receives the instance's resolved signals once, hoists everything
  loop-invariant (constants, static sub-signal projections, pure ops over
  already-bound values) out of the activation path, and returns a
  zero-argument ``__activate__`` closure that is the entity's entire
  re-activation — one straight-line function, no per-activation
  dispatch, with whole-signal probes inlined to ``sig.value`` reads;
* functions become plain Python functions that count their back edges
  against the step budget every engine shares;
* a ``call`` indexes its instance's ``calls`` list, where the callee's
  target is bound once (:meth:`BlazeDesign.call_targets`): a kernel
  intrinsic when the instance binds, a compiled function at its first
  call, so no later call looks its callee up by name.

A known, strong ``lN`` value may stay a plain ``int`` in generated code
(:mod:`repro.sim.optable`); :meth:`UnitCompiler.boxed` boxes it wherever
it leaves the unit.

Aggregate and projection ops without an inline static form (``agg[i]``,
the slice-concat ``insf``) call the interpreter's own functions:
:func:`~repro.sim.eval.extf`, :func:`~repro.sim.eval.insf`,
:func:`~repro.sim.plan.project`, :func:`~repro.sim.plan.load` and
:func:`~repro.sim.plan.store`, over :class:`~repro.sim.plan.Cell` cells.

Elaboration (hierarchy walk, signal creation, unit substitution) is shared
with the reference interpreter.  Each unit is compiled once per design,
or once per batch when the runs of a batch share one compile cache
(:mod:`repro.sim.batch`).  Because ``con`` net merging happens throughout
elaboration, instances defer closure construction to
:meth:`Design.finalize`, which runs once the hierarchy is complete:
bindings are resolved through ``find()`` exactly once, and activations
never chase merged nets again.
Traces are bit-identical with LLHD-Sim by construction and verified by the
integration tests.
"""

from __future__ import annotations

import functools
import io

from ..ir.instructions import Instruction
from ..ir.ninevalued import LogicVec
from ..ir.units import UnitDecl
from ..ir.values import TimeValue
from .engine import Kernel, SignalInstance, SignalRef, net_of
from .eval import EVALUATORS, extf, insf, path_of
from .interp import (
    Design, EntityInstance, ProcessInstance, elaborate_top, steps_exceeded,
)
from .optable import GLOBALS as _TABLE_GLOBALS, UNBOXED, box, edge
from .optable import emit as _emit_op, signature
from .plan import (
    Cell, _Timeout, fired_trigger, forwarding, load, local_rewrites,
    project, store,
)
from .values import (
    SimulationError, dynamic_index, extract_path, insert_path, mask,
)

_EPSILON = TimeValue(0, 0, 1)


# -- runtime helpers referenced by generated code ------------------------------

def _rt_resolve(value):
    """Resolve a binding through ``con`` merging, once, at bind time."""
    if isinstance(value, SignalInstance):
        return value.find()
    if isinstance(value, SignalRef):
        rep = value.signal.find()
        if rep is not value.signal:
            return SignalRef(rep, value.path)
    return value


# The aggregate, projection and trigger rules are the ones the
# interpreter runs.
_BASE_GLOBALS = {
    "Cell": Cell,
    "fired_trigger": fired_trigger,
    "load": load,
    "store": store,
    "project": project,
    "extf": extf,
    "insf": insf,
    "dynamic_index": dynamic_index,
    "_extract": extract_path,
    "_insert": insert_path,
    "_Sig": SignalInstance,
    "LogicVec": LogicVec,
    "TimeValue": TimeValue,
    "SimulationError": SimulationError,
    "steps_exceeded": steps_exceeded,
    **_TABLE_GLOBALS,
}


class _CodeBuffer:
    def __init__(self, indent=0):
        self.out = io.StringIO()
        self.indent = indent

    def line(self, text=""):
        self.out.write("    " * self.indent + text + "\n")

    def source(self):
        return self.out.getvalue()


class UnitCompiler:
    """Compiles one unit into Python source + metadata."""

    def __init__(self, unit):
        self.unit = unit
        self.globals = dict(_BASE_GLOBALS)
        self.names = {}       # id(value) -> python variable name
        self.slots = {}       # id(value) -> binding slot (entities/args)
        self.callees = {}     # callee name -> its index in calls
        self._probe_flags = {}  # id(signal) -> its bound kind-test flag
        self._counter = 0
        self._const_counter = 0
        self.code = _CodeBuffer()
        # Mux/array fusion folds the selector into Python control flow;
        # a process or function keeps its promoted cells as locals.
        self._elided, self._promoted = local_rewrites(unit)

    # -- naming ------------------------------------------------------------

    def name(self, value):
        nm = self.names.get(id(value))
        if nm is None:
            nm = f"v{self._counter}"
            self._counter += 1
            self.names[id(value)] = nm
        return nm

    def runtime_const(self, obj):
        """Bind a non-literal constant object into the code's globals."""
        name = f"K{self._const_counter}"
        self._const_counter += 1
        self.globals[name] = obj
        return name

    def bind_slot(self, value):
        if id(value) not in self.slots:
            self.slots[id(value)] = len(self.slots)
        return self.slots[id(value)]

    # -- expressions ----------------------------------------------------------

    def boxed(self, value):
        """``value``'s name, as a LogicVec if it is an ``lN`` value an op
        may have left unboxed: for a drive, cell, aggregate or call."""
        if self.may_be_int(value):
            return box(self.name(value), value.type.width)
        return self.name(value)

    def may_be_int(self, value):
        """Whether ``value`` may be an int standing for an ``lN`` value: a
        table entry's unboxed result, or a phi, ``ld`` or fused mux
        passing one on."""
        if not value.type.is_logic or not isinstance(value, Instruction):
            return False
        op, ops = value.opcode, value.operands
        if op == "mux" and id(ops[0]) in self._elided:
            return any(self.may_be_int(o) for o in ops[0].operands)
        return op in ("phi", "ld") or \
            (op, signature([o.type for o in ops])) in UNBOXED

    def const_expr(self, inst):
        value = inst.attrs["value"]
        if isinstance(value, int):
            return repr(value)
        return self.runtime_const(value)

    def expr(self, inst):
        """RHS Python expression for a pure instruction."""
        op = inst.opcode
        ops = inst.operands
        n = self.name

        if op == "const":
            return self.const_expr(inst)
        if op == "array":
            if inst.attrs.get("splat"):
                return f"({self.boxed(ops[0])},) * {inst.type.length}"
            return self._tuple(ops)
        if op == "struct":
            return self._tuple(ops)
        if op == "extf":
            return self._extf_expr(inst)
        if op == "insf":
            return self._insf_expr(inst)
        if op == "exts" and not (ops[0].type.is_int or ops[0].type.is_logic):
            return self._exts_expr(inst)
        if op == "inss":
            return self._inss_expr(inst)
        if op == "mux":
            if id(ops[0]) in self._elided:
                f_val, t_val = ops[0].operands
                return f"({n(t_val)} if {n(ops[1])} else {n(f_val)})"
            if ops[0].type.length == 2 and ops[1].type.is_int and \
                    ops[1].type.width == 1:
                # i1 selector over two choices needs no clamping.
                return f"{n(ops[0])}[{n(ops[1])}]"
        # Every other pure op is one (opcode, value class) table entry.
        return _emit_op(op, [n(o) for o in ops], [o.type for o in ops],
                        inst.type, inst.attrs.get("offset"))

    def _tuple(self, values):
        """A tuple display of ``values``, boxed."""
        tail = "," if len(values) == 1 else ""
        return f"({', '.join(self.boxed(v) for v in values)}{tail})"

    def _extf_expr(self, inst):
        base = inst.operands[0]
        n = self.name
        index = inst.attrs.get("index")
        if base.type.is_signal or base.type.is_pointer:
            if index is None:
                index = f"dynamic_index({n(inst.operands[1])})"
            return f"project({n(base)}, ('field', {index}))"
        if index is not None:
            return f"{n(base)}[{index}]"
        return f"extf({n(base)}, {n(inst.operands[1])})"

    def _insf_expr(self, inst):
        agg, value = inst.operands[0], inst.operands[1]
        n = self.name
        index = inst.attrs.get("index")
        if index is not None:
            return (f"{n(agg)}[:{index}] + ({self.boxed(value)},) + "
                    f"{n(agg)}[{index + 1}:]")
        return (f"insf({n(agg)}, {self.boxed(value)}, "
                f"{n(inst.operands[2])})")

    def _exts_expr(self, inst):
        base = inst.operands[0]
        step = path_of(inst)
        if base.type.is_signal or base.type.is_pointer:
            return f"project({self.name(base)}, {step!r})"
        return f"_extract({self.name(base)}, ({step!r},))"   # an array

    def _inss_expr(self, inst):
        base, value = inst.operands[0], inst.operands[1]
        n = self.name
        offset = inst.attrs["offset"]
        length = inst.attrs["length"]
        if base.type.is_int:
            m = mask(length)
            return (f"(({n(base)} & {hex(~(m << offset) & mask(base.type.width))}) "
                    f"| (({n(value)} & {hex(m)}) << {offset}))")
        return (f"_insert({self.boxed(base)}, ({path_of(inst)!r},), "
                f"{self.boxed(value)})")

    def probe_expr(self, inst):
        """Inline probe: direct ``.value`` read for whole signals, tested
        by the bound flag of a signal bound once, else where it runs."""
        src = inst.operands[0]
        s = self.name(src)
        test = self._probe_flags.get(id(src)) or f"type({s}) is _Sig"
        return f"({s}.value if {test} else probe({s}))"

    def _call_expr(self, inst):
        """A call of the target bound for its callee, one slot of the
        instance's ``calls`` (:meth:`BlazeDesign.call_targets`)."""
        k = self.callees.setdefault(inst.callee, len(self.callees))
        return f"calls[{k}]({self._tuple(inst.operands)})"


class ProcessCompiler(UnitCompiler):
    """Compile a process (or function) body into a Python function.

    ``var``/``alloc`` cells whose pointer never escapes
    (:func:`~repro.sim.plan.local_rewrites`) are plain Python locals —
    the mem2reg optimization LLVM would perform for the paper's Blaze —
    and :func:`~repro.sim.plan.forwarding` decides which instructions
    only rename a value: such a ``var``/``alloc``/``st``, or an ``ld``
    or repeated ``prb`` that is forwarded, costs no line, because the
    forwarded value takes the name of what it reads.  A block writes
    back the cells it wrote, where a later block reads them, with one
    tuple assignment before its terminator.  A ``const`` is named by its
    literal, or by the runtime-constant global that holds it.  A probed
    argument's signal kind is tested once, when the unit starts, as
    :class:`EntityCompiler` tests it at bind time.
    """

    def compile(self):
        """The unit as one ``while True`` loop dispatching on the block
        index ``_b``: a generator for a process, a plain function for a
        function.  A function's every back edge spends one of its
        ``left`` steps (:attr:`~repro.sim.interp.Design.MAX_FUNCTION_STEPS`).
        """
        unit = self.unit
        code = self.code
        forwards, self._copies, self._flushes, dropped = forwarding(
            unit, self._promoted)
        self._skip = self._elided | dropped
        probed = set()
        for inst in unit.instructions():
            op = inst.opcode
            if op == "const":
                self.names[id(inst)] = self.const_expr(inst)
            elif op == "prb":
                probed.add(id(inst.operands[0]))
        for key, value in forwards.items():
            self.names[key] = self.name(value)
        block_index = {id(b): i for i, b in enumerate(unit.blocks)}
        if unit.is_process:
            symbol = "__process__"
            code.line("def __process__(B, probe, drive, calls):")
            code.indent += 1
            # A process without wait would otherwise compile to a plain
            # function; force generator semantics so the kernel drives it.
            code.line("if 0: yield (None, ())")
        else:
            symbol = "__function__"
            code.line("def __function__(calls, left, B):")
            code.indent += 1
        for arg in unit.args:
            slot = self.bind_slot(arg)
            name = self.name(arg)
            code.line(f"{name} = B[{slot}]")
            if id(arg) in probed:
                # A probed argument's kind is tested once, at the start.
                flag = self._probe_flags[id(arg)] = f"w_{name}"
                code.line(f"{flag} = type({name}) is _Sig")
        code.line("_b = 0")
        code.line("while True:")
        code.indent += 1
        for i, block in enumerate(unit.blocks):
            if not block.instructions or \
                    not block.instructions[-1].is_terminator:
                raise SimulationError(
                    f"@{unit.name}: block without terminator")
            code.line(f"{'if' if i == 0 else 'elif'} _b == {i}:")
            code.indent += 1
            self._emit_block(block, block_index)
            code.indent -= 1
        code.indent -= 2
        return self._finish(symbol)

    def _finish(self, symbol):
        source = self.code.source()
        namespace = dict(self.globals)
        exec(compile(source, f"<blaze:{self.unit.name}>", "exec"), namespace)
        return CompiledUnit(self.unit, source, namespace[symbol],
                            self.slots, self.callees)

    def _emit_block(self, block, block_index):
        code = self.code
        n = self.name
        for inst in block.instructions:
            op = inst.opcode
            if op in ("phi", "const", "free") or id(inst) in self._skip:
                # Phis are copied at the branch edges, constants named by
                # their literal, and a fused array is folded into its mux.
                continue
            if op == "drv":
                cond = inst.drv_condition()
                prefix = f"if {n(cond)}: " if cond is not None else ""
                code.line(
                    f"{prefix}drive({n(inst.drv_signal())}, "
                    f"{self.boxed(inst.drv_value())}, "
                    f"{n(inst.drv_delay())})")
            elif op == "prb":
                code.line(f"{n(inst)} = {self.probe_expr(inst)}")
            elif op == "var" or op == "alloc":
                code.line(
                    f"{n(inst)} = Cell({self.boxed(inst.operands[0])})")
            elif op == "ld":
                source = self._copies.get(id(inst))
                if source is not None:
                    code.line(f"{n(inst)} = {n(source)}")
                else:
                    code.line(f"{n(inst)} = load({n(inst.operands[0])})")
            elif op == "st":
                code.line(f"store({n(inst.operands[0])}, "
                          f"{self.boxed(inst.operands[1])})")
            elif op == "sig":
                raise SimulationError(
                    "blaze: sig inside processes is not supported; "
                    "declare signals in the enclosing entity")
            elif op == "call":
                target = self._call_expr(inst)
                if inst.type.is_void:
                    code.line(target)
                else:
                    code.line(f"{n(inst)} = {target}")
            elif inst.is_terminator:
                self._emit_flush(block)
                if op == "br":
                    self._emit_branch(inst, block, block_index)
                elif op == "wait":
                    self._emit_wait(inst, block, block_index)
                elif op == "halt":
                    code.line("return")
                elif inst.operands:
                    code.line(f"return {self.boxed(inst.operands[0])}")
                else:
                    code.line("return None")
            else:
                code.line(f"{n(inst)} = {self.expr(inst)}")

    def _emit_flush(self, block):
        """The block's write-back of the cells it wrote, in parallel."""
        pairs = self._flushes.get(id(block))
        if pairs:
            n = self.name
            self.code.line(f"{', '.join(n(cell) for cell, _ in pairs)} = "
                           f"{', '.join(n(value) for _, value in pairs)}")

    def _phi_copies(self, target, pred):
        """Emit the parallel copies for jumping pred -> target."""
        phis = target.phis()
        if not phis:
            return
        n = self.name
        sources = [n(phi.phi_value_for(pred)) for phi in phis]
        if len(phis) == 1:
            self.code.line(f"{n(phis[0])} = {sources[0]}")
            return
        temps = ", ".join(sources)
        dests = ", ".join(n(phi) for phi in phis)
        self.code.line(f"{dests} = {temps}")

    def _emit_branch(self, inst, block, block_index):
        if not inst.is_conditional_branch:
            return self._jump(inst.operands[0], block, block_index)
        cond, f_dest, t_dest = inst.operands
        for head, dest in ((f"if {self.name(cond)}:", t_dest),
                           ("else:", f_dest)):
            self.code.line(head)
            self.code.indent += 1
            self._jump(dest, block, block_index)
            self.code.indent -= 1

    def _jump(self, dest, block, block_index):
        """Phi copies and the jump; a function's back edge takes a step."""
        self._phi_copies(dest, block)
        target = block_index[id(dest)]
        if not self.unit.is_process and target <= block_index[id(block)]:
            self.code.line("left -= 1")
            self.code.line(
                f"if left < 0: raise steps_exceeded({self.unit.name!r})")
        self.code.line(f"_b = {target}")
        self.code.line("continue")

    def _emit_wait(self, inst, block, block_index):
        n = self.name
        time_op = inst.wait_time()
        timeout = n(time_op) if time_op is not None else "None"
        signals = inst.wait_signals()
        sig_tuple = ", ".join(n(s) for s in signals)
        tail = "," if len(signals) == 1 else ""
        self.code.line(f"yield ({timeout}, ({sig_tuple}{tail}))")
        self._jump(inst.wait_dest(), block, block_index)


class EntityCompiler(UnitCompiler):
    """Compile an entity body into a bind-time closure factory.

    The generated ``__bind__(B, S, ...)`` runs once per instance (after
    the hierarchy is fully elaborated): it unpacks the binding tuple,
    evaluates every hoistable instruction — constants, static sub-signal
    projections, pure ops whose operands are all bound — and returns the
    ``__activate__`` closure holding only the per-activation work.
    """

    def compile_entity(self):
        unit = self.unit
        # Reserve binding slots for args and persistent values first.
        for arg in unit.args:
            self.bind_slot(arg)
        for inst in unit.body:
            if inst.opcode in ("sig", "del"):
                self.bind_slot(inst)
        bind = _CodeBuffer(indent=1)
        activate = _CodeBuffer(indent=2)
        bound = set()
        for arg in unit.args:
            bind.line(f"{self.name(arg)} = B[{self.slots[id(arg)]}]")
            bound.add(id(arg))
        emitted = False
        for inst in unit.body:
            op = inst.opcode
            if op in ("inst", "con"):
                continue
            if id(inst) in self._elided:
                # Fused into its consuming mux; usable at bind time when
                # its own operands are.
                if all(id(o) in bound for o in inst.operands):
                    bound.add(id(inst))
                continue
            n = self.name
            if op == "sig":
                bind.line(f"{n(inst)} = B[{self.slots[id(inst)]}]")
                bound.add(id(inst))
                continue
            if op == "del":
                bind.line(f"{n(inst)} = B[{self.slots[id(inst)]}]")
                bound.add(id(inst))
                src = n(inst.operands[0])
                flag = self._probe_flag(bind, inst.operands[0], bound)
                value = (f"({src}.value if {flag} else probe({src}))"
                         if flag else f"probe({src})")
                activate.line(
                    f"drive_del({id(inst)}, {n(inst)}, {value}, "
                    f"{n(inst.operands[1])})")
                emitted = True
                continue
            # A pure op (an evaluator table opcode) over bound values
            # runs once, at bind time.
            if op in EVALUATORS and \
                    all(id(o) in bound for o in inst.operands):
                self.code = bind
                bind.line(f"{n(inst)} = {self.expr(inst)}")
                bound.add(id(inst))
                continue
            emitted = True
            self.code = activate
            if op == "prb":
                src_op = inst.operands[0]
                flag = self._probe_flag(bind, src_op, bound)
                src = n(src_op)
                if flag:
                    activate.line(
                        f"{n(inst)} = {src}.value if {flag} "
                        f"else probe({src})")
                else:
                    activate.line(f"{n(inst)} = probe({src})")
            elif op == "drv":
                cond = inst.drv_condition()
                prefix = f"if {n(cond)}: " if cond is not None else ""
                activate.line(
                    f"{prefix}drive({n(inst.drv_signal())}, "
                    f"{self.boxed(inst.drv_value())}, "
                    f"{n(inst.drv_delay())})")
            elif op == "reg":
                self._emit_reg(inst)
            elif op == "call":
                target = self._call_expr(inst)
                if inst.type.is_void:
                    activate.line(target)
                else:
                    activate.line(f"{n(inst)} = {target}")
            else:
                activate.line(f"{n(inst)} = {self.expr(inst)}")
        if not emitted:
            activate.line("pass")
        out = _CodeBuffer()
        out.line("def __bind__(B, S, probe, drive, drive_del, drive_reg, "
                 "calls):")
        out.out.write(bind.source())
        out.out.write("    def __activate__():\n")
        out.out.write(activate.source())
        out.out.write("    return __activate__\n")
        source = out.source()
        namespace = dict(self.globals)
        exec(compile(source, f"<blaze:{unit.name}>", "exec"), namespace)
        return CompiledUnit(unit, source, namespace["__bind__"],
                            self.slots, self.callees)

    def _probe_flag(self, bind, operand, bound):
        """A bind-time ``type(x) is _Sig`` flag for a bound signal value."""
        if id(operand) not in bound:
            return None
        flag = self._probe_flags.get(id(operand))
        if flag is None:
            src = self.name(operand)
            flag = f"w_{src}"
            bind.line(f"{flag} = type({src}) is _Sig")
            self._probe_flags[id(operand)] = flag
        return flag

    def _emit_reg(self, inst):
        """One :func:`~repro.sim.plan.fired_trigger` call over a tuple of
        the activation's values; ``S`` maps the reg to the instance's
        ``reg_state`` list of previous trigger values."""
        n = self.name
        eps = self.runtime_const(_EPSILON)
        values, triggers = [], []
        for t in inst.reg_triggers():
            data = len(values)
            values += [self.boxed(t["value"]), n(t["trigger"])]
            cond = None
            if t["cond"] is not None:
                cond = len(values)
                values.append(n(t["cond"]))
            values.append(n(t["delay"]) if t["delay"] is not None else eps)
            triggers.append((edge(t["mode"], t["trigger"].type), data,
                             data + 1, cond, len(values) - 1))
        key = id(inst)
        trigs = self.runtime_const(tuple(triggers))
        self.code.line(f"_r = ({', '.join(values)},)")
        self.code.line(f"_h = fired_trigger({trigs}, S[{key}], _r)")
        self.code.line(f"if _h is not None: drive_reg({key}, "
                       f"{n(inst.reg_signal())}, _r[_h[1]], _r[_h[4]])")


class CompiledUnit:
    """A unit compiled to a Python callable, plus its metadata."""

    def __init__(self, unit, source, fn, slots, callees):
        self.unit = unit
        self.source = source
        self.fn = fn
        self.slots = slots
        self.callees = tuple(callees)


def _activate_nothing():
    """The activation of an entity with nothing to run."""


#: What an entity whose body is only ``sig``, ``inst``, ``con`` and pure
#: ops (a netlist's containers) compiles to: no source, no bindings, and
#: the one shared no-op activation.  Its elaboration already evaluated
#: every instruction, so there is nothing to hoist either.
NOTHING_TO_RUN = CompiledUnit(None, None, lambda *_: _activate_nothing,
                              {}, ())


def _runs_nothing(unit):
    return all(inst.opcode in EVALUATORS or
               inst.opcode in ("sig", "inst", "con") for inst in unit.body)


class BlazeDesign(Design):
    """A Design with per-unit compilation caches.

    ``compile_cache`` (``id(unit)`` -> :class:`CompiledUnit`) may be
    shared by several designs of one module, such as the runs of a
    batch, so each unit is compiled once for all of them.
    """

    def __init__(self, module, top, kernel, units=None, compile_cache=None):
        super().__init__(module, top, kernel, units)
        self._compiled = {} if compile_cache is None else compile_cache
        self._functions = {}

    def compiled(self, unit):
        cu = self._compiled.get(id(unit))
        if cu is None:
            if not unit.is_entity:
                cu = ProcessCompiler(unit).compile()
            elif _runs_nothing(unit):
                cu = NOTHING_TO_RUN
            else:
                cu = EntityCompiler(unit).compile_entity()
            self._compiled[id(unit)] = cu
        return cu

    def call_targets(self, names, where):
        """The ``calls`` list of one instance of a compiled unit: one
        target per callee in ``names``, each taking the call's argument
        tuple and bound once.

        An intrinsic's target reports ``where``, the same ``in <instance
        path>`` the interpreter does (assertion messages).  A function's
        slot holds :meth:`_first_call` until the first call, which puts
        the function's target there; so a function compiles when it is
        first called, as on interp, and a callee without a body raises
        only when a call runs.
        """
        calls = []
        for k, name in enumerate(names):
            if name.startswith("llhd."):
                calls.append(functools.partial(self.kernel.intrinsic, name,
                                               where=where))
            else:
                calls.append(functools.partial(self._first_call, calls, k,
                                               name))
        return calls

    def _first_call(self, calls, k, name, args):
        """Bind slot ``k`` of ``calls`` to function ``@name`` and call it.

        A function's target is built once per design: its compiled body
        with a ``calls`` list of its own, whose intrinsics report ``in
        @name`` as the interpreter's function frames do."""
        target = self._functions.get(name)
        if target is None:
            unit = self.module.get(name)
            if unit is None or isinstance(unit, UnitDecl):
                raise SimulationError(f"call to undefined function @{name}")
            cu = self.compiled(unit)
            target = self._functions[name] = functools.partial(
                cu.fn, self.call_targets(cu.callees, f"in @{name}"),
                self.MAX_FUNCTION_STEPS)
        calls[k] = target
        return target(args)


class BlazeProcessInstance(ProcessInstance):
    """A process running as a compiled generator.

    The generator is created at bind time (after full elaboration) so
    its signal bindings are resolved through ``con`` merging once.  A
    wait yields its timeout and signal tuple; the tuple is compared with
    the last wait's before any of it is resolved to nets.
    """

    def __init__(self, design, unit, path, port_map):
        self._gen = None
        self._signals = ()
        super().__init__(design, unit, path, port_map)

    def bind(self):
        design = self.design
        cu = design.compiled(self.unit)
        bindings = [None] * len(cu.slots)
        for arg in self.unit.args:
            bindings[cu.slots[id(arg)]] = _rt_resolve(self.env[id(arg)])
        kernel = design.kernel
        self._gen = cu.fn(
            tuple(bindings), kernel.probe,
            functools.partial(kernel.schedule_drive, self.order),
            design.call_targets(cu.callees, f"in {self.path}"))

    def run(self, kernel):
        status = self.status
        if status == "waiting":
            self.wait_token += 1
        elif status != "ready":
            return
        try:
            timeout, signals = self._gen.send(None)
        except StopIteration:
            self.halt()
            return
        self.status = "waiting"
        if signals != self._signals:
            self._signals = signals
            self.resubscribe(tuple(map(net_of, signals)))
        if timeout is not None:
            kernel.schedule_resume(_Timeout(self, self.wait_token), timeout)


class BlazeEntityInstance(EntityInstance):
    """An entity whose re-activation is one compiled closure.

    Initial elaboration (signal creation, hierarchy, sensitivity) is
    inherited from the interpreter; :meth:`bind` then resolves the
    bindings and asks the compiled ``__bind__`` factory for the
    activation closure.  Binding is deferred to ``Design.finalize`` so
    every ``con`` merge in the hierarchy has already happened.
    """

    def __init__(self, design, unit, path, port_map):
        self._activate = None
        super().__init__(design, unit, path, port_map)

    def bind(self):
        design = self.design
        cu = design.compiled(self.unit)
        bindings = [None] * len(cu.slots)
        for key, slot in cu.slots.items():
            bindings[slot] = _rt_resolve(self.env[key])
        kernel = design.kernel
        order = self.order
        drive = functools.partial(kernel.schedule_drive, order)

        def drive_del(key, sig, value, delay):
            kernel.schedule_drive(("del", order, key), sig, value, delay)

        def drive_reg(key, sig, value, delay):
            kernel.schedule_drive(("reg", order, key), sig, value, delay)

        self._activate = cu.fn(
            bindings, self.reg_state, kernel.probe, drive, drive_del,
            drive_reg, design.call_targets(cu.callees, f"in {self.path}"))

    def run(self, kernel):
        fn = self._activate
        if fn is None:
            self.bind()
            fn = self._activate
        fn()


BlazeDesign.entity_class = BlazeEntityInstance
BlazeDesign.process_class = BlazeProcessInstance


def elaborate_compiled(module, top, kernel=None, units=None,
                       compile_cache=None):
    """Elaborate ``module`` for compiled (Blaze) execution.

    ``units`` maps a unit name to the unit instantiated in its place;
    ``compile_cache`` is a :class:`BlazeDesign` compile cache to share.
    """
    if kernel is None:
        kernel = Kernel()
    return elaborate_top(BlazeDesign, module, top, kernel, units=units,
                         compile_cache=compile_cache)
