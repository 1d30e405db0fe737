"""LLHD-Sim: the reference interpreter.

The simplest simulator of the LLHD instruction set (paper, section 6.1):
units are executed by walking their instructions, and values flow
through an environment dict, one instruction at a time.  The walk is
*predecoded*: each unit is lowered once into a plan of per-instruction
step closures (:mod:`repro.sim.plan`).  Each pure op's step is built
from its entry in the opcode table the compiled engines emit from
(:mod:`repro.sim.optable`), so interp and blaze share one definition of
every op, and :mod:`repro.sim.eval` stays the spec both are tested
against (and what the elaboration walk below evaluates with).
Projections, ``ld``/``st`` and dynamic ``extf``/``insf`` indices call
the functions of :mod:`repro.sim.plan` and :mod:`repro.sim.eval` that
every engine calls.  A process or function's constants are seeded
into its environment once instead of running as steps.  The compiled
simulator (:mod:`repro.sim.blaze`) shares this module's elaboration and
the kernel, and replaces the instruction walk with generated Python
code.

Elaboration instantiates the design hierarchy: every ``sig`` becomes a
:class:`~repro.sim.engine.SignalInstance`, every ``inst`` recursively
instantiates the child unit with its ports bound, processes become
suspended control-flow activities, and entity bodies are evaluated once
(their "execute all instructions at initialization" semantics) while
registering data-flow sensitivity for re-execution.  A unit-substitution
map instantiates a replacement unit wherever the design instantiates the
unit of that name; batch runs (:mod:`repro.sim.batch`) use it to swap in
their own stimulus process.
"""

from __future__ import annotations

from ..ir.units import UnitDecl
from .engine import Kernel, SignalRef
from .eval import EVALUATORS, evaluate, path_of
from .plan import (
    _Timeout, build_entity_plan, build_function_plan, build_process_plan,
    project,
)
from .values import SimulationError, default_value, dynamic_index


class Design:
    """An elaborated design bound to a kernel."""

    # Instance classes used by elaboration; BlazeDesign swaps these for
    # the compiled variants (assigned after the classes are defined).
    entity_class = None
    process_class = None
    #: The step budget of one function call on every engine.  A step is
    #: a taken back edge: a branch to a block at or before the branching
    #: one in layout order, so straight-line code pays nothing.
    MAX_FUNCTION_STEPS = 2_000_000

    def __init__(self, module, top, kernel, units=None):
        self.module = module
        self.top = top
        self.kernel = kernel
        # Unit name -> the unit instantiated in its place.
        self.units = units or {}
        self.activities = []
        self.signal_by_name = {}
        self._order = 0
        self._proc_plans = {}     # id(unit) -> (entry, constants)
        self._entity_plans = {}   # id(unit) -> tuple of steps
        self._func_plans = {}     # id(unit) -> (entry, constants)

    def next_order(self):
        self._order += 1
        return self._order

    def create_signal(self, name, type, initial):
        sig = self.kernel.create_signal(name, type, initial)
        self.signal_by_name[name] = sig
        return sig

    def signal(self, name):
        """Look up a signal by hierarchical name (e.g. ``"top.clk"``)."""
        return self.signal_by_name[name]

    def proc_plan(self, unit):
        """The predecoded plan for a process unit (built once per unit):
        ``(entry BlockPlan, hoisted constants)``."""
        plan = self._proc_plans.get(id(unit))
        if plan is None:
            plan = self._proc_plans[id(unit)] = build_process_plan(
                unit, self.kernel)
        return plan

    def entity_plan(self, unit):
        """The predecoded re-activation steps for an entity unit."""
        plan = self._entity_plans.get(id(unit))
        if plan is None:
            plan = self._entity_plans[id(unit)] = build_entity_plan(
                unit, self.kernel)
        return plan

    def function_plan(self, unit):
        """The predecoded plan for a function unit, as :meth:`proc_plan`."""
        plan = self._func_plans.get(id(unit))
        if plan is None:
            plan = self._func_plans[id(unit)] = build_function_plan(
                unit, self.kernel)
        return plan

    def finalize(self):
        """Hook called when the hierarchy is fully elaborated."""
        labels = self.kernel.driver_labels
        for activity in self.activities:
            path = getattr(activity, "path", None)
            if path is not None:
                labels[activity.order] = path
            bind = getattr(activity, "bind", None)
            if bind is not None:
                bind()


def elaborate(module, top, kernel=None, units=None):
    """Elaborate ``module`` starting at entity ``top``; returns a Design.

    ``units`` maps a unit name to the unit instantiated in its place.
    """
    if kernel is None:
        kernel = Kernel()
    return elaborate_top(Design, module, top, kernel, units=units)


def elaborate_top(design_class, module, top, kernel, **options):
    """Instantiate entity ``top`` as a ``design_class`` design bound to
    ``kernel``: top-level port signals, the hierarchy, then the design's
    :meth:`~Design.finalize` hook."""
    unit = module.get(top)
    if unit is None or isinstance(unit, UnitDecl):
        raise SimulationError(f"top unit @{top} is not defined")
    if not unit.is_entity:
        raise SimulationError(f"top unit @{top} must be an entity")
    design = design_class(module, unit, kernel, **options)
    ports = {}
    for arg in unit.args:
        ports[id(arg)] = design.create_signal(
            f"{top}.{arg.name}", arg.type, default_value(arg.type.element))
    design.entity_class(design, unit, top, ports)
    design.finalize()
    return design


class _FunctionFrame:
    """One function invocation: the activity context for plan steps."""

    __slots__ = ("functions", "path", "design", "result")

    def __init__(self, functions, path, design):
        self.functions = functions
        self.path = path
        self.design = design
        self.result = None


def steps_exceeded(name):
    """The error a call of function ``@name`` raises past its budget."""
    return SimulationError(
        f"@{name}: function execution exceeded "
        f"{Design.MAX_FUNCTION_STEPS} steps")


class _FunctionInterpreter:
    """Immediate (zero-time) execution of a function body."""

    def __init__(self, design, kernel):
        self.design = design
        self.kernel = kernel

    def call(self, name, args, where=""):
        if name.startswith("llhd."):
            return self.kernel.intrinsic(name, args, where)
        design = self.design
        func = design.module.get(name)
        if func is None or isinstance(func, UnitDecl):
            raise SimulationError(f"call to undefined function @{name}")
        bp, consts = design.function_plan(func)
        env = dict(consts)
        for arg, value in zip(func.args, args):
            env[id(arg)] = value
        frame = _FunctionFrame(self, f"@{name}", design)
        left = design.MAX_FUNCTION_STEPS
        while bp is not None:
            for step in bp.steps:
                step(env, frame)
            successor = bp.term(env, frame)
            if successor is not None and successor.index <= bp.index:
                left -= 1
                if left < 0:
                    raise steps_exceeded(name)
            bp = successor
        return frame.result


class ProcessInstance:
    """One elaborated process: a suspended control-flow activity.

    A process stays registered on the nets of its last wait
    (:meth:`resubscribe`), and a wake of any kind bumps ``wait_token``,
    which makes the pending timeout of the wait it left stale.
    """

    def __init__(self, design, unit, path, port_map):
        self.design = design
        self.unit = unit
        self.path = path
        self.order = design.next_order()
        self.env = dict(port_map)  # id(value) -> runtime value
        self.status = "ready"
        self.wait_token = 0
        self.subscribed = ()       # the nets of the last wait
        self._bp = None            # current BlockPlan (predecoded)
        self.functions = _FunctionInterpreter(design, design.kernel)
        design.activities.append(self)
        design.kernel.schedule_initial(self)

    # -- activity interface ----------------------------------------------------

    def run(self, kernel):
        status = self.status
        if status == "waiting":
            self.wait_token += 1
        elif status != "ready":
            return
        self._execute(kernel)

    def resubscribe(self, nets):
        """Wait on ``nets`` (resolved nets): registrations change only
        when they differ from the last wait's."""
        old = self.subscribed
        if nets != old:
            order = self.order
            for sig in old:
                sig.proc_waiters.pop(order, None)
            for sig in nets:
                sig.proc_waiters[order] = self
            self.subscribed = nets

    def halt(self):
        self.status = "halted"
        self.resubscribe(())

    # -- execution ----------------------------------------------------------------

    def _execute(self, kernel):
        bp = self._bp
        env = self.env
        if bp is None:
            bp, consts = self.design.proc_plan(self.unit)
            env.update(consts)
        while bp is not None:
            for step in bp.steps:
                step(env, self)
            bp = bp.term(env, self)


def _signal_and_path(target):
    if isinstance(target, SignalRef):
        return target.signal, target.path
    return target, ()


class EntityInstance:
    """One elaborated entity: a data-flow activity.

    The body is executed once at elaboration (creating signals, recursing
    into ``inst``), and re-executed whenever an observed signal changes.
    Re-execution walks the predecoded entity plan.
    """

    def __init__(self, design, unit, path, port_map):
        self.design = design
        self.unit = unit
        self.path = path
        self.order = design.next_order()
        self.env = dict(port_map)
        self.reg_state = {}  # id(reg inst) -> [prev trigger values]
        self.functions = _FunctionInterpreter(design, design.kernel)
        self._observed = {}
        self._plan = None
        design.activities.append(self)
        self._initial_eval()

    def _observe(self, target):
        sig, _ = _signal_and_path(target)
        sig = sig.find()
        if id(sig) not in self._observed:
            self._observed[id(sig)] = sig
            self.design.kernel.add_entity_waiter(sig, self)

    def _initial_eval(self):
        kernel = self.design.kernel
        env = self.env
        # Unnamed nets (techmap-generated cell outputs) get a
        # deterministic body-positional fallback name — the same
        # convention repro.lint uses, so static and dynamic reports
        # line up and trace comparisons never depend on heap addresses.
        for position, inst in enumerate(self.unit.body):
            op = inst.opcode
            if op == "sig":
                env[id(inst)] = self.design.create_signal(
                    f"{self.path}.{inst.name or f'%{position}'}",
                    inst.type, env[id(inst.operands[0])])
            elif op == "inst":
                self._instantiate(inst)
            elif op == "con":
                a = env[id(inst.operands[0])]
                b = env[id(inst.operands[1])]
                _connect(a, b)
            elif op == "del":
                source = env[id(inst.operands[0])]
                init = kernel.probe(source)
                env[id(inst)] = self.design.create_signal(
                    f"{self.path}.{inst.name or f'%{position}'}",
                    inst.type, init)
                self._observe(source)
            elif op == "prb":
                target = env[id(inst.operands[0])]
                self._observe(target)
                env[id(inst)] = kernel.probe(target)
            elif op == "reg":
                self._observe(env[id(inst.reg_signal())])
                self.reg_state[id(inst)] = [
                    self.env[id(t["trigger"])] for t in inst.reg_triggers()]
            elif op == "drv":
                self._drive(kernel, inst)
            else:
                self._eval_dataflow(inst)

    def _instantiate(self, inst):
        design = self.design
        callee = design.units.get(inst.callee)
        if callee is None:
            callee = design.module.get(inst.callee)
        if callee is None or isinstance(callee, UnitDecl):
            raise SimulationError(
                f"{self.path}: inst of undefined unit @{inst.callee}")
        operands = inst.inst_inputs() + inst.inst_outputs()
        child_path = f"{self.path}.{inst.callee}"
        port_map = {}
        for arg, operand in zip(callee.args, operands):
            port_map[id(arg)] = self.env[id(operand)]
        if callee.is_entity:
            design.entity_class(design, callee, child_path, port_map)
        else:
            design.process_class(design, callee, child_path, port_map)

    def _eval_dataflow(self, inst):
        env = self.env
        op = inst.opcode
        if op in ("extf", "exts") and inst.type.is_signal:
            if inst.has_dynamic_index:
                step = ("field", dynamic_index(env[id(inst.operands[1])]))
            else:
                step = path_of(inst)
            env[id(inst)] = project(env[id(inst.operands[0])], step)
        elif op in EVALUATORS:
            env[id(inst)] = evaluate(
                inst, [env[id(o)] for o in inst.operands])
        elif op == "call":
            result = self.functions.call(
                inst.callee, [env[id(o)] for o in inst.operands],
                where=f"in {self.path}")
            if not inst.type.is_void:
                env[id(inst)] = result
        else:
            raise SimulationError(
                f"{self.path}: '{op}' not allowed in an entity")

    def _drive(self, kernel, inst):
        # One entity is one driver for its drv instructions; reg and del
        # each drive through their own key (see plan._reg_step/_del_step).
        cond = inst.drv_condition()
        if cond is not None and not self.env[id(cond)]:
            return
        kernel.schedule_drive(
            self.order,
            self.env[id(inst.drv_signal())],
            self.env[id(inst.drv_value())],
            self.env[id(inst.drv_delay())])

    # -- activity interface: re-execute the data-flow graph --------------------

    def run(self, kernel):
        plan = self._plan
        if plan is None:
            plan = self._plan = self.design.entity_plan(self.unit)
        env = self.env
        for step in plan:
            step(env, self)


Design.entity_class = EntityInstance
Design.process_class = ProcessInstance


def _connect(a, b):
    sig_a, path_a = _signal_and_path(a)
    sig_b, path_b = _signal_and_path(b)
    if path_a or path_b:
        raise SimulationError("con of projected sub-signals is not supported")
    sig_a.connect(sig_b)
