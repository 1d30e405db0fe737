"""LLHD-Sim: the reference interpreter.

The simplest simulator of the LLHD instruction set (paper, section 6.1):
units are executed by walking their instructions, and values flow
through an environment dict, one instruction at a time.  The walk is
*predecoded*: each unit is lowered once into a plan of per-instruction
step closures (:mod:`repro.sim.plan`).  Each pure op's step is built
from its entry in the opcode table the compiled engines emit from
(:mod:`repro.sim.optable`), so interp and blaze share one definition of
every op, and :mod:`repro.sim.eval` stays the spec both are tested
against (and what the elaboration walk below evaluates with).  A
process or function's constants are seeded into its environment once
instead of running as steps.  The compiled simulator
(:mod:`repro.sim.blaze`) shares this module's elaboration and the
kernel, and replaces the instruction walk with generated Python code.

Elaboration instantiates the design hierarchy: every ``sig`` becomes a
:class:`~repro.sim.engine.SignalInstance`, every ``inst`` recursively
instantiates the child unit with its ports bound, processes become
suspended control-flow activities, and entity bodies are evaluated once
(their "execute all instructions at initialization" semantics) while
registering data-flow sensitivity for re-execution.

Batch simulation (``lanes`` > 1) elaborates the same hierarchy over
lane-widened values (see :mod:`repro.sim.lanes`) in one of two modes:

* *vectorized* (``replicate=False``): every activity executes once per
  activation covering all K lanes; lane-divergent control raises
  :class:`~repro.sim.lanes.LaneDivergence`;
* *replicated* (``replicate=True``): each process is elaborated K times
  (:class:`LaneProcessInstance`), replica k seeing lane k of every port
  through lane-projection paths — entities stay vectorized in both modes.
"""

from __future__ import annotations

from ..ir.units import UnitDecl
from .engine import Kernel, SignalInstance, SignalRef
from .eval import evaluate, path_of
from .lanes import (
    evaluate_lanes, intrinsic_lanes, lane_default, lane_path,
    path_of_lanes, uindex, uindex_int,
)
from .lanes import drive_cond_lanes
from .plan import (
    Cell, CellRef, _as_cellref, _dynamic_index, _Timeout,
    build_entity_plan, build_function_plan, build_process_plan,
)
from .values import SimulationError, default_value, extract_path, lane_extract

_PURE_OPS = frozenset({
    "const", "add", "sub", "mul", "udiv", "sdiv", "umod", "smod", "urem",
    "srem", "and", "or", "xor", "not", "neg", "shl", "shr", "eq", "neq",
    "ult", "ugt", "ule", "uge", "slt", "sgt", "sle", "sge", "zext", "sext",
    "trunc", "array", "struct", "mux", "inss",
})


class Design:
    """An elaborated design bound to a kernel."""

    # Instance classes used by elaboration; BlazeDesign swaps these for
    # the compiled variants (assigned after the classes are defined).
    entity_class = None
    process_class = None
    lane_process_class = None

    def __init__(self, module, top, kernel, lanes=1, replicate=False,
                 batch_units=None):
        self.module = module
        self.top = top
        self.kernel = kernel
        self.lanes = lanes
        # replicate may be set with lanes == 1 (a 1-lane BatchStimulus):
        # the replica machinery then degenerates to scalar execution over
        # empty lane-projection paths.
        self.replicate = bool(replicate)
        # BatchStimulus: process unit name -> per-lane replacement units.
        self.batch_units = batch_units or {}
        self.activities = []
        self.signal_by_name = {}
        self._order = 0
        self._proc_plans = {}     # id(unit) -> (entry, constants)
        self._entity_plans = {}   # id(unit) -> tuple of steps
        self._func_plans = {}     # (id(unit), lanes) -> (entry, constants)

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
        ``(entry BlockPlan, hoisted constants)``.

        Replicated-mode processes run per lane on lane-projected ports,
        so they use the ordinary *scalar* plan; only vectorized mode
        builds lane-widened process plans.
        """
        plan = self._proc_plans.get(id(unit))
        if plan is None:
            lanes = 1 if self.replicate else self.lanes
            plan = self._proc_plans[id(unit)] = build_process_plan(
                unit, self.kernel, lanes)
        return plan

    def entity_plan(self, unit):
        """The predecoded re-activation steps for an entity unit."""
        plan = self._entity_plans.get(id(unit))
        if plan is None:
            plan = self._entity_plans[id(unit)] = build_entity_plan(
                unit, self.kernel, self.lanes, self.replicate)
        return plan

    def function_plan(self, unit, lanes=1):
        """The predecoded plan for a function unit, as :meth:`proc_plan`.

        In replicated mode both variants coexist: process replicas call
        the scalar plan, vectorized entities the lane-widened one.
        """
        key = (id(unit), lanes)
        plan = self._func_plans.get(key)
        if plan is None:
            plan = self._func_plans[key] = build_function_plan(
                unit, self.kernel, lanes)
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


def elaborate(module, top, kernel=None, trace=None, lanes=1,
              replicate=False, batch_units=None):
    """Elaborate ``module`` starting at entity ``top``; returns a Design."""
    if kernel is None:
        kernel = Kernel(trace=trace)
    kernel.lanes = lanes
    unit = module.get(top)
    if unit is None or isinstance(unit, UnitDecl):
        raise SimulationError(f"top unit @{top} is not defined")
    if not unit.is_entity:
        raise SimulationError(f"top unit @{top} must be an entity")
    design = Design(module, unit, kernel, lanes, replicate, batch_units)
    ports = {}
    for arg in unit.args:
        sig = design.create_signal(
            f"{top}.{arg.name}", arg.type,
            lane_default(arg.type.element, lanes))
        ports[id(arg)] = sig
    EntityInstance(design, unit, top, ports)
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


class _FunctionInterpreter:
    """Immediate (zero-time) execution of a function body.

    ``lanes`` > 1 runs function bodies over lane-widened values and
    routes ``llhd.*`` intrinsics through the lane-attributing wrapper
    (which needs the call site's operand ``types`` to slice arguments).
    """

    MAX_STEPS = 2_000_000

    def __init__(self, design, kernel, lanes=1):
        self.design = design
        self.kernel = kernel
        self.lanes = lanes

    def call(self, name, args, where="", types=None):
        lanes = self.lanes
        if name.startswith("llhd."):
            if lanes > 1:
                return intrinsic_lanes(
                    self.kernel, name, args, types, lanes, where)
            return self.kernel.intrinsic(name, args, where)
        design = self.design
        func = design.module.get(name)
        if func is None or isinstance(func, UnitDecl):
            raise SimulationError(f"call to undefined function @{name}")
        bp, consts = design.function_plan(func, lanes)
        env = dict(consts)
        for arg, value in zip(func.args, args):
            env[id(arg)] = value
        frame = _FunctionFrame(self, f"@{name}", design)
        budget = self.MAX_STEPS
        executed = 0
        while bp is not None:
            steps = bp.steps
            for step in steps:
                step(env, frame)
            executed += len(steps) + 1
            if executed > budget:
                raise SimulationError(
                    f"@{name}: function execution exceeded "
                    f"{self.MAX_STEPS} steps")
            bp = bp.term(env, frame)
        return frame.result


def _interp_ext(inst, env):
    """extf/exts on values, signals, and pointers (elaboration walk)."""
    base = env[id(inst.operands[0])]
    if inst.opcode == "extf":
        index = inst.attrs.get("index")
        if index is None:
            index = _dynamic_index(env[id(inst.operands[1])])
        step = ("field", index)
    else:
        step = path_of(inst)
    if isinstance(base, (SignalInstance, SignalRef)):
        if isinstance(base, SignalInstance):
            base = SignalRef(base, (), base.type)
        return base.project(step, inst.type)
    if isinstance(base, (Cell, CellRef)):
        return _as_cellref(base).project(step)
    return extract_path(base, (step,))


def _interp_ext_lanes(inst, env, lanes):
    """Lane-mode extf/exts for the elaboration walk.

    Mirrors ``plan._ext_step_lanes``: reference projections need a
    lane-uniform index and lane-aware slice steps; extractions from plain
    values go through the generic lane evaluator.
    """
    from ..ir.ninevalued import LogicVec

    base = env[id(inst.operands[0])]
    if isinstance(base, (SignalInstance, SignalRef, Cell, CellRef)):
        if inst.opcode == "extf":
            index = inst.attrs.get("index")
            if index is None:
                iv = env[id(inst.operands[1])]
                if isinstance(iv, LogicVec):
                    index = uindex(iv, lanes)
                else:
                    ity = inst.operands[1].type
                    index = uindex_int(
                        iv, ity.width if ity.is_int else 1, lanes)
            step = ("field", index)
        else:
            step = path_of_lanes(inst, lanes)
        if isinstance(base, SignalInstance):
            base = SignalRef(base, (), base.type)
        if isinstance(base, SignalRef):
            return base.project(step, inst.type)
        return _as_cellref(base).project(step)
    return evaluate_lanes(
        inst, [env[id(o)] for o in inst.operands], lanes)


class ProcessInstance:
    """One elaborated process: a suspended control-flow activity."""

    def __init__(self, design, unit, path, port_map):
        self.design = design
        self.unit = unit
        self.path = path
        self.order = design.next_order()
        self.env = dict(port_map)  # id(value) -> runtime value
        self.status = "ready"
        self.wait_token = 0
        self.subscribed = []
        self._bp = None            # current BlockPlan (predecoded)
        self.functions = _FunctionInterpreter(
            design, design.kernel,
            design.lanes if not design.replicate else 1)
        design.activities.append(self)
        design.kernel.schedule_initial(self)

    # -- activity interface ----------------------------------------------------

    def run(self, kernel, timed_out=False):
        if self.status == "waiting":
            self._wake()
        elif self.status != "ready":
            return
        self.status = "running"
        self._execute(kernel)

    def _wake(self):
        subscribed = self.subscribed
        if subscribed:
            order = self.order
            for sig in subscribed:
                sig.proc_waiters.pop(order, None)
            self.subscribed = []
        self.wait_token += 1

    def _subscribe(self, signals, timeout):
        self.status = "waiting"
        order = self.order
        subscribed = self.subscribed
        for target in signals:
            sig = target.signal if type(target) is SignalRef else target
            if sig._rep is not None:
                sig = sig.find()
            sig.proc_waiters[order] = self
            subscribed.append(sig)
        if timeout is not None:
            self.design.kernel.schedule_resume(
                _Timeout(self, self.wait_token), timeout)

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


class LaneProcessInstance(ProcessInstance):
    """One lane's replica of a process (replicated batch mode).

    The replica's ports are lane projections of the shared batched nets,
    so it executes the unchanged *scalar* plan.  Because nets wake their
    waiters when *any* lane changes, each replica captures its lane's
    slice of every subscribed net at suspension and swallows wake-ups
    that left its own lane untouched (re-arming its subscriptions) —
    scalar-equivalent wake-up semantics, which the per-lane trace demux
    relies on.  A replica whose lane has finished is dead and returns
    immediately.
    """

    def __init__(self, design, unit, path, port_map, lane):
        self.lane = lane
        self._wait_capture = None
        super().__init__(design, unit, path, port_map)

    def run(self, kernel, timed_out=False):
        lane = self.lane
        if lane in kernel.finished_lanes:
            return
        if self.status == "waiting":
            if not timed_out and not self._lane_visible_change(kernel):
                # Spurious wake: another lane moved.  Re-arm.
                order = self.order
                for sig in self.subscribed:
                    sig.proc_waiters[order] = self
                return
            self._wake()
        elif self.status != "ready":
            return
        self.status = "running"
        kernel.current_lane = lane
        try:
            self._execute(kernel)
        finally:
            kernel.current_lane = None
        if self.status == "waiting":
            self._capture(kernel)

    def _capture(self, kernel):
        lane, lanes = self.lane, self.design.lanes
        self._wait_capture = [
            lane_extract(sig.value, sig.type.element, lane, lanes)
            for sig in self.subscribed]

    def _lane_visible_change(self, kernel):
        capture = self._wait_capture
        if capture is None:
            return True
        lane, lanes = self.lane, self.design.lanes
        for sig, old in zip(self.subscribed, capture):
            if lane_extract(sig.value, sig.type.element, lane, lanes) != old:
                return True
        return False


def _signal_and_path(target):
    if isinstance(target, SignalRef):
        return target.signal, target.path
    return target, ()


class EntityInstance:
    """One elaborated entity: a data-flow activity.

    The body is executed once at elaboration (creating signals, recursing
    into ``inst``), and re-executed whenever an observed signal changes.
    Re-execution walks the predecoded entity plan.  Entities stay
    lane-vectorized in both batch modes: their bodies are control-free
    data flow, so per-lane divergence is handled value-wise.
    """

    def __init__(self, design, unit, path, port_map):
        self.design = design
        self.unit = unit
        self.path = path
        self.order = design.next_order()
        self.env = dict(port_map)
        self.reg_state = {}  # id(reg inst) -> [prev trigger values]
        self.functions = _FunctionInterpreter(
            design, design.kernel, design.lanes)
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
        callee = design.module.get(inst.callee)
        if callee is None or isinstance(callee, UnitDecl):
            raise SimulationError(
                f"{self.path}: inst of undefined unit @{inst.callee}")
        operands = inst.inst_inputs() + inst.inst_outputs()
        child_path = f"{self.path}.{inst.callee}"
        if callee.is_entity:
            port_map = {}
            for arg, operand in zip(callee.args, operands):
                port_map[id(arg)] = self.env[id(operand)]
            design.entity_class(design, callee, child_path, port_map)
            return
        if not design.replicate:
            port_map = {}
            for arg, operand in zip(callee.args, operands):
                port_map[id(arg)] = self.env[id(operand)]
            design.process_class(design, callee, child_path, port_map)
            return
        # Replicated batch mode: one scalar replica per lane, each seeing
        # lane k of every batched port net through a lane projection.
        lanes = design.lanes
        for k in range(lanes):
            unit_k = callee
            swap = design.batch_units.get(inst.callee)
            if swap is not None:
                unit_k = swap[k]
            port_map = {}
            for arg, operand in zip(unit_k.args, operands):
                target = self.env[id(operand)]
                path = lane_path(arg.type.element, k, lanes)
                if type(target) is SignalRef:
                    ref = SignalRef(
                        target.signal, target.path + path, arg.type)
                else:
                    ref = SignalRef(target, path, arg.type)
                port_map[id(arg)] = ref
            design.lane_process_class(
                design, unit_k, f"{child_path}#l{k}", port_map, k)

    def _eval_dataflow(self, inst):
        env = self.env
        op = inst.opcode
        lanes = self.design.lanes
        if op in ("extf", "exts"):
            if lanes > 1:
                env[id(inst)] = _interp_ext_lanes(inst, env, lanes)
            else:
                env[id(inst)] = _interp_ext(inst, env)
        elif op in _PURE_OPS or op == "insf":
            if lanes > 1:
                env[id(inst)] = evaluate_lanes(
                    inst, [env[id(o)] for o in inst.operands], lanes)
            else:
                env[id(inst)] = evaluate(
                    inst, [env[id(o)] for o in inst.operands])
        elif op == "call":
            result = self.functions.call(
                inst.callee, [env[id(o)] for o in inst.operands],
                where=f"in {self.path}",
                types=tuple(o.type for o in inst.operands))
            if not inst.type.is_void:
                env[id(inst)] = result
        else:
            raise SimulationError(
                f"{self.path}: '{op}' not allowed in an entity")

    def _drive(self, kernel, inst):
        # One entity is one driver for its drv instructions; reg and del
        # each drive through their own key (see plan._reg_step/_del_step).
        cond = inst.drv_condition()
        lanes = self.design.lanes
        if cond is not None and lanes > 1:
            drive_cond_lanes(
                kernel, self.order, id(inst),
                self.env[id(inst.drv_signal())], inst.drv_value().type,
                self.env[id(inst.drv_value())],
                self.env[id(inst.drv_delay())],
                self.env[id(cond)], lanes)
            return
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
Design.lane_process_class = LaneProcessInstance


def _connect(a, b):
    sig_a, path_a = _signal_and_path(a)
    sig_b, path_b = _signal_and_path(b)
    if path_a or path_b:
        raise SimulationError("con of projected sub-signals is not supported")
    sig_a.connect(sig_b)
