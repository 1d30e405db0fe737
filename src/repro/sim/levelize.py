"""Levelized ahead-of-time execution of netlist combinational cones.

The fourth engine (``--engine levelized``).  The event-driven kernels
charge every techmap gate cell one activity wake plus one scheduled
drive per input change, which made event-driven netlist runs 2–9×
slower than their behavioural reference (README, "Levelized netlist
engine").
This engine removes the scheduler from the combinational cone entirely:

* during elaboration each ``inst`` of a library cell (recognized by
  :func:`repro.interop.techmap.cell_eval_form` — the classification is
  structural, not mapper-private) is *absorbed* instead of
  instantiated: combinational cells become straight-line gate records,
  ``reg`` storage cells (flip-flops, latches, memory write ports)
  become sequential cut points;
* at finalize the gates are levelized: Kahn's ordering over the cell
  nets, with storage cells cutting the feedback.  Gates that do not
  levelize form zero-delay cycles; they are diagnosed with the same
  Tarjan SCC machinery ``repro.lint.loops`` uses and evaluated by
  fixpoint iteration instead (the design stays runnable);
* :mod:`repro.sim.compiled` emits the ordered cone as one generated
  Python function, ``_settle_all``, cached on disk as a code object
  keyed by its own source;
* at simulation time a single cone activity — always ordered *after*
  every process and fallback entity — wakes on any cone net change,
  settles the whole cone in-place, and commits the changed nets
  directly (recording the trace and resuming waiters), so a clock edge
  costs zero scheduler events per gate.

Anything that is not a recognized zero-delay cell — hierarchical
containers, cells with non-zero gate delays, ports bound to projected
sub-signals — falls back to the inherited compiled (blaze) event-driven
machinery and interoperates with the cone through the ordinary nets,
so hybrid designs still simulate; the fallback reasons are recorded on
``design.report`` for ``--list-designs``.

Traces stay byte-identical to interp/blaze/cycle because absorption
never creates or renames signals (cells create none) and the trace
keeps one value per femtosecond (:func:`repro.sim.trace.record`):
condensing a delta/epsilon cascade into one settle leaves the final
per-instant values unchanged.
"""

from __future__ import annotations

import heapq

from ..interop.techmap import cell_eval_form
from ..ir.units import UnitDecl
from ..ir.values import TimeValue
from .blaze import BlazeDesign, BlazeEntityInstance
from .engine import Kernel, SignalInstance, SignalRef
from .interp import elaborate_top
from .optable import edge
from .plan import fired_trigger
from .trace import record
from .values import SimulationError, dynamic_index, insert_path

_ZERO = TimeValue(0)

#: Settle iteration cap: a cone needs at most one round per sequential
#: ripple stage; anything deeper is an oscillation.
MAX_SETTLE_ROUNDS = 1000


class LevelizeError(SimulationError):
    """The netlist cannot be levelized (multi-driven cone net)."""


# -- sequential cut points -----------------------------------------------------


class _SeqCell:
    """One absorbed storage cell; its triggers fire through
    :func:`repro.sim.plan.fired_trigger`, the interpreter's loop."""

    __slots__ = ("index", "triggers", "prev", "path_proto", "root_slot",
                 "obs")

    def __init__(self, index, triggers, prev, path_proto, root_slot, obs):
        self.index = index
        self.triggers = triggers  # (edge test, data, trig, cond, delay)
        self.prev = prev
        self.path_proto = path_proto
        self.root_slot = root_slot
        self.obs = obs


def _resolve_path(proto, V):
    """Instantiate a projection path, reading dynamic indices from V."""
    if not proto:
        return ()
    path = []
    for step in proto:
        if step[0] == "fielddyn":
            path.append(("field", dynamic_index(V[step[1]])))
        else:
            path.append(step)
    return tuple(path)


def _path_proto(root_ty, steps, port_slots):
    """Positional SeqCellForm steps -> insert_path steps over slots."""
    ty = root_ty
    proto = []
    for step in steps:
        if step[0] == "field":
            proto.append(step)
            ty = ty.fields[step[1]] if ty.is_struct else ty.element
        elif step[0] == "fielddyn":
            proto.append(("fielddyn", port_slots[step[1]]))
            ty = ty.element
        else:
            kind = "int" if ty.is_int else \
                "logic" if ty.is_logic else "array"
            proto.append(("slice", step[1], step[2], kind))
    return tuple(proto)


# -- the levelization plan -----------------------------------------------------


class ConePlan:
    """The levelized cone: slots, ordered gates, cut points."""

    __slots__ = ("slot_sigs", "gates", "seqs", "seq_obs", "has_cycles",
                 "cycle_report", "levels")

    def __init__(self, slot_sigs, gates, seqs, seq_obs, has_cycles,
                 cycle_report, levels):
        self.slot_sigs = slot_sigs
        self.gates = gates          # (template, in_slots, out_slot), ordered
        self.seqs = seqs
        self.seq_obs = seq_obs      # slot -> tuple of seq indices
        self.has_cycles = has_cycles
        self.cycle_report = cycle_report
        self.levels = levels


def _build_plan(design):
    slot_of = {}
    slot_sigs = []

    def slot(sig):
        rep = sig.find()
        s = slot_of.get(id(rep))
        if s is None:
            s = slot_of[id(rep)] = len(slot_sigs)
            slot_sigs.append(rep)
        return s

    raw_gates = []
    producer = {}   # out slot -> producing gate index
    for unit, template, ins, out in design.comb_cells:
        in_slots = tuple(slot(p) for p in ins)
        out_slot = slot(out)
        if out_slot in producer:
            raise LevelizeError(
                f"levelized: net {slot_sigs[out_slot].name} is driven by "
                f"more than one combinational cell")
        producer[out_slot] = len(raw_gates)
        raw_gates.append((template, in_slots, out_slot))

    seqs = []
    for index, (unit, form, ports) in enumerate(design.seq_cells):
        port_slots = [slot(p) for p in ports]
        root_slot = port_slots[len(unit.inputs)]
        if root_slot in producer:
            raise LevelizeError(
                f"levelized: net {slot_sigs[root_slot].name} is driven by "
                f"both a combinational cell and a storage cell")
        triggers = tuple(
            (edge(mode, unit.args[trig].type.element), port_slots[data],
             port_slots[trig], None if cond is None else port_slots[cond],
             delay)
            for mode, data, trig, cond, delay in form.triggers)
        prev = [slot_sigs[t[2]].value for t in triggers]
        proto = _path_proto(unit.outputs[0].type.element, form.steps,
                            port_slots)
        seqs.append(_SeqCell(index, triggers, prev, proto, root_slot,
                             frozenset(port_slots)))

    seq_obs = {}
    for cell in seqs:
        for s in cell.obs:
            seq_obs.setdefault(s, []).append(cell.index)
    seq_obs = {s: tuple(lst) for s, lst in seq_obs.items()}

    # Kahn's algorithm over the gate-to-gate dependency edges; storage
    # roots and external nets are sources.  The ready heap keeps the
    # order deterministic (and therefore cache-stable).
    n = len(raw_gates)
    consumers = {}
    for gi, (_t, in_slots, _o) in enumerate(raw_gates):
        for s in set(in_slots):
            consumers.setdefault(s, []).append(gi)
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for gi, (_t, _ins, out_slot) in enumerate(raw_gates):
        for ci in consumers.get(out_slot, ()):
            succ[gi].append(ci)
            indeg[ci] += 1
    ready = [gi for gi in range(n) if indeg[gi] == 0]
    heapq.heapify(ready)
    order = []
    done = [False] * n
    level = [0] * n
    while ready:
        gi = heapq.heappop(ready)
        order.append(gi)
        done[gi] = True
        for ci in succ[gi]:
            indeg[ci] -= 1
            if level[gi] + 1 > level[ci]:
                level[ci] = level[gi] + 1
            if indeg[ci] == 0:
                heapq.heappush(ready, ci)
    levels = (max(level) + 1) if order else 0

    has_cycles = len(order) < n
    cycle_report = []
    if has_cycles:
        # Zero-delay cycles: diagnose with the lint SCC machinery and
        # append the members in condensation-topological order — the
        # cone then settles them by fixpoint iteration.
        from ..lint.loops import _sccs

        leftover = [gi for gi in range(n) if not done[gi]]
        left = set(leftover)
        succ_map = {gi: [c for c in succ[gi] if c in left]
                    for gi in leftover}
        sccs = list(_sccs(leftover, succ_map))
        for scc in sccs:
            if len(scc) > 1 or scc[0] in succ_map.get(scc[0], ()):
                cycle_report.append(sorted(
                    slot_sigs[raw_gates[gi][2]].name for gi in scc))
        for scc in reversed(sccs):
            order.extend(sorted(scc))

    gates = [raw_gates[gi] for gi in order]
    return ConePlan(slot_sigs, gates, seqs, seq_obs, has_cycles,
                    cycle_report, levels)


# -- the cone activity ---------------------------------------------------------


class _Cone:
    """The single activity evaluating the whole levelized cone.

    Ordered after every other activity (its order is allocated at
    finalize), so within any delta round the testbench probes pre-settle
    values — the same interleaving the event-driven cascade produces.
    """

    def __init__(self, design, plan, ns):
        kernel = design.kernel
        self.design = design
        self.kernel = kernel
        self.plan = plan
        self.order = design.next_order()
        self.path = f"{design.top.name}.(levelized cone)"
        self.slot_sigs = plan.slot_sigs
        self.V = [sig.value for sig in plan.slot_sigs]
        self.seqs = plan.seqs
        self.seq_obs = plan.seq_obs
        self.settle_all = ns["_settle_all"]
        self.has_cycles = plan.has_cycles
        self._forced = False
        kernel.driver_labels[self.order] = self.path
        design.activities.append(self)
        # Only *boundary* nets — those no combinational gate produces
        # (primary inputs, testbench-driven stimulus, storage outputs) —
        # can change under the cone's feet: gate outputs are cone-owned.
        # Scanning and waiting on the boundary alone keeps the per-wake
        # cost proportional to the interface, not the cone size.
        produced = {out_slot for _t, _i, out_slot in plan.gates}
        self.scan = [(i, sig) for i, sig in enumerate(plan.slot_sigs)
                     if i not in produced]
        for _i, sig in self.scan:
            kernel.add_entity_waiter(sig, self)
        # Slots some combinational gate reads: a change anywhere else
        # (e.g. a clock that only feeds register triggers) cannot alter
        # a gate output, so the settle pass is skipped for it — the
        # clock's falling edge then costs one sequential scan, not a
        # full-cone re-evaluation.
        self.comb_roots = frozenset(
            s for _t, in_slots, _o in plan.gates for s in in_slots)
        kernel.schedule_initial(self)

    def run(self, kernel):
        V = self.V
        pending = set()
        for i, sig in self.scan:
            v = sig.value
            if v is not V[i] and v != V[i]:
                V[i] = v
                pending.add(i)
        force = not self._forced
        self._forced = True
        if not pending and not force:
            return
        changed = set(pending)
        comb_roots = self.comb_roots
        run_comb = force or not pending.isdisjoint(comb_roots)
        rounds = 0
        while True:
            fired = self._eval_seq(pending) if pending else set()
            if fired:
                changed |= fired
                if not fired.isdisjoint(comb_roots):
                    run_comb = True
            if run_comb:
                comb = self._eval_comb()
                run_comb = False
                changed |= comb
                pending = fired | comb
            else:
                # No gate reads anything that changed (a clock that only
                # feeds register triggers): skip the settle, but a fired
                # register may still trigger another one downstream.
                pending = fired
            if not pending:
                break
            rounds += 1
            if rounds > MAX_SETTLE_ROUNDS:
                hot = sorted(self.slot_sigs[i].name for i in pending)
                raise SimulationError(
                    f"levelized cone did not settle at t={kernel.now[0]}fs "
                    f"(oscillating nets: {', '.join(hot[:8])})")
        self._commit(changed)

    def _eval_comb(self):
        V = self.V
        if self.has_cycles:
            # Cyclic cones: iterate the full settle to a fixpoint.
            changed = set()
            for _ in range(MAX_SETTLE_ROUNDS):
                ch = self.settle_all(V)
                if not ch:
                    return changed
                changed.update(ch)
            raise SimulationError(
                "levelized: combinational loop did not converge "
                f"({'; '.join(','.join(c) for c in self.plan.cycle_report)})")
        return set(self.settle_all(V))

    def _eval_seq(self, stim):
        seq_obs = self.seq_obs
        todo = set()
        for s in stim:
            lst = seq_obs.get(s)
            if lst:
                todo.update(lst)
        if not todo:
            return set()
        V = self.V
        # Two phases: every cell evaluates against the pre-fire values
        # (the event-driven kernel matures all epsilon drives after the
        # whole round ran), then the fires commit in cell order.
        commits = []
        for si in sorted(todo):
            cell = self.seqs[si]
            hit = fired_trigger(cell.triggers, cell.prev, V)
            if hit is not None:
                commits.append((cell, _resolve_path(cell.path_proto, V),
                                V[hit[1]], hit[4]))
        fired = set()
        kernel = self.kernel
        for cell, path, data, delay in commits:
            if delay is not None and delay.fs > 0:
                # Real-time clock-to-output: back to the scheduler, the
                # maturation re-enters the cone as an external change.
                sig = self.slot_sigs[cell.root_slot]
                target = SignalRef(sig, path) if path else sig
                kernel.schedule_drive(("reg", self.order, cell.index),
                                      target, data, delay)
                continue
            root = cell.root_slot
            old = V[root]
            new = insert_path(old, path, data) if path else data
            if new != old:
                V[root] = new
                fired.add(root)
        return fired

    def _commit(self, changed):
        if not changed:
            return
        kernel = self.kernel
        fs = kernel.now[0]
        V = self.V
        my_order = self.order
        for i in sorted(changed):
            sig = self.slot_sigs[i]
            new = V[i]
            if new == sig.value:
                continue    # settled back to the committed value
            sig.value = new
            record(sig.history, fs, new)
            waiters = sig.proc_waiters
            if waiters:
                # Wake next delta; the process pops its subscriptions
                # itself (the one-shot protocol `_wake` implements).
                for act in list(waiters.values()):
                    kernel.schedule_resume(act, _ZERO)
            for order, act in sig.entity_list():
                if order != my_order:
                    kernel.schedule_resume(act, _ZERO)


# -- elaboration ---------------------------------------------------------------


class LevelizedDesign(BlazeDesign):
    """A compiled design whose library cells are absorbed into a cone."""

    def __init__(self, module, top, kernel, cache_dir=None, analysis=False):
        super().__init__(module, top, kernel)
        self.cache_dir = cache_dir
        self.analysis = analysis
        self._cell_forms = {}       # id(unit) -> eval form or None
        self._cell_templates = {}   # id(unit) -> template | TemplateError
        self.comb_cells = []        # (unit, template, in_ports, out_port)
        self.seq_cells = []         # (unit, form, ports)
        self.fallback_cells = []    # (instance path, reason)
        self.cone = None
        self.report = {}

    def cell_form(self, unit):
        key = id(unit)
        if key not in self._cell_forms:
            self._cell_forms[key] = cell_eval_form(unit)
        return self._cell_forms[key]

    def cell_template(self, unit):
        from .compiled import TemplateError, build_template

        key = id(unit)
        entry = self._cell_templates.get(key)
        if entry is None:
            try:
                entry = build_template(unit)
            except TemplateError as exc:
                entry = exc
            self._cell_templates[key] = entry
        if isinstance(entry, TemplateError):
            raise entry
        return entry

    def absorb_cell(self, parent, inst, callee):
        """Try to absorb one cell instance; (absorbed, fallback_reason)."""
        from .compiled import TemplateError

        form = self.cell_form(callee)
        if form is None:
            for body_inst in callee.body:
                if body_inst.opcode in ("inst", "sig", "con", "del"):
                    return False, None   # structural container: recurse
            return False, "cell body is not a recognized pure form"
        ports = [parent.env[id(op)]
                 for op in inst.inst_inputs() + inst.inst_outputs()]
        for p in ports:
            if type(p) is not SignalInstance:
                return False, "cell port bound to a projected sub-signal"
        if form.kind == "comb":
            d = form.delay
            if d.fs or d.delta or d.epsilon:
                return False, f"non-zero gate delay {d}"
            try:
                template = self.cell_template(callee)
            except TemplateError as exc:
                return False, str(exc)
            self.comb_cells.append((callee, template, ports[:-1], ports[-1]))
        else:
            self.seq_cells.append((callee, form, ports))
        return True, None

    def finalize(self):
        super().finalize()
        self._build_cone()

    def _build_cone(self):
        report = self.report
        report["fallbacks"] = list(self.fallback_cells)
        report["gates"] = len(self.comb_cells)
        report["seqs"] = len(self.seq_cells)
        report["nets"] = 0
        if not self.comb_cells and not self.seq_cells:
            return   # nothing cell-shaped: behaves as plain blaze
        plan = _build_plan(self)
        report["nets"] = len(plan.slot_sigs)
        report["levels"] = plan.levels
        report["cycles"] = plan.cycle_report
        stats = self.kernel.stats
        stats["cone_nets"] = len(plan.slot_sigs)
        stats["cone_gates"] = len(plan.gates)
        stats["cone_seqs"] = len(plan.seqs)
        if self.analysis:
            return
        from .compiled import compile_cone

        ns = compile_cone(plan, self.cache_dir, stats)
        self.cone = _Cone(self, plan, ns)


class LevelizedEntityInstance(BlazeEntityInstance):
    """Entity elaboration that absorbs library cells instead of
    instantiating them; everything else is inherited unchanged (which
    is what keeps signal naming — and therefore traces — identical)."""

    def _instantiate(self, inst):
        design = self.design
        callee = design.module.get(inst.callee)
        if callee is not None and not isinstance(callee, UnitDecl) \
                and callee.is_entity:
            absorbed, reason = design.absorb_cell(self, inst, callee)
            if absorbed:
                return
            if reason is not None:
                design.fallback_cells.append(
                    (f"{self.path}.{inst.callee}", reason))
        super()._instantiate(inst)


LevelizedDesign.entity_class = LevelizedEntityInstance


def elaborate_levelized(module, top, kernel=None, trace=None,
                        cache_dir=None, analysis=False):
    """Elaborate ``module`` for levelized execution.

    ``analysis=True`` builds the absorption report and the plan but
    skips code generation and the runtime cone — used by the
    ``--list-designs`` engine-support column.
    """
    if kernel is None:
        kernel = Kernel(trace=trace)
    if getattr(kernel, "sanitizer", None) is not None:
        raise SimulationError(
            "levelized: the scheduler sanitizer is not supported "
            "(the cone bypasses the scheduler it would instrument)")
    return elaborate_top(LevelizedDesign, module, top, kernel,
                         cache_dir=cache_dir, analysis=analysis)
