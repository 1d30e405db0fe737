"""Levelized ahead-of-time execution of netlist combinational cones.

The fourth engine (``--engine levelized``).  The event-driven kernels
charge every techmap gate cell one activity wake plus one scheduled
drive per input change, which made event-driven netlist runs 2–9×
slower than their behavioural reference (README, "Levelized netlist
engine").
This engine removes the scheduler from the combinational cone entirely:

* during elaboration each ``inst`` of a library cell is *absorbed*
  instead of instantiated.  :meth:`LevelizedDesign.cell` classifies the
  cell entity itself, once per unit, so any entity shaped like a
  library cell qualifies: :func:`repro.sim.compiled.build_template`
  turns a combinational cell into a straight-line gate record, and
  :func:`_storage_form` reads a ``reg`` storage cell (flip-flop, latch,
  memory write port) into a sequential cut point;
* at finalize the gates are levelized: Kahn's ordering over the cell
  nets, with storage cells cutting the feedback.  Gates that do not
  levelize form zero-delay cycles; they are diagnosed with the same
  Tarjan SCC machinery ``repro.lint.loops`` uses and evaluated by
  fixpoint iteration instead (the design stays runnable);
* :mod:`repro.sim.compiled` emits the ordered cone as one generated
  Python function, ``_settle_all``, cached on disk as a code object
  keyed by its own source;
* at simulation time a single cone activity — always ordered *after*
  every process and fallback entity — wakes on any boundary net
  change, settles the whole cone in place, and commits what it wrote
  directly, so a clock edge costs zero scheduler events per gate.

A storage cell is evaluated only when a slot it observes changes.  A
cell whose triggers are all edges (``rise``, ``fall``, ``both``)
observes its trigger slots alone: a data, condition or index change
cannot fire an edge, and :func:`~repro.sim.plan.fired_trigger` would
only rewrite ``prev`` with the value it already holds.  A cell with a
level trigger (a latch) observes every port.  The storage step runs
only when a changed slot has an observer, as the settle runs only when
a gate reads one; a slot's observers are kept in cell order, so one
changed slot needs no sort, and a write path without a dynamic index
is resolved once, when the cone is built.

The commit costs in proportion to what the cone wrote, not to its size:
a run lists the slots it wrote (gate outputs and storage roots, never
the boundary nets it scanned), and each slot's signal, trace list and
non-cone entity waiters are bound once, when the cone is built.  A
listed slot whose value differs from its net's is published once.  A
slot listed once always differs (the settle and the storage step write
a slot only when they change it), so the value test runs only when a
slot can be listed twice: the run took more than one round, the cone
has cycles, or two storage cells share a root slot.  A net with one
name whose history ends before this instant gets its entry appended
directly (all :func:`repro.sim.trace.record` would do
there), any other goes through ``record``.  The commit is this one
loop, not per-net code in the cone source, which would grow every
cone's source and the memory its cold ``compile()`` takes.  The settle
boxes an ``lN`` gate output only when it changed
(:func:`repro.sim.compiled._changed`).

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

from ..ir.instructions import Instruction
from ..ir.units import UnitDecl
from ..ir.values import TimeValue
from .blaze import BlazeDesign, BlazeEntityInstance
from .compiled import TemplateError, build_template, compile_cone
from .engine import Kernel, SignalInstance, SignalRef
from .eval import path_of
from .interp import elaborate_top
from .optable import edge
from .plan import fired_trigger
from .trace import record
from .values import SimulationError, dynamic_index, insert_path

_ZERO = TimeValue(0)

#: Settle iteration cap: a cone needs at most one round per sequential
#: ripple stage; anything deeper is an oscillation.
MAX_SETTLE_ROUNDS = 1000

#: ``reg`` modes that fire only on a change of their trigger.
_EDGE_MODES = frozenset({"rise", "fall", "both"})


class LevelizeError(SimulationError):
    """The netlist cannot be levelized (multi-driven cone net)."""


# -- sequential cut points -----------------------------------------------------


class _SeqCell:
    """One absorbed storage cell; its triggers fire through
    :func:`repro.sim.plan.fired_trigger`, the interpreter's loop.

    ``path`` is the resolved write path when it has no dynamic index
    (None: resolve ``path_proto`` per fire); ``obs`` are the slots whose
    change re-evaluates the cell (see :func:`_build_plan`)."""

    __slots__ = ("index", "triggers", "prev", "path_proto", "path",
                 "root_slot", "obs")

    def __init__(self, index, triggers, prev, path_proto, root_slot, obs):
        self.index = index
        self.triggers = triggers  # (edge test, data, trig, cond, delay)
        self.prev = prev
        self.path_proto = path_proto
        self.path = None if any(s[0] == "fielddyn" for s in path_proto) \
            else path_proto
        self.root_slot = root_slot
        self.obs = obs


def _resolve_path(proto, V):
    """Instantiate a projection path, reading dynamic indices from V."""
    return tuple(("field", dynamic_index(V[step[1]]))
                 if step[0] == "fielddyn" else step for step in proto)


def _storage_form(unit):
    """A storage cell's one ``reg`` as ``(triggers, steps, edges)`` over
    its input-port positions; raises :class:`TemplateError` for any
    other body.

    ``triggers`` are :func:`~repro.sim.plan.fired_trigger` tuples whose
    data, trigger and condition are port positions and whose delay is
    the constant ``after`` time (None: the implicit epsilon step);
    ``steps`` is the :func:`~repro.sim.values.insert_path` path from the
    sole output to the ``reg`` target, a dynamic index being
    ``("fielddyn", position)``; ``edges`` is whether every trigger is
    an edge (``rise``, ``fall`` or ``both``), not a level.
    """
    port = {id(a): k for k, a in enumerate(unit.inputs)}
    probes = {}   # id(prb) -> the input position it reads
    regs = []
    for inst in unit.body:
        op = inst.opcode
        if op == "reg":
            regs.append(inst)
        elif op == "prb":
            if id(inst.operands[0]) not in port:
                raise TemplateError("probe source is not an input port")
            probes[id(inst)] = port[id(inst.operands[0])]
        elif op != "const" and not (op in ("extf", "exts")
                                    and inst.type.is_signal):
            raise TemplateError(f"'{op}' in a storage cell")
    if len(regs) != 1:
        raise TemplateError("storage cell has more than one reg")

    def position(value):
        pos = probes.get(id(value))
        if pos is None:
            raise TemplateError("reg operand is not an input-port probe")
        return pos

    steps = []
    target = regs[0].reg_signal()
    while isinstance(target, Instruction) and target.opcode in ("extf",
                                                                "exts"):
        steps.append(("fielddyn", position(target.operands[1]))
                     if target.has_dynamic_index else path_of(target))
        target = target.operands[0]
    if len(unit.outputs) != 1 or target is not unit.outputs[0]:
        raise TemplateError("reg target is not the sole output")
    triggers = []
    edges = True
    for t in regs[0].reg_triggers():
        delay = t["delay"]
        if delay is not None and delay.opcode != "const":
            raise TemplateError("reg delay is not a constant")
        triggers.append((
            edge(t["mode"], t["trigger"].type), position(t["value"]),
            position(t["trigger"]),
            None if t["cond"] is None else position(t["cond"]),
            None if delay is None else delay.attrs["value"]))
        edges = edges and t["mode"] in _EDGE_MODES
    return tuple(triggers), tuple(reversed(steps)), edges


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
        self.seq_obs = seq_obs      # slot -> ascending seq indices
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
    for template, ins, out in design.comb_cells:
        in_slots = tuple(slot(p) for p in ins)
        out_slot = slot(out)
        if out_slot in producer:
            raise LevelizeError(
                f"levelized: net {slot_sigs[out_slot].name} is driven by "
                f"more than one combinational cell")
        producer[out_slot] = len(raw_gates)
        raw_gates.append((template, in_slots, out_slot))

    # A cell observes the slots whose change can fire it.  An edge fires
    # only on a change of its trigger, and between such changes
    # ``fired_trigger`` would only rewrite ``prev`` with the value it
    # holds, so an all-edge cell observes its trigger slots alone; a
    # level trigger (a latch) fires on any change while it holds, so
    # such a cell observes every port.
    seqs = []
    for index, ((triggers, steps, edges), ports) in enumerate(
            design.seq_cells):
        port_slots = [slot(p) for p in ports]
        root_slot = port_slots[-1]
        if root_slot in producer:
            raise LevelizeError(
                f"levelized: net {slot_sigs[root_slot].name} is driven by "
                f"both a combinational cell and a storage cell")
        triggers = tuple(
            (test, port_slots[data], port_slots[trig],
             None if cond is None else port_slots[cond], delay)
            for test, data, trig, cond, delay in triggers)
        prev = [slot_sigs[t[2]].value for t in triggers]
        proto = tuple(("fielddyn", port_slots[s[1]])
                      if s[0] == "fielddyn" else s for s in steps)
        obs = frozenset(t[2] for t in triggers) if edges \
            else frozenset(port_slots)
        seqs.append(_SeqCell(index, triggers, prev, proto, root_slot, obs))

    seq_obs = {}   # slot -> its observers' indices, ascending
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
        # Per slot, bound once (elaboration has ended, so a net's trace
        # lists and entity waiters are fixed): ``(sig, history,
        # histories, entities)``, where ``history`` is the net's one
        # trace list, None when it records under several names or none,
        # and ``entities`` are its entity waiters other than the cone.
        self.bound = [
            (sig, sig.history[0] if len(sig.history) == 1 else None,
             sig.history, tuple(act for order, act in sig.entity_list()
                                if order != self.order))
            for sig in plan.slot_sigs]
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
        # Likewise the storage step runs only for a change some storage
        # cell observes.
        self.seq_roots = frozenset(plan.seq_obs)
        # Whether one round can list a slot twice: a cyclic settle
        # iterates, and storage cells sharing a root each append it.
        roots = [cell.root_slot for cell in plan.seqs]
        self.relists = plan.has_cycles or len(set(roots)) < len(roots)
        kernel.schedule_initial(self)

    def run(self, kernel):
        V = self.V
        pending = []
        for i, sig in self.scan:
            v = sig.value
            if v is not V[i] and v != V[i]:
                V[i] = v
                pending.append(i)
        force = not self._forced
        self._forced = True
        if not pending and not force:
            return
        # The slots the cone writes, in write order: gate outputs and
        # storage roots, never the boundary nets just scanned.
        wrote = []
        comb_roots = self.comb_roots
        seq_roots = self.seq_roots
        run_comb = force or not comb_roots.isdisjoint(pending)
        rounds = 0
        while True:
            fired = [] if seq_roots.isdisjoint(pending) \
                else self._eval_seq(pending)
            if fired:
                wrote += fired
                if not comb_roots.isdisjoint(fired):
                    run_comb = True
            if run_comb:
                comb = self._eval_comb()
                run_comb = False
                wrote += comb
                pending = fired + comb
            else:
                # No gate reads anything that changed (a clock that only
                # feeds register triggers): skip the settle, but a fired
                # register may still trigger another one downstream.
                pending = fired
            if not pending:
                break
            rounds += 1
            if rounds > MAX_SETTLE_ROUNDS:
                hot = sorted({self.slot_sigs[i].name for i in pending})
                raise SimulationError(
                    f"levelized cone did not settle at t={kernel.now[0]}fs "
                    f"(oscillating nets: {', '.join(hot[:8])})")
        if wrote:
            self._commit(wrote, rounds > 0 or self.relists)

    def _eval_comb(self):
        V = self.V
        if not self.has_cycles:
            return self.settle_all(V)
        # Cyclic cones: iterate the full settle to a fixpoint.
        changed = []
        for _ in range(MAX_SETTLE_ROUNDS):
            ch = self.settle_all(V)
            if not ch:
                return changed
            changed += ch
        raise SimulationError(
            "levelized: combinational loop did not converge "
            f"({'; '.join(','.join(c) for c in self.plan.cycle_report)})")

    def _eval_seq(self, stim):
        """Evaluate the cells observing a slot of ``stim``, in cell
        order; ``run`` calls it only when some slot has an observer."""
        seq_obs = self.seq_obs
        observed = [seq_obs[s] for s in stim if s in seq_obs]
        todo = observed[0] if len(observed) == 1 \
            else sorted(set().union(*observed))
        V = self.V
        seqs = self.seqs
        # Two phases: every cell evaluates against the pre-fire values
        # (the event-driven kernel matures all epsilon drives after the
        # whole round ran), then the fires commit in cell order.
        commits = []
        for si in todo:
            cell = seqs[si]
            hit = fired_trigger(cell.triggers, cell.prev, V)
            if hit is not None:
                path = cell.path
                if path is None:
                    path = _resolve_path(cell.path_proto, V)
                commits.append((cell, path, V[hit[1]], hit[4]))
        fired = []
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
                fired.append(root)
        return fired

    def _commit(self, wrote, relisted):
        """Publish every written slot whose value differs from its net's.
        Only when ``relisted`` can a slot appear more than once, or have
        settled back, so only then is the value compared."""
        kernel = self.kernel
        fs = kernel.now[0]
        V = self.V
        bound = self.bound
        for i in wrote:
            sig, history, histories, entities = bound[i]
            new = V[i]
            if relisted:
                old = sig.value
                if new is old or new == old:
                    continue
            sig.value = new
            if history is not None and history[-1][0] != fs:
                # All that record does here (see its docstring).
                history.append((fs, new))
            else:
                record(histories, fs, new)
            # Wake next delta.  A process stays registered on the nets
            # of its last wait, as under the kernel's own rounds.
            waiters = sig.proc_waiters
            if waiters:
                for act in waiters.values():
                    kernel.schedule_resume(act, _ZERO)
            for act in entities:
                kernel.schedule_resume(act, _ZERO)


# -- elaboration ---------------------------------------------------------------


class LevelizedDesign(BlazeDesign):
    """A compiled design whose library cells are absorbed into a cone."""

    def __init__(self, module, top, kernel, cache_dir=None, analysis=False):
        super().__init__(module, top, kernel)
        self.cache_dir = cache_dir
        self.analysis = analysis
        self._cells = {}            # id(unit) -> (kind, recipe or reason)
        self.comb_cells = []        # (template, in_ports, out_port)
        self.seq_cells = []         # ((triggers, steps), ports)
        self.fallback_cells = []    # (instance path, reason)
        self.cone = None
        self.report = {}

    def cell(self, unit):
        """How the cone runs the entity ``unit``, decided once per unit:
        ``("comb", template)``, ``("seq", storage form)``, or
        ``(None, reason)`` to run it event-driven, where ``reason`` is
        None for a structural container elaborated as usual."""
        entry = self._cells.get(id(unit))
        if entry is None:
            ops = {inst.opcode for inst in unit.body}
            try:
                if ops & {"inst", "sig", "con", "del"}:
                    entry = None, None
                elif "reg" in ops:
                    entry = "seq", _storage_form(unit)
                else:
                    entry = "comb", build_template(unit)
            except TemplateError as exc:
                entry = None, str(exc)
            self._cells[id(unit)] = entry
        return entry

    def absorb_cell(self, parent, inst, callee):
        """Try to absorb one cell instance; (absorbed, fallback_reason)."""
        kind, recipe = self.cell(callee)
        if kind is None:
            return False, recipe
        ports = [parent.env[id(op)]
                 for op in inst.inst_inputs() + inst.inst_outputs()]
        for p in ports:
            if type(p) is not SignalInstance:
                return False, "cell port bound to a projected sub-signal"
        if kind == "comb":
            self.comb_cells.append((recipe, ports[:-1], ports[-1]))
        else:
            self.seq_cells.append((recipe, ports))
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


def elaborate_levelized(module, top, kernel=None, cache_dir=None,
                        analysis=False):
    """Elaborate ``module`` for levelized execution.

    ``analysis=True`` builds the absorption report and the plan but
    skips code generation and the runtime cone — used by the
    ``--list-designs`` engine-support column.
    """
    if kernel is None:
        kernel = Kernel()
    if getattr(kernel, "sanitizer", None) is not None:
        raise SimulationError(
            "levelized: the scheduler sanitizer is not supported "
            "(the cone bypasses the scheduler it would instrument)")
    return elaborate_top(LevelizedDesign, module, top, kernel,
                         cache_dir=cache_dir, analysis=analysis)
