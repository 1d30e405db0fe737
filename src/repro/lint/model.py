"""Static elaboration: the whole-design net graph the checkers share.

Mirrors what :mod:`repro.sim.interp` does at simulation time — walk the
instance hierarchy from the top entity, create one net per ``sig``,
union-find nets through ``con`` merges and port bindings — but without
executing anything.  On top of the net graph it records three databases:

* **drivers** — who can put a transaction on each net, with a driver
  *key* matching the runtime granularity (one key per process instance,
  one per entity instance's ``drv`` set, one per ``reg``/``del``
  instruction) and a *class*: ``init`` (fires only in the t=0
  initialization instant), ``edge`` (fires on clock edges), ``comb``
  (fires whenever inputs change), or ``timed`` (a testbench process
  pacing itself with timed waits);
* **edges** — the zero-delay combinational dependency graph between
  nets, each edge tagged *stable* when the path runs exclusively through
  value-preserving plumbing (mux choices, array/struct packing,
  ``inss``/``insf``/``exts``/``extf`` re-arrangement, probes) — the
  shape the mux-insertion feedback ``drv %s, mux([prb %s, %v], %c)``
  produces, which holds a value instead of oscillating;
* **regs** — every storage element (entity ``reg`` instructions and the
  edge-guarded drive regions of behavioural ``always_ff`` processes)
  with its clock nets, its data/condition source nets, and whether the
  data is a *direct* whole-net sample (the synchronizer-head shape the
  CDC checker recognizes).

Process bodies are classified structurally: the Moore ``always_ff``
shape (single sensitivity wait, an edge-test branch, drives inside the
edge-true region) yields registers; the Moore testbench shape (timed
waits, shadow/dirty conditional drives) yields ``init``/``timed``
drivers, where a drive guarded by a dirty flag that is only ever set
before the first wait is proven to fire at initialization only.
"""

from __future__ import annotations

from ..ir.instructions import Instruction
from ..ir.units import UnitDecl
from ..ir.values import TimeValue
from ..passes.dnf import FALSE, build_dnf, literals, negate_dnf, terms

#: Opcodes whose result is a pure re-arrangement of operand values: a
#: feedback path running only through these holds/permutes bits rather
#: than computing new ones, so it cannot (except for deliberate
#: bit-permutation oscillators, which we accept as a documented false
#: negative) sustain a delta-cycle oscillation.
_STABLE_OPS = frozenset((
    "mux", "array", "struct", "insf", "inss", "extf", "exts", "prb",
))


def _const_value(value):
    if isinstance(value, Instruction) and value.opcode == "const":
        return value.attrs["value"]
    return None


def _is_const_zero(value):
    const = _const_value(value)
    if const is None:
        return False
    if isinstance(const, int):
        return const == 0
    to_int = getattr(const, "to_int", None)
    if to_int is not None and getattr(const, "is_two_valued", False):
        return to_int() == 0
    return False


def _zero_delay(delay):
    """True when a drive delay keeps the transaction in this femtosecond
    (a pure delta/epsilon step -- the delays that can oscillate)."""
    const = _const_value(delay)
    if isinstance(const, TimeValue):
        return const.fs == 0
    # A computed delay: assume zero (conservative for loop detection).
    return True


class Net:
    """One elaborated signal net (union-find node)."""

    __slots__ = ("names", "type", "initial", "index", "_rep")

    def __init__(self, name, type, initial, index):
        self.names = [name]
        self.type = type
        self.initial = initial
        self.index = index
        self._rep = None

    def find(self):
        net = self
        while net._rep is not None:
            net = net._rep
        node = self
        while node._rep is not None and node._rep is not net:
            node._rep, node = net, node._rep
        return net

    def label(self):
        """The most readable alias: real names before positional ``%N``
        fallbacks, then fewest hierarchy levels, then shortest, then
        alphabetical (deterministic)."""
        return min(self.names,
                   key=lambda n: ("%" in n, n.count("."), len(n), n))

    def __repr__(self):
        return f"<net {self.label()}>"


class Driver:
    """One potential transaction source on a net."""

    __slots__ = ("net", "key", "kind", "clazz", "clocks", "path",
                 "where")

    def __init__(self, net, key, kind, clazz, path, where, clocks=()):
        self.net = net
        self.key = key        # runtime-granularity driver identity
        self.kind = kind      # 'proc' | 'entity' | 'reg' | 'del'
        self.clazz = clazz    # 'init' | 'edge' | 'comb' | 'timed'
        self.clocks = frozenset(clocks)   # canonical clock net indices
        self.path = path
        self.where = where

    def describe(self):
        extra = f", {self.clazz}" if self.clazz else ""
        return f"{self.where} ({self.kind}{extra})"


class Reg:
    """One storage element: an entity ``reg`` or an always_ff drive."""

    __slots__ = ("target", "clocks", "clock_nets", "data_net",
                 "data_sources", "cond_sources", "path", "where")

    def __init__(self, target, clock_nets, data_net, data_sources,
                 cond_sources, path, where):
        self.target = target
        self.clock_nets = tuple(clock_nets)
        self.clocks = frozenset(n.find().index for n in clock_nets)
        self.data_net = data_net          # Net when the data is a
        self.data_sources = data_sources  # direct whole-net probe
        self.cond_sources = cond_sources
        self.path = path
        self.where = where


class DesignModel:
    """The shared static database over one elaborated design."""

    def __init__(self, module, top):
        self.module = module
        self.top = top
        self.nets = []
        self.drivers = []
        self.regs = []
        self.edges = []           # (src Net, dst Net, stable: bool)
        self.con_conflicts = []   # (net_a, net_b, val_a, val_b, path)
        self.notes = []           # analysis fallbacks worth surfacing
        self._var_states_cache = {}
        unit = module.get(top)
        if unit is None or isinstance(unit, UnitDecl):
            raise ValueError(f"top unit @{top} is not defined")
        if not unit.is_entity:
            raise ValueError(f"top unit @{top} must be an entity")
        env = {}
        for arg in unit.args:
            env[id(arg)] = self._new_net(f"{top}.{arg.name}", arg.type,
                                         None)
        self._walk_entity(unit, top, env)

    # -- net management ----------------------------------------------------------

    def _new_net(self, name, type, initial):
        net = Net(name, type, initial, len(self.nets))
        self.nets.append(net)
        return net

    def _connect(self, a, b, path):
        a, b = a.find(), b.find()
        if a is b:
            return a
        if b.index < a.index:
            a, b = b, a
        ia, ib = a.initial, b.initial
        if ia is not None and ib is not None and ia != ib:
            element = a.type.element if a.type.is_signal else a.type
            if element.is_logic:
                pass  # lN initials resolve (IEEE 1164), never conflict
            else:
                self.con_conflicts.append((a, b, ia, ib, path))
        if a.initial is None:
            a.initial = b.initial
        b._rep = a
        a.names.extend(b.names)
        return a

    # -- value resolution --------------------------------------------------------

    def _sigref(self, value, env):
        """The Net a signal-typed value refers to (through projections)."""
        while isinstance(value, Instruction) and value.opcode in (
                "extf", "exts"):
            value = value.operands[0]
        ref = env.get(id(value))
        if isinstance(ref, Net):
            return ref.find()
        return None

    def _cone(self, value, env, out, stable=True, _seen=None):
        """Collect source nets of a dataflow value into ``out``.

        ``out`` maps canonical Net -> bool; a net ends up True only when
        *every* path to it is stable (value-preserving plumbing).
        """
        if _seen is None:
            _seen = set()
        key = (id(value), stable)
        if key in _seen:
            return out
        _seen.add(key)
        if not isinstance(value, Instruction):
            return out
        op = value.opcode
        if op == "prb":
            net = self._sigref(value.operands[0], env)
            if net is not None:
                out[net] = out.get(net, True) and stable
            return out
        if op == "const":
            return out
        if op == "ld":
            # A shadow variable: what flows out is whatever was stored
            # (value-preserving — any computation happened before the
            # store and marks instability there), or the variable's
            # initializer when a load can execute before any store (the
            # Moore output-shadow hold pattern).  Loads proven constant
            # have no sources at all.
            var = value.operands[0]
            if isinstance(var, Instruction) and var.opcode == "var":
                tokens = self._var_ld_states(var).get(
                    id(value), frozenset((("any",), ("init",))))
                if ("any",) in tokens:
                    for use in list(var.uses):
                        user = use.user
                        if user.opcode == "st" \
                                and user.operands[0] is var:
                            self._cone(user.operands[1], env, out,
                                       stable, _seen)
                if ("init",) in tokens:
                    self._cone(var.operands[0], env, out, stable,
                               _seen)
            elif isinstance(var, Instruction):
                for use in list(var.uses):
                    user = use.user
                    if user.opcode == "st" and user.operands[0] is var:
                        self._cone(user.operands[1], env, out, False,
                                   _seen)
            return out
        if op == "mux":
            choices, selector = value.operands
            folded = self._const_ld_value(selector)
            if folded is not None and isinstance(choices, Instruction) \
                    and choices.opcode == "array" \
                    and 0 <= folded < len(choices.operands):
                self._cone(choices.operands[folded], env, out, stable,
                           _seen)
                return out
            self._cone(choices, env, out, stable, _seen)
            self._cone(selector, env, out, False, _seen)
            return out
        if op in ("insf", "inss"):
            self._cone(value.operands[0], env, out, stable, _seen)
            self._cone(value.operands[1], env, out, stable, _seen)
            for operand in value.operands[2:]:
                self._cone(operand, env, out, False, _seen)
            return out
        if op in ("extf", "exts", "array", "struct"):
            for operand in value.operands:
                self._cone(operand, env, out, stable, _seen)
            return out
        if op == "phi":
            # A phi passes one incoming value through unchanged (the
            # branch conditions selecting it are collected separately).
            for i in range(0, len(value.operands), 2):
                self._cone(value.operands[i], env, out, stable, _seen)
            return out
        for operand in value.operands:
            self._cone(operand, env, out, False, _seen)
        return out

    def _var_ld_states(self, var):
        """Per-``ld`` abstract value of a process variable.

        Maps ``id(ld)`` to a frozenset of tokens: ``("const", v)`` (a
        two-valued constant was stored), ``("init",)`` (the variable's
        non-constant initializer can still flow — no store killed it on
        some path since the ``var`` executed), ``("any",)`` (some
        non-constant store reaches).  May-analysis over the owning
        unit's CFG; resuming a process re-executes the ``var`` when its
        block is a wait destination, which the per-block re-walk models
        naturally.  The Moore shadow/dirty idioms — output shadows
        initialized from a probe of their own target, dirty flags known
        constant at the read-back mux — resolve exactly here.
        """
        cached = self._var_states_cache.get(id(var))
        if cached is not None:
            return cached
        escape = frozenset((("any",), ("init",)))
        for use in var.uses:
            user = use.user
            if user.opcode == "ld" or (user.opcode == "st"
                                       and user.operands[0] is var):
                continue
            result = {id(u.user): escape
                      for u in var.uses if u.user.opcode == "ld"}
            self._var_states_cache[id(var)] = result
            return result
        init_const = _const_value(var.operands[0])
        if isinstance(init_const, int):
            def_state = frozenset((("const", init_const),))
        elif init_const is not None \
                and getattr(init_const, "is_two_valued", False):
            def_state = frozenset((("const", init_const.to_int()),))
        else:
            def_state = frozenset((("init",),))

        def transfer(inst, state, record=None):
            if inst is var:
                return def_state
            if inst.opcode == "st" and inst.operands[0] is var:
                const = _const_value(inst.operands[1])
                if isinstance(const, int):
                    return frozenset((("const", const),))
                if const is not None and getattr(
                        const, "is_two_valued", False):
                    return frozenset((("const", const.to_int()),))
                return frozenset((("any",),))
            if record is not None and inst.opcode == "ld" \
                    and inst.operands[0] is var:
                record[id(inst)] = state
            return state

        unit = var.parent.parent
        state_in = {id(b): frozenset() for b in unit.blocks}
        changed = True
        while changed:
            changed = False
            for block in unit.blocks:
                state = state_in[id(block)]
                for inst in block.instructions:
                    state = transfer(inst, state)
                for succ in block.successors():
                    merged = state_in[id(succ)] | state
                    if merged != state_in[id(succ)]:
                        state_in[id(succ)] = merged
                        changed = True
        result = {}
        for block in unit.blocks:
            state = state_in[id(block)]
            for inst in block.instructions:
                state = transfer(inst, state, record=result)
        self._var_states_cache[id(var)] = result
        return result

    def _const_ld_value(self, value):
        """The provable constant value of an i1/iN SSA value, or None.

        Recognizes plain constants and loads of process variables whose
        reaching stores all wrote the same constant.
        """
        const = _const_value(value)
        if isinstance(const, int):
            return const
        if const is not None and getattr(const, "is_two_valued", False):
            return const.to_int()
        if isinstance(value, Instruction) and value.opcode == "ld":
            var = value.operands[0]
            if isinstance(var, Instruction) and var.opcode == "var":
                tokens = self._var_ld_states(var).get(id(value))
                if tokens and all(t[0] == "const" for t in tokens):
                    values = {t[1] for t in tokens}
                    if len(values) == 1:
                        return values.pop()
        return None

    # -- entity walk -------------------------------------------------------------

    def _walk_entity(self, unit, path, env):
        drv_driver = None
        for position, inst in enumerate(unit.body.instructions):
            op = inst.opcode
            if op == "sig":
                name = inst.name or f"%{position}"
                env[id(inst)] = self._new_net(
                    f"{path}.{name}", inst.type,
                    _const_value(inst.operands[0]))
            elif op == "con":
                a = self._sigref(inst.operands[0], env)
                b = self._sigref(inst.operands[1], env)
                if a is not None and b is not None:
                    self._connect(a, b, path)
            elif op == "del":
                name = inst.name or f"%{position}"
                net = self._new_net(f"{path}.{name}", inst.type, None)
                env[id(inst)] = net
                src = self._sigref(inst.operands[0], env)
                self.drivers.append(Driver(
                    net, (path, "del", position), "del", "comb", path,
                    f"{path} del %{inst.name or position}"))
                if src is not None and _zero_delay(inst.operands[1]):
                    self.edges.append((src, net, True))
            elif op == "inst":
                self._instantiate(unit, inst, path, env)
            elif op == "drv":
                target = self._sigref(inst.drv_signal(), env)
                if target is None:
                    continue
                if drv_driver is None:
                    drv_driver = (path, "drv")
                self.drivers.append(Driver(
                    target, drv_driver, "entity", "comb", path,
                    f"{path} drv {target.label()}"))
                if _zero_delay(inst.drv_delay()):
                    cone = {}
                    self._cone(inst.drv_value(), env, cone)
                    cond = inst.drv_condition()
                    if cond is not None:
                        self._cone(cond, env, cone, False)
                    for src, stable in cone.items():
                        self.edges.append((src, target, stable))
            elif op == "reg":
                self._entity_reg(inst, path, env)

    def _entity_reg(self, inst, path, env):
        target = self._sigref(inst.reg_signal(), env)
        if target is None:
            return
        where = f"{path} reg {target.label()}"
        clock_nets = []
        data_values = []
        cone = {}
        cond_cone = {}
        latch = False
        for trigger in inst.reg_triggers():
            mode = trigger["mode"]
            if mode in ("rise", "fall", "both"):
                clock = None
                tv = trigger["trigger"]
                if isinstance(tv, Instruction) and tv.opcode == "prb":
                    clock = self._sigref(tv.operands[0], env)
                if clock is not None:
                    clock_nets.append(clock)
                data_values.append(trigger["value"])
                self._cone(trigger["value"], env, cone)
            else:
                # A level trigger (latch): transparent while enabled, so
                # it behaves combinationally for loop purposes.
                latch = True
                self._cone(trigger["value"], env, cone)
                tv = trigger["trigger"]
                if tv is not None:
                    self._cone(tv, env, cond_cone, False)
            if trigger["cond"] is not None:
                self._cone(trigger["cond"], env, cond_cone, False)
        if latch and not clock_nets:
            self.drivers.append(Driver(
                target, (path, "reg", id(inst)), "reg", "comb", path,
                where))
            for src, stable in {**cone, **cond_cone}.items():
                self.edges.append((src, target, stable))
            return
        data_net = None
        if data_values:
            nets = []
            for value in data_values:
                if isinstance(value, Instruction) \
                        and value.opcode == "prb":
                    nets.append(self._sigref(value.operands[0], env))
                else:
                    nets = [None]
                    break
            if nets[0] is not None and all(n is nets[0] for n in nets):
                data_net = nets[0]
        self.drivers.append(Driver(
            target, (path, "reg", id(inst)), "reg", "edge", path, where,
            clocks=[n.find().index for n in clock_nets]))
        self.regs.append(Reg(
            target, clock_nets, data_net, cone,
            cond_cone, path, where))

    # -- hierarchy ---------------------------------------------------------------

    def _instantiate(self, parent, inst, path, env):
        callee = self.module.get(inst.callee)
        if callee is None or isinstance(callee, UnitDecl):
            return
        operands = inst.inst_inputs() + inst.inst_outputs()
        child_path = f"{path}.{inst.callee}"
        child_env = {}
        for arg, operand in zip(callee.args, operands):
            net = self._sigref(operand, env)
            if net is None and operand.type.is_signal:
                net = self._new_net(
                    f"{child_path}.{arg.name}", operand.type, None)
            child_env[id(arg)] = net
        if callee.is_entity:
            self._walk_entity(callee, child_path, child_env)
        else:
            self._walk_process(callee, child_path, child_env)

    # -- process classification ----------------------------------------------------

    def _walk_process(self, proc, path, env):
        drives = [inst for inst in proc.instructions()
                  if inst.opcode == "drv"]
        if not drives:
            return
        guard = _edge_guard(proc)
        edge_drives = set()
        if guard is not None:
            clocks, region, extra_conds = guard
            clock_nets = [net for net in
                          (self._sigref(c, env) for c in clocks)
                          if net is not None]
            if clock_nets:
                for drv in drives:
                    if drv.parent in region:
                        edge_drives.add(id(drv))
                        self._process_reg(proc, drv, region,
                                          extra_conds, clock_nets,
                                          path, env)
        waits = [b.terminator for b in proc.blocks
                 if b.terminator is not None
                 and b.terminator.opcode == "wait"]
        sensitivity = any(w.wait_time() is None for w in waits)
        closure = _wait_dest_closure(proc)
        key = (path, "proc")
        for drv in drives:
            if id(drv) in edge_drives:
                continue
            target = self._sigref(drv.drv_signal(), env)
            if target is None:
                continue
            where = f"{path} drv {target.label()}"
            if sensitivity:
                # Re-evaluated on signal changes with zero-delay drives:
                # combinational behaviour (always_comb).
                self.drivers.append(Driver(
                    target, key, "proc", "comb", path, where))
                if _zero_delay(drv.drv_delay()):
                    cone = {}
                    self._cone(drv.drv_value(), env, cone)
                    cond = drv.drv_condition()
                    if cond is not None:
                        self._cone(cond, env, cone, False)
                    for cond_value in _gating_branch_conds(proc, drv):
                        self._cone(cond_value, env, cone, False)
                    for src, stable in cone.items():
                        self.edges.append((src, target, stable))
            elif _init_only(proc, drv, closure):
                self.drivers.append(Driver(
                    target, key, "proc", "init", path, where))
            else:
                self.drivers.append(Driver(
                    target, key, "proc", "timed", path, where))

    def _process_reg(self, proc, drv, region, extra_conds, clock_nets,
                     path, env):
        """Record one edge-region drive as a register."""
        target = self._sigref(drv.drv_signal(), env)
        if target is None:
            return
        where = f"{path} drv {target.label()} " \
            f"@(edge {', '.join(n.label() for n in clock_nets)})"
        value = drv.drv_value()
        data_net = None
        if isinstance(value, Instruction) and value.opcode == "prb":
            data_net = self._sigref(value.operands[0], env)
        cone = {}
        self._cone(value, env, cone)
        cond_cone = {}
        for cond_value in extra_conds:
            self._cone(cond_value, env, cond_cone, False)
        cond = drv.drv_condition()
        if cond is not None:
            self._cone(cond, env, cond_cone, False)
        for block in region:
            term = block.terminator
            if term is not None and term.is_conditional_branch \
                    and _reachable(block, drv.parent, region):
                self._cone(term.operands[0], env, cond_cone, False)
        self.drivers.append(Driver(
            target, (path, "proc"), "proc", "edge", path, where,
            clocks=[n.find().index for n in clock_nets]))
        self.regs.append(Reg(target, clock_nets, data_net, cone,
                             cond_cone, path, where))


# -- CFG helpers ----------------------------------------------------------------


def _successors(block):
    term = block.terminator
    return term.successors() if term is not None else []


def _reachable(src, dst, region=None):
    """Is ``dst`` reachable from ``src`` (following successors), staying
    inside ``region`` when given?  ``src == dst`` counts as reachable."""
    if src is dst:
        return True
    seen = {id(src)}
    work = [src]
    while work:
        for succ in _successors(work.pop()):
            if region is not None and succ not in region:
                continue
            if succ is dst:
                return True
            if id(succ) not in seen:
                seen.add(id(succ))
                work.append(succ)
    return False


def _gating_branch_conds(proc, drv):
    """Conditions of branches gating whether ``drv`` executes in the
    current activation (reachability without crossing a wait: a branch
    whose influence only reaches the drive through a suspension gates a
    *later* activation, where it is recomputed)."""
    out = []
    for block in proc.blocks:
        term = block.terminator
        if term is None or not term.is_conditional_branch:
            continue
        if _reachable_no_wait(block, drv.parent):
            out.append(term.operands[0])
    return out


def _reachable_no_wait(src, dst):
    seen = {id(src)}
    work = [src]
    while work:
        term = work.pop().terminator
        if term is None or term.opcode == "wait":
            continue
        for succ in term.successors():
            if succ is dst:
                return True
            if id(succ) not in seen:
                seen.add(id(succ))
                work.append(succ)
    return False


def _wait_dest_closure(proc):
    """Blocks that can execute after at least one wait has suspended."""
    seen = set()
    work = []
    for block in proc.blocks:
        term = block.terminator
        if term is not None and term.opcode == "wait":
            dest = term.wait_dest()
            if id(dest) not in seen:
                seen.add(id(dest))
                work.append(dest)
    closure = {}
    while work:
        block = work.pop()
        closure[id(block)] = block
        for succ in _successors(block):
            if id(succ) not in seen:
                seen.add(id(succ))
                work.append(succ)
    return closure


def _init_only(proc, drv, closure):
    """Can this drive only fire in the initialization instant (t=0)?

    True when the drive sits before any wait on every path, or when its
    condition is a Moore shadow-``dirty`` flag — a variable initialized
    to zero whose only non-zero stores happen before the first wait, and
    which every wait block re-zeroes before suspending (so a set flag
    cannot leak across a time step).  The ``phi`` variant of the same
    pattern (post-mem2reg) is recognized too.
    """
    if id(drv.parent) not in closure:
        return True
    cond = drv.drv_condition()
    if not isinstance(cond, Instruction):
        return False
    if cond.opcode == "ld":
        return _init_only_dirty_var(proc, cond, closure)
    if cond.opcode == "phi":
        return _init_only_dirty_phi(proc, drv, cond, closure)
    return False


def _init_only_dirty_var(proc, cond, closure):
    var = cond.operands[0]
    if not (isinstance(var, Instruction) and var.opcode == "var"):
        return False
    if not _is_const_zero(var.operands[0]):
        return False
    nonzero_blocks = []
    zero_blocks = set()
    for use in list(var.uses):
        user = use.user
        if user.opcode == "ld":
            continue
        if user.opcode == "st" and user.operands[0] is var:
            if _is_const_zero(user.operands[1]):
                zero_blocks.add(id(user.parent))
            elif id(user.parent) in closure:
                return False  # set again after a wait: not init-only
            else:
                nonzero_blocks.append(user.parent)
            continue
        return False  # the flag escapes (address taken some other way)
    # Flush discipline: every wait block reachable from a non-zero store
    # must clear the flag before suspending, or a set flag could fire
    # the drive after time has advanced.
    for block in proc.blocks:
        term = block.terminator
        if term is None or term.opcode != "wait":
            continue
        if any(_reachable(nz, block) for nz in nonzero_blocks):
            if id(block) not in zero_blocks:
                return False
    return True


def _init_only_dirty_phi(proc, drv, cond, closure):
    """The mem2reg form: cond is a phi whose post-wait inputs are 0."""
    ops = cond.operands
    for i in range(0, len(ops), 2):
        value, pred = ops[i], ops[i + 1]
        if id(pred) in closure and not _is_const_zero(value):
            return False
    # The condition must not survive across a wait between its phi block
    # and the drive: search for a wait-crossing path.
    start = cond.parent
    seen = set()
    work = [(start, False)]
    while work:
        block, crossed = work.pop()
        term = block.terminator
        if term is None:
            continue
        is_wait = term.opcode == "wait"
        for succ in _successors(block):
            nxt = crossed or is_wait
            if succ is start:
                continue  # the phi re-evaluates
            if succ is drv.parent and nxt:
                return False
            state = (id(succ), nxt)
            if state not in seen:
                seen.add(state)
                work.append((succ, nxt))
    return True


# -- edge-guard recognition ------------------------------------------------------


def _edge_guard(proc):
    """Recognize the Moore ``always_ff`` shape.

    One sensitivity wait in block W, destination C; C branches on an
    edge test back to W (no edge) or into a drive region (edge).
    Returns ``(clock_values, region_blocks, extra_cond_values)`` with
    clock_values the probed clock signals, region_blocks a set of
    blocks executing only on the triggering edge, and extra_cond_values
    the non-edge literals of the guard (e.g. a synchronous-reset term).
    """
    wait_blocks = [b for b in proc.blocks
                   if b.terminator is not None
                   and b.terminator.opcode == "wait"]
    if len(wait_blocks) != 1:
        return None
    w_block = wait_blocks[0]
    wait = w_block.terminator
    if wait.wait_time() is not None:
        return None
    check = wait.wait_dest()
    term = check.terminator
    if term is None or not term.is_conditional_branch:
        return None
    cond, dest_false, dest_true = term.operands
    if dest_false is w_block and dest_true is not w_block:
        dnf, entry = build_dnf(cond), dest_true
    elif dest_true is w_block and dest_false is not w_block:
        dnf, entry = negate_dnf(build_dnf(cond)), dest_false
    else:
        return None
    if dnf == FALSE:
        return None
    clocks = []
    extra_conds = []
    for term_lits in terms(dnf):
        edge_clock = _term_edge(term_lits, w_block, check, extra_conds)
        if edge_clock is None:
            return None
        clocks.append(edge_clock)
    # The region: blocks reachable from the edge branch without passing
    # back through the wait block.  It must not contain another path
    # into the wait's check block (single-entry).
    region = set()
    work = [entry]
    while work:
        block = work.pop()
        if block in region or block is w_block:
            continue
        if block is check:
            return None
        region.add(block)
        work.extend(_successors(block))
    return clocks, region, extra_conds


def _term_edge(term_lits, w_block, check, extra_conds):
    """Extract the clock of one edge term; other literals become conds.

    Recognizes the two Moore edge tests: two-valued
    ``neq(past, present) ∧ present`` (and the polarity variants) and
    nine-valued ``at-level(present) ∧ ¬at-level(past)``.
    """
    from ..passes.deseq import _logic_level_literal

    past = {}       # id(root sig value) -> (root, level, positive)
    present = {}
    changes = []    # (past_probe, present_probe, differs)
    opaque = []
    for value, positive in sorted(literals(term_lits),
                                  key=lambda lit: id(lit[0])):
        probe, level = value, None
        decomposed = _logic_level_literal(value)
        if decomposed is not None:
            probe, level = decomposed
        if isinstance(probe, Instruction) and probe.opcode == "prb":
            root = probe.operands[0]
            entry = (root, level, positive)
            if probe.parent is w_block:
                past[id(root)] = entry
            elif probe.parent is check:
                present[id(root)] = entry
            else:
                opaque.append((value, positive))
        elif (isinstance(value, Instruction)
              and value.opcode in ("eq", "neq")
              and all(isinstance(o, Instruction) and o.opcode == "prb"
                      for o in value.operands)):
            a, b = value.operands
            pa, pb = (a, b) if a.parent is w_block else (b, a)
            if pa.parent is w_block and pb.parent is check \
                    and pa.operands[0] is pb.operands[0]:
                differs = (value.opcode == "neq") == bool(positive)
                changes.append((pa, pb, differs))
            else:
                opaque.append((value, positive))
        else:
            opaque.append((value, positive))
    # Uncollapsed form: changed(s) ∧ present-level(s) (the raw ``neq``
    # survives DNF construction only for multi-bit samples).
    for past_probe, present_probe, differs in changes:
        if not differs:
            continue
        root = present_probe.operands[0]
        entry = present.get(id(root))
        if entry is not None and entry[1] is None:
            extra_conds.extend(v for v, _ in opaque)
            return root
    # Collapsed form: the past and present samples of one signal tested
    # against mutually exclusive states.  For i1 the DNF builder turns
    # ``neq(past, present) ∧ present`` into ``¬past ∧ present`` (same
    # level — here None — opposite sign); for l1 the Moore test is
    # ``at-level(present) ∧ ¬at-level(past)`` (same level, opposite
    # sign) or two opposite levels, both positive.
    for root_id, (root, level_p, pos_p) in present.items():
        was = past.get(root_id)
        if was is None:
            continue
        _root, level_w, pos_w = was
        exclusive = (level_p == level_w and pos_p != pos_w) or (
            level_p is not None and level_w is not None
            and level_p != level_w and pos_p and pos_w)
        if exclusive:
            extra_conds.extend(v for v, _ in opaque)
            return root
    return None
