"""Predecoded execution plans for the reference interpreter.

Each unit is predecoded *once* into a plan of small step closures, so
the hot loop neither re-dispatches on opcode strings nor rebuilds
operand lists:

* a pure instruction with an entry in the opcode table
  (:mod:`repro.sim.optable`, the table blaze emits from) runs a step
  generated from that entry.  Each entry is compiled once per Python
  process into a step factory; the factory binds one instruction's
  ``env`` keys and width constants, so every width shares the one
  ``compile()``.  Ops without an entry (aggregates) call their
  :mod:`repro.sim.eval` evaluator, and ``reg`` edge tests call the
  table's :func:`~repro.sim.optable.edge` from :func:`fired_trigger`,
  the one trigger loop, which blaze's generated ``reg`` code and the
  levelized storage cells call too;
* ``extf``/``exts`` through a signal or pointer call :func:`project`,
  and ``ld``/``st`` call :func:`load`/:func:`store`.  The code blaze
  and cycle generate calls the same functions (and ``eval.extf``/
  ``eval.insf``), so each aggregate and projection rule, with its
  error text, exists once;
* blaze's three local rewrites apply too, through the same analyses: a
  private two-choice ``array`` + i1 ``mux`` becomes one conditional
  step, a cell whose pointer never escapes is a plain ``env`` slot
  (both found by :func:`local_rewrites`), and :func:`forwarding`
  decides what a block only renames.  Within a
  block a promoted cell holds its init, then what the last ``st``
  stored, so its ``var``/``alloc``/``st`` need no step; an ``ld`` is
  forwarded to the value the cell holds when that value is stable (a
  constant, an argument or an instruction of the block, never a slot)
  or when every use of the ``ld`` precedes the block's write-back, and
  copied where it stands otherwise; a repeated ``prb`` in a block is
  its first, since no time passes inside a block.  A forwarded
  instruction needs no step: every builder reads its operands through
  ``key_of``, which follows the forwards, and each block ends with one
  parallel copy writing back the cells it wrote that a later block may
  read (backward liveness over the CFG);
* a process or function's ``const`` results leave the step lists: the
  plan returns them for the activity to seed into ``env`` once;
* every terminator becomes a ``term(env, act)`` closure that
  applies the phi parallel copies for the taken edge and returns the next
  :class:`BlockPlan` (or ``None`` when the activity suspends or halts);
* entity bodies become a flat tuple of steps replayed per activation.

Plans capture unit-level statics (instruction identities, constants,
types) plus the design's kernel, so one plan is shared by every
elaborated instance of the unit in a design; the per-instance state
stays in the activity's ``env`` dict.  Only the steps are generated:
values still flow through ``env`` one instruction at a time, the
predecoded-bytecode layout of an interpreter.
"""

from __future__ import annotations

import functools

from ..ir.values import TimeValue
from .engine import SignalInstance, SignalRef, net_of
from .eval import EVALUATORS, path_of
from .optable import GLOBALS, TABLE, UNBOXED, box, edge, entry
from .values import SimulationError, dynamic_index, extract_path, insert_path

_EPSILON = TimeValue(0, 0, 1)


class Cell:
    """A mutable memory cell backing ``var``/``alloc``."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class CellRef:
    """A projection into a cell: result of extf/exts on a pointer."""

    __slots__ = ("cell", "path")

    def __init__(self, cell, path):
        self.cell = cell
        self.path = path


def project(base, step):
    """extf/exts through a signal or pointer: ``base`` narrowed by one
    path step, a :class:`SignalRef` or :class:`CellRef`."""
    kind = type(base)
    if kind is SignalRef:
        return SignalRef(base.signal, base.path + (step,))
    if kind is CellRef:
        return CellRef(base.cell, base.path + (step,))
    if kind is Cell:
        return CellRef(base, (step,))
    return SignalRef(base, (step,))


def load(pointer):
    """``ld``: the value a cell or cell projection holds."""
    if type(pointer) is Cell:
        return pointer.value
    return extract_path(pointer.cell.value, pointer.path)


def store(pointer, value):
    """``st``: write ``value`` into a cell or cell projection."""
    if type(pointer) is Cell:
        pointer.value = value
    else:
        cell = pointer.cell
        cell.value = insert_path(cell.value, pointer.path, value)


def probe_value(target, kernel):
    """Read a signal operand (fast path for unmerged whole signals)."""
    if type(target) is SignalInstance:
        if target._rep is None:
            return target.value
        return target.find().value
    return kernel.probe(target)


class BlockPlan:
    """One basic block: straight-line steps plus a terminator, and the
    block's position in layout order."""

    __slots__ = ("steps", "term", "index")

    def __init__(self, index):
        self.steps = ()
        self.term = None
        self.index = index


class _Timeout:
    """Resume-after-timeout token; stale tokens are ignored."""

    __slots__ = ("proc", "token", "order")

    def __init__(self, proc, token):
        self.proc = proc
        self.token = token
        self.order = proc.order

    def run(self, kernel):
        if self.proc.status == "waiting" and \
                self.proc.wait_token == self.token:
            self.proc.run(kernel)


# -- step builders -------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _step_factory(key, constants):
    """Compile the table entry ``key`` into a step factory, once.

    ``factory(dst, *operand keys, *constants)`` returns the step
    ``env[dst] = <entry's form>``.  The width constants are closure
    values, so one ``compile()`` serves every width the entry meets.
    ``env`` holds only LogicVec ``lN`` values, so the step boxes an
    entry's unboxed vector result (:data:`~repro.sim.optable.UNBOXED`)
    inline.
    """
    form = TABLE[key]
    operands = [x for x in ("a", "b") if "{%s}" % x in form]
    params = ", ".join(["dst"] + [f"k{x}" for x in operands]
                       + list(constants))
    loads = "".join(f"        {x} = env[k{x}]\n" for x in operands)
    names = {field: field for field in ("a", "b") + constants}
    value = form.format(**names)
    if key in UNBOXED:
        loads += f"        r = {value}\n"
        value = box("r", "w")
    source = (f"def factory({params}):\n"
              f"    def step(env, act):\n{loads}"
              f"        env[dst] = {value}\n"
              f"    return step\n")
    namespace = dict(GLOBALS)
    exec(compile(source, f"<plan:{key[0]}:{key[1]}>", "exec"), namespace)
    return namespace["factory"]


def _pure_step(inst, key_of=id):
    """A side-effect-free step: its opcode-table entry, else its evaluator.

    Like every builder, it reads operand ``v`` from ``env[key_of(v)]``:
    ``key_of`` is ``id``, or follows :func:`forwarding`'s forwards.
    """
    op = inst.opcode
    key = id(inst)
    ops = inst.operands
    opids = tuple(key_of(o) for o in ops)
    found = entry(op, [o.type for o in ops], inst.type,
                  inst.attrs.get("offset"))
    if found is not None:
        table_key, constants = found
        factory = _step_factory(table_key, tuple(constants))
        return factory(key, *opids, *constants.values())
    fn = EVALUATORS.get(op)
    if fn is None:
        raise SimulationError(f"plan: not a pure instruction: {op}")
    if len(opids) == 1:
        a = opids[0]

        def step(env, act):
            env[key] = fn(inst, (env[a],))
    elif len(opids) == 2:
        a, b = opids

        def step(env, act):
            env[key] = fn(inst, (env[a], env[b]))
    else:
        def step(env, act):
            env[key] = fn(inst, [env[i] for i in opids])
    return step


def _fused_mux_step(inst, key_of):
    """``mux [f, t], c`` over a fused array: ``t if c else f``."""
    key = id(inst)
    f_val, t_val = inst.operands[0].operands
    f, t, c = key_of(f_val), key_of(t_val), key_of(inst.operands[1])

    def step(env, act):
        env[key] = env[t] if env[c] else env[f]
    return step


def _copy_step(dst, src):
    """``env[dst] = env[src]``: an ``ld`` that :func:`forwarding` copies,
    or a block's one write-back."""
    def step(env, act):
        env[dst] = env[src]
    return step


def _flush_step(pairs):
    """A block's write-back of the promoted cells it wrote: one parallel
    copy of ``(slot key, value key)`` pairs."""
    if len(pairs) == 1:
        return _copy_step(*pairs[0])

    def step(env, act):
        _apply_copies(env, pairs)
    return step


def _ext_step(inst, kernel, key_of):
    """extf/exts: a pure step on a value, :func:`project` through a
    signal or pointer."""
    base = inst.operands[0]
    if not (base.type.is_signal or base.type.is_pointer):
        return _pure_step(inst, key_of)
    key, bid = id(inst), key_of(base)
    if inst.has_dynamic_index:
        iid = key_of(inst.operands[1])

        def step(env, act):
            env[key] = project(env[bid], ("field", dynamic_index(env[iid])))
        return step
    path_step = path_of(inst)

    def step(env, act):
        env[key] = project(env[bid], path_step)
    return step


def _prb_step(inst, kernel, key_of):
    key = id(inst)
    sid = key_of(inst.operands[0])

    def step(env, act):
        target = env[sid]
        if type(target) is SignalInstance:
            if target._rep is None:
                env[key] = target.value
            else:
                env[key] = target.find().value
        else:
            env[key] = kernel.probe(target)
    return step


def _drv_step(inst, kernel, key_of):
    sid = key_of(inst.drv_signal())
    vid = key_of(inst.drv_value())
    did = key_of(inst.drv_delay())
    cond = inst.drv_condition()
    if cond is None:
        def step(env, act):
            kernel.schedule_drive(act.order, env[sid], env[vid], env[did])
    else:
        cid = key_of(cond)

        def step(env, act):
            if env[cid]:
                kernel.schedule_drive(
                    act.order, env[sid], env[vid], env[did])
    return step


def _sig_step(inst, kernel, key_of):
    key = id(inst)
    init = key_of(inst.operands[0])
    label = inst.name or id(inst)
    ty = inst.type

    def step(env, act):
        if key not in env:
            env[key] = act.design.create_signal(
                f"{act.path}.{label}", ty, env[init])
    return step


def _cell_step(inst, kernel, key_of):
    key = id(inst)
    init = key_of(inst.operands[0])

    def step(env, act):
        env[key] = Cell(env[init])
    return step


def _ld_step(inst, kernel, key_of):
    key = id(inst)
    pid = key_of(inst.operands[0])

    def step(env, act):
        env[key] = load(env[pid])
    return step


def _st_step(inst, kernel, key_of):
    pid = key_of(inst.operands[0])
    vid = key_of(inst.operands[1])

    def step(env, act):
        store(env[pid], env[vid])
    return step


def _call_step(inst, kernel, key_of):
    key = id(inst)
    callee = inst.callee
    opids = tuple(key_of(o) for o in inst.operands)
    void = inst.type.is_void

    def step(env, act):
        result = act.functions.call(
            callee, [env[i] for i in opids], where=f"in {act.path}")
        if not void:
            env[key] = result
    return step


def _del_step(inst, kernel):
    key = id(inst)
    src = id(inst.operands[0])
    did = id(inst.operands[1])

    def step(env, act):
        kernel.schedule_drive(
            ("del", act.order, key), env[key],
            probe_value(env[src], kernel), env[did])
    return step


def fired_trigger(triggers, prev_list, values):
    """The ``reg`` trigger that fires, or None.

    ``triggers`` are ``(edge test, data, trigger, condition, delay)``
    tuples whose data, trigger and condition (None when unconditional)
    are keys into ``values``: the interpreter's ``env``, a levelized
    cone's ``V``, the tuple blaze's ``reg`` code builds.  Every
    trigger's previous value in ``prev_list`` updates; the first
    trigger whose edge fires and whose condition holds wins.
    """
    hit = None
    for i, trigger in enumerate(triggers):
        fires, _data, trig, cond, _delay = trigger
        cur = values[trig]
        if hit is None and fires(cur, prev_list[i]) and (
                cond is None or values[cond]):
            hit = trigger
        prev_list[i] = cur
    return hit


def _reg_step(inst, kernel):
    key = id(inst)
    sig_id = id(inst.reg_signal())
    # Each trigger's edge test is the opcode table's entry for its mode.
    trigs = tuple(
        (edge(t["mode"], t["trigger"].type), id(t["value"]),
         id(t["trigger"]),
         id(t["cond"]) if t["cond"] is not None else None,
         id(t["delay"]) if t["delay"] is not None else None)
        for t in inst.reg_triggers())

    def step(env, act):
        hit = fired_trigger(trigs, act.reg_state[key], env)
        if hit is not None:
            did = hit[4]
            kernel.schedule_drive(
                ("reg", act.order, key), env[sig_id], env[hit[1]],
                env[did] if did is not None else _EPSILON)
    return step


_STEP_BUILDERS = {
    "prb": _prb_step,
    "drv": _drv_step,
    "sig": _sig_step,
    "var": _cell_step,
    "alloc": _cell_step,
    "ld": _ld_step,
    "st": _st_step,
    "call": _call_step,
    "extf": _ext_step,
    "exts": _ext_step,
}


def _step_for(inst, allowed, where, kernel, key_of=id, fused=frozenset()):
    """The step for ``inst``, or None when it needs none.

    ``key_of`` maps an operand to its ``env`` key and ``fused`` holds the
    arrays :func:`local_rewrites` folds into their mux.
    """
    op = inst.opcode
    if op == "free" or id(inst) in fused:
        return None
    builder = _STEP_BUILDERS.get(op)
    if builder is not None:
        if op not in allowed:
            raise SimulationError(f"{where}: '{op}' not allowed here")
        return builder(inst, kernel, key_of)
    if op in EVALUATORS:
        if op == "mux" and id(inst.operands[0]) in fused:
            return _fused_mux_step(inst, key_of)
        return _pure_step(inst, key_of)
    raise SimulationError(f"{where}: '{op}' not allowed here")


# -- terminators ---------------------------------------------------------------

def _edge_copies(pred, succ, key_of):
    """Phi parallel copies for the CFG edge pred -> succ."""
    phis = succ.phis()
    if not phis:
        return ()
    return tuple((id(p), key_of(p.phi_value_for(pred))) for p in phis)


def _apply_copies(env, copies):
    values = [env[s] for _, s in copies]
    for (d, _), v in zip(copies, values):
        env[d] = v


def _term_br(inst, block, plans, kernel, key_of):
    if inst.is_conditional_branch:
        cid = key_of(inst.operands[0])
        f_dest, t_dest = inst.operands[1], inst.operands[2]
        t_plan, f_plan = plans[id(t_dest)], plans[id(f_dest)]
        t_copies = _edge_copies(block, t_dest, key_of)
        f_copies = _edge_copies(block, f_dest, key_of)
        if not t_copies and not f_copies:
            def term(env, act):
                return t_plan if env[cid] else f_plan
            return term

        def term(env, act):
            if env[cid]:
                if t_copies:
                    _apply_copies(env, t_copies)
                return t_plan
            if f_copies:
                _apply_copies(env, f_copies)
            return f_plan
        return term
    dest = inst.operands[0]
    plan = plans[id(dest)]
    copies = _edge_copies(block, dest, key_of)
    if not copies:
        def term(env, act):
            return plan
        return term

    def term(env, act):
        _apply_copies(env, copies)
        return plan
    return term


def _term_wait(inst, block, plans, kernel, key_of):
    dest = inst.wait_dest()
    dest_plan = plans[id(dest)]
    copies = _edge_copies(block, dest, key_of)
    time_op = inst.wait_time()
    tid = key_of(time_op) if time_op is not None else None
    sig_ids = tuple(key_of(s) for s in inst.wait_signals())

    def term(env, act):
        if copies:
            _apply_copies(env, copies)
        act._bp = dest_plan
        act.status = "waiting"
        act.resubscribe(tuple([net_of(env[i]) for i in sig_ids]))
        if tid is not None:
            kernel.schedule_resume(
                _Timeout(act, act.wait_token), env[tid])
        return None
    return term


def _term_halt(inst, block, plans, kernel, key_of):
    def term(env, act):
        act.halt()
        return None
    return term


def _term_ret(inst, block, plans, kernel, key_of):
    if inst.operands:
        vid = key_of(inst.operands[0])

        def term(env, act):
            act.result = env[vid]
            return None
    else:
        def term(env, act):
            act.result = None
            return None
    return term


_TERM_BUILDERS = {"br": _term_br, "wait": _term_wait, "halt": _term_halt}


# -- plan construction ---------------------------------------------------------

_PROC_OPS = frozenset({
    "prb", "drv", "sig", "var", "alloc", "ld", "st", "call", "extf", "exts",
})
_ENTITY_OPS = frozenset({"prb", "drv", "call", "extf", "exts"})
_FUNC_OPS = frozenset({"var", "alloc", "ld", "st", "call", "extf", "exts"})


def local_rewrites(unit):
    """``(fused, promoted)``: what blaze and the interpreter fuse and
    promote in ``unit``, from one walk over its instructions that counts
    each value's operand uses and each cell's ``ld``/``st`` pointer and
    ``free`` uses, and collects the cells and the muxes.

    ``fused`` holds the ids of two-choice ``array`` insts whose one use
    is an i1 ``mux``: ``c ? a : b`` lowers to ``mux [b, a], c``, and
    when the pair is private, blaze and the interpreter fuse it into
    ``a if c else b`` and never build the array (the instcombine LLVM
    would do for Blaze).  An ``lN`` selector keeps the mux, whose X
    selector must raise.

    ``promoted`` holds the ids of the ``var``/``alloc`` cells whose
    pointer never escapes: a cell that is only ever the pointer operand
    of ``ld``/``st`` (or freed) needs no cell object, and its value is a
    slot, a Python local in blaze and an ``env`` entry in the
    interpreter, that :func:`forwarding` reads and writes back (the
    mem2reg LLVM would do for Blaze).
    """
    uses = {}      # id(value) -> its operand uses
    kept = {}      # id(cell) -> its uses as an ld/st pointer or freed
    cells, muxes = [], []
    for block in unit.blocks:
        for inst in block.instructions:
            op, ops = inst.opcode, inst.operands
            for operand in ops:
                uses[id(operand)] = uses.get(id(operand), 0) + 1
            if op == "ld" or op == "st" or op == "free":
                kept[id(ops[0])] = kept.get(id(ops[0]), 0) + 1
            elif op == "var" or op == "alloc":
                cells.append(id(inst))
            elif op == "mux":
                muxes.append(inst)
    fused = set()
    for mux in muxes:
        arr, sel = mux.operands
        if (getattr(arr, "opcode", None) == "array"
                and not arr.attrs.get("splat")
                and len(arr.operands) == 2
                and sel.type.is_int and sel.type.width == 1
                and uses.get(id(arr)) == 1):
            fused.add(id(arr))
    promoted = {cell for cell in cells if uses.get(cell) == kept.get(cell)}
    return fused, promoted


def _used_here(value, block):
    """Whether every use of ``value`` is a non-phi, non-terminator
    instruction of ``block``.  An ``array`` answers for its own uses, as
    a fused mux reads the array's operands where the mux stands."""
    for use in value.uses:
        user = use.user
        if user.parent is not block or user.opcode == "phi" or \
                user.is_terminator or \
                (user.opcode == "array" and not _used_here(user, block)):
            return False
    return True


def forwarding(unit, promoted):
    """What each block of ``unit`` only renames, by the rules of the
    module docstring; ``promoted`` are the cells :func:`local_rewrites`
    promotes.

    Returns ``(forwards, copies, flushes, dropped)``:

    * ``forwards`` maps the id of an ``ld`` or ``prb`` to the value it
      reads instead (never itself forwarded);
    * ``copies`` maps the id of an ``ld`` that must copy where it stands
      to the value it copies;
    * ``flushes`` maps a block's id to the ``(cell, value)`` pairs it
      writes back, as one parallel copy, before its terminator;
    * ``dropped`` holds the ids of the instructions that need no step
      or line: the forwarded ones and the promoted ``var``/``alloc``/
      ``st``.

    A cell's slot is keyed by its ``var``/``alloc``; before a block
    writes the cell, the cell holds its own slot, which the write-back
    rewrites, so an ``ld`` of it is forwarded only when every use
    precedes the write-back.  A block reads a slot when it loads the
    cell before writing it.  The write-back is parallel because a held
    value may be another cell's slot (``st a, (ld b); st b, (ld a)``).
    """
    forwards, copies, flushes, dropped = {}, {}, {}, set()
    reads, held_at = {}, {}
    for block in unit.blocks:
        held, probed, read = {}, {}, set()
        for inst in block.instructions:
            op, ops = inst.opcode, inst.operands
            if op in ("var", "alloc") and id(inst) in promoted:
                held[id(inst)] = (inst, forwards.get(id(ops[0]), ops[0]))
                dropped.add(id(inst))
            elif op == "st" and id(ops[0]) in promoted:
                held[id(ops[0])] = (ops[0], forwards.get(id(ops[1]), ops[1]))
                dropped.add(id(inst))
            elif op == "ld" and id(ops[0]) in promoted:
                cell = ops[0]
                if id(cell) in held:
                    value = held[id(cell)][1]
                else:
                    value = cell
                    read.add(id(cell))
                kind = getattr(value, "opcode", None)
                if kind is None or kind == "const" or (
                        value.parent is block and id(value) not in promoted) \
                        or _used_here(inst, block):
                    forwards[id(inst)] = value
                    dropped.add(id(inst))
                else:
                    copies[id(inst)] = value
            elif op == "prb":
                first = probed.setdefault(
                    id(forwards.get(id(ops[0]), ops[0])), inst)
                if first is not inst:
                    forwards[id(inst)] = first
                    dropped.add(id(inst))
        reads[id(block)], held_at[id(block)] = read, held
    if not any(held_at.values()):
        return forwards, copies, flushes, dropped
    live = {id(b): set(reads[id(b)]) for b in unit.blocks}
    changed = True
    while changed:
        changed = False
        for block in reversed(unit.blocks):
            live_in = live[id(block)]
            held = held_at[id(block)]
            for succ in block.successors():
                for cell in live[id(succ)]:
                    if cell not in held and cell not in live_in:
                        live_in.add(cell)
                        changed = True
    for block in unit.blocks:
        held = held_at[id(block)]
        if held:
            live_out = set().union(*(live[id(s)] for s in block.successors()))
            pairs = tuple(pair for cell, pair in held.items()
                          if cell in live_out and pair[1] is not pair[0])
            if pairs:
                flushes[id(block)] = pairs
    return forwards, copies, flushes, dropped


def _build_cfg_plan(unit, allowed, terms, kind, kernel):
    where = f"@{unit.name}"
    plans = {id(b): BlockPlan(i) for i, b in enumerate(unit.blocks)}
    consts = {}
    fused, promoted = local_rewrites(unit)
    forwards, copies, flushes, dropped = forwarding(unit, promoted)

    def key_of(value):
        return id(forwards.get(id(value), value))

    for block in unit.blocks:
        plan = plans[id(block)]
        instructions = block.instructions
        if not instructions or not instructions[-1].is_terminator:
            raise SimulationError(f"{where}: block without terminator")
        phis = block.phis()
        steps = []
        for inst in instructions[len(phis):-1]:
            if inst.opcode == "const":
                consts[id(inst)] = inst.attrs["value"]
                continue
            if id(inst) in dropped:
                continue
            source = copies.get(id(inst))
            if source is not None:
                steps.append(_copy_step(id(inst), id(source)))
                continue
            step = _step_for(inst, allowed, where, kernel, key_of, fused)
            if step is not None:
                steps.append(step)
        flush = flushes.get(id(block))
        if flush:
            steps.append(_flush_step(
                tuple((id(cell), id(value)) for cell, value in flush)))
        plan.steps = tuple(steps)
        term_inst = instructions[-1]
        builder = terms.get(term_inst.opcode)
        if builder is None:
            raise SimulationError(
                f"{where}: '{term_inst.opcode}' not allowed in {kind}")
        plan.term = builder(term_inst, block, plans, kernel, key_of)
    return plans[id(unit.entry)], consts


def build_process_plan(unit, kernel):
    """Predecode a process unit; returns ``(entry BlockPlan, constants)``.

    One plan serves every instance of the unit: steps key the environment
    by instruction identity, which is shared across instances.  The plan
    hoists every ``const`` out of its steps: ``constants`` maps their
    keys to values, seeded once into an instance's ``env``.
    """
    return _build_cfg_plan(unit, _PROC_OPS, _TERM_BUILDERS, "a process",
                           kernel)


def build_function_plan(unit, kernel):
    """Predecode a function body; returns ``(entry BlockPlan, constants)``.

    Functions run to a ``ret``: the frame object passed as the activity
    receives the return value in its ``result`` attribute.  Each call's
    ``env`` starts as a copy of ``constants``.
    """
    return _build_cfg_plan(
        unit, _FUNC_OPS, {"br": _term_br, "ret": _term_ret}, "a function",
        kernel)


def build_entity_plan(unit, kernel):
    """Predecode an entity body's re-activation steps.

    Elaboration-only instructions (``sig``, ``inst``, ``con``) are
    skipped, and so are ``const`` steps: the elaboration walk left their
    values in ``env``.  ``del`` re-drives, ``reg`` detects trigger
    edges, everything else re-evaluates dataflow.
    """
    where = f"@{unit.name}"
    fused = local_rewrites(unit)[0]
    steps = []
    for inst in unit.body:
        op = inst.opcode
        if op in ("sig", "inst", "con", "const"):
            continue
        if op == "del":
            steps.append(_del_step(inst, kernel))
        elif op == "reg":
            steps.append(_reg_step(inst, kernel))
        else:
            step = _step_for(inst, _ENTITY_OPS, where, kernel, id, fused)
            if step is not None:
                steps.append(step)
    return tuple(steps)
