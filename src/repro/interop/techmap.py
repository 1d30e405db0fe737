"""A small demonstration technology mapper: Structural → Netlist LLHD.

The paper leaves synthesis to external tools ("due to its complexity,
synthesis is expected to remain the domain of tools outside the LLHD
project"), but defines the Netlist level: entities plus ``sig``/``con``/
``del``/``inst``.  This mapper demonstrates the level transition on the
subset it understands: it maps each data-flow operator of an entity onto
an instance of a gate-library cell (itself an entity), producing a valid
Netlist-LLHD module.  It exists to exercise the Netlist dialect and the
level verifier, not to be a logic synthesizer.

One rule makes every gate cell: a data-flow instruction maps onto a
cell that probes its ports, computes one copy of the instruction and
drives ``y``.  Each value operand is an input port (a ``mux``'s choices
are one port each, then the selector); the static ``index``/``offset``/
``length`` attributes and a constant ``shl``/``shr`` amount (clamped to
the shifted width, past which every bit is out) are built into the cell
and name it (``cell_exts_4_8_i16``, ``cell_shl_3_i8``).
The library is *typed*: a cell is keyed by its opcode, its operand and
result types and those built-in values, so two-valued (``iN``) and
nine-valued (``lN``) operators map to distinct cells, each computing
exactly what the instruction computed in the entity it replaces.
Sequential storage (``reg``) maps onto flip-flop/latch cells keyed by
their trigger signature (modes, conditions, delays) including
write-port cells for ``reg`` on a projected sub-signal (the FIFO memory
pattern), and signal projections (``extf``/``exts`` used as probe
sources) become read-port wiring cells.  Drives preserve their delay:
zero-delay drives become ``con`` net merges, delayed drives go through
a ``del`` node.  The mapper only builds the library.  The simulator
reads the cells back structurally (the levelized engine classifies each
cell entity it instantiates), so nothing here is simulator-facing.

With ``keep_behavioural=True`` the mapper accepts a module that still
contains behavioural processes (the testbench left behind by a
non-strict ``lower_to_structural`` run): entities are mapped, processes
are carried over verbatim, and only the entities are held to the level
contract.  :func:`netlist_design` wraps this into a one-call
"design to simulatable netlist" helper used by the staged
semantic-preservation harness and the benchmarks.
"""

from __future__ import annotations

from ..ir.builder import Builder
from ..ir.dialects import (
    NETLIST, STRUCTURAL, STRUCTURAL_OPCODES, level_violations,
)
from ..ir.instructions import CAST_OPS, DATAFLOW_OPS, Instruction
from ..ir.ninevalued import LogicVec
from ..ir.types import int_type, signal_type
from ..ir.units import Entity, Module, UnitDecl
from ..ir.values import TimeValue


class TechmapError(Exception):
    """Raised when a construct has no gate-library mapping."""


# The attributes a gate cell builds in: static indices and slice bounds.
_STATIC_ATTRS = ("index", "offset", "length")


def _type_key(ty):
    """A compact, filename-safe spelling of a type for cell names."""
    return str(ty).replace(" ", "").replace("[", "a").replace("]", "") \
        .replace("{", "s").replace("}", "").replace(",", "_") \
        .replace("$", "")


def technology_map(module, gate_delay="100ps", keep_behavioural=False):
    """Map a Structural LLHD module into Netlist LLHD.

    Returns ``(netlist, library)``: the netlist module (cells appear as
    *declarations* — black boxes, as in a real flow where cell behaviour
    comes from a liberty file) and a separate library module holding
    behavioural cell models.  Linking the two (``link_modules``) yields a
    simulatable design.

    With ``keep_behavioural`` the input module may still contain
    processes (e.g. the testbench after a non-strict lowering); they are
    moved into the netlist module unchanged, and the level contract is
    checked on the mapped entities only.
    """
    entities = [u for u in module if u.is_entity]
    rest = [u for u in module if not u.is_entity]
    if rest and not keep_behavioural:
        issues = level_violations(module, STRUCTURAL)
        raise TechmapError(
            "input is not Structural LLHD:\n  " + "\n  ".join(issues))
    for entity in entities:
        issues = [f"@{entity.name}: instruction '{i.opcode}' is not "
                  f"allowed in structural LLHD"
                  for i in entity.instructions()
                  if i.opcode not in STRUCTURAL_OPCODES]
        if issues:
            raise TechmapError(
                "input is not Structural LLHD:\n  " + "\n  ".join(issues))
    out = Module(module.name + "_netlist")
    library_module = Module(module.name + "_cells")
    library = {"__module__": library_module, "__out__": out,
               "__counts__": {}}
    for unit in entities:
        _map_entity(unit, out, library, TimeValue.parse(gate_delay))
    # Check the level contract before consuming the input: on failure the
    # caller keeps an intact behavioural module to fall back to.
    remaining = level_violations(out, NETLIST)
    if remaining:
        raise TechmapError(
            "techmap produced invalid netlist:\n  " + "\n  ".join(remaining))
    for unit in rest:
        module.remove(unit.name)
        out.add(unit)
    return out, library_module


def netlist_design(module):
    """Techmap ``module`` (lowered, testbench processes allowed) and link
    the netlist with its cell library into one simulatable module.

    Zero gate delay keeps the netlist trace-identical to the structural
    module it was mapped from: every cell drive lands in the same
    femtosecond, only delta steps differ — which traces collapse.
    Consumes ``module`` (its processes move into the netlist).
    """
    from ..ir.linker import link_modules

    netlist, library = technology_map(
        module, gate_delay="0s", keep_behavioural=True)
    return link_modules([netlist, library], name=module.name + "_nl")


# -- cell construction ---------------------------------------------------------


def _declare(out, library, cell):
    library["__module__"].add(cell)
    out.declare(UnitDecl(
        cell.name, "entity",
        [a.type for a in cell.inputs], [a.type for a in cell.outputs]))
    return cell.name


def _numbered_name(library, kind, ty):
    """``cell_{kind}{n}_{type}``, numbering each storage or port kind
    from 0 in creation order, so the name does not depend on how many
    other cells the library caches."""
    counts = library["__counts__"]
    n = counts.get(kind, 0)
    counts[kind] = n + 1
    return f"cell_{kind}{n}_{_type_key(ty)}"


def _cell(out, library, opcode, in_types, out_ty, delay, attrs=None,
          amount=None):
    """Get or create the gate cell computing ``opcode`` over inputs of
    ``in_types``, producing ``out_ty``.

    The body probes every port, computes one copy of the instruction and
    drives ``y`` after ``delay``: a ``mux`` first gathers its choice
    ports into an ``array``, a constant shift builds its ``amount`` as
    an ``i32`` constant, and ``attrs`` (the static ``index``/``offset``/
    ``length``) are the copy's own.  Those attribute values and the
    amount key the cell and name it.  ``buf``, the one body that is not
    an instruction, drives its input unchanged."""
    attrs = attrs or {}
    tags = [v for v in attrs.values() if v is not None]
    if amount is not None:
        tags.append(amount)
    key = (opcode, tuple(map(str, in_types)), str(out_ty), tuple(tags))
    name = library.get(key)
    if name is not None:
        return name
    suffix = "".join(f"_{t}" for t in tags)
    name = f"cell_{opcode}{suffix}_" + "_".join(
        _type_key(t) for t in in_types)
    if opcode in CAST_OPS:  # same input, several output widths
        name += f"_to_{_type_key(out_ty)}"
    port_names = [f"a{i}" for i in range(len(in_types))]
    cell = Entity(name, [signal_type(t) for t in in_types], port_names,
                  [signal_type(out_ty)], ["y"])
    b = Builder.at_end(cell.body)
    ins = [b.prb(a) for a in cell.inputs]
    d = b.const_time(delay)
    if opcode == "buf":
        result = ins[0]
    else:
        if opcode == "mux":
            ins = [b.array(ins[:-1]), ins[-1]]
        elif amount is not None:
            ins.append(b.const_int(int_type(32), amount))
        result = b.insert(Instruction(opcode, out_ty, ins, attrs))
    b.drv(cell.outputs[0], result, d)
    library[key] = _declare(out, library, cell)
    return library[key]


def _projection_steps(value):
    """Walk extf/exts projections back to a root signal.

    Returns ``(root, steps)`` where each step is
    ``("field", index_value_or_int)`` or ``("slice", offset, length)``,
    outermost last; root is the underlying signal value or None.
    """
    steps = []
    while isinstance(value, Instruction) and value.opcode in ("extf",
                                                              "exts"):
        if value.opcode == "extf":
            index = value.attrs.get("index")
            steps.append(("field", index if index is not None
                          else value.operands[1]))
        else:
            steps.append(("slice", value.attrs["offset"],
                          value.attrs["length"]))
        value = value.operands[0]
    if value.type.is_signal:
        return value, list(reversed(steps))
    return None, None


def _steps_signature(steps):
    """The static part of a projection chain, for cell keys; dynamic
    indices are marked and become extra cell inputs."""
    out = []
    for step in steps:
        if step[0] == "field" and not isinstance(step[1], int):
            out.append("fdyn")
        elif step[0] == "field":
            out.append(f"f{step[1]}")
        else:
            out.append(f"s{step[1]}x{step[2]}")
    return tuple(out)


def _rebuild_projection(b, root_arg, steps, index_ports):
    """Re-create a projection chain inside a cell body."""
    target = root_arg
    it = iter(index_ports)
    for step in steps:
        if step[0] == "field":
            if isinstance(step[1], int):
                target = b.extf(target, step[1])
            else:
                target = b.extf(target, b.prb(next(it)))
        else:
            target = b.exts(target, step[1], step[2])
    return target


def _reg_cell(out, library, inst, root_ty, steps, index_types):
    """The storage cell for one ``reg``: flip-flop, latch, or memory
    write port, keyed by target shape and full trigger signature.

    Storage cells take no gate delay: the reg's own per-trigger
    ``after`` delay is the cell's clock-to-output time, preserved
    verbatim in the cell body."""
    triggers = list(inst.reg_triggers())
    signature = []
    data_types = []
    trig_types = []
    cond_count = 0
    for t in triggers:
        has_cond = t["cond"] is not None
        d = t["delay"]
        d_txt = str(d.attrs["value"]) if d is not None else "eps"
        signature.append((t["mode"], has_cond, d_txt))
        data_types.append(t["value"].type)
        trig_types.append(t["trigger"].type)
        cond_count += int(has_cond)
    key = ("reg", str(root_ty), _steps_signature(steps),
           tuple(map(str, index_types)),
           tuple((m, c, d) for m, c, d in signature),
           tuple(map(str, data_types)), tuple(map(str, trig_types)))
    name = library.get(key)
    if name is not None:
        return name
    name = _numbered_name(library, "writeport" if steps else "dff",
                          root_ty)
    in_types, in_names = [], []
    for i, ty in enumerate(index_types):
        in_types.append(signal_type(ty))
        in_names.append(f"i{i}")
    for i, (dty, tty) in enumerate(zip(data_types, trig_types)):
        in_types.append(signal_type(dty))
        in_names.append(f"d{i}")
        in_types.append(signal_type(tty))
        in_names.append(f"t{i}")
        if signature[i][1]:
            in_types.append(signal_type(int_type(1)))
            in_names.append(f"c{i}")
    cell = Entity(name, in_types, in_names,
                  [signal_type(root_ty)], ["q"])
    b = Builder.at_end(cell.body)
    args = list(cell.inputs)
    index_ports = args[:len(index_types)]
    rest = args[len(index_types):]
    target = _rebuild_projection(b, cell.outputs[0], steps, index_ports)
    built = []
    pos = 0
    for i, t in enumerate(triggers):
        data = b.prb(rest[pos]); pos += 1
        trig = b.prb(rest[pos]); pos += 1
        cond = None
        if signature[i][1]:
            cond = b.prb(rest[pos]); pos += 1
        d = t["delay"]
        d_value = b.const_time(d.attrs["value"]) if d is not None else None
        built.append((t["mode"], data, trig, cond, d_value))
    b.reg(target, built)
    library[key] = _declare(out, library, cell)
    return library[key]


# -- entity mapping ------------------------------------------------------------


def _map_entity(entity, out, library, delay):
    mapped = Entity(
        entity.name,
        [a.type for a in entity.inputs], [a.name for a in entity.inputs],
        [a.type for a in entity.outputs], [a.name for a in entity.outputs])
    builder = Builder.at_end(mapped.body)
    signal_of = {}  # id(old value) -> signal in the netlist
    for old, new in zip(entity.args, mapped.args):
        signal_of[id(old)] = new

    consts = {}       # id(inst) -> const instruction (lazily cloned)
    aggregates = {}   # id(inst) -> array/struct constant tree

    ctx = _MapContext(entity, builder, out, library, delay, signal_of,
                      consts, aggregates)

    for inst in entity.body:
        op = inst.opcode
        if op == "const":
            consts[id(inst)] = inst
        elif op in ("array", "struct"):
            aggregates[id(inst)] = inst
        elif op == "sig":
            init = ctx.clone_const_tree(inst.operands[0])
            sig = builder.sig(init, name=inst.name)
            signal_of[id(inst)] = sig
            ctx._sig_inits[id(sig)] = init
        elif op == "prb":
            signal_of[id(inst)] = ctx.source_signal(inst.operands[0])
        elif op in ("extf", "exts"):
            continue  # materialized lazily, at the probing/driving use
        elif op in DATAFLOW_OPS:
            signal_of[id(inst)] = ctx.map_gate(inst)
        elif op == "drv":
            ctx.map_drive(inst)
        elif op == "reg":
            ctx.map_reg(inst)
        elif op == "con":
            builder.con(ctx.as_signal(inst.operands[0]),
                        ctx.as_signal(inst.operands[1]))
        elif op == "del":
            signal_of[id(inst)] = builder.delayed(
                ctx.as_signal(inst.operands[0]),
                ctx.materialize_time(inst.operands[1]))
        elif op == "inst":
            inputs = [ctx.as_signal(o) for o in inst.inst_inputs()]
            outputs = [ctx.as_signal(o) for o in inst.inst_outputs()]
            builder.inst(inst.callee, inputs, outputs)
        else:
            raise TechmapError(
                f"@{entity.name}: no library mapping for '{op}'")
    out.add(mapped)


class _MapContext:
    """Per-entity mapping state and helpers."""

    def __init__(self, entity, builder, out, library, delay, signal_of,
                 consts, aggregates):
        self.entity = entity
        self.builder = builder
        self.out = out
        self.library = library
        self.delay = delay
        self.signal_of = signal_of
        self.consts = consts
        self.aggregates = aggregates
        self._sig_inits = {}  # id(netlist sig) -> its init instruction
        self._owned = set()   # ids of result nets this mapper created
        self._reseeded = set()  # owned nets already given a target init

    # -- values -> netlist signals ----------------------------------------

    def as_signal(self, value):
        sig = self.signal_of.get(id(value))
        if sig is None:
            raise TechmapError(
                f"@{self.entity.name}: no netlist signal for "
                f"%{value.name or '?'} ({value.opcode})")
        return sig

    def materialize(self, value):
        """The netlist signal carrying ``value``, creating constant nets
        and projection read ports on demand."""
        sig = self.signal_of.get(id(value))
        if sig is not None:
            return sig
        # A constant drive becomes a constant net (a tie rail): its init
        # IS its value, so it is deliberately not registered in _owned —
        # map_drive must never reseed it from the target's initial (it
        # buffers instead when the initials disagree).
        const = self.consts.get(id(value)) or self.aggregates.get(id(value))
        if const is not None:
            init = self.clone_const_tree(const)
            sig = self.builder.sig(init)
            self.signal_of[id(value)] = sig
            self._sig_inits[id(sig)] = init
            return sig
        if isinstance(value, Instruction) and value.opcode in ("extf",
                                                               "exts"):
            if value.operands[0].type.is_signal:
                sig = self.project_source(value)
            else:
                sig = self.map_gate(value)
            self.signal_of[id(value)] = sig
            return sig
        raise TechmapError(
            f"@{self.entity.name}: no netlist signal for "
            f"%{value.name or '?'}")

    def materialize_time(self, value):
        const = self.consts.get(id(value))
        if const is None:
            raise TechmapError("del delay must be constant")
        return self.builder.insert(_clone_const(const))

    def clone_const_tree(self, value, builder=None):
        """Clone a constant (possibly an array/struct tree) into the
        mapped entity; ``sig`` initializers are such trees."""
        b = builder if builder is not None else self.builder
        if isinstance(value, Instruction) and value.opcode == "const":
            return b.insert(_clone_const(value))
        if isinstance(value, Instruction) and value.opcode == "array":
            if value.attrs.get("splat"):
                element = self.clone_const_tree(value.operands[0], b)
                return b.array_splat(value.type.length, element)
            return b.array(
                [self.clone_const_tree(o, b) for o in value.operands])
        if isinstance(value, Instruction) and value.opcode == "struct":
            return b.struct(
                [self.clone_const_tree(o, b) for o in value.operands])
        raise TechmapError("sig init must be constant")

    # -- signal projections -----------------------------------------------

    def source_signal(self, value):
        """The net behind a probed value: a plain signal, or a read-port
        cell output for a projected signal."""
        if self.signal_of.get(id(value)) is not None:
            return self.signal_of[id(value)]
        if isinstance(value, Instruction) and value.opcode in ("extf",
                                                               "exts"):
            sig = self.project_source(value)
            self.signal_of[id(value)] = sig
            return sig
        return self.as_signal(value)

    def project_source(self, value):
        """A read-port wiring cell for an extf/exts used as a source."""
        root, steps = _projection_steps(value)
        if root is None:
            raise TechmapError(
                f"@{self.entity.name}: projection of a non-signal "
                f"value has no wiring cell")
        root_sig = self.as_signal(root)
        elem = value.type.element
        index_values = [s[1] for s in steps
                        if s[0] == "field" and not isinstance(s[1], int)]
        index_sigs = [self.materialize(v) for v in index_values]
        name = self._readport_cell(root.type.element, elem, steps,
                                   [v.type for v in index_values])
        return self._instantiate(name, [root_sig] + index_sigs, elem,
                                 value.name)

    def _readport_cell(self, root_ty, elem_ty, steps, index_types):
        key = ("readport", str(root_ty), _steps_signature(steps),
               tuple(map(str, index_types)))
        name = self.library.get(key)
        if name is not None:
            return name
        name = _numbered_name(self.library, "readport", root_ty)
        in_types = [signal_type(root_ty)] + \
            [signal_type(t) for t in index_types]
        in_names = ["m"] + [f"i{j}" for j in range(len(index_types))]
        cell = Entity(name, in_types, in_names,
                      [signal_type(elem_ty)], ["y"])
        b = Builder.at_end(cell.body)
        proj = _rebuild_projection(b, cell.inputs[0], steps,
                                   cell.inputs[1:])
        value = b.prb(proj)
        b.drv(cell.outputs[0], value, b.const_time(self.delay))
        self.library[key] = _declare(self.out, self.library, cell)
        return self.library[key]

    # -- gates ------------------------------------------------------------

    def map_gate(self, inst):
        """An instance of the gate cell computing ``inst``: each value
        operand feeds an input port (a ``mux``'s choice array one port
        per element), and a constant shift amount is built in."""
        op = inst.opcode
        operands = list(inst.operands)
        amount = None
        if op == "mux":
            choices = operands[0]
            if not isinstance(choices, Instruction) \
                    or choices.opcode != "array" \
                    or choices.attrs.get("splat"):
                raise TechmapError(
                    "mux choices must be an explicit array to map")
            operands[:1] = choices.operands
        elif op in ("shl", "shr") and id(operands[1]) in self.consts:
            amount = self.consts[id(operands.pop())].attrs["value"]
            if isinstance(amount, LogicVec):
                if not amount.is_two_valued:
                    raise TechmapError(
                        f"@{self.entity.name}: '{op}' by an unknown "
                        f"amount has no library mapping")
                amount = amount.to_int()
            # The cell builds its amount as an i32: clamp it to the
            # shifted width, at or past which every bit is shifted out.
            amount = min(amount, operands[0].type.width)
        sigs = [self.materialize(o) for o in operands]
        attrs = {k: inst.attrs[k] for k in _STATIC_ATTRS if k in inst.attrs}
        cell = _cell(self.out, self.library, op,
                     [o.type for o in operands], inst.type, self.delay,
                     attrs, amount)
        return self._instantiate(cell, sigs, inst.type, inst.name)

    def _instantiate(self, cell, input_sigs, ty, name):
        """An instance of ``cell`` driving a fresh ``ty`` result net."""
        init = _default_const(self.builder, ty)
        result = self.builder.sig(init, name=name)
        self._owned.add(id(result))
        self._sig_inits[id(result)] = init
        self.builder.inst(cell, input_sigs, [result])
        return result

    # -- drives and storage -----------------------------------------------

    def map_drive(self, inst):
        if inst.drv_condition() is not None:
            raise TechmapError("conditional drives need a mux first")
        src = self.materialize(inst.drv_value())
        target = self.target_signal(inst.drv_signal())
        src = self._adapt_initial(src, target)
        delay_const = self.consts.get(id(inst.drv_delay()))
        delay = delay_const.attrs["value"] if delay_const is not None \
            else None
        if delay is not None and delay != TimeValue(0):
            src = self.builder.delayed(
                src, self.builder.insert(_clone_const(delay_const)))
        self.builder.con(target, src)

    def _adapt_initial(self, src, target):
        """Make ``src``'s initial agree with the driven target's before
        the ``con`` below merges the two nets.

        The merged net must start where the behavioural target started —
        the cell driving ``src`` takes over from the first delta on, but
        `connect` rejects conflicting two-valued initials outright (e.g.
        a target register net initialized to a nonzero value).  A result
        net this mapper created is reseeded in place the first time; on
        any later conflict (a second target with a different initial, a
        constant tie rail, a probed design net) the drive is routed
        through a buffer cell whose output net carries the target's
        initial.  A target bound to an entity argument keeps the default
        (its initial lives at the instantiation site and is unknowable
        here).  Returns the net to connect.
        """
        t_init = self._sig_inits.get(id(target))
        if t_init is None:
            return src
        s_init = self._sig_inits.get(id(src))
        if s_init is None:
            # An argument-bound net: its initial is the call site's.
            return src
        if _const_tree_value(s_init) == _const_tree_value(t_init):
            return src
        if id(src) in self._owned and id(src) not in self._reseeded:
            fresh = self.clone_const_tree(t_init, Builder.before(src))
            src.set_operand(0, fresh)
            self._reseeded.add(id(src))
            self._sig_inits[id(src)] = fresh
            return src
        elem = target.type.element
        cell = _cell(self.out, self.library, "buf", [elem], elem,
                     self.delay)
        init = self.clone_const_tree(t_init)
        # Name the alias net after the target it re-initializes: lint
        # locations stay readable after the drv -> con rewrite (the extra
        # hierarchy dot keeps the target's own name the preferred label).
        result = self.builder.sig(
            init, name=f"{target.name}.buf" if target.name else None)
        self._owned.add(id(result))
        self._reseeded.add(id(result))
        self._sig_inits[id(result)] = init
        self.builder.inst(cell, [src], [result])
        return result

    def target_signal(self, value):
        """The net a drv/reg writes: plain signals only — projected
        targets are handled by write-port reg cells, and a projected drv
        target would need one too."""
        sig = self.signal_of.get(id(value))
        if sig is None:
            raise TechmapError(
                f"@{self.entity.name}: drive of a projected target "
                f"has no library mapping")
        return sig

    def map_reg(self, inst):
        target = inst.reg_signal()
        root, steps = _projection_steps(target)
        if root is None:
            raise TechmapError(
                f"@{self.entity.name}: reg target is not a signal")
        root_sig = self.as_signal(root)
        index_values = [s[1] for s in steps
                        if s[0] == "field" and not isinstance(s[1], int)]
        name = _reg_cell(self.out, self.library, inst,
                         root.type.element, steps,
                         [v.type for v in index_values])
        inputs = [self.materialize(v) for v in index_values]
        for t in inst.reg_triggers():
            inputs.append(self.materialize(t["value"]))
            inputs.append(self.materialize(t["trigger"]))
            if t["cond"] is not None:
                inputs.append(self.materialize(t["cond"]))
        self.builder.inst(name, inputs, [root_sig])


def _default_const(builder, ty):
    if ty.is_logic:
        return builder.const_logic(LogicVec.from_int(0, ty.width))
    if ty.is_int or ty.is_enum:
        return builder.const_int(ty, 0)
    if ty.is_array:
        return builder.array_splat(
            ty.length, _default_const(builder, ty.element))
    if ty.is_struct:
        return builder.struct(
            [_default_const(builder, f) for f in ty.fields])
    raise TechmapError(f"no default constant for {ty}")


def _const_tree_value(inst):
    """The runtime value of a constant (possibly aggregate) tree, used
    to compare signal initials structurally."""
    if inst.opcode == "const":
        return inst.attrs["value"]
    if inst.opcode == "array" and inst.attrs.get("splat"):
        return (_const_tree_value(inst.operands[0]),) * inst.type.length
    return tuple(_const_tree_value(op) for op in inst.operands)


def _clone_const(const):
    return Instruction("const", const.type, (), dict(const.attrs),
                       const.name)
