"""Every opcode-table entry against the executable spec, ``eval.evaluate``.

Each (opcode, value class) entry of :data:`repro.sim.optable.TABLE` is
built four ways per width -- as a blaze process (probe the operands,
apply the op, drive the result), as a levelized cell template spliced
into a settle function, as the interpreter's plan step run on an
``env`` holding the operands, and as the bare emitted form called with
every known, strong ``lN`` operand also passed as a plain ``int`` --
and each must return exactly what ``evaluate`` returns, or raise the
same error, on random operands over all nine states: forcing
two-valued, two-valued with ``L``/``H`` bits (``unk == 0`` but
``weak != 0``), one unknown bit, and anything.
"""

import itertools
import random

import pytest

from repro.ir.builder import Builder
from repro.ir.instructions import BINARY_OPS, COMPARE_OPS, Instruction
from repro.ir.ninevalued import VALUES, LogicVec
from repro.ir.types import (
    array_type, enum_type, int_type, logic_type, signal_type,
)
from repro.ir.units import Entity, Process
from repro.sim import optable
from repro.sim.blaze import _BASE_GLOBALS, ProcessCompiler
from repro.sim.compiled import CONE_GLOBALS, build_template, generate_source
from repro.sim.eval import evaluate, int_shift, logic_level, logic_shift
from repro.sim.plan import _PROC_OPS, _step_factory, _step_for
from repro.sim.values import SimulationError, mask

WIDTHS = (1, 8, 64, 65, 130)
EDGES = ("rise", "fall", "high", "low", "both")
_UNKNOWN = "UXZW-"


def _ty(cls, width):
    return logic_type(width) if cls == "lN" else int_type(width)


def _cases(width):
    """(opcode, result type, operand types, attrs) covering every entry."""
    for cls in ("iN", "lN"):
        t = _ty(cls, width)
        for op in sorted(BINARY_OPS - {"shl", "shr"}):
            yield op, t, (t, t), None
        for op in sorted(COMPARE_OPS):
            yield op, int_type(1), (t, t), None
        for op in ("not", "neg"):
            yield op, t, (t,), None
        for op in ("zext", "sext"):
            yield op, _ty(cls, width + 9), (t,), None
        yield "trunc", _ty(cls, max(1, width - 5)), (t,), None
        for off in sorted({0, width // 3}):
            length = max(1, width - off - 1)
            yield "exts", _ty(cls, length), (t,), \
                {"offset": off, "length": length}
        yield "mux", t, (array_type(3, t), _ty(cls, 2)), None
        # Amounts are at least 8 bits wide so w and > w fit at w = 1.
        for amount in ("iN", "lN"):
            for op in ("shl", "shr"):
                yield op, t, (t, _ty(amount, max(width, 8))), None
    agg = array_type(2, int_type(width))
    for op in ("eq", "neq"):
        yield op, int_type(1), (agg, agg), None
        # nN enum values are plain ints and share the iN entries.
        yield op, int_type(1), (enum_type(5), enum_type(5)), None
    yield "mux", int_type(width), (array_type(3, int_type(width)),
                                   enum_type(5)), None


def _case_id(case):
    op, _, types, attrs = case
    key = f"{op}-{optable.signature(types)}"
    if attrs:
        key += f"-{attrs['offset']}"
    return key


# -- operand values -------------------------------------------------------------


def _logic(rng, width, kind):
    if kind == "forcing":
        bits = [rng.choice("01") for _ in range(width)]
    elif kind == "weak":
        bits = [rng.choice("01LH") for _ in range(width)]
        bits[rng.randrange(width)] = rng.choice("LH")
    elif kind == "one_unknown":
        bits = [rng.choice("01") for _ in range(width)]
        bits[rng.randrange(width)] = rng.choice(_UNKNOWN)
    else:
        bits = [rng.choice(VALUES) for _ in range(width)]
    return LogicVec("".join(bits))


def _int(rng, width):
    return rng.choice([0, 1, mask(width), 1 << (width - 1),
                       rng.getrandbits(width), rng.getrandbits(width)])


def _value(rng, ty, kind):
    if ty.is_int:
        return _int(rng, ty.width)
    if ty.is_enum:
        return rng.randrange(ty.states)
    if ty.is_logic:
        return _logic(rng, ty.width, kind)
    return tuple(_value(rng, ty.element, kind) for _ in range(ty.length))


def _amounts(ty, width):
    """Shift amounts 0, w-1, w, >= w (2**40 where it fits) and X."""
    top = 1 << 40 if ty.width > 40 else mask(ty.width)
    amounts = [0, width - 1, width, top]
    if ty.is_logic:
        return [LogicVec.from_int(a, ty.width) for a in amounts] + \
            [LogicVec.filled("X", ty.width)]
    return amounts


def _operand_sets(case, width):
    op, _, types, _ = case
    rng = random.Random(f"{_case_id(case)}/{width}")
    kinds = ("forcing", "weak", "one_unknown", "any")
    sets = [tuple(_value(rng, t, kind) for t in types)
            for kind in kinds for _ in range(8)]
    if op in ("shl", "shr"):
        sets += [(_value(rng, types[0], kind), amount)
                 for amount in _amounts(types[1], width)
                 for kind in kinds]
    if op == "mux":
        sel = types[1]
        picks = [LogicVec.from_int(i, 2) if sel.is_logic else i
                 for i in range(4)]
        sets += [(_value(rng, types[0], "weak"), p) for p in picks]
    return sets


# -- the three engines' forms ---------------------------------------------------


def _body(unit, block, case):
    op, result, _, attrs = case
    b = Builder.at_end(block)
    probes = tuple(b.prb(arg) for arg in unit.inputs)
    inst = b.insert(Instruction(op, result, probes, attrs))
    b.drv(unit.outputs[0], inst, b.const_time("0s"))
    return b, inst


def _unit_args(case):
    _, result, types, _ = case
    return ([signal_type(t) for t in types], ["a", "b"][:len(types)],
            [signal_type(result)], ["y"])


def blaze_process(case):
    """Run the op as a compiled blaze process; returns (fn, inst)."""
    proc = Process("p", *_unit_args(case))
    b, inst = _body(proc, proc.create_block("entry"), case)
    b.halt()
    unit = ProcessCompiler(proc).compile()
    # Bind each input to its index; the probe hook reads the operand.
    bindings = [None] * len(unit.slots)
    for k, arg in enumerate(proc.args):
        bindings[unit.slots[id(arg)]] = k

    def run(values):
        driven = []
        gen = unit.fn(tuple(bindings), values.__getitem__,
                      lambda sig, value, delay: driven.append(value), ())
        with pytest.raises(StopIteration):
            next(gen)
        return driven[0]
    return run, inst


def levelized_cell(case):
    """Run the op as a levelized cell template in a cone's settle, in the
    cone's own namespace.  The output slot starts, as in a real cone, at
    a value of the output's type (for ``lN``, weak zeros, which a strong
    ``0`` result must still replace); the settle leaves the result
    there, boxed, and a second settle finds nothing to change."""
    _, result, _, _ = case
    cell = Entity("cell", *_unit_args(case))
    _body(cell, cell.body, case)
    template = build_template(cell)
    n = template.n_inputs
    namespace = dict(CONE_GLOBALS)
    exec(generate_source([(template, list(range(n)), n)]), namespace)
    settle = namespace["_settle_all"]
    initial = LogicVec.filled("L", result.width) if result.is_logic else 0

    def run(values):
        slots = list(values) + [initial]
        settle(slots)
        assert settle(slots) == [], (case, values)
        return slots[n]
    return run


def plan_step(inst):
    """Run the op as the interpreter's plan step on an operand env."""
    step = _step_for(inst, _PROC_OPS, "@p", None)

    def run(values):
        env = {id(o): v for o, v in zip(inst.operands, values)}
        step(env, None)
        return env[id(inst)]
    return run


#: Vector ops whose fast path also needs the weak plane clear.
_STRENGTH_GUARDED = ("zext", "sext", "trunc", "exts")


def _strong(value):
    """A known, strong ``lN`` value: compiled code may hold it unboxed."""
    return type(value) is LogicVec and not (value._unk | value._weak)


def unboxed_mixes(values):
    """``values`` with each known, strong ``lN`` operand as a LogicVec
    and as its ``int``, in every combination."""
    choices = [(v, v._val) if _strong(v) else (v,) for v in values]
    return list(itertools.product(*choices))


def emitted_form(case):
    """Call the entry's emitted form directly, as compiled code does.

    ``run(values)`` returns the form's result, boxed where compiled code
    would box it, and asserts that a vector entry returns an ``int``
    exactly when its fast path applies and a LogicVec otherwise.
    """
    op, result, types, attrs = case
    form = optable.emit(op, ["a", "b"][:len(types)], types, result,
                        attrs and attrs["offset"])
    code = compile(form, _case_id(case), "eval")
    vector = (op, optable.signature(types)) in optable.UNBOXED
    guarded = [t.is_logic for t in types]

    def run(values):
        raw = eval(code, dict(optable.GLOBALS), dict(zip("ab", values)))
        if vector:
            fast = all(type(v) is int or not (
                v._unk | (v._weak if op in _STRENGTH_GUARDED else 0))
                for v, g in zip(values, guarded) if g)
            assert type(raw) is (int if fast else LogicVec), (form, values)
            if fast:
                return LogicVec._make(result.width, raw, 0, 0, 0)
        return raw
    return run


def _outcome(fn, values):
    try:
        result = fn(values)
    except SimulationError as exc:
        return ("raises", str(exc))
    return (type(result).__name__, result)


@pytest.mark.parametrize("width", WIDTHS)
def test_every_entry_matches_eval(width):
    seen = set()
    for case in _cases(width):
        key = (case[0], optable.signature(case[2]))
        assert key in optable.TABLE
        seen.add(key)
        process, inst = blaze_process(case)
        cell = levelized_cell(case)
        step = plan_step(inst)
        form = emitted_form(case)
        for values in _operand_sets(case, width):
            want = _outcome(lambda v: evaluate(inst, list(v)), values)
            assert _outcome(process, values) == want, (case, values)
            assert _outcome(cell, values) == want, (case, values)
            assert _outcome(step, values) == want, (case, values)
            for mixed in unboxed_mixes(values):
                assert _outcome(form, mixed) == want, (case, mixed)
    edges = {(op, cls) for op in EDGES for cls in ("iN", "lN")}
    assert seen | edges == set(optable.TABLE)


def test_plan_steps_compile_once_per_entry():
    """Every width of an entry shares one compiled step factory."""
    _step_factory.cache_clear()
    keys = set()
    for width in WIDTHS:
        for case in _cases(width):
            proc = Process("p", *_unit_args(case))
            _, inst = _body(proc, proc.create_block("entry"), case)
            plan_step(inst)
            keys.add((case[0], optable.signature(case[2])))
    assert _step_factory.cache_info().currsize == len(keys)


def _reference_edge(mode, cur, prev):
    """The reg trigger rule, written independently of the table: X -> 1
    is a rising edge (IEEE 1800) and ``both`` fires on any change."""
    if mode == "both":
        return prev != cur
    now, before = logic_level(cur), logic_level(prev)
    if mode == "rise":
        return now == 1 and before in (0, -1)
    if mode == "fall":
        return now == 0 and before in (1, -1)
    return now == (1 if mode == "high" else 0)


@pytest.mark.parametrize("mode", EDGES)
def test_edge_entries_match_the_interpreter_rule(mode):
    """Blaze's inline edge form and the predicate the interpreter and the
    levelized storage cells call (:func:`optable.edge`)."""
    rng = random.Random(mode)
    samples = [LogicVec(c) for c in VALUES]
    samples += [_logic(rng, 3, kind) for kind in ("forcing", "weak", "any")
                for _ in range(6)]
    for cls, values in (("lN", samples), ("iN", [0, 1, 2, 5])):
        test = compile(optable.emit(mode, ["cur", "prev"], [_ty(cls, 1)]),
                       mode, "eval")
        fires = optable.edge(mode, _ty(cls, 1))
        for cur in values:
            for prev in values:
                if cls == "lN" and cur.width != prev.width:
                    continue
                want = _reference_edge(mode, cur, prev)
                # Compiled code may hold either value unboxed.
                for now, before in unboxed_mixes((cur, prev)):
                    got = eval(test, dict(_BASE_GLOBALS),
                               {"cur": now, "prev": before})
                    assert bool(got) == want, (mode, now, before)
                    assert fires(now, before) == want, (mode, now, before)


def test_shift_by_2_pow_40_builds_no_huge_intermediate():
    assert int_shift("shl", 5, 1 << 40, 64) == 0
    assert int_shift("shr", 5, 1 << 40, 64) == 0
    value = LogicVec.from_int(5, 64)
    amount = LogicVec.from_int(1 << 40, 64)
    assert logic_shift("shl", value, amount) == LogicVec.from_int(0, 64)
    for cls in ("iN", "lN"):
        t = _ty(cls, 64)
        case = ("shl", t, (t, t), None)
        process, inst = blaze_process(case)
        operands = [5, 1 << 40] if cls == "iN" else [value, amount]
        zero = 0 if cls == "iN" else LogicVec.from_int(0, 64)
        assert evaluate(inst, operands) == zero
        assert process(operands) == zero
        assert levelized_cell(case)(operands) == zero
        assert plan_step(inst)(operands) == zero


def test_unknown_entries_are_reported():
    agg = array_type(2, int_type(8))
    with pytest.raises(SimulationError, match="cannot compile ult on agg"):
        optable.emit("ult", ["a", "b"], [agg, agg])
