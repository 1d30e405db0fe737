"""Bad LLHD text fails as a :class:`ParseError` that names its line.

The builder's own type checks (``TypeError``/``ValueError``) and the
width cap of ``iN``/``lN`` types surface through the parser as parse
errors, and both command-line drivers report them as one ``error:``
line with exit status 1, never a Python traceback.
"""

import pytest

from repro.ir import ParseError, int_type, logic_type, parse_module
from repro.ir.types import MAX_WIDTH
from repro.opt import main as opt_main
from repro.sim.__main__ import main as sim_main


def _func(body):
    return f"func @f () void {{\nentry:\n{body}\n  ret\n}}\n"


def _proc(body):
    return ("entity @top () -> () {\n  inst @p () -> ()\n}\n"
            f"proc @p () -> () {{\nentry:\n{body}\n  halt\n}}\n")


#: name -> (module text, the line it fails on, the error text)
BAD = {
    "zero-width": (_func("  %a = const i0 0"), 3,
                   "integer width must be in 1..8388608, got 0"),
    "huge-width": (_func("  %a = const i1099511627776 3"), 3,
                   "integer width must be in 1..8388608, got "
                   "1099511627776"),
    "huge-logic-width": (_func('  %a = const l8388609 "0"'), 3,
                         "logic width must be in 1..8388608, got 8388609"),
    "branch-on-i8": (
        "func @f () void {\nentry:\n  %a = const i8 3\n"
        "  br %a, %entry, %entry\n}\n", 4,
        "branch condition must be i1, got i8"),
    "drv-delay": (
        "entity @top () -> () {\n  %z = const i8 0\n  %s = sig i8 %z\n"
        "  drv i8$ %s, %z after %z\n}\n", 4,
        "drv delay must be a time, got i8"),
    "wait-on-value": (
        _proc("  %z = const i8 0\n  wait %next for %z\nnext:"), 7,
        "wait observes signals, got i8"),
    "drv-on-logic": (
        "entity @top () -> () {\n  %z = const i8 0\n  %s = sig i8 %z\n"
        '  %t = const time 1ns\n  %c = const l1 "1"\n'
        "  drv i8$ %s, %z after %t if %c\n}\n", 6,
        "drv condition must be i1, got l1"),
    "reg-on-logic": (
        "entity @top () -> () {\n  %z = const i8 0\n  %s = sig i8 %z\n"
        '  %c = const l1 "1"\n  %k = const i1 1\n'
        "  reg i8$ %s, %z rise %k if %c\n}\n", 6,
        "reg condition must be i1, got l1"),
    "mux-of-scalar": (
        _func("  %a = const i8 3\n  %s = const i1 0\n"
              "  %m = mux i8 %a, %s"), 5,
        "mux needs an array of choices, got i8"),
}


@pytest.mark.parametrize("case", sorted(BAD))
def test_builder_errors_are_parse_errors(case):
    text, line, message = BAD[case]
    with pytest.raises(ParseError) as raised:
        parse_module(text)
    assert raised.value.line == line
    assert str(raised.value) == f"line {line}: {message}"


def test_widths_are_capped():
    assert int_type(MAX_WIDTH).width == logic_type(MAX_WIDTH).width == 1 << 23
    for make in (int_type, logic_type):
        with pytest.raises(ValueError, match="8388608"):
            make(MAX_WIDTH + 1)


@pytest.mark.parametrize("case", sorted(BAD))
@pytest.mark.parametrize("cli", ("opt", "sim"))
def test_cli_prints_one_error_line(cli, case, tmp_path, capsys):
    text, line, message = BAD[case]
    path = tmp_path / "bad.llhd"
    path.write_text(text)
    try:
        if cli == "opt":
            status = opt_main([str(path), "-q"])
        else:
            status = sim_main([str(path)])
    except SystemExit as exc:
        status = exc.code
    assert status == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, lines
    assert "error: " in lines[0]
    assert lines[0].endswith(f"line {line}: {message}")
