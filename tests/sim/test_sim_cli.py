"""The ``python -m repro.sim`` command-line driver (llhd-sim analogue)."""

import pytest

from repro.sim.__main__ import main, parse_time_fs

ACC = """
entity @top () -> () {
  %z = const i8 0
  %s = sig i8 %z
  inst @driver () -> (i8$ %s)
}
proc @driver () -> (i8$ %s) {
entry:
  %v = const i8 42
  %t = const time 3ns
  drv i8$ %s, %v after %t
  halt
}
"""


@pytest.fixture()
def design_file(tmp_path):
    path = tmp_path / "design.llhd"
    path.write_text(ACC)
    return str(path)


def test_parse_time_fs():
    assert parse_time_fs("2500") == 2500
    assert parse_time_fs("3ns") == 3_000_000
    assert parse_time_fs("1.5ps") == 1500
    assert parse_time_fs("1us") == 1_000_000_000
    assert parse_time_fs("0") == 0
    for bad in ("10xs", "-5ns", "-1", "ns", "", "nan", "infns"):
        with pytest.raises(ValueError, match="invalid time"):
            parse_time_fs(bad)


@pytest.mark.parametrize("argv", [
    ["--until", "10xs"], ["--until=-5ns"], ["--cycles", "-3"],
    ["--cycles", "0"], ["--batch", "0"], ["--batch", "-2"],
])
def test_bad_numeric_options_are_usage_errors(argv, capsys):
    """Exit 2 with one usage message, never a traceback or a run."""
    with pytest.raises(SystemExit) as exc:
        main(["--design", "gray"] + argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and err.count("usage: ") == 1
    assert err.splitlines()[-1].startswith(
        f"python -m repro.sim: error: {argv[0].split('=')[0]}")


def test_simulate_file_with_stats_and_trace(design_file, capsys):
    assert main([design_file, "--stats", "--trace"]) == 0
    captured = capsys.readouterr()
    assert "3000000fs top.s = 42" in captured.out
    assert "deltas" in captured.err


def test_top_is_inferred_for_single_entity(design_file, capsys):
    assert main([design_file]) == 0


def test_vcd_export(design_file, tmp_path):
    vcd = tmp_path / "out.vcd"
    assert main([design_file, "--vcd", str(vcd)]) == 0
    text = vcd.read_text()
    assert "$timescale 1fs $end" in text
    assert "#3000000" in text


def test_named_design_cross_check(capsys):
    assert main(["--design", "gray", "--cycles", "8",
                 "--cross-check"]) == 0
    captured = capsys.readouterr()
    assert "traces identical" in captured.err


@pytest.mark.parametrize("batch", [[], ["--batch", "2"]],
                         ids=["scalar", "batch"])
def test_cross_check_includes_and_reports_the_selected_engine(batch, capsys):
    """``-e cycle --cross-check`` compares cycle too and prints the cycle
    run's statistics, not blaze's (their event counts differ on gray)."""
    argv = ["--design", "gray", "--cycles", "8", "-e", "cycle", "--stats"]
    assert main(argv + batch) == 0
    cycle_stats = capsys.readouterr().err.splitlines()[-1]
    assert main(argv + batch + ["--cross-check"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert "traces identical across interp, blaze, cycle" in err[-2]
    assert err[-1] == cycle_stats


def test_list_designs(capsys, monkeypatch):
    from repro.designs import ALL_DESIGNS
    from repro.passes import pipeline

    lowered = []
    lower = pipeline.lower_to_structural

    def counting_lower(module, *args, **kwargs):
        lowered.append(module.name)
        return lower(module, *args, **kwargs)

    monkeypatch.setattr(pipeline, "lower_to_structural", counting_lower)
    assert main(["--list-designs"]) == 0
    out = capsys.readouterr().out
    assert "riscv" in out and "sorter" in out
    # Each design is compiled, lowered and mapped once for the listing.
    assert sorted(lowered) == sorted(ALL_DESIGNS)


def test_unknown_design_errors():
    with pytest.raises(SystemExit):
        main(["--design", "nonesuch"])


def test_until_limits_simulation(design_file, capsys):
    assert main([design_file, "--until", "1ns", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "42" not in out
