"""Static verdicts vs simulation ground truth.

For every *error*-severity finding on the bad corpus (races,
oscillations) the scheduler sanitizer must reproduce the same code
dynamically — and without the sanitizer the run must die on the same
hazard.  The *warning*-severity findings (CDC) are static-only: the
sanitizer stays silent on them.
"""

import pathlib

import pytest

from repro.ir import parse_module
from repro.lint import lint_module
from repro.sim import SimulationError, simulate

CORPUS = pathlib.Path(__file__).parent / "corpus"

BACKENDS = ("interp", "blaze", "cycle")


def _load(name, top):
    text = (CORPUS / name).read_text(encoding="utf-8")
    return parse_module(text, name=name), top


@pytest.mark.parametrize("backend", BACKENDS)
def test_race_reproduces_dynamically(backend):
    module, top = _load("race.llhd", "race_top")
    assert lint_module(module, top).codes() == ["RACE001"]
    result = simulate(module, top, until_fs=2_000_000, backend=backend,
                      sanitize=True)
    findings = result.findings
    assert [f.code for f in findings] == ["RACE001"]
    drivers = findings[0].drivers
    assert len(drivers) == 2
    assert any("drv_one" in d for d in drivers)
    assert any("drv_two" in d for d in drivers)


@pytest.mark.parametrize("backend", BACKENDS)
def test_race_is_fatal_without_sanitizer(backend):
    module, top = _load("race.llhd", "race_top")
    with pytest.raises(SimulationError) as excinfo:
        simulate(module, top, until_fs=2_000_000, backend=backend)
    message = str(excinfo.value)
    assert "drv_one" in message and "drv_two" in message


@pytest.mark.parametrize("backend", BACKENDS)
def test_oscillation_reproduces_dynamically(backend):
    module, top = _load("comb_loop.llhd", "loop3")
    assert lint_module(module, top).codes() == ["LOOP001"]
    result = simulate(module, top, until_fs=5_000_000, backend=backend,
                      sanitize=True)
    codes = [f.code for f in result.findings]
    assert "LOOP001" in codes
    # The oscillating nets are named in the finding.
    location = result.findings[codes.index("LOOP001")]
    assert location.message


# The corpus ring plus a net that a process drives 5 ns after the start.
LATE_DRIVE = """
proc @late_q () -> (i1$ %q) {
entry:
  %1 = const i1 1
  %t = const time 5ns
  drv i1$ %q, %1 after %t
  halt
}

entity @top () -> () {
  %0 = const i1 0
  %q = sig i1 %0
  inst @loop3 () -> ()
  inst @late_q () -> (i1$ %q)
}
"""


def test_oscillation_finishes_the_run_on_every_engine():
    """The sanitizer stops the run at the oscillating instant: no engine
    goes on to the drive scheduled 5 ns later."""
    text = (CORPUS / "comb_loop.llhd").read_text(encoding="utf-8")
    results = {backend: simulate(parse_module(text + LATE_DRIVE),
                                 "top", backend=backend, sanitize=True)
               for backend in BACKENDS}
    for backend, result in results.items():
        assert result.final_time_fs == 0, backend
        assert [f.code for f in result.findings] == ["LOOP001"], backend
        assert result.trace.changes == results["interp"].trace.changes, \
            backend
    assert results["interp"].trace.changes["top.q"] == [(0, 0)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_oscillation_is_fatal_without_sanitizer(backend):
    module, top = _load("comb_loop.llhd", "loop3")
    with pytest.raises(SimulationError):
        simulate(module, top, until_fs=5_000_000, backend=backend)


@pytest.mark.parametrize("name,top", [("cdc_bad.llhd", "cdc_bad"),
                                      ("xclock.llhd", "xclk")])
def test_cdc_warnings_are_static_only(name, top):
    """CDC hazards are legal scheduler behaviour: the sanitizer has
    nothing to report, which is exactly why they are warnings."""
    module, _ = _load(name, top)
    assert all(code.startswith("CDC")
               for code in lint_module(module, top).codes())
    result = simulate(module, top, until_fs=10_000_000, sanitize=True)
    assert result.findings == []


def test_findings_empty_without_sanitize():
    module, top = _load("cdc_bad.llhd", "cdc_bad")
    result = simulate(module, top, until_fs=2_000_000)
    assert result.findings == []
    assert result.sanitizer is None
