"""Every Table 2 design compiles, simulates, and self-checks cleanly."""

import pytest

from repro.designs import (
    ALL_DESIGNS, DESIGNS, FOUR_STATE_ORDER, TABLE2_ORDER,
    expand_cycle_budgets, simulate_design,
)
from repro.ir import verify_module
from repro.designs import compile_design
from repro.passes import PassManager, lower_to_structural

SMALL_CYCLES = expand_cycle_budgets({
    "gray": 40, "fir": 25, "lfsr": 40, "lzc": 25, "fifo": 40,
    "cdc_gray": 30, "cdc_strobe": 12, "rr_arbiter": 40,
    "stream_delayer": 40, "riscv": 150, "sorter": 10,
})


def test_registry_is_complete():
    assert sorted(DESIGNS) == sorted(ALL_DESIGNS)
    # The paper's ten designs, the sorter stress extension, and the
    # nine-valued variants of the logic-heavy designs.
    assert len(TABLE2_ORDER) == 11
    assert len(DESIGNS) == 11 + len(FOUR_STATE_ORDER)
    assert all(DESIGNS[name].four_state for name in FOUR_STATE_ORDER)


@pytest.mark.parametrize("name", ALL_DESIGNS)
def test_design_compiles_and_verifies(name):
    module = compile_design(name, cycles=SMALL_CYCLES[name])
    verify_module(module)


@pytest.mark.parametrize("name", ALL_DESIGNS)
def test_design_self_checks(name):
    result = simulate_design(name, cycles=SMALL_CYCLES[name])
    assert result.assertion_failures == [], \
        f"{name}: {result.assertion_failures[:3]}"
    assert result.kernel.finished or result.final_time_fs > 0


@pytest.mark.parametrize("name", ALL_DESIGNS)
def test_lowered_design_is_a_cleanup_fixpoint(name):
    # Every unit the lowering leaves was last cleaned to a fixpoint, so
    # a fresh cleanup finds nothing; a group the pipeline skipped after
    # a change it missed would leave work here.
    module = compile_design(name, cycles=SMALL_CYCLES[name])
    lower_to_structural(module, strict=False)
    for unit in [*module.entities(), *module.processes()]:
        assert not PassManager().run_spec("cleanup", unit), unit.name


def test_riscv_program_assembles():
    from repro.designs import riscv
    from repro.designs.riscv_asm import disassemble_word

    words = riscv.program_words(n=10)
    assert len(words) > 20
    # Spot-check: first instruction is li t0, 10 == addi t0, zero, 10.
    assert disassemble_word(words[0]) == "addi x5, x0, 10"


def test_riscv_expected_results():
    from repro.designs.riscv import expected_results, fib

    assert fib(10) == 55
    results = expected_results(10)
    assert results[0] == 55
    assert results[5] == sum(results[:5])
