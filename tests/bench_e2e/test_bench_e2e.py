"""The end-to-end benchmark: its declaration, its runner and its
reference digests."""

import copy
import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.e2e import cli, workloads
from benchmarks.e2e.measure import load_expected
from benchmarks.e2e.workloads import (
    END_TO_END, OPS, PER_LAYER, SMOKE_DESIGNS, interp_reference,
    run_workload,
)
from repro.designs import DESIGNS
from repro.moore import compile_sv

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_json_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 1 <= len(BENCH["paths"]) <= 16
    for path in BENCH["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path)
        assert (ROOT / path).is_dir()
    command = BENCH["command"]
    assert 1 <= len(command) <= 32
    for arg in command:
        assert len(arg) <= 200
        assert not arg.startswith("/") and ".." not in arg.split("/")
    assert (ROOT / command[1]).is_file()
    assert isinstance(BENCH["run_seconds"], int)
    assert 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(BENCH["workloads"]) <= 8
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert [w["name"] for w in BENCH["workloads"]] == \
        list(workloads.WORKLOADS)


def test_metric_declarations():
    e2e, layers = BENCH["end_to_end"], BENCH["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    names = [m["name"] for m in e2e + layers] + \
        [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        # Timings may worsen by at most 10% and memory by 5%.
        assert 0 < m["bound"] <= (0.05 if m["unit"] == "MB" else 0.10)
    for m in layers:
        assert set(m) == {"name", "unit", "better"}
    for m in e2e + layers:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower",
                                                             "higher")
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in e2e)
    # Every declared metric is the one the runner emits, with its unit.
    assert {m["name"]: m["unit"] for m in e2e} == END_TO_END
    assert {m["name"]: m["unit"] for m in layers} == PER_LAYER


def test_bare_directory_exits_nonzero(tmp_path):
    """Without the repository's sources the runner fails fast and prints
    no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        BENCH["command"] + ["--workload", "behavioural", "--seed", "0",
                            "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- smoke runs ----------------------------------------------------------------


@pytest.fixture(scope="module")
def smoke():
    """Every workload once untraced and once traced, on the two cheap
    designs at a tiny N."""
    return {w: run_workload(w, seed=3, seconds=0, traced=True, smoke=True)
            for w in workloads.WORKLOADS}


def test_smoke_runs_are_correct_and_emit_every_metric(smoke):
    for workload, doc in smoke.items():
        assert doc["failed"] == 0, doc["failures"]
        # One untraced and one traced pass, plus the warm-up design.
        assert doc["attempted"] == \
            (2 * len(SMOKE_DESIGNS) + 1) * OPS[workload]
        assert set(doc["metrics"]) == set(END_TO_END)
        assert all(m["value"] > 0 for m in doc["metrics"].values())
        assert set(doc["per_layer"]) == set(PER_LAYER)


LAYER_SPANS = {
    "behavioural": {"moore.compile_sv", "sim.blaze.elaborate_compiled",
                    "sim.blaze.run"},
    "netlist": {"moore.compile_sv", "passes.lower_to_structural",
                "interop.netlist_design", "sim.levelized.elaborate_levelized",
                "sim.levelized.elaborate_warm", "sim.levelized.run"},
    "batch": {"moore.compile_sv", "sim.batch.simulate_batch",
              "sim.batch.lane", "sim.stimulus.inject_batch_stimulus"},
    "crosscheck": {"moore.compile_sv", "sim.interp.elaborate",
                   "sim.interp.run", "sim.cycle.elaborate_cycle",
                   "sim.cycle.run"},
}


def test_traced_run_spans_every_layer_call(smoke):
    for workload, doc in smoke.items():
        spans = doc["spans"]
        names = {s["name"] for s in spans}
        assert LAYER_SPANS[workload] | {"design", "bench.verify"} <= names
        for span in spans:
            assert span["end"] >= span["start"]
            if span["parent"] is not None:
                root = spans[span["parent"]]
                assert root["name"] == "design"
                assert root["request"] == span["request"]
                assert root["start"] <= span["start"] <= span["end"] \
                    <= root["end"]
        assert {s["request"] for s in spans} == set(SMOKE_DESIGNS)


def test_traced_counters(smoke):
    netlist = {k: m["value"]
               for k, m in smoke["netlist"]["per_layer"].items()}
    assert netlist["sim.levelized.cone_gates"] > 0
    assert netlist["sim.levelized.cache_misses"] == len(SMOKE_DESIGNS)
    assert netlist["sim.levelized.cache_hits"] == len(SMOKE_DESIGNS)
    assert netlist["passes.cf.runs"] > 0 and netlist["interop.cells"] > 0
    assert 0 < netlist["passes.analysis_hit_frac"] <= 1
    batch = smoke["batch"]["per_layer"]
    assert batch["sim.batch.vectorized_frac"]["value"] == 1.0
    for doc in smoke.values():
        for key in ("moore.insts", "sim.events", "sim.activations"):
            assert doc["per_layer"][key]["value"] > 0, key
        assert doc["per_layer"]["sim.loc"]["value"] > 1000


def test_cli_prints_the_result_line_last():
    proc = subprocess.run(
        [sys.executable, str(ROOT / BENCH["command"][1]), "--workload",
         "behavioural", "--seed", "1", "--seconds", "0", "--trace", "0",
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        END_TO_END


def test_tampered_digest_fails_the_run(monkeypatch, capsys):
    tampered = copy.deepcopy(load_expected())
    entry = tampered["gray"][str(workloads.SMOKE_CYCLES)]
    entry["sha256"] = "0" * 64
    monkeypatch.setattr(workloads, "load_expected", lambda: tampered)
    code = cli.main(["--workload", "crosscheck", "--seed", "0",
                     "--seconds", "0", "--smoke"])
    assert code == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


# -- reference digests ---------------------------------------------------------


@pytest.mark.parametrize("name", SMOKE_DESIGNS)
def test_committed_digests_match_a_fresh_interp_run(name):
    design = DESIGNS[name]
    committed = load_expected()[name]
    assert set(committed) >= {str(w["cycles"])
                              for w in workloads.WORKLOADS.values()}
    for cycles, entry in committed.items():
        module = compile_sv(design.source(int(cycles)), module_name=name,
                            four_state=design.four_state)
        assert interp_reference(module, design.top) == entry


# -- repeatability tooling -----------------------------------------------------


def test_agree_uses_the_declared_bounds(tmp_path, capsys):
    def doc(scale, iqr_frac=0.01):
        return {"workloads": {w: {m["name"]: {"median": 100.0 * scale,
                                              "iqr_frac": iqr_frac}
                                  for m in BENCH["end_to_end"]}
                              for w in workloads.WORKLOADS}}

    a, b, c, d = (tmp_path / f"{x}.json" for x in "abcd")
    a.write_text(json.dumps(doc(1.0)))
    b.write_text(json.dumps(doc(1.01)))
    c.write_text(json.dumps(doc(1.5)))
    d.write_text(json.dumps(doc(1.01, iqr_frac=0.3)))
    assert cli.main(["--agree", str(a), str(b)]) == 0
    assert cli.main(["--agree", str(a), str(c)]) == 1
    assert "DISAGREE" in capsys.readouterr().out
    # A set whose spread exceeds the bound cannot show agreement.
    assert cli.main(["--agree", str(a), str(d)]) == 1
    out = capsys.readouterr().out
    assert "UNRESOLVED" in out and "DISAGREE" not in out
