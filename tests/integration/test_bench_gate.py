"""The bench gate: a change judged against its parent commit.

Each side is a directory of ``benchmarks/e2e/run.py --json`` documents,
one per round; these tests write synthetic ones.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from benchmarks import gate
from benchmarks.e2e.cli import load_benchmark
from benchmarks.e2e.measure import summary

ROOT = pathlib.Path(__file__).resolve().parents[2]
DECLARED = load_benchmark()
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
METRICS = {m["name"]: m for m in DECLARED["end_to_end"]}

#: A plausible median per metric and a spread of 2% over five rounds.
BASE = {"time_to_trace_s": 1.5, "time_to_trace_p50_s": 0.04,
        "setup_s": 0.35, "sim_cycles_per_s": 15000.0, "peak_rss_mb": 32.0}
ROUNDS = (0.99, 1.0, 1.01, 0.995, 1.005)


def _write_side(directory, scale=None, rounds=ROUNDS, drop=()):
    """One ``--json`` document per round; ``scale(workload, metric)``
    multiplies a pair's samples, and ``drop`` leaves out workloads or
    ``(workload, metric)`` pairs."""
    directory.mkdir()
    for index, factor in enumerate(rounds):
        workloads = {}
        for workload in WORKLOADS:
            if workload in drop:
                continue
            for name, value in BASE.items():
                if (workload, name) in drop:
                    continue
                sample = value * factor
                if scale is not None:
                    sample *= scale(workload, name)
                entry = {"unit": METRICS[name]["unit"], "samples": [sample]}
                entry.update(summary(entry["samples"]))
                workloads.setdefault(workload, {})[name] = entry
        doc = {"seed": index, "runs": 1, "seconds": 20,
               "workloads": workloads}
        (directory / f"round{index}.json").write_text(json.dumps(doc))
    return directory


def _failures(parent, change):
    return {(w, m): verdict for w, m, verdict, _ in gate.judge(parent, change)
            if verdict != "ok"}


def _only(workload, metric, factor):
    return lambda w, m: factor if (w, m) == (workload, metric) else 1.0


def test_identical_sides_pass(tmp_path):
    parent = _write_side(tmp_path / "parent")
    change = _write_side(tmp_path / "change")
    assert _failures(parent, change) == {}
    assert len(gate.judge(parent, change)) == len(WORKLOADS) * len(METRICS)


def test_a_change_worse_than_the_bound_fails_on_that_pair_only(tmp_path):
    parent = _write_side(tmp_path / "parent")
    change = _write_side(tmp_path / "change",
                         _only("netlist", "time_to_trace_s", 1.2))
    assert _failures(parent, change) == {
        ("netlist", "time_to_trace_s"): "WORSE"}


@pytest.mark.parametrize("metric,factor", [("time_to_trace_s", 0.7),
                                           ("sim_cycles_per_s", 1.3)])
def test_a_better_change_passes(tmp_path, metric, factor):
    parent = _write_side(tmp_path / "parent")
    change = _write_side(tmp_path / "change",
                         _only("behavioural", metric, factor))
    assert _failures(parent, change) == {}


def test_fewer_cycles_per_second_is_worse(tmp_path):
    parent = _write_side(tmp_path / "parent")
    change = _write_side(tmp_path / "change",
                         _only("batch", "sim_cycles_per_s", 0.8))
    assert _failures(parent, change) == {
        ("batch", "sim_cycles_per_s"): "WORSE"}


def test_a_spread_wider_than_the_bound_is_unresolved(tmp_path):
    noisy = (0.7, 1.0, 1.3, 0.8, 1.2)
    parent = _write_side(tmp_path / "parent", rounds=noisy)
    change = _write_side(tmp_path / "change")
    failures = _failures(parent, change)
    assert set(failures.values()) == {"UNRESOLVED"}
    assert len(failures) == len(WORKLOADS) * len(METRICS)


def test_a_wide_spread_passes_when_every_change_sample_wins(tmp_path):
    noisy = (0.7, 1.0, 1.3, 0.8, 1.2)
    parent = _write_side(tmp_path / "parent", rounds=noisy)
    # Every change sample is faster (or, per second, higher) than every
    # parent sample, though the change is as noisy as the parent.
    change = _write_side(
        tmp_path / "change", rounds=noisy,
        scale=lambda w, m: 3.0 if METRICS[m]["better"] == "higher"
        else 0.3)
    assert _failures(parent, change) == {}


def test_a_missing_workload_or_metric_fails(tmp_path):
    parent = _write_side(tmp_path / "parent",
                         drop={("batch", "peak_rss_mb")})
    change = _write_side(tmp_path / "change", drop={"crosscheck"})
    failures = _failures(parent, change)
    assert failures == {
        ("batch", "peak_rss_mb"): "MISSING",
        **{("crosscheck", m): "MISSING" for m in METRICS}}


@pytest.mark.parametrize("factor,code", [(1.0, 0), (1.2, 1)])
def test_exit_code(tmp_path, factor, code):
    parent = _write_side(tmp_path / "parent")
    change = _write_side(tmp_path / "change",
                         _only("crosscheck", "setup_s", factor))
    assert gate.main([str(parent), str(change)]) == code
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.gate", str(parent), str(change)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=False)
    assert proc.returncode == code
    assert ("pairs pass" if code == 0 else "pairs failed") in proc.stdout
