"""Command line of the end-to-end benchmark.

``python -m benchmarks.e2e [--seed S]`` runs the four workloads one after
another, each in its own fresh single-threaded process, and prints every
end-to-end metric per workload.  ``--workload W`` runs one workload in
this process and ends with a one-line JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from .measure import summary, write_expected
from .workloads import WORKLOADS, run_workload, write_expected_digests

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
RUN_PY = os.path.join(HERE, "run.py")


def load_benchmark():
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def _parser():
    p = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(WORKLOADS),
                   help="run one workload in this process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float,
                   help="measuring time per workload run "
                        "(default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run, reporting the per-layer metrics")
    p.add_argument("--trace-out", metavar="SPANS.json",
                   help="also make a traced run and write its spans here")
    p.add_argument("--runs", type=int, default=1,
                   help="runs per workload (seeds S, S+1, ...)")
    p.add_argument("--json", metavar="OUT",
                   help="write every sample with median and quartiles")
    p.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"),
                   help="compare the medians of two --json files against "
                        "the bounds of BENCHMARK.json")
    p.add_argument("--write-expected", action="store_true",
                   help="regenerate expected.json from interp runs")
    p.add_argument("--smoke", action="store_true",
                   help="two cheap designs, tiny N, one repetition")
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.agree:
        return agree(*args.agree)
    if args.write_expected:
        write_expected(write_expected_digests())
        return 0
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    if args.workload:
        return run_one(args)
    return orchestrate(args)


# -- one workload in this process ----------------------------------------------


def run_one(args):
    traced = bool(args.trace or args.trace_out)
    doc = run_workload(args.workload, args.seed, args.seconds,
                       traced=traced, smoke=args.smoke)
    for failure in doc["failures"]:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"# {args.workload}: seed {args.seed}, N={doc['cycles']}, "
          f"{doc['reps']} repetitions, {doc['attempted']} checked "
          f"operations, {doc['failed']} failed")
    _print_metrics(doc["metrics"])
    print(f"  {'fail_frac':24s} {doc['failed'] / doc['attempted']:14.6g} "
          "ratio")
    if traced and "per_layer" in doc:
        _print_layers(doc)
    if args.trace_out and "spans" in doc:
        with open(args.trace_out, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "per_layer": doc["per_layer"],
                       "self_times": doc["self_times"],
                       "spans": doc["spans"]}, fh)
    metrics = doc.get("per_layer", {}) if args.trace else doc["metrics"]
    print(json.dumps({"correct": doc["failed"] == 0,
                      "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0 if doc["failed"] == 0 else 1


def _print_metrics(metrics):
    for name, m in metrics.items():
        print(f"  {name:24s} {m['value']:14.6g} {m['unit']}")


def _print_layers(doc):
    wall = sum(doc["self_times"].values())
    print("  per-layer self time (traced repetitions):")
    for name, seconds in sorted(doc["self_times"].items(),
                                key=lambda kv: -kv[1]):
        label = "(harness)" if name == "design" else name
        print(f"    {label:38s} {seconds:9.4f} s {seconds / wall:7.1%}")
    layers = doc["per_layer"]
    for key in ("bench.trace_overhead_frac", "bench.layer_coverage_frac"):
        print(f"  {key} = {layers[key]['value']:.4f}")


# -- all workloads, one process each -------------------------------------------


def _spawn(workload, seed, seconds, trace, smoke, trace_out=None):
    cmd = [sys.executable, RUN_PY, "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result


def orchestrate(args):
    worst = 0
    samples = {}
    for run in range(args.runs):
        seed = args.seed + run
        for workload in WORKLOADS:
            code, result = _spawn(workload, seed, args.seconds, 0,
                                  args.smoke)
            worst = max(worst, code if result is not None else 2)
            if result is None:
                print(f"# {workload}: no result (exit {code})")
                continue
            slot = samples.setdefault(workload, {})
            for name, m in result["metrics"].items():
                slot.setdefault(name, {"unit": m["unit"], "samples": []})
                slot[name]["samples"].append(m["value"])
    if args.trace_out:
        merged = {}
        for workload in WORKLOADS:
            part = f"{args.trace_out}.{workload}.part"
            code, result = _spawn(workload, args.seed, args.seconds, 1,
                                  args.smoke, trace_out=part)
            worst = max(worst, code if result is not None else 2)
            if os.path.exists(part):
                with open(part) as fh:
                    merged[workload] = json.load(fh)
                os.remove(part)
        with open(args.trace_out, "w") as fh:
            json.dump(merged, fh)
    if args.json:
        for slot in samples.values():
            for entry in slot.values():
                entry.update(summary(entry["samples"]))
        with open(args.json, "w") as fh:
            json.dump({"seed": args.seed, "runs": args.runs,
                       "seconds": args.seconds, "workloads": samples}, fh,
                      indent=1)
            fh.write("\n")
    return worst


def agree(path_a, path_b):
    """Exit 0 when every (workload, metric) median of B lies within the
    BENCHMARK.json bound of A's median, in either direction.

    A pair is ``unresolved`` when either set's quartile spread is wider
    than the bound: such a set cannot show a change of the bound's size,
    so the pair does not count as agreeing."""
    bounds = {m["name"]: m["bound"] for m in load_benchmark()["end_to_end"]}
    with open(path_a) as fh:
        a = json.load(fh)["workloads"]
    with open(path_b) as fh:
        b = json.load(fh)["workloads"]
    ok = True
    print(f"{'workload':12s} {'metric':22s} {'median A':>12s} "
          f"{'median B':>12s} {'diff':>8s} {'bound':>6s}")
    for workload in WORKLOADS:
        for name, bound in bounds.items():
            sa = a.get(workload, {}).get(name)
            sb = b.get(workload, {}).get(name)
            if sa is None or sb is None:
                print(f"{workload:12s} {name:22s} missing")
                ok = False
                continue
            ma, mb = sa["median"], sb["median"]
            diff = (mb - ma) / ma
            if max(sa["iqr_frac"], sb["iqr_frac"]) > bound:
                verdict = "UNRESOLVED"
            elif abs(diff) <= bound:
                verdict = "agree"
            else:
                verdict = "DISAGREE"
            ok &= verdict == "agree"
            print(f"{workload:12s} {name:22s} {ma:12.6g} {mb:12.6g} "
                  f"{diff:+8.2%} {bound:6.0%} {verdict}")
    return 0 if ok else 1
