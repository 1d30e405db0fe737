"""The bench gate: judge a change against its parent commit.

``python -m benchmarks.gate PARENT_DIR CHANGE_DIR`` pools the samples of
every ``benchmarks/e2e/run.py --json`` file in each directory and judges
each (workload, end-to-end metric) pair of ``BENCHMARK.json`` with that
metric's bound and ``better`` direction.  A pair fails when the change's
median is worse than the parent's by more than the bound, or when either
side's quartile spread is wider than the bound (such a side cannot show
a change of the bound's size) unless every change sample beats every
parent sample.  Exits 0 when every pair passes, 1 otherwise.
"""

import argparse
import glob
import json
import os
import sys

from .e2e.cli import load_benchmark
from .e2e.measure import summary


def _pooled(directory):
    """``{workload: {metric: samples}}`` over the directory's files."""
    pool = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            for workload, metrics in json.load(fh)["workloads"].items():
                for name, entry in metrics.items():
                    pool.setdefault(workload, {}).setdefault(
                        name, []).extend(entry["samples"])
    return pool


def judge(parent_dir, change_dir):
    """One ``(workload, metric, verdict, detail)`` row per pair; the
    verdict is ``ok``, ``WORSE``, ``UNRESOLVED`` or ``MISSING``."""
    declared = load_benchmark()
    parent, change = _pooled(parent_dir), _pooled(change_dir)
    rows = []
    for workload in (w["name"] for w in declared["workloads"]):
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            p = parent.get(workload, {}).get(name)
            c = change.get(workload, {}).get(name)
            if not p or not c:
                rows.append((workload, name, "MISSING", ""))
                continue
            sign = 1 if metric["better"] == "lower" else -1
            sp, sc = summary(p), summary(c)
            worse = sign * (sc["median"] - sp["median"]) / sp["median"]
            spread = max(sp["iqr_frac"], sc["iqr_frac"])
            beats = max(sign * x for x in c) < min(sign * x for x in p)
            if worse > bound:
                verdict = "WORSE"
            elif spread > bound and not beats:
                verdict = "UNRESOLVED"
            else:
                verdict = "ok"
            rows.append((workload, name, verdict,
                         f"{sp['median']:12.6g} {sc['median']:12.6g} "
                         f"{worse:+8.2%} {spread:7.2%} {bound:6.0%}"))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m benchmarks.gate",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir", metavar="PARENT_DIR")
    parser.add_argument("change_dir", metavar="CHANGE_DIR")
    args = parser.parse_args(argv)
    rows = judge(args.parent_dir, args.change_dir)
    print(f"{'workload':12s} {'metric':22s} {'parent':>12s} "
          f"{'change':>12s} {'worse':>8s} {'spread':>7s} {'bound':>6s}")
    for workload, name, verdict, detail in rows:
        print(f"{workload:12s} {name:22s} {detail} {verdict}")
    failed = sum(verdict != "ok" for _, _, verdict, _ in rows)
    print(f"{failed} of {len(rows)} pairs failed" if failed
          else f"all {len(rows)} pairs pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
