"""``python -m repro.sim`` — the paper's ``llhd-sim`` tool.

Elaborates an LLHD module and simulates it with one of the four
engines::

    python -m repro.sim design.llhd --top top
    python -m repro.sim design.llhd --engine blaze --until 100ns --stats
    python -m repro.sim --design fifo --cycles 60 --engine blaze
    python -m repro.sim --design fifo --engine levelized --stats
    python -m repro.sim design.llhd --vcd out.vcd --trace
    python -m repro.sim --design fifo --batch 16 --stats
    python -m repro.sim --design fifo --batch 8 --seed-stride 1 --stats

Input is either an ``.llhd`` file (``-`` reads stdin) or a named design
from the evaluation suite (``--design``, see ``--list-designs``).  The
engine is ``interp`` (LLHD-Sim, the reference interpreter), ``blaze``
(the compiled simulator), ``cycle`` (the independent two-phase
baseline), or ``levelized`` (the ahead-of-time compiled netlist
engine; with ``--design`` it implies ``--netlist``, which lowers the
design through structural lowering and technology mapping first).
``--cross-check`` runs interp and blaze, then the selected engine, then
levelized when the module is at the netlist level; it verifies the
traces are identical and reports the selected engine's run.  With
``--batch`` it compares every lane the same way.
"""

from __future__ import annotations

import argparse
import sys

from .values import SimulationError

_TIME_SUFFIXES = {
    "fs": 1, "ps": 1_000, "ns": 1_000_000, "us": 1_000_000_000,
    "ms": 1_000_000_000_000, "s": 1_000_000_000_000_000,
}


def parse_time_fs(text):
    """Parse ``100ns`` / ``2500`` (bare = femtoseconds) into fs; a
    :class:`ValueError` for anything else, negative times included."""
    number, scale = text.strip(), None
    for suffix in sorted(_TIME_SUFFIXES, key=len, reverse=True):
        if number.endswith(suffix):
            number, scale = number[: -len(suffix)], _TIME_SUFFIXES[suffix]
            break
    try:
        fs = int(number) if scale is None else int(float(number) * scale)
    except (ValueError, OverflowError):
        fs = None
    if fs is None or fs < 0:
        raise ValueError(f"invalid time {text!r} (expected a non-negative "
                         f"number with an optional fs/ps/ns/us/ms/s suffix)")
    return fs


def _build_parser():
    from . import BACKENDS

    parser = argparse.ArgumentParser(
        prog="python -m repro.sim",
        description="Simulate LLHD designs (the paper's llhd-sim).")
    parser.add_argument(
        "file", nargs="?", metavar="FILE",
        help=".llhd input file ('-' reads stdin)")
    parser.add_argument(
        "--design", metavar="NAME",
        help="simulate a named design from the evaluation suite instead "
             "of a file")
    parser.add_argument(
        "--cycles", type=int, default=None, metavar="N",
        help="testbench cycle count for --design")
    parser.add_argument(
        "-t", "--top", metavar="NAME",
        help="top entity (default: sole entity, or the design's "
             "testbench)")
    parser.add_argument(
        "-e", "--engine", default="interp", choices=BACKENDS,
        help="simulation engine (default: interp)")
    parser.add_argument(
        "--netlist", action="store_true",
        help="with --design: lower to the netlist level (structural "
             "lowering + technology mapping) before simulating; implied "
             "by --engine levelized")
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="levelized compile-cache directory (default: "
             "$REPRO_CACHE_DIR, else $XDG_CACHE_HOME/repro, else "
             "~/.cache/repro)")
    parser.add_argument(
        "--until", metavar="TIME", default=None,
        help="stop at this time (e.g. 100ns, 2500 = fs)")
    parser.add_argument(
        "--stats", action="store_true",
        help="print kernel statistics (deltas, events, activations)")
    parser.add_argument(
        "--trace", action="store_true",
        help="print the value-change trace")
    parser.add_argument(
        "--vcd", metavar="FILE",
        help="write the trace as a VCD file")
    parser.add_argument(
        "--cross-check", action="store_true",
        help="also simulate under interp and blaze (and levelized at the "
             "netlist level); fail on trace divergence, then report the "
             "selected engine's run")
    parser.add_argument(
        "--sanitize", action="store_true",
        help="record drive races and delta-cycle oscillations as "
             "findings (cross-checking repro.lint verdicts) instead of "
             "aborting the run")
    parser.add_argument(
        "--batch", type=int, default=None, metavar="K",
        help="simulate K stimulus lanes, one scalar run per distinct "
             "stimulus; without --seed-stride every lane sees identical "
             "stimulus, so the design is simulated once")
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="base stimulus seed for --seed-stride (default: 0)")
    parser.add_argument(
        "--seed-stride", type=int, default=None, metavar="S",
        help="with --batch K: inject randomized stimulus where lane k "
             "uses seed N+k*S, one simulation per lane")
    parser.add_argument(
        "--list-designs", action="store_true",
        help="list the named designs of the evaluation suite with the "
             "deepest pipeline level each reaches, then exit")
    return parser


def _load_module(args, parser):
    from ..ir import ParseError, parse_module

    if args.design:
        from ..designs import DESIGNS, compile_design

        if args.design not in DESIGNS:
            parser.error(
                f"unknown design {args.design!r}; see --list-designs")
        module = compile_design(args.design, cycles=args.cycles)
        top = args.top or DESIGNS[args.design].top
        if args.netlist or args.engine == "levelized":
            from ..interop import netlist_design
            from ..passes.pipeline import lower_to_structural

            lower_to_structural(module, strict=False, verify=False)
            module = netlist_design(module)
        return module, top
    if not args.file:
        parser.error("an input file or --design is required")
    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file) as fh:
                text = fh.read()
    except OSError as exc:
        parser.error(str(exc))
    try:
        module = parse_module(text)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
    return module, args.top or _default_top(module, parser)


def _default_top(module, parser):
    from ..ir.units import UnitDecl

    entities = [unit.name for unit in module
                if not isinstance(unit, UnitDecl) and unit.is_entity]
    if len(entities) == 1:
        return entities[0]
    parser.error(
        "--top is required (module has "
        f"{len(entities)} entities: {', '.join(entities[:5])})")


def _report(result, args):
    for line in result.output:
        print(line)
    for failure in result.assertion_failures:
        print(failure, file=sys.stderr)
    for finding in result.findings:
        print(finding.render(), file=sys.stderr)
    if args.stats:
        stats = result.stats
        print(f"# finished at {result.final_time_fs}fs: "
              f"{stats['deltas']} deltas, {stats['events']} events, "
              f"{stats['activations']} activations", file=sys.stderr)
        if "cache_hits" in stats:
            print(f"# levelized cache: {stats['cache_hits']} hits, "
                  f"{stats['cache_misses']} misses, "
                  f"{stats['cache_errors']} errors; cone "
                  f"{stats.get('cone_nets', 0)} nets / "
                  f"{stats.get('cone_gates', 0)} gates / "
                  f"{stats.get('cone_seqs', 0)} storage cells",
                  file=sys.stderr)
    if args.trace:
        trace = result.trace
        for name in trace.signals():
            for fs, value in trace.history(name):
                print(f"{fs}fs {name} = {value}")
    if args.vcd:
        with open(args.vcd, "w") as fh:
            fh.write(result.trace.to_vcd())


def _report_batch(batch, args):
    for k in range(batch.lanes):
        lane = batch.lane(k)
        for line in lane.output:
            print(f"[lane {k}] {line}")
        for failure in lane.assertion_failures:
            print(f"[lane {k}] {failure}", file=sys.stderr)
    if args.stats:
        stats = batch.stats
        finishes = " ".join(
            f"l{k}@{batch.lane(k).final_time_fs}fs"
            for k in range(batch.lanes))
        print(f"# batch of {batch.lanes} lanes ({batch.mode}): "
              f"{stats['deltas']} deltas, {stats['events']} events, "
              f"{stats['activations']} activations; {finishes}",
              file=sys.stderr)
    if args.trace:
        for k in range(batch.lanes):
            trace = batch.lane(k).trace
            for name in trace.signals():
                for fs, value in trace.history(name):
                    print(f"l{k} {fs}fs {name} = {value}")
    if args.vcd:
        base, dot, ext = args.vcd.rpartition(".")
        for k in range(batch.lanes):
            path = f"{base}.l{k}{dot}{ext}" if dot else f"{args.vcd}.l{k}"
            with open(path, "w") as fh:
                fh.write(batch.lane(k).trace.to_vcd())


def _batch_stimulus(module, top, args, parser):
    if args.seed_stride is None:
        return None
    from .stimulus import inject_batch_stimulus

    lane_seeds = [args.seed + k * args.seed_stride
                  for k in range(args.batch)]
    stimulus = inject_batch_stimulus(module, top, args.seed, lane_seeds)
    if stimulus is None:
        parser.error(f"--seed-stride: top @{top} has no injectable nets")
    return stimulus


def _run_batch_cli(module, top, until_fs, args, parser):
    from . import simulate_batch

    stimulus = _batch_stimulus(module, top, args, parser)
    if args.cross_check:
        engines = ["interp", "blaze"]
        if args.engine == "cycle":
            engines.append("cycle")
        runs = {}
        for backend in engines:
            runs[backend] = simulate_batch(
                module, top, args.batch, until_fs=until_fs,
                backend=backend, stimulus=stimulus)
        for backend in engines[1:]:
            for k in range(args.batch):
                differences = runs["interp"].lane(k).trace.differences(
                    runs[backend].lane(k).trace)
                if differences:
                    print(f"error: lane {k}: interp and {backend} traces "
                          "diverge:", file=sys.stderr)
                    for issue in differences:
                        print(f"  {issue}", file=sys.stderr)
                    return None
        print(f"# lane traces identical across {', '.join(engines)}",
              file=sys.stderr)
        return runs[args.engine]
    return simulate_batch(module, top, args.batch, until_fs=until_fs,
                          backend=args.engine, stimulus=stimulus)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    for flag, value in (("--cycles", args.cycles), ("--batch", args.batch)):
        if value is not None and value < 1:
            parser.error(f"{flag} must be at least 1, got {value}")
    try:
        until_fs = None if args.until is None else parse_time_fs(args.until)
    except ValueError as exc:
        parser.error(f"--until: {exc}")
    if args.seed_stride is not None and args.batch is None:
        parser.error("--seed-stride requires --batch")
    if args.sanitize and args.batch is not None:
        parser.error("--sanitize does not support batched lanes")
    if args.engine == "levelized":
        if args.sanitize:
            parser.error(
                "--sanitize does not support the levelized engine (the "
                "cone bypasses the scheduler the sanitizer instruments)")
        if args.batch is not None:
            parser.error(
                "--batch does not support the levelized engine")
    if args.list_designs:
        from ..designs import ALL_DESIGNS, DESIGNS, stage_reach
        from ..lint import lint_design

        for name in ALL_DESIGNS:
            design = DESIGNS[name]
            prefix = f"{name:16s} top @{design.top:20s}"
            try:
                diagnostics = lint_design(name)
                lint = "clean" if not len(diagnostics) else \
                    ",".join(sorted(diagnostics.codes()))
            except Exception as exc:  # lint must never break the listing
                lint = f"error({type(exc).__name__})"
            reach, rejections, engines, notes = stage_reach(name)
            deepest = [s for s, ok in reach.items() if ok][-1]
            if reach["netlist"]:
                deepest = f"{deepest}[{','.join(engines)}]"
            print(f"{prefix} reach {deepest} lint {lint:12s} "
                  f"{design.paper_name}")
            for proc, why in rejections:
                print(f"{'':21s} rejected @{proc}: {why}")
            for note in notes:
                print(f"{'':21s} {note}")
        return 0
    module, top = _load_module(args, parser)

    from . import simulate

    if args.batch is not None:
        try:
            batch = _run_batch_cli(module, top, until_fs, args, parser)
        except SimulationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if batch is None:
            return 2
        _report_batch(batch, args)
        return 1 if batch.assertion_failures else 0

    try:
        if args.cross_check:
            engines = ["interp", "blaze"]
            if args.engine == "cycle":
                engines.append("cycle")
            # Include the levelized engine whenever the module is (or
            # was just lowered to) the netlist level; the sanitizer
            # cannot instrument the cone, so it leaves it out.
            if (args.netlist or args.engine == "levelized") \
                    and not args.sanitize:
                engines.append("levelized")
            runs = {}
            for backend in engines:
                runs[backend] = simulate(
                    module, top, until_fs=until_fs, backend=backend,
                    sanitize=args.sanitize and backend != "levelized",
                    cache_dir=args.cache_dir)
            reference = runs["interp"]
            for backend in engines[1:]:
                differences = reference.trace.differences(
                    runs[backend].trace)
                if differences:
                    print(f"error: interp and {backend} traces diverge:",
                          file=sys.stderr)
                    for issue in differences:
                        print(f"  {issue}", file=sys.stderr)
                    return 2
            print(f"# traces identical across {', '.join(engines)}",
                  file=sys.stderr)
            result = runs[args.engine]
        else:
            result = simulate(module, top, until_fs=until_fs,
                              backend=args.engine, sanitize=args.sanitize,
                              cache_dir=args.cache_dir)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _report(result, args)
    return 1 if result.assertion_failures or result.findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
