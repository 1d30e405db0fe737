"""The pass manager: registered passes, declarative pipelines, analysis
caching, and per-pass instrumentation.

The paper presents the behavioural → structural lowering as a pipeline of
composable passes over the multi-level IR, driven by an ``llhd-opt`` tool.
This module provides that layer:

* :class:`Pass` / :class:`UnitPass` / :class:`ModulePass` — the pass
  interface: a registry ``name``, ``preserves`` declarations telling the
  :class:`~repro.analysis.AnalysisManager` which cached analyses survive
  the pass, and per-pass ``statistics``.
* :class:`PassManager` — parses pipeline specs such as
  ``"inline,unroll,mem2reg,fixpoint(cf,instsimplify,cse,dce),ecm"``,
  runs them over a unit or module, drives ``fixpoint(...)`` groups with
  changed-flags instead of blind whole-pipeline reruns (and skips a
  group that already converged on an unchanged target), records wall
  time and changed counts per pass, and optionally verifies the IR
  between passes.
* :data:`PASS_REGISTRY` / :func:`register_pass` — the name → pass-class
  registry every pass module under ``repro.passes`` populates.
* :data:`PIPELINES` — named pipeline aliases (``cleanup``, ``prepare``,
  ``lower``) usable anywhere a pass name is.

``python -m repro.opt`` (see :mod:`repro.opt`) exposes the same specs on
the command line, mirroring the paper's ``llhd-opt``.
"""

from __future__ import annotations

import re
import time

from ..analysis.manager import AnalysisManager
from ..ir.units import Module


class _PreserveAll(frozenset):
    """Sentinel: the pass keeps *every* cached analysis valid — either it
    does not mutate anything analyses describe, or it performs precise
    invalidation itself mid-run.  A distinct singleton (not the registry
    set) so ``register_analysis`` growing the registry can never make the
    identity check drift; it also behaves as the universal set for
    membership-style use."""

    def __contains__(self, name):
        return True

    def __repr__(self):
        return "PRESERVE_ALL"


PRESERVE_ALL = _PreserveAll()

#: name -> Pass subclass.  Populated by ``@register_pass`` when the pass
#: modules are imported (importing :mod:`repro.passes` imports them all).
PASS_REGISTRY = {}

#: name -> pipeline spec string.  Aliases expand recursively inside specs.
PIPELINES = {}


def register_pass(cls):
    """Class decorator adding a pass to :data:`PASS_REGISTRY`."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} has no pass name")
    PASS_REGISTRY[cls.name] = cls
    return cls


def register_pipeline(name, spec):
    """Register a named pipeline alias."""
    PIPELINES[name] = spec
    return spec


class PassError(Exception):
    """A pass could not run (unknown name, bad target, bad spec)."""


# ---------------------------------------------------------------------------
# Pass interface
# ---------------------------------------------------------------------------


class Pass:
    """Base class of all passes.

    Subclasses set ``name`` (the registry/pipeline-spec name) and
    ``preserves`` (analysis names that remain valid even when the pass
    reports a change; :data:`PRESERVE_ALL` when the pass invalidates
    precisely itself).  ``statistics`` accumulates named counters across
    invocations of one instance.
    """

    name = None
    scope = "unit"
    preserves = frozenset()

    def __init__(self):
        self.statistics = {}
        # Records of nested pipelines (e.g. `lower` running `prepare`),
        # hoisted into the enclosing PassManager's table after the run.
        self.sub_records = []

    def stat(self, key, amount=1):
        """Bump a named statistic counter."""
        self.statistics[key] = self.statistics.get(key, 0) + amount

    def __repr__(self):
        return f"<pass {self.name}>"


class UnitPass(Pass):
    """A pass over one unit.  Applied to a module, it runs on every unit
    whose kind is listed in ``applies_to``."""

    applies_to = ("func", "proc", "entity")

    def run_on_unit(self, unit, am):
        """Transform ``unit``; return True if anything changed.

        ``am`` is the shared :class:`AnalysisManager`; use ``am.get`` for
        cached analyses, and ``am.invalidate`` when the pass mutates the
        CFG mid-run but declares :data:`PRESERVE_ALL`.
        """
        raise NotImplementedError


class ModulePass(Pass):
    """A pass over a whole module (may add and remove units)."""

    scope = "module"

    def run_on_module(self, module, am):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Pipeline specs
# ---------------------------------------------------------------------------


class PassNode:
    """A single pass in a parsed pipeline."""

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


class FixpointNode:
    """``fixpoint(a,b,...)`` — iterate the children to a fixpoint.

    Children are driven by changed-flags: a child reruns only when some
    other child has changed the unit since the child last ran clean, not
    on every round.  ``max_rounds`` bounds runaway oscillation.

    The pipeline applies the same rule to the group itself: within one
    ``PassManager.run``/``run_spec`` call, a group that converged is
    skipped until some pass reports a change to the target, so
    ``cleanup,ecm,cleanup`` runs the second ``cleanup`` only if ``ecm``
    changed something.  Groups are told apart by their spec text.
    """

    def __init__(self, children, max_rounds=1000):
        self.children = children
        self.max_rounds = max_rounds

    def __repr__(self):
        return f"fixpoint({','.join(map(repr, self.children))})"


_TOKEN = re.compile(r"\s*([A-Za-z0-9_.-]+|[(),])")

# Successful parses are memoized globally: specs are parsed against a
# registry that only ever grows (imports register passes once), so a spec
# that parsed cleanly parses identically forever.
_PARSE_CACHE = {}


def _tokenize_spec(spec):
    tokens = []
    pos = 0
    while pos < len(spec):
        match = _TOKEN.match(spec, pos)
        if match is None:
            if spec[pos:].strip():
                raise PassError(
                    f"bad character {spec[pos:].strip()[0]!r} in pipeline "
                    f"spec at offset {pos}")
            break
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


def parse_pipeline(spec, _expanding=()):
    """Parse a pipeline spec string into a list of pipeline nodes.

    Grammar: ``pipeline := item (',' item)*`` where an item is a pass
    name, a named pipeline alias (expanded in place), or
    ``fixpoint(pipeline)``.
    """
    cached = _PARSE_CACHE.get(spec)
    if cached is not None:
        return list(cached)
    tokens = _tokenize_spec(spec)
    position = 0

    def peek():
        return tokens[position] if position < len(tokens) else None

    def take(expected=None):
        nonlocal position
        token = peek()
        if token is None or (expected is not None and token != expected):
            raise PassError(
                f"expected {expected or 'a pass name'} in pipeline spec "
                f"{spec!r}, found {token!r}")
        position += 1
        return token

    def parse_items(stop):
        items = []
        while True:
            token = peek()
            if token is None or token == stop:
                break
            if token == ",":
                take()
                continue
            items.extend(parse_item())
        return items

    def parse_item():
        name = take()
        if name in ("(", ")", ","):
            raise PassError(f"expected a pass name in pipeline spec "
                            f"{spec!r}, found {name!r}")
        if name == "fixpoint":
            take("(")
            children = parse_items(")")
            take(")")
            if not children:
                raise PassError("empty fixpoint() group")
            return [FixpointNode(children)]
        if peek() == "(":
            raise PassError(f"unknown pipeline combinator {name!r}")
        if name in PIPELINES:
            if name in _expanding:
                raise PassError(f"recursive pipeline alias {name!r}")
            return parse_pipeline(PIPELINES[name], _expanding + (name,))
        if name not in PASS_REGISTRY:
            known = ", ".join(sorted(set(PASS_REGISTRY) | set(PIPELINES)))
            raise PassError(f"unknown pass {name!r} (known: {known})")
        return [PassNode(name)]

    nodes = parse_items(stop=None)
    if position != len(tokens):
        raise PassError(f"trailing tokens in pipeline spec {spec!r}")
    _PARSE_CACHE[spec] = list(nodes)
    return nodes


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------


class PassRecord:
    """Accumulated instrumentation for one pass name.

    ``statistics`` merges the live counters of the pass instance this
    record tracks (if any) with counters hoisted from nested pipelines —
    computed lazily so the per-run hot path stays free of dict copies.
    """

    __slots__ = ("name", "runs", "changed", "seconds", "instance",
                 "umbrella", "_extra")

    def __init__(self, name):
        self.name = name
        self.runs = 0
        self.changed = 0
        self.seconds = 0.0
        self.instance = None
        # An umbrella pass (e.g. `lower`) runs a nested pipeline whose
        # pass records are hoisted alongside it: its own wall time already
        # contains theirs, so totals must not count it again.
        self.umbrella = False
        self._extra = {}

    @property
    def statistics(self):
        stats = dict(self.instance.statistics) if self.instance else {}
        for key, value in self._extra.items():
            stats[key] = stats.get(key, 0) + value
        return stats

    def merge_stats(self, statistics):
        for key, value in statistics.items():
            self._extra[key] = self._extra.get(key, 0) + value

    def __repr__(self):
        return (f"<{self.name}: {self.runs} runs, {self.changed} changed, "
                f"{self.seconds * 1e3:.2f} ms>")


def format_statistics(records, am=None, out=None):
    """Render pass records (and cache counters) as an aligned table.

    Umbrella records (whose time already contains hoisted sub-passes) are
    marked ``*`` and excluded from the total so it reflects real elapsed
    pass time.
    """
    lines = []
    header = ("pass", "runs", "changed", "time")
    rows = [(r.name + ("*" if r.umbrella else ""), str(r.runs),
             str(r.changed), f"{r.seconds * 1e3:.2f} ms") for r in records]
    extras = ["  ".join(f"{k}={v}"
                        for k, v in sorted(r.statistics.items()))
              for r in records]
    widths = [max(len(header[i]), *(len(row[i]) for row in rows))
              if rows else len(header[i]) for i in range(4)]
    lines.append("  ".join(h.ljust(w) if i == 0 else h.rjust(w)
                           for i, (h, w) in enumerate(zip(header, widths))))
    lines.append("-" * (sum(widths) + 6))
    for row, extra in zip(rows, extras):
        text = "  ".join(c.ljust(w) if i == 0 else c.rjust(w)
                         for i, (c, w) in enumerate(zip(row, widths)))
        if extra:
            text += "  " + extra
        lines.append(text)
    total = sum(r.seconds for r in records if not r.umbrella)
    lines.append(f"total pass time: {total * 1e3:.2f} ms")
    if any(r.umbrella for r in records):
        lines.append("(*) wraps the passes it ran; excluded from the total")
    if am is not None:
        lines.append(
            f"analysis cache: {am.hits} hits, {am.misses} misses, "
            f"{am.invalidations} invalidations")
    text = "\n".join(lines)
    if out is not None:
        out.write(text + "\n")
    return text


# ---------------------------------------------------------------------------
# PassManager
# ---------------------------------------------------------------------------


class PassManager:
    """Runs pipeline specs over units or modules.

    One PassManager owns one :class:`AnalysisManager` and one table of
    :class:`PassRecord` instrumentation; both persist across multiple
    ``run``/``run_spec`` calls, so a driver (the lowering pipeline, the
    CLI) sees aggregate per-pass numbers for everything it ran.

    ``run`` and ``run_spec`` share one loop over the pipeline, which
    skips a ``fixpoint(...)`` group that already converged on the target
    unless a pass has reported a change to it since (see
    :class:`FixpointNode`).  Each call starts afresh, so two calls run a
    group twice.
    """

    def __init__(self, spec=None, am=None, verify_each=False):
        self.am = am if am is not None else AnalysisManager()
        self.verify_each = verify_each
        self.nodes = parse_pipeline(spec) if spec else []
        self.records = {}      # name -> PassRecord, insertion-ordered
        self._instances = {}   # name -> Pass instance (stats accumulate)

    # -- running -----------------------------------------------------------

    def run(self, target):
        """Run the constructor's pipeline spec on a module or unit."""
        return self._run_nodes(self.nodes, target)

    def run_spec(self, spec, target):
        """Parse (memoized globally) and run an arbitrary spec."""
        return self._run_nodes(parse_pipeline(spec), target)

    def instance(self, name):
        """The pass instance run under ``name``, or None if it never ran.

        Useful for passes that expose richer results than a changed flag
        (e.g. ``lower``'s :class:`LoweringReport`).
        """
        return self._instances.get(name)

    # -- internals ---------------------------------------------------------

    def _instance(self, name):
        instance = self._instances.get(name)
        if instance is None:
            instance = self._instances[name] = PASS_REGISTRY[name]()
        return instance

    def _record(self, name):
        record = self.records.get(name)
        if record is None:
            record = self.records[name] = PassRecord(name)
        return record

    def _run_nodes(self, nodes, target):
        # The changed-flag rule of fixpoint children, lifted to the
        # pipeline: a group that converged is at its fixpoint, so it is
        # skipped until some pass reports a change to the target.
        changed = False
        converged = set()   # reprs of the groups at their fixpoint
        for node in nodes:
            if isinstance(node, FixpointNode):
                key = repr(node)
                if key in converged:
                    continue
                if self._run_fixpoint(node, target):
                    changed = True
                    converged = {key}
                else:
                    converged.add(key)
            elif self._run_pass(self._instance(node.name), target):
                changed = True
                converged.clear()
        return changed

    def _run_node(self, node, target):
        if isinstance(node, FixpointNode):
            return self._run_fixpoint(node, target)
        return self._run_pass(self._instance(node.name), target)

    def _run_fixpoint(self, node, target):
        # Changed-flag scheduling: every child starts dirty; running clean
        # clears its flag; a change re-dirties the *other* children.  The
        # member passes are internally fixpointed where self-feeding
        # (CF/IS/DCE loop themselves), so a child need not re-dirty itself.
        dirty = dict.fromkeys(range(len(node.children)), True)
        changed_any = False
        rounds = 0
        while any(dirty.values()):
            rounds += 1
            if rounds > node.max_rounds:
                raise PassError(
                    f"fixpoint group {node!r} did not converge after "
                    f"{node.max_rounds} rounds")
            for index, child in enumerate(node.children):
                if not dirty[index]:
                    continue
                dirty[index] = False
                if self._run_node(child, target):
                    changed_any = True
                    for other in dirty:
                        if other != index:
                            dirty[other] = True
        return changed_any

    def _run_pass(self, instance, target):
        record = self._record(instance.name)
        record.instance = instance
        start = time.perf_counter()
        try:
            if isinstance(target, Module):
                changed = self._run_on_module(instance, target)
            else:
                changed = self._run_on_unit(instance, target)
        finally:
            record.runs += 1
            record.seconds += time.perf_counter() - start
            if instance.sub_records:
                record.umbrella = True
                for sub in instance.sub_records:
                    merged = self._record(sub.name)
                    merged.runs += sub.runs
                    merged.changed += sub.changed
                    merged.seconds += sub.seconds
                    merged.merge_stats(sub.statistics)
                instance.sub_records = []
        if changed:
            record.changed += 1
        if self.verify_each:
            self._verify(target)
        return changed

    def _run_on_module(self, instance, module):
        if instance.scope == "module":
            changed = bool(instance.run_on_module(module, self.am))
            if changed and instance.preserves is not PRESERVE_ALL:
                self.am.invalidate_all()
            return changed
        changed = False
        for unit in list(module):
            if unit.kind in instance.applies_to:
                changed |= self._apply_to_unit(instance, unit)
        return changed

    def _run_on_unit(self, instance, unit):
        if instance.scope == "module":
            raise PassError(
                f"module pass {instance.name!r} cannot run on a single "
                f"unit @{unit.name}")
        if unit.kind not in instance.applies_to:
            return False
        return self._apply_to_unit(instance, unit)

    def _apply_to_unit(self, instance, unit):
        changed = bool(instance.run_on_unit(unit, self.am))
        if changed and instance.preserves is not PRESERVE_ALL:
            self.am.invalidate(unit, preserved=instance.preserves)
        return changed

    def _verify(self, target):
        from ..ir.verifier import verify_module, verify_unit

        if isinstance(target, Module):
            verify_module(target, am=self.am)
        else:
            verify_unit(target, target.module, am=self.am)

    # -- reporting ---------------------------------------------------------

    def statistics_table(self):
        """The per-pass instrumentation rendered as a text table."""
        return format_statistics(list(self.records.values()), self.am)
