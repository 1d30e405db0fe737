"""An independently implemented compiled-code simulator.

This is the repository's stand-in for the *commercial simulator* column of
the paper's Table 2, whose simulator is not available here.  Commercial
simulators are compiled-code simulators with statically prepared
scheduling; this module follows that architecture:

* unit bodies are compiled to Python code (sharing the code generator with
  :mod:`repro.sim.blaze` — the per-unit code is not where simulators
  disagree);
* the *scheduler* — calendar queue, delta rounds, transaction maturation,
  sensitivity dispatch, net resolution — is a from-scratch second
  implementation, structured as a per-femtosecond calendar of two-phase
  (update, evaluate) rounds instead of the single global heap of
  :mod:`repro.sim.engine`.

The signal net class (:class:`~repro.sim.engine.SignalInstance`), the
per-driver sorted timeline container, and the kernel's signal creation,
waiter registration, probing and intrinsics are shared with the
event-driven kernel — nets are elaboration artifacts, not scheduler
policy — while the calendar, round ordering, and maturation loop remain
independent.

Cross-checking its traces against LLHD-Sim and Blaze reproduces the
paper's "traces match between the simulators" claim with an independent
implementation in the loop.
"""

from __future__ import annotations

import heapq

from .engine import (
    DriverTimeline, Kernel, SignalRef, _combine_contributions, advance_time,
)
from .trace import record
from .values import SimulationError, insert_path


class _Round:
    """One (delta, epsilon) round inside a femtosecond instant."""

    __slots__ = ("signals", "resumes")

    def __init__(self):
        self.signals = {}   # id(signal) -> signal with matured work
        self.resumes = []


class _Instant:
    """All rounds scheduled for one femtosecond."""

    __slots__ = ("rounds", "keys", "queued")

    def __init__(self):
        self.rounds = {}
        self.keys = []
        self.queued = set()

    def round_at(self, key):
        rnd = self.rounds.get(key)
        if rnd is None:
            rnd = self.rounds[key] = _Round()
            heapq.heappush(self.keys, key)
        return rnd


class CycleKernel:
    """Calendar-queue scheduler with two-phase delta rounds.

    Exposes the same interface as :class:`repro.sim.engine.Kernel` so
    elaboration and compiled units plug in unchanged.
    """

    MAX_DELTAS = 10_000

    def __init__(self, trace=None, max_time_fs=None):
        self.now = (0, 0, 0)
        self.trace = trace
        self.max_time_fs = max_time_fs
        self.signals = []
        self.calendar = {}
        self._fs_heap = []
        self._initials = []
        self.assertion_failures = []
        self.output = []
        self.finished = False
        self.stats = {"deltas": 0, "events": 0, "activations": 0}
        # Sanitizer + driver labels — same protocol as engine.Kernel.
        self.sanitizer = None
        self.driver_labels = {}

    # -- construction, waiting, probing, intrinsics: engine.Kernel's ----------

    create_signal = Kernel.create_signal
    describe_driver = Kernel.describe_driver
    add_entity_waiter = Kernel.add_entity_waiter
    probe = Kernel.probe
    intrinsic = Kernel.intrinsic

    def _instant(self, fs):
        instant = self.calendar.get(fs)
        if instant is None:
            instant = self.calendar[fs] = _Instant()
            heapq.heappush(self._fs_heap, fs)
        return instant

    # -- scheduling ------------------------------------------------------------

    def schedule_drive(self, driver_key, target, value, delay):
        if isinstance(target, SignalRef):
            signal, path = target.signal.find(), target.path
        else:
            signal, path = target.find(), ()
        when = advance_time(self.now, delay)
        timeline = signal.pending.get(driver_key)
        if timeline is None:
            timeline = signal.pending[driver_key] = DriverTimeline()
        timeline.schedule(when, path, value)
        rnd = self._instant(when[0]).round_at((when[1], when[2]))
        rnd.signals[signal.index] = signal

    def schedule_resume(self, activity, delay):
        when = advance_time(self.now, delay)
        rnd = self._instant(when[0]).round_at((when[1], when[2]))
        rnd.resumes.append(activity)
        return when

    def schedule_initial(self, activity):
        self._initials.append(activity)

    # -- main loop ---------------------------------------------------------------

    def run(self, until_fs=None):
        limit = until_fs if until_fs is not None else self.max_time_fs
        if self._initials:
            rnd = self._instant(0).round_at((0, 0))
            rnd.resumes[:0] = self._initials
            self._initials = []
        while self._fs_heap and not self.finished:
            fs = heapq.heappop(self._fs_heap)
            if limit is not None and fs > limit:
                heapq.heappush(self._fs_heap, fs)
                break
            # Keep the instant registered while it runs: work scheduled
            # for the *same* femtosecond during execution must extend the
            # running instant (or the delta-limit accounting would reset).
            instant = self.calendar[fs]
            if not self._run_instant(fs, instant):
                heapq.heappush(self._fs_heap, fs)
                break
            if not instant.keys:
                del self.calendar[fs]
        self.now = (self.now[0], 0, 0)

    def _run_instant(self, fs, instant):
        """Run the rounds of instant ``fs``.  False when the delta limit
        tripped under the sanitizer: like ``Kernel.run``, the run then
        stops, with the unsettled rounds still queued.  As there, the
        limit counts the rounds after the instant's first."""
        deltas = -1
        while instant.keys and not self.finished:
            deltas += 1
            if deltas > self.MAX_DELTAS:
                if self.sanitizer is not None:
                    hot = [s.find().name for rnd in instant.rounds.values()
                           for s in rnd.signals.values()]
                    self.sanitizer.record_oscillation(self, fs, hot)
                    return False
                raise SimulationError(
                    f"delta cycle limit exceeded at t={fs}fs "
                    f"(combinational loop?)")
            key = heapq.heappop(instant.keys)
            rnd = instant.rounds.pop(key)
            self.now = (fs, key[0], key[1])
            self.stats["deltas"] += 1
            # Phase 1: mature transactions, collect changed nets.
            runnable = {}
            for signal in rnd.signals.values():
                self.stats["events"] += 1
                if self._mature(signal.find(), self.now):
                    net = signal.find()
                    runnable.update(net.proc_waiters)
                    net.proc_waiters.clear()
                    for order, activity in net.entity_list():
                        runnable[order] = activity
            for activity in rnd.resumes:
                runnable[activity.order] = activity
            # Phase 2: evaluate in deterministic instance order.
            self.stats["activations"] += len(runnable)
            for order in sorted(runnable):
                runnable[order].run(self)
        return True

    def _mature(self, sig, now):
        old = sig.value
        due_all = []
        for key, timeline in sig.pending.items():
            entry = timeline.mature(now)
            if entry is not None:
                due_all.append((entry[0], entry[1], key))
        if not due_all:
            return False
        if len(due_all) == 1:
            path, value, _key = due_all[0]
            new = insert_path(old, path, value) if path else value
        else:
            new = _combine_contributions(old, due_all, sig, self)
        if new == old:
            return False
        sig.value = new
        record(sig.history, now[0], new)
        return True


def elaborate_cycle(module, top, kernel=None, trace=None, units=None,
                    compile_cache=None):
    """Elaborate for the cycle simulator (compiled units, cycle kernel);
    ``units`` and ``compile_cache`` as for
    :func:`~repro.sim.blaze.elaborate_compiled`."""
    from .blaze import elaborate_compiled

    if kernel is None:
        kernel = CycleKernel(trace=trace)
    return elaborate_compiled(module, top, kernel, units=units,
                              compile_cache=compile_cache)
