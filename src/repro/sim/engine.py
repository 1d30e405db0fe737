"""Event-driven simulation kernel.

The kernel is shared by the reference interpreter (LLHD-Sim) and the
compiled simulator (the LLHD-Blaze analogue): both elaborate a design into
:class:`SignalInstance` nets and executable activities, and both schedule
work through this queue.  Time is the LLHD triple ``(femtoseconds, delta,
epsilon)``:

* physical femtoseconds advance real time;
* *delta* steps order zero-time iterations (VHDL-style delta cycles);
* *epsilon* steps order drive application inside one delta (used by
  ``reg`` storage without an explicit delay).

Driving uses the transport-delay model: each driver owns a pending
transaction timeline per signal, and scheduling a transaction at time T
cancels that driver's pending transactions at or after T.

Hot-path structure (this is the inner loop of every simulation):

* one round per scheduled time — the heap holds each distinct time
  once, and ``_rounds[time]`` holds the nets to mature there (keyed by
  their dense ``index``) and the activities to resume.  A round puts its
  resumes into the runnable set first and then the waiters of every net
  that changed, so a process woken by a net replaces a stale timeout of
  its own, and runs each activity once, in ``order`` order;
* a drive that finds no other pending work on its net is held in the
  net's ``slot`` (no timeline lookup), and its round matures it with one
  read.  A later drive from the same driver at or before the held time
  replaces it; any other second transaction moves the held one onto its
  driver's timeline, where the net's pending work stays from then on.
  ``pending`` registers every driver at its first drive, held or not,
  so same-instant drivers combine in first-drive order either way;
* per-driver timelines are kept sorted (:class:`DriverTimeline`), so
  transport cancellation is a bisect + truncate instead of rebuilding the
  list on every drive.  Every transaction has a round at its own time on
  its own net, so the round pops a timeline's one due transaction, the
  first;
* a process stays registered on the nets of its last wait
  (:meth:`~repro.sim.interp.ProcessInstance.resubscribe`): a wait that
  names the nets of the one before costs no registration, and a halt
  clears them;
* entity sensitivity lists are precomputed: the set of entities observing
  a net is frozen into a tuple the first time the net changes and reused
  until the (elaboration-time-only) waiter set changes again.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right

from ..ir.ninevalued import LogicVec, resolve_many
from .trace import record
from .values import SimulationError, extract_path, insert_path

ZERO_TIME = (0, 0, 0)

#: ``SignalInstance.slot`` of a net whose pending work is on its driver
#: timelines (falsy, unlike a held transaction).
ON_TIMELINES = ()


def _combine_contributions(old, contributions, sig=None, kernel=None):
    """Merge same-instant drive transactions from several drivers.

    ``contributions`` is a list of ``(path, value, driver_key)``.
    Whole-signal drives apply first, then projected patches in ascending
    path depth, so a same-instant patch of a slice wins over a
    whole-signal drive.  Drivers hitting the *same* target — the whole
    net, or the identical projection path — resolve (IEEE 1164) when the
    driven values are lN, in a single N-way plane pass over all of them.
    Types without a resolution function raise a deterministic
    :class:`SimulationError` naming the conflicting drivers when the
    values actually disagree (under a sanitizer the conflict is recorded
    and the last driver wins instead); drivers that agree are harmless.
    """
    contributions.sort(key=lambda t: len(t[0]))
    new = old
    i = 0
    count = len(contributions)
    while i < count:
        plen = len(contributions[i][0])
        j = i + 1
        while j < count and len(contributions[j][0]) == plen:
            j += 1
        if j - i == 1:
            path, value, _key = contributions[i]
            new = insert_path(new, path, value)
        else:
            groups = {}
            for k in range(i, j):
                path, value, key = contributions[k]
                group = groups.get(path)
                if group is None:
                    groups[path] = ([value], [key])
                else:
                    group[0].append(value)
                    group[1].append(key)
            for path, (values, keys) in groups.items():
                if len(values) == 1:
                    new = insert_path(new, path, values[0])
                elif all(type(v) is LogicVec for v in values):
                    new = insert_path(new, path, resolve_many(values))
                else:
                    first = values[0]
                    if any(v != first for v in values[1:]):
                        sanitizer = kernel.sanitizer \
                            if kernel is not None else None
                        if sanitizer is None:
                            raise SimulationError(_race_message(
                                sig, path, values, keys, kernel))
                        sanitizer.record_race(kernel, sig, path,
                                              values, keys)
                    new = insert_path(new, path, values[-1])
        i = j
    return new


def _race_message(sig, path, values, keys, kernel):
    name = sig.find().name if sig is not None else "<net>"
    if path:
        name = f"{name}[{'/'.join(str(p) for p in path)}]"
    if kernel is not None:
        drivers = sorted(kernel.describe_driver(key) for key in keys)
    else:
        drivers = sorted(repr(key) for key in keys)
    return (f"same-instant drive conflict on unresolved net {name}: "
            f"{len(keys)} drivers matured different values "
            f"({', '.join(repr(v) for v in values)}); "
            f"conflicting drivers: {'; '.join(drivers)}")

def advance_time(now, delay):
    """The time at which something scheduled ``delay`` after ``now`` occurs.

    A zero delay means "next delta": nothing can happen within the current
    instant, which is what makes zero-delay feedback loops well-defined.
    """
    if delay.fs > 0:
        return (now[0] + delay.fs, delay.delta, delay.epsilon)
    if delay.delta > 0:
        return (now[0], now[1] + delay.delta, delay.epsilon)
    if delay.epsilon > 0:
        return (now[0], now[1], now[2] + delay.epsilon)
    return (now[0], now[1] + 1, 0)


class DriverTimeline:
    """One driver's pending transactions on one net, sorted by time.

    ``times`` and ``entries`` are parallel lists; ``times`` is strictly
    increasing, which makes transport cancellation (drop everything at or
    after the new transaction's time) a bisect + truncate and maturation
    (consume everything due) a bisect + prefix pop.
    """

    __slots__ = ("times", "entries")

    def __init__(self):
        self.times = []
        self.entries = []   # (path, value), parallel to times

    def schedule(self, when, path, value):
        """Add a transaction, cancelling this driver's work at/after it."""
        times = self.times
        if times and times[-1] >= when:
            i = bisect_left(times, when)
            del times[i:]
            del self.entries[i:]
        times.append(when)
        self.entries.append((path, value))

    def mature(self, now):
        """Pop all transactions due at/before ``now``; return the latest."""
        times = self.times
        if not times or times[0] > now:
            return None
        i = bisect_right(times, now)
        entry = self.entries[i - 1]
        del times[:i]
        del self.entries[:i]
        return entry

    def merge(self, other):
        """Fold another timeline in (net merging via ``con``).  Of two
        transactions at one time, ``other``'s is kept, the one
        :meth:`mature` would have returned."""
        if not other.times:
            return
        if not self.times:
            self.times = other.times
            self.entries = other.entries
            return
        merged = dict(sorted(
            zip(self.times + other.times, self.entries + other.entries),
            key=lambda te: te[0]))
        self.times = list(merged)
        self.entries = list(merged.values())

    def __len__(self):
        return len(self.times)

    def __iter__(self):
        """Iterate ``(time, path, value)`` triples (for tests/debugging)."""
        for when, (path, value) in zip(self.times, self.entries):
            yield (when, path, value)


class SignalInstance:
    """One signal net at simulation time.

    ``con`` connections merge nets through union-find: all operations go
    through :meth:`find` so connected signals behave as one.
    ``history`` holds the trace lists every change is recorded into, one
    per name merged into this net, or none when the kernel keeps no trace.

    ``slot`` holds the net's only pending transaction, ``(time,
    driver_key, path, value)``, or None: :meth:`Kernel.schedule_drive`
    puts a drive there when the net has no other pending work, and a
    later drive from the same driver at or before that time replaces it
    (what transport cancellation would do).  The first time a second
    transaction arrives (another driver's, or a later one of the same
    driver) the held one moves onto its driver's :class:`DriverTimeline`
    and ``slot`` becomes :data:`ON_TIMELINES`, for good.  ``pending``
    maps each driver key to its timeline and is the net's registry of
    drivers in first-drive order: a driver is entered at its first drive
    even when that drive is held, so same-instant contributions combine
    (resolve, race, or under a sanitizer let the last driver win) in the
    same order wherever they waited.  The
    :class:`~repro.sim.cycle.CycleKernel` uses the timelines alone; its
    nets never hold a slot.
    """

    __slots__ = ("name", "type", "value", "pending", "slot",
                 "proc_waiters", "entity_waiters", "_entity_list", "index",
                 "_rep", "history")

    def __init__(self, name, type, initial, index, history):
        self.name = name
        self.type = type
        self.value = initial
        self.index = index
        self.pending = {}         # driver_key -> DriverTimeline
        self.slot = None          # the only pending transaction, or
                                  # ON_TIMELINES
        self.proc_waiters = {}    # activity.order -> process whose last
                                  # wait names this net
        self.entity_waiters = {}  # activity.order -> activity (persistent)
        self._entity_list = ()    # cached tuple of entity waiters
        self._rep = None
        self.history = history

    def find(self):
        """The representative net (after ``con`` merging)."""
        sig = self
        while sig._rep is not None:
            sig = sig._rep
        # Path compression.
        node = self
        while node._rep is not None and node._rep is not sig:
            node._rep, node = sig, node._rep
        return sig

    def connect(self, other):
        """Merge this net with another (``con`` instruction)."""
        a, b = self.find(), other.find()
        if a is b:
            return a
        # Keep the lower-indexed signal as representative for determinism.
        if b.index < a.index:
            a, b = b, a
        b._rep = a
        # Held transactions go onto their timelines first, so the merge
        # below sees all of both nets' pending work.
        a.to_timelines()
        b.to_timelines()
        if b.slot is ON_TIMELINES:
            a.slot = ON_TIMELINES
        b.slot = None
        # Merge pending timelines *per driver*: when both nets already
        # carry transactions from the same driver key, the transactions
        # interleave on the merged net instead of one set clobbering the
        # other.
        if b.pending:
            a_pending = a.pending
            for key, timeline in b.pending.items():
                mine = a_pending.get(key)
                if mine is None:
                    a_pending[key] = timeline
                else:
                    mine.merge(timeline)
            b.pending = {}
        a.proc_waiters.update(b.proc_waiters)
        a.entity_waiters.update(b.entity_waiters)
        a._entity_list = None
        # The merged net keeps recording trace history under every
        # member's name: a netlist `con` must not silently rename the
        # signals the pre-techmap design drove directly.
        a.history = a.history + b.history
        if isinstance(a.value, LogicVec) and isinstance(b.value, LogicVec):
            a.value = a.value.resolve(b.value)
        elif a.value != b.value:
            # Two-valued types have no resolution function: connecting
            # nets whose current values disagree silently picks one, so
            # diagnose instead.
            raise SimulationError(
                f"con of {a.name} and {b.name}: conflicting initial "
                f"values ({a.value!r} vs {b.value!r}) on a type without "
                f"a resolution function")
        return a

    def to_timelines(self):
        """Move a held transaction onto its driver's timeline (empty while
        the net held one); the net keeps its pending work there from then
        on.  A net holding nothing is left as it is."""
        slot = self.slot
        if slot:
            when, key, path, value = slot
            timeline = self.pending[key]
            timeline.times.append(when)
            timeline.entries.append((path, value))
            self.slot = ON_TIMELINES

    def entity_list(self):
        """The precomputed sensitivity list: entities observing this net."""
        ew = self._entity_list
        if ew is None:
            ew = self._entity_list = tuple(self.entity_waiters.items())
        return ew

    def __repr__(self):
        return f"<signal {self.name}: {self.type}>"


class SignalRef:
    """A projection into a signal: the result of extf/exts on a ``T$``."""

    __slots__ = ("signal", "path")

    def __init__(self, signal, path):
        self.signal = signal
        self.path = tuple(path)

    def __repr__(self):
        return f"<signal-ref {self.signal.name}{list(self.path)}>"


def net_of(target):
    """The net a signal or projection operand observes (after ``con``
    merging): what a ``wait`` on it registers with."""
    sig = target.signal if type(target) is SignalRef else target
    return sig if sig._rep is None else sig.find()


class Kernel:
    """The event queue and the simulation main loop.

    Activities (process/entity instances) are objects with:

    * ``run(kernel)`` — execute until suspension; schedule follow-up work
      through kernel methods;
    * ``order`` — an integer used to order same-delta execution
      deterministically (unique per activity, so it doubles as the
      activity's slot in runnable sets).
    """

    MAX_DELTAS = 10_000

    def __init__(self, trace=None):
        self.now = ZERO_TIME
        self.trace = trace
        self.signals = []
        self._heap = []              # each scheduled time, once
        self._rounds = {}            # time -> (nets by index, resumes)
        self.assertion_failures = []
        self.output = []             # llhd.print output lines
        self.finished = False
        self.stats = {"deltas": 0, "events": 0, "activations": 0}
        # Scheduler sanitizer (repro.sim.sanitize): when set, drive
        # races and delta-limit oscillations are recorded as findings
        # instead of raising.  driver_labels maps an activity order (the
        # integer inside every driver key) to its hierarchical path so
        # conflicts are reported against readable source names.
        self.sanitizer = None
        self.driver_labels = {}

    # -- construction -------------------------------------------------------

    def create_signal(self, name, type, initial):
        trace = self.trace
        history = () if trace is None else \
            (trace.changes.setdefault(name, []),)
        sig = SignalInstance(name, type, initial, len(self.signals), history)
        self.signals.append(sig)
        record(history, 0, initial)
        return sig

    # -- scheduling ------------------------------------------------------------

    def schedule_drive(self, driver_key, target, value, delay):
        """Schedule a drive transaction (transport-delay semantics)."""
        if type(target) is SignalRef:
            signal = target.signal
            path = target.path
        else:
            signal = target
            path = ()
        if signal._rep is not None:
            signal = signal.find()
        now = self.now
        # advance_time, inlined (this is the hottest kernel entry point).
        if delay.fs > 0:
            when = (now[0] + delay.fs, delay.delta, delay.epsilon)
        elif delay.delta > 0:
            when = (now[0], now[1] + delay.delta, delay.epsilon)
        elif delay.epsilon > 0:
            when = (now[0], now[1], now[2] + delay.epsilon)
        else:
            when = (now[0], now[1] + 1, 0)
        slot = signal.slot
        if slot is None:
            # No other pending work: hold the drive on the net, and enter
            # a new driver in the registry.
            pending = signal.pending
            if driver_key not in pending:
                pending[driver_key] = DriverTimeline()
            signal.slot = (when, driver_key, path, value)
        elif slot and slot[1] == driver_key and when <= slot[0]:
            # Transport cancellation of the held transaction.
            signal.slot = (when, driver_key, path, value)
        else:
            if slot:
                signal.to_timelines()
            timeline = signal.pending.get(driver_key)
            if timeline is None:
                timeline = signal.pending[driver_key] = DriverTimeline()
            times = timeline.times
            if times and times[-1] >= when:
                timeline.schedule(when, path, value)
            else:
                times.append(when)
                timeline.entries.append((path, value))
        rnd = self._rounds.get(when)
        if rnd is None:
            self._rounds[when] = ({signal.index: signal}, [])
            heapq.heappush(self._heap, when)
        else:
            rnd[0][signal.index] = signal

    def schedule_resume(self, activity, delay):
        """Schedule an activity to run after ``delay`` (wait timeout)."""
        when = advance_time(self.now, delay)
        rnd = self._rounds.get(when)
        if rnd is None:
            self._rounds[when] = ({}, [activity])
            heapq.heappush(self._heap, when)
        else:
            rnd[1].append(activity)
        return when

    def schedule_initial(self, activity):
        """Schedule the initial execution of an activity at time zero."""
        rnd = self._rounds.get(ZERO_TIME)
        if rnd is None:
            rnd = self._rounds[ZERO_TIME] = ({}, [])
            heapq.heappush(self._heap, ZERO_TIME)
        rnd[1].append(activity)

    # -- simulation loop -----------------------------------------------------------

    def run(self, until_fs=None):
        """Run until the queue drains, ``llhd.finish``, or the time limit.

        A round counts one delta, one event per net and per resume, and
        one activation per runnable activity.
        """
        heap = self._heap
        rounds = self._rounds
        pop = heapq.heappop
        apply = self._apply_transactions
        limit = self.MAX_DELTAS
        deltas = events = activations = 0
        deltas_at_fs = 0
        current_fs = -1
        try:
            while heap and not self.finished:
                time = heap[0]
                fs = time[0]
                if fs != current_fs:
                    if until_fs is not None and fs > until_fs:
                        break
                    current_fs = fs
                    deltas_at_fs = 0
                else:
                    deltas_at_fs += 1
                    if deltas_at_fs > limit:
                        if self.sanitizer is not None:
                            self.sanitizer.record_oscillation(
                                self, fs, self._hot_nets(fs))
                            break
                        raise SimulationError(
                            f"delta cycle limit exceeded at t={fs}fs "
                            f"(combinational loop?)")
                pop(heap)
                nets, resumes = rounds.pop(time)
                self.now = time
                # Resumes first: a net's wake of a process replaces a
                # stale timeout of it, which keys on the same order.
                runnable = {}
                for activity in resumes:
                    runnable[activity.order] = activity
                for sig in nets.values():
                    if sig._rep is not None:
                        sig = sig.find()
                    if apply(sig, time):
                        waiters = sig.proc_waiters
                        if waiters:
                            runnable.update(waiters)
                        ew = sig._entity_list
                        if ew is None:
                            ew = sig._entity_list = \
                                tuple(sig.entity_waiters.items())
                        if ew:
                            runnable.update(ew)
                deltas += 1
                events += len(nets) + len(resumes)
                n = len(runnable)
                activations += n
                if n == 1:
                    for activity in runnable.values():
                        activity.run(self)
                elif n:
                    for order in sorted(runnable):
                        runnable[order].run(self)
        finally:
            stats = self.stats
            stats["deltas"] += deltas
            stats["events"] += events
            stats["activations"] += activations
        self.now = (self.now[0], 0, 0)

    def _hot_nets(self, fs):
        """Names of nets with updates still queued in instant ``fs``
        (the members of an oscillating zero-delay loop)."""
        return [sig.find().name for time, (nets, _) in self._rounds.items()
                if time[0] == fs for sig in nets.values()]

    def describe_driver(self, key):
        """A readable identity for a driver key, for conflict reports."""
        kind = ""
        order = key
        if isinstance(key, tuple):
            kind = f"{key[0]} of "
            order = key[1]
        label = self.driver_labels.get(order)
        if label is None:
            return f"{kind}driver #{order}"
        return f"{kind}{label}"

    def _apply_transactions(self, sig, time):
        """Mature the transactions due at ``time`` on a net; True if the
        value changed.

        Every transaction has a round at its own time on its own net, and
        rounds run in time order, so neither the slot nor a timeline holds
        anything before ``time``, and a timeline, its times being strictly
        increasing, holds at most one transaction at it: its first.  A
        held transaction at another time was replaced after this round was
        scheduled.
        """
        old = sig.value
        slot = sig.slot
        if slot:
            if slot[0] != time:
                return False
            sig.slot = None
            path = slot[2]
            new = insert_path(old, path, slot[3]) if path else slot[3]
        elif slot is None:
            return False
        else:
            new = self._mature_timelines(sig, time, old)
        if new == old:
            return False
        sig.value = new
        histories = sig.history
        fs = time[0]
        if len(histories) == 1 and histories[0][-1][0] != fs:
            # All that record does here (see its docstring).
            histories[0].append((fs, new))
        else:
            record(histories, fs, new)
        return True

    def _mature_timelines(self, sig, time, old):
        """The value of a net on timelines after the transactions due at
        ``time`` (``old`` when none is)."""
        single = None
        single_key = None
        contributions = None
        for key, timeline in sig.pending.items():
            times = timeline.times
            if not times or times[0] != time:
                continue
            del times[0]
            entry = timeline.entries.pop(0)
            if contributions is not None:
                contributions.append((entry[0], entry[1], key))
            elif single is None:
                single = entry
                single_key = key
            else:
                contributions = [(single[0], single[1], single_key),
                                 (entry[0], entry[1], key)]
                single = None
        if contributions is not None:
            return _combine_contributions(old, contributions, sig, self)
        if single is None:
            return old
        # Exactly one driver matured this instant.
        path, value = single
        return insert_path(old, path, value) if path else value

    # -- waiting -----------------------------------------------------------------

    def add_entity_waiter(self, signal, activity):
        sig = signal if signal._rep is None else signal.find()
        sig.entity_waiters[activity.order] = activity
        sig._entity_list = None

    # -- intrinsics ----------------------------------------------------------------

    def intrinsic(self, name, args, where=""):
        """Execute an ``llhd.*`` intrinsic call."""
        if name in ("llhd.assert", "llhd.assert.msg"):
            cond = args[0]
            if isinstance(cond, LogicVec):
                cond = int(cond.is_two_valued and cond.to_int() != 0)
            if not cond:
                message = args[1] if len(args) > 1 else ""
                self.assertion_failures.append(
                    f"assertion failed at {self.now[0]}fs {where} "
                    f"{message}".strip())
            return None
        if name == "llhd.print":
            from .values import format_value

            self.output.append(" ".join(format_value(a) for a in args))
            return None
        if name == "llhd.finish":
            self.finished = True
            return None
        raise SimulationError(f"unknown intrinsic @{name}")

    def probe(self, target):
        """Read the current value of a signal or projection."""
        if type(target) is SignalRef:
            signal = target.signal
            if signal._rep is not None:
                signal = signal.find()
            return extract_path(signal.value, target.path)
        if target._rep is None:
            return target.value
        return target.find().value
