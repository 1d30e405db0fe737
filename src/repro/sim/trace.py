"""Simulation traces: recording, comparison, and VCD export.

The paper's Table 2 claim "traces match between the two simulators for all
designs" is reproduced by running every design under the interpreter, the
compiled simulator, and the independent cycle simulator, and asserting that
:meth:`Trace.differences` between the results is empty.
"""

from __future__ import annotations

import io

from .values import format_value


def record(histories, fs, value):
    """Record that a net holds ``value`` at femtosecond ``fs``.

    Every engine writes its trace through this one rule, which keeps
    each of the net's ``histories`` (one list per name it carries) at
    one entry per femtosecond with no two consecutive values equal.

    A net that carries one name, and whose every change is recorded
    here, ends its history in the value it holds.  So when such a net
    takes a new value at a femtosecond after its history's last entry,
    appending ``(fs, value)`` is all this function would do: a caller
    that knows both facts may append directly (the levelized cone's
    commit does).  Every other case goes through this function.
    """
    for history in histories:
        if history:
            last_fs, last_value = history[-1]
            if last_fs == fs:
                # Same instant: replace the last value, or cancel it when
                # the net returns to the value before.  The first entry
                # is never popped.
                if len(history) > 1 and history[-2][1] == value:
                    history.pop()
                else:
                    history[-1] = (fs, value)
                continue
            if last_value == value:
                continue    # a con-merged name can already hold it
        history.append((fs, value))


class Trace:
    """A value-change trace: per-signal lists of ``(time, value)``.

    Only physical time (femtoseconds) is recorded; intra-instant delta and
    epsilon steps are simulator implementation detail, so two correct
    simulators agree on the final value a signal holds at each femtosecond
    even when their internal delta sequences differ.
    """

    def __init__(self):
        self.changes = {}       # signal name -> [(fs, value), ...]

    def finalize(self):
        """Identity: :func:`record` keeps every history final.  Kept
        because the e2e benchmark harness calls it."""
        return self

    def signals(self):
        return sorted(self.changes)

    def live_signals(self):
        """Names that record an actual change beyond their initial value.

        The semantic-preservation harnesses require every live signal of
        a reference run to survive a transformation under its own name
        (declared-but-unused nets may legitimately be DCE'd away); this
        is the one shared definition of "live".
        """
        return {name for name, history in self.changes.items()
                if len(history) > 1}

    def history(self, name):
        return list(self.changes.get(name, []))

    def value_at(self, name, fs):
        """The value a signal holds at (the end of) time ``fs``."""
        result = None
        for t, value in self.changes.get(name, []):
            if t > fs:
                break
            result = value
        return result

    # -- comparison ------------------------------------------------------------

    def differences(self, other, signals=None):
        """Human-readable list of up to ten trace mismatches, one per
        signal (empty = equivalent).

        ``signals`` restricts the comparison (e.g. to the design's ports);
        by default all signals present in *both* traces are compared.
        """
        if signals is None:
            signals = sorted(set(self.changes) & set(other.changes))
        issues = []
        for name in signals:
            ha, hb = self.history(name), other.history(name)
            if ha == hb:
                continue
            for i in range(max(len(ha), len(hb))):
                ea = ha[i] if i < len(ha) else None
                eb = hb[i] if i < len(hb) else None
                if ea != eb:
                    issues.append(
                        f"{name}: change {i}: {_fmt(ea)} vs {_fmt(eb)}")
                    if len(issues) >= 10:
                        return issues
                    break
        return issues

    # -- export -----------------------------------------------------------------

    def to_vcd(self):
        """Render as a Value Change Dump (two-valued signals only), in
        femtoseconds."""
        out = io.StringIO()
        out.write("$timescale 1fs $end\n")
        idents = {}
        for i, name in enumerate(self.signals()):
            ident = _vcd_ident(i)
            idents[name] = ident
            out.write(f"$var wire 64 {ident} {name} $end\n")
        out.write("$enddefinitions $end\n")
        events = []
        for name, history in self.changes.items():
            for fs, value in history:
                events.append((fs, name, value))
        events.sort(key=lambda e: e[0])
        current_time = None
        for fs, name, value in events:
            if fs != current_time:
                out.write(f"#{fs}\n")
                current_time = fs
            if isinstance(value, int):
                out.write(f"b{value:b} {idents[name]}\n")
            else:
                out.write(f"s{format_value(value)} {idents[name]}\n")
        return out.getvalue()


def _fmt(entry):
    if entry is None:
        return "<missing>"
    fs, value = entry
    return f"({fs}fs, {format_value(value)})"


def _vcd_ident(i):
    chars = "!#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    ident = ""
    while True:
        ident += chars[i % len(chars)]
        i //= len(chars)
        if i == 0:
            return ident
