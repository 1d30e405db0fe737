"""Batch simulation: K stimulus lanes, one scalar run per distinct stimulus.

Every lane is an ordinary scalar simulation, so
:meth:`BatchSimulationResult.lane` returns a
:class:`~repro.sim.SimulationResult` whose trace, print output,
assertion failures, finish time, and kernel statistics are those of the
scalar run of that lane's stimulus — by construction, not by a
cross-check.  :func:`simulate_batch` runs each distinct stimulus once:

* without per-lane stimulus every lane sees the same inputs, so the
  design is simulated once and that run serves every lane (mode
  ``"scalar"`` for K=1, ``"vectorized"`` for K>1);
* a :class:`BatchStimulus` runs one simulation per lane, lane k with
  the stimulus process swapped for its k-th variant at elaboration
  (mode ``"replicated"``).  The lanes of a blaze or cycle batch share
  one compile cache, so each unit is compiled once per batch.
"""

from __future__ import annotations

from .values import SimulationError

#: The engines of a batch with more than one lane or with stimulus.
_BATCH_BACKENDS = ("interp", "blaze", "cycle")


class BatchStimulus:
    """Per-lane stimulus: swap a process unit for K lane variants.

    Maps a process unit *name* (as instantiated in the design) to a list
    of K replacement process units, one per lane.  All replacements must
    share the original's signature — same argument types in the same
    order — because lane k's run binds the original instantiation's
    operands to the k-th variant.
    """

    def __init__(self, units=None):
        self.units = dict(units or {})

    def validate(self, lanes):
        for name, units in self.units.items():
            if len(units) != lanes:
                raise SimulationError(
                    f"BatchStimulus for @{name} supplies {len(units)} "
                    f"units for {lanes} lanes")
            sig0 = [a.type for a in units[0].args]
            for unit in units[1:]:
                if [a.type for a in unit.args] != sig0:
                    raise SimulationError(
                        f"BatchStimulus for @{name}: lane unit "
                        f"@{unit.name} signature differs from lane 0")


class BatchSimulationResult:
    """Outcome of a batch simulation: the scalar run behind every lane.

    ``stats`` and ``assertion_failures`` cover each distinct run once;
    ``kernel`` is the first run's.
    """

    def __init__(self, runs, lanes, mode):
        self.runs = runs
        self.lanes = lanes
        self.mode = mode  # "scalar" | "vectorized" | "replicated"
        self.kernel = runs[0].kernel
        self.assertion_failures = [
            failure for run in runs for failure in run.assertion_failures]
        self.stats = {key: sum(run.stats[key] for run in runs)
                      for key in runs[0].stats}

    def lane(self, k):
        """The :class:`~repro.sim.SimulationResult` of lane ``k``."""
        if not 0 <= k < self.lanes:
            raise IndexError(f"lane {k} out of range for {self.lanes}")
        return self.runs[k if self.mode == "replicated" else 0]

    def lane_results(self):
        return [self.lane(k) for k in range(self.lanes)]


def simulate_batch(module, top, lanes, until_fs=None, backend="interp",
                   stimulus=None):
    """Simulate ``lanes`` stimulus sets of one design.

    With no ``stimulus`` every lane sees identical inputs, so the design
    is simulated once and that run is every lane.  A
    :class:`BatchStimulus` runs one scalar simulation per lane with
    lane k's process variants substituted at elaboration.  A single
    lane without stimulus is the unmodified :func:`~repro.sim.simulate`
    pipeline on any backend; every other batch runs on interp, blaze,
    or cycle.
    """
    from . import _simulate

    if lanes < 1:
        raise ValueError(f"a batch needs at least one lane, got {lanes}")
    uniform = stimulus is None or not stimulus.units
    if (lanes > 1 or not uniform) and backend not in _BATCH_BACKENDS:
        raise ValueError(f"unknown batch backend {backend!r}; expected "
                         f"one of {_BATCH_BACKENDS}")
    if uniform:
        result = _simulate(module, top, until_fs, backend)
        return BatchSimulationResult(
            [result], lanes, "scalar" if lanes == 1 else "vectorized")
    stimulus.validate(lanes)
    options = {} if backend == "interp" else {"compile_cache": {}}
    runs = [_simulate(module, top, until_fs, backend,
                      units={name: variants[k] for name, variants
                             in stimulus.units.items()},
                      **options)
            for k in range(lanes)]
    return BatchSimulationResult(runs, lanes, "replicated")
