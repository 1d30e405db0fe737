"""Simulation of LLHD designs.

Four simulators — the three of the paper's evaluation (section 6.1)
plus a levelized netlist engine:

* ``interp`` — *LLHD-Sim*, the reference interpreter: deliberately the
  simplest possible simulator of the instruction set.
* ``blaze`` — the *LLHD-Blaze* analogue: compiles every unit to Python
  code objects ahead of simulation (the paper JIT-compiles to LLVM IR).
* ``cycle`` — an independently implemented, statically scheduled
  compiled-code simulator standing in for the paper's commercial
  simulator baseline (see DESIGN.md, substitution 1).
* ``levelized`` — ahead-of-time compiled execution of netlist designs:
  techmap library cells are levelized into one straight-line generated
  settle function (its code object cached on disk, keyed by its own
  source) with storage cells as sequential cut points; zero scheduler
  events per gate (see :mod:`repro.sim.levelize`).

All four produce :class:`~repro.sim.trace.Trace` objects that can be
compared for equivalence — the paper's "traces match" claim.
:func:`simulate_batch` simulates K stimulus lanes as one scalar run per
distinct stimulus on interp, blaze, or cycle (see :mod:`repro.sim.batch`).
"""

from __future__ import annotations

from .batch import BatchSimulationResult, BatchStimulus, simulate_batch
from .engine import Kernel, SignalInstance, SignalRef, advance_time
from .trace import Trace
from .values import SimulationError, default_value

BACKENDS = ("interp", "blaze", "cycle", "levelized")


class SimulationResult:
    """Outcome of a simulation run."""

    def __init__(self, design, kernel, trace):
        self.design = design
        self.kernel = kernel
        self.trace = trace
        self.assertion_failures = kernel.assertion_failures
        self.output = kernel.output
        self.stats = kernel.stats
        self.sanitizer = kernel.sanitizer

    @property
    def findings(self):
        """Sanitizer findings (empty when run without ``sanitize=True``)."""
        if self.sanitizer is None:
            return []
        return list(self.sanitizer.findings)

    @property
    def final_time_fs(self):
        return self.kernel.now[0]

    def ok(self):
        """True if no assertion failed during simulation."""
        return not self.assertion_failures


def simulate(module, top, until_fs=None, backend="interp",
             sanitize=False, cache_dir=None):
    """Elaborate and simulate ``module`` from entity ``top``.

    Returns a :class:`SimulationResult` whose trace records every signal
    value change.  With ``sanitize=True`` the scheduler records drive
    races and oscillations as :class:`~repro.sim.sanitize.Finding`
    objects instead of raising, exposed as ``result.findings``.  ``cache_dir`` overrides
    the levelized engine's on-disk compile cache location.
    """
    options = {"cache_dir": cache_dir} if backend == "levelized" else {}
    return _simulate(module, top, until_fs, backend, sanitize, **options)


def _simulate(module, top, until_fs, backend, sanitize=False, **options):
    """:func:`simulate`, passing ``options`` to the backend's elaborator
    (the unit substitutions and shared compile cache of a batch run)."""
    if backend == "interp":
        from .interp import elaborate as elaborator

        kernel_class = Kernel
    elif backend == "blaze":
        from .blaze import elaborate_compiled as elaborator

        kernel_class = Kernel
    elif backend == "cycle":
        from .cycle import CycleKernel as kernel_class
        from .cycle import elaborate_cycle as elaborator
    elif backend == "levelized":
        from .levelize import elaborate_levelized as elaborator

        kernel_class = Kernel
    else:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}")
    trace = Trace()
    kernel = kernel_class(trace=trace)
    if sanitize:
        from .sanitize import Sanitizer

        kernel.sanitizer = Sanitizer()
    design = elaborator(module, top, kernel, **options)
    kernel.run(until_fs=until_fs)
    return SimulationResult(design, kernel, trace)


__all__ = [
    "BACKENDS", "BatchSimulationResult", "BatchStimulus", "Kernel",
    "SignalInstance", "SignalRef", "SimulationError", "SimulationResult",
    "Trace", "advance_time", "default_value", "simulate", "simulate_batch",
]
