"""Per-unit analysis caching.

Passes consume analyses (CFG orders, dominator trees, temporal regions)
that are expensive relative to the transformations themselves: the seed
pipeline rebuilt a :class:`DominatorTree` and a :class:`TemporalRegions`
from scratch on every ECM/TCM/CSE/mem2reg invocation.  The
:class:`AnalysisManager` caches one result per ``(analysis, unit)`` pair
and hands out the cached object until a pass declares it dirty.

Invalidation is cooperative: the pass manager invalidates everything a
pass does not *preserve* (see ``Pass.preserves``), and passes with finer
knowledge (e.g. CF, which only perturbs the CFG when it folds a branch)
invalidate mid-run exactly when the mutation happens.
"""

from __future__ import annotations

from .cfg import reverse_postorder
from .dominators import DominatorTree
from .temporal import TemporalRegions

#: Registry of analyses the manager knows how to compute, by name.
ANALYSES = {
    "domtree": DominatorTree,
    "temporal": TemporalRegions,
    "rpo": reverse_postorder,
}

def register_analysis(name, factory):
    """Register an additional analysis ``factory(unit) -> result``."""
    ANALYSES[name] = factory
    return factory


class AnalysisManager:
    """Caches analysis results per unit, with explicit invalidation."""

    def __init__(self):
        # id(unit) -> {analysis name -> result}.  The unit itself is pinned
        # in ``_units`` so a recycled id can never alias a dead unit.
        self._cache = {}
        self._units = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # -- queries -----------------------------------------------------------

    def get(self, name, unit):
        """The (possibly cached) result of analysis ``name`` on ``unit``."""
        per_unit = self._cache.get(id(unit))
        if per_unit is not None and name in per_unit:
            self.hits += 1
            return per_unit[name]
        factory = ANALYSES.get(name)
        if factory is None:
            raise KeyError(f"unknown analysis {name!r}")
        self.misses += 1
        result = factory(unit)
        self._cache.setdefault(id(unit), {})[name] = result
        self._units[id(unit)] = unit
        return result

    def cached(self, name, unit):
        """The cached result, or None without computing anything."""
        per_unit = self._cache.get(id(unit))
        if per_unit is None:
            return None
        return per_unit.get(name)

    # -- invalidation ------------------------------------------------------

    def invalidate(self, unit, preserved=frozenset()):
        """Drop cached analyses for ``unit`` not named in ``preserved``."""
        per_unit = self._cache.get(id(unit))
        if not per_unit:
            return
        for name in list(per_unit):
            if name not in preserved:
                del per_unit[name]
                self.invalidations += 1
        if not per_unit:
            del self._cache[id(unit)]
            del self._units[id(unit)]

    def forget(self, unit):
        """Drop everything known about ``unit`` (it left the module)."""
        self._cache.pop(id(unit), None)
        self._units.pop(id(unit), None)

    def invalidate_all(self):
        for unit in list(self._units.values()):
            self.invalidate(unit)

    # -- reporting ---------------------------------------------------------

    @property
    def stats(self):
        return {"hits": self.hits, "misses": self.misses,
                "invalidations": self.invalidations}

    def __repr__(self):
        return (f"<AnalysisManager hits={self.hits} misses={self.misses} "
                f"invalidations={self.invalidations}>")
