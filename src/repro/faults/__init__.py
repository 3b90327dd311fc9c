"""Die-population fault injection over the variation models.

The package spans three layers of the stack (DESIGN.md section 1),
bottom-up:

* this package and :mod:`repro.faults.maps` — :class:`DieFaultMap`,
  the content-addressed per-die description of disabled cache lines
  that ``Chip.run`` consumes and the engine's job keys hash; below
  ``cache``;
* :mod:`repro.faults.sampling` — seeded, order-independent sampling of
  die populations from the sized cells' analytic failure
  probabilities; above ``cacti``;
* :mod:`repro.faults.population` — :class:`PopulationStudy`, batching
  die x benchmark x mode through the simulation session and reducing
  population distributions, yield curves and fault histograms; above
  ``core``.
"""

from repro.faults.maps import (
    CACHE_LABELS,
    FAULT_FREE_DIE,
    CacheFaultMap,
    DieFaultMap,
)

#: Sampling and population symbols resolve lazily (PEP 562): this
#: ``__init__`` sits in the lowest faults layer, next to ``maps``, so
#: importing either of the higher two here would be an upward import
#: (``cpu`` and ``engine`` load this package for ``maps``).
_LAZY_EXPORTS = {
    "DEFAULT_PERCENTILES": "repro.faults.population",
    "DEFAULT_VDD_GRID": "repro.faults.population",
    "DieOutcome": "repro.faults.population",
    "PopulationResult": "repro.faults.population",
    "PopulationStudy": "repro.faults.population",
    "scenario_population_study": "repro.faults.population",
    "functional_fraction": "repro.faults.sampling",
    "sample_cache_fault_map": "repro.faults.sampling",
    "sample_die_fault_map": "repro.faults.sampling",
    "sample_population": "repro.faults.sampling",
}


def __getattr__(name: str):
    """Lazy re-export of the sampling/population layers' symbols."""
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is not None:
        import importlib

        return getattr(importlib.import_module(module_name), name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )

__all__ = [
    "CACHE_LABELS",
    "DEFAULT_PERCENTILES",
    "DEFAULT_VDD_GRID",
    "FAULT_FREE_DIE",
    "CacheFaultMap",
    "DieFaultMap",
    "DieOutcome",
    "PopulationResult",
    "PopulationStudy",
    "functional_fraction",
    "sample_cache_fault_map",
    "sample_die_fault_map",
    "sample_population",
    "scenario_population_study",
]
