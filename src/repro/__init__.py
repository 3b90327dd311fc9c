"""repro — reproduction of the DATE 2013 paper by Maric, Abella and Valero:

    "Efficient Cache Architectures for Reliable Hybrid Voltage Operation
     Using EDC Codes"

The package is organised bottom-up (the full layer list is DESIGN.md
section 1):

* :mod:`repro.tech` — 32 nm technology substrate (device model, variation).
* :mod:`repro.sram` — 6T / 8T / 10T bitcell models, failure probability and
  yield-driven sizing (Chen-style importance sampling).
* :mod:`repro.edc` — Hsiao SECDED and BCH-based DECTED codes plus a
  gate-level codec energy/delay model.
* :mod:`repro.reliability` — the paper's yield equations (Eq. 1-2), fault
  maps and soft-error models.
* :mod:`repro.cache` — functional set-associative / hybrid cache simulator.
* :mod:`repro.cacti` — CACTI-like cache array energy / area / timing model.
* :mod:`repro.transients` — trace-driven soft-error injection: counter-
  based upset sampling, decoder classification (corrected / refetch /
  DUE / SDC) and recovery-cost accounting (docs/transients.md).
* :mod:`repro.cpu` — trace-driven in-order chip simulator with an energy
  ledger (MPSim + Wattch substitute).
* :mod:`repro.workloads` — synthetic MediaBench-like trace generators.
* :mod:`repro.engine` — batched vectorized simulation engine and the
  parallel/memoizing job session (see DESIGN.md section 5).
* :mod:`repro.core` — the paper's contribution: scenarios A/B, the Fig. 2
  design methodology, and the EPI evaluation pipeline.
* :mod:`repro.faults` — die-population fault injection: content-addressed
  per-die disabled-line maps (below the cache), seeded sampling from the
  variation models (above cacti), and population studies batched
  through the engine (above core; docs/faults.md).
* :mod:`repro.explore` — declarative design-space exploration: sweep
  spaces, candidate chips, Pareto/sensitivity reductions (DESIGN.md
  section 7).
* :mod:`repro.experiments` — one driver per paper figure / table.

Quickstart::

    from repro.core import design_scenario, Scenario
    from repro.experiments import run_experiment

    design = design_scenario(Scenario.A)
    print(design.summary())
    result = run_experiment("fig4")
    print(result.render())
"""

__version__ = "1.0.0"

__all__ = [
    "DesignSpace",
    "DieFaultMap",
    "ExplorationCampaign",
    "PopulationStudy",
    "Scenario",
    "SimulationJob",
    "SimulationSession",
    "TraceSpec",
    "TransientSpec",
    "design_scenario",
    "list_experiments",
    "run_experiment",
    "__version__",
]

_LAZY_EXPORTS = {
    "Scenario": ("repro.core.scenarios", "Scenario"),
    "design_scenario": ("repro.core.methodology", "design_scenario"),
    "list_experiments": ("repro.experiments.registry", "list_experiments"),
    "run_experiment": ("repro.experiments.registry", "run_experiment"),
    "SimulationJob": ("repro.engine.jobs", "SimulationJob"),
    "SimulationSession": ("repro.engine.session", "SimulationSession"),
    "TraceSpec": ("repro.workloads.mediabench", "TraceSpec"),
    "DesignSpace": ("repro.explore.space", "DesignSpace"),
    "DieFaultMap": ("repro.faults.maps", "DieFaultMap"),
    "PopulationStudy": ("repro.faults.population", "PopulationStudy"),
    "TransientSpec": ("repro.transients.spec", "TransientSpec"),
    "ExplorationCampaign": (
        "repro.explore.campaign",
        "ExplorationCampaign",
    ),
}


def __getattr__(name: str):
    """Lazy top-level exports (PEP 562) to keep import time low."""
    if name in _LAZY_EXPORTS:
        import importlib

        module_name, attr = _LAZY_EXPORTS[name]
        return getattr(importlib.import_module(module_name), attr)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
