"""Pluggable cell technologies — the only sanctioned bitcell entry point.

This package is the redesigned surface over what used to be direct
``repro.sram`` imports (a custom lint, ``tools/check_imports.py``,
enforces that from now on).  It has three parts:

* the **protocol** (:mod:`repro.cells.protocol`) —
  :class:`CellTechnology` / :class:`SizedCell` structural interfaces
  covering topology, area, energy loading, leakage, failure probability,
  retention/refresh terms and canonical identity;
* the **implementations** — the SRAM stack (re-exported unchanged from
  :mod:`repro.sram`, whose canonical forms and job keys this package
  deliberately does not touch) plus the first dynamic technologies,
  :mod:`repro.cells.edram` (1T1C) and :mod:`repro.cells.gain` (2T);
* the **registry** (:mod:`repro.cells.registry`) — name-keyed lookup
  that sweep axes, the CLI and experiment drivers resolve through.

Everything the SRAM package exported is re-exported here, so migrating
a consumer is a one-line import change.
"""

from repro.cells.edram import EDRAM_1T1C, EDRAMCellDesign, EDRAMTechnology
from repro.cells.gain import GAIN_2T, GainCellDesign, GainCellTechnology
from repro.cells.protocol import CellTechnology, SizedCell, technology_tokens
from repro.cells.registry import (
    register_technology,
    registered_technologies,
    requires_hard_fault_coding,
    technology_by_name,
)
from repro.sram.cells import (
    CELL_6T,
    CELL_8T,
    CELL_10T,
    CellDesign,
    CellTopology,
    TransistorSpec,
    cell_by_name,
)
from repro.sram.energy import CellElectricals
from repro.sram.failure import CellFailureModel, analytic_pf, beta_for_pf
from repro.sram.margins import MarginModel
from repro.sram.montecarlo import (
    ImportanceSamplingResult,
    importance_sampling_pf,
    monte_carlo_pf,
)
from repro.sram.sizing import (
    MAX_SIZE_FACTOR,
    MINIMAL_SIZE_STEP,
    minimal_size_step,
    quantize_size,
    size_for_pf,
)

__all__ = [
    # protocol
    "CellTechnology",
    "SizedCell",
    "technology_tokens",
    # registry
    "technology_by_name",
    "registered_technologies",
    "register_technology",
    "requires_hard_fault_coding",
    # dynamic technologies
    "EDRAMTechnology",
    "EDRAMCellDesign",
    "EDRAM_1T1C",
    "GainCellTechnology",
    "GainCellDesign",
    "GAIN_2T",
    # SRAM compatibility shim
    "TransistorSpec",
    "CellTopology",
    "CellDesign",
    "CELL_6T",
    "CELL_8T",
    "CELL_10T",
    "cell_by_name",
    "CellElectricals",
    "MarginModel",
    "CellFailureModel",
    "analytic_pf",
    "beta_for_pf",
    "monte_carlo_pf",
    "importance_sampling_pf",
    "ImportanceSamplingResult",
    "size_for_pf",
    "minimal_size_step",
    "quantize_size",
    "MINIMAL_SIZE_STEP",
    "MAX_SIZE_FACTOR",
]
