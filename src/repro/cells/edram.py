"""Logic-compatible 1T1C eDRAM: the first dynamic cell technology.

An eDRAM bitcell is a single NMOS access device plus a storage capacitor
(MIM or trench, stacked above the transistor).  Compared with SRAM it
is much denser and nearly leakage-free — there is no supply-to-ground
path — but it is *dynamic*: charge leaks off the storage node through
the off access device, so every row must be rewritten once per
retention time.  That refresh power is the term the sustainability
ledger exists to expose (Mittal's cache-reconfiguration survey,
PAPERS.md), and the forcing function that proves the
:class:`repro.cells.CellTechnology` protocol is real: the SRAM model
never needed it.

The failure model mirrors the SRAM stack's linearized-margin approach
(DESIGN.md substitution #2): a per-topology margin knee plus a Pelgrom
variation sigma on the access device, so ``beta ~ sqrt(size)`` and the
shared sizing solve (:func:`repro.sram.sizing.size_for_pf`) applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from repro.sram import sizing
from repro.sram.failure import pf_for_beta
from repro.tech.node import TechnologyNode, ptm32
from repro.tech.transistor import Transistor


@dataclass(frozen=True)
class EDRAMTechnology:
    """The 1T1C eDRAM cell family, before sizing.

    Attributes:
        name: cell family name ("EDRAM").
        base_area_f2: cell area in F^2 at size factor 1 (the capacitor
            stacks above the access device, so the footprint is far
            below 6T SRAM's 146 F^2).
        access_width_mult: access-device width in ``wmin`` units.
        storage_cap: storage capacitance (F) — MIM/trench, fixed by the
            capacitor module rather than transistor sizing.
        retention_margin: fraction of the stored level that may decay
            before a read becomes unreliable.
        retention_leak_fraction: off-state leakage of the access device
            relative to a standard logic transistor (boosted/negative
            wordline low level and higher access Vt suppress it).
        margin_slope: read-margin slope vs supply (V/V).
        margin_v0: supply at which the nominal margin crosses zero.
        sensitivity: margin degradation per volt of access-device Vt
            shift (defines the Pelgrom composite sigma).
        vmin_functional: write-ability floor no up-sizing fixes.
    """

    name: str = "EDRAM"
    base_area_f2: float = 60.0
    access_width_mult: float = 1.0
    storage_cap: float = 1.0e-15
    retention_margin: float = 0.20
    retention_leak_fraction: float = 0.02
    margin_slope: float = 0.50
    margin_v0: float = 0.12
    sensitivity: float = 0.90
    vmin_functional: float = 0.25

    # ------------------------------------------- CellTechnology protocol
    @property
    def technology(self) -> str:
        """Canonical technology token."""
        return "edram-1t1c"

    def design(
        self,
        size_factor: float = 1.0,
        node: TechnologyNode | None = None,
    ) -> "EDRAMCellDesign":
        """A sized 1T1C cell."""
        return EDRAMCellDesign(self, size_factor, node or ptm32())

    def is_operable(self, vdd: float) -> bool:
        """Whether the cell functions at all at ``vdd``."""
        return vdd >= self.vmin_functional

    def failure_probability(
        self,
        vdd: float,
        size_factor: float = 1.0,
        node: TechnologyNode | None = None,
    ) -> float:
        """Hard bit-failure probability at (``vdd``, ``size_factor``)."""
        return self.design(size_factor, node).failure_probability(vdd)

    def size_for_pf(
        self,
        vdd: float,
        pf_target: float,
        node: TechnologyNode | None = None,
    ) -> float:
        """Smallest quantized size factor meeting ``pf_target``."""
        return sizing.size_for_pf(self, vdd, pf_target, node)

    def minimal_size_step(self, node: TechnologyNode | None = None) -> float:
        """The shared 5 % width grid."""
        return sizing.minimal_size_step(node)


#: The registered 1T1C eDRAM technology instance.
EDRAM_1T1C = EDRAMTechnology()


@dataclass(frozen=True)
class EDRAMCellDesign:
    """A sized 1T1C eDRAM cell on a technology node.

    ``size_factor`` scales the access-device width; the storage
    capacitor is a fixed module, so up-sizing buys margin (Pelgrom) and
    drive, not retention charge.
    """

    topology: EDRAMTechnology
    size_factor: float = 1.0
    node: TechnologyNode = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.node is None:
            object.__setattr__(self, "node", ptm32())
        if self.size_factor <= 0:
            raise ValueError("size_factor must be positive")

    def resized(self, size_factor: float) -> "EDRAMCellDesign":
        """The same cell at a different size factor."""
        return EDRAMCellDesign(self.topology, size_factor, self.node)

    # -------------------------------------------------------- identity
    @property
    def cell_name(self) -> str:
        """Short cell name."""
        return self.topology.name

    @property
    def technology(self) -> str:
        """Canonical technology token."""
        return self.topology.technology

    # --------------------------------------------------------- devices
    @property
    def access_width(self) -> float:
        """Physical width (m) of the access device."""
        return (
            self.topology.access_width_mult * self.node.wmin * self.size_factor
        )

    @cached_property
    def access(self) -> Transistor:
        """The sized access device (nominal Vt)."""
        return Transistor(width=self.access_width, kind="n", node=self.node)

    # ------------------------------------------------------------ ports
    @property
    def read_bitlines(self) -> int:
        """Single-ended charge-share read."""
        return 1

    @property
    def write_bitlines(self) -> int:
        """Single bitline drives the storage node through the access."""
        return 1

    @property
    def differential_read(self) -> bool:
        """1T1C reads are single-ended against a reference."""
        return False

    @property
    def read_wordline_cap_per_cell(self) -> float:
        """Gate load on the wordline (F) — the access device's gate."""
        return self.access.gate_cap

    @property
    def write_wordline_cap_per_cell(self) -> float:
        """Gate load on the wordline (F); same device as reads."""
        return self.access.gate_cap

    @property
    def read_bitline_cap_per_cell(self) -> float:
        """Diffusion load on the bitline (F)."""
        return self.access.drain_cap

    @property
    def write_bitline_cap_per_cell(self) -> float:
        """Diffusion load on the bitline (F); same junction."""
        return self.access.drain_cap

    # ------------------------------------------------------------- area
    @property
    def area(self) -> float:
        """Cell area (m^2); ~35 % is sizing-independent overhead."""
        scale = 0.35 + 0.65 * self.size_factor
        return self.topology.base_area_f2 * self.node.f2 * scale

    @property
    def width_m(self) -> float:
        """Physical cell width (m), laid out ~2:1 wide."""
        return (2.0 * self.area) ** 0.5

    @property
    def height_m(self) -> float:
        """Physical cell height (m)."""
        return (self.area / 2.0) ** 0.5

    # ------------------------------------------------------ electricals
    def leakage_current(self, vdd: float) -> float:
        """Static current of one cell (A).

        No supply-to-ground path exists; the only static current is the
        suppressed off-state leak of the access device into/out of the
        storage node — the same current that bounds retention.
        """
        return (
            self.topology.retention_leak_fraction
            * self.access.leakage_current(vdd)
        )

    def leakage_power(self, vdd: float) -> float:
        """Static power of one cell (W)."""
        return self.leakage_current(vdd) * vdd

    def read_current(self, vdd: float) -> float:
        """Bitline discharge current during a charge-share read (A).

        The stored level, not the supply, drives the access device, so
        the effective drive is about half the full-gate on-current.
        """
        return 0.5 * self.access.on_current(vdd)

    # -------------------------------------------------------- retention
    def retention_time(self, vdd: float) -> float:
        """Worst-case data retention time at ``vdd`` (s).

        Charge budget (``C_storage * retention_margin * vdd``) divided
        by the suppressed off-state leak of the access device.  The
        array model converts this into refresh power: one full-array
        rewrite per retention interval.
        """
        leak = self.leakage_current(vdd)
        if leak <= 0.0:
            return math.inf
        charge = self.topology.storage_cap * self.topology.retention_margin * vdd
        return charge / leak

    # ---------------------------------------------------------- failure
    def _beta(self, vdd: float) -> float:
        """Margin in sigma units; Pelgrom sigma on the access device."""
        topo = self.topology
        margin = topo.margin_slope * (vdd - topo.margin_v0)
        sigma = topo.sensitivity * self.node.sigma_vt(self.access_width)
        return margin / sigma

    def failure_probability(self, vdd: float) -> float:
        """Hard bit-failure probability of this sized cell at ``vdd``."""
        return pf_for_beta(self._beta(vdd))

    def describe(self) -> str:
        """Short human-readable summary."""
        um2 = self.area * 1e12
        return (
            f"{self.topology.name} x{self.size_factor:.2f} "
            f"(1T1C, {um2:.3f} um^2)"
        )
