"""2T gain cell: asymmetric read/write ports, HyGain-style.

A gain cell stores data on the gate of a dedicated *read* transistor
and writes it through a separate *write* transistor — two devices, no
capacitor module, fully logic-compatible (HyGain, PAPERS.md).  The
decoupled read port gives non-destructive, full-drive reads ("gain"),
at the cost of a small storage node (a gate capacitance), hence a much
shorter retention time than 1T1C eDRAM.  That asymmetry — cheap dense
writes, strong reads, aggressive refresh — is exactly the port
structure the :class:`repro.cells.SizedCell` protocol must carry and
SRAM never exercised.

The failure model follows the same linearized-margin law as the rest of
the cell library, with Pelgrom sigmas on both devices.
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
class GainCellTechnology:
    """The 2T gain-cell family, before sizing.

    Attributes:
        name: cell family name ("GAIN").
        base_area_f2: cell area in F^2 at size factor 1 (two devices —
            denser than 6T, larger than 1T1C).
        write_width_mult / read_width_mult: device widths in ``wmin``
            units at size factor 1.
        retention_margin: storable level fraction that may decay before
            the read transistor stops distinguishing the state.
        retention_leak_fraction: suppressed off-state leakage of the
            write device relative to a standard logic transistor.
        read_leak_fraction: read-port subthreshold leak relative to a
            standard logic transistor (the read bitline is precharged).
        margin_slope / margin_v0: linearized margin law parameters.
        write_sensitivity / read_sensitivity: margin degradation per
            volt of local Vt shift on each device.
        vmin_functional: write-ability floor no up-sizing fixes.
    """

    name: str = "GAIN"
    base_area_f2: float = 95.0
    write_width_mult: float = 1.0
    read_width_mult: float = 1.3
    retention_margin: float = 0.25
    retention_leak_fraction: float = 0.05
    read_leak_fraction: float = 0.15
    margin_slope: float = 0.55
    margin_v0: float = 0.10
    write_sensitivity: float = 0.60
    read_sensitivity: float = 0.50
    vmin_functional: float = 0.22

    # ------------------------------------------- CellTechnology protocol
    @property
    def technology(self) -> str:
        """Canonical technology token."""
        return "gain-2t"

    def design(
        self,
        size_factor: float = 1.0,
        node: TechnologyNode | None = None,
    ) -> "GainCellDesign":
        """A sized 2T gain cell."""
        return GainCellDesign(self, size_factor, node or ptm32())

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


#: The registered 2T gain-cell technology instance.
GAIN_2T = GainCellTechnology()


@dataclass(frozen=True)
class GainCellDesign:
    """A sized 2T gain cell on a technology node.

    ``size_factor`` scales both device widths.  Unlike eDRAM, the
    storage capacitance *is* the read device's gate, so up-sizing buys
    margin, drive and retention at once.
    """

    topology: GainCellTechnology
    size_factor: float = 1.0
    node: TechnologyNode = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.node is None:
            object.__setattr__(self, "node", ptm32())
        if self.size_factor <= 0:
            raise ValueError("size_factor must be positive")

    def resized(self, size_factor: float) -> "GainCellDesign":
        """The same cell at a different size factor."""
        return GainCellDesign(self.topology, size_factor, self.node)

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
    def write_width(self) -> float:
        """Physical width (m) of the write device."""
        return (
            self.topology.write_width_mult * self.node.wmin * self.size_factor
        )

    @property
    def read_width(self) -> float:
        """Physical width (m) of the read device."""
        return (
            self.topology.read_width_mult * self.node.wmin * self.size_factor
        )

    @cached_property
    def write_device(self) -> Transistor:
        """The sized write-port device."""
        return Transistor(width=self.write_width, kind="n", node=self.node)

    @cached_property
    def read_device(self) -> Transistor:
        """The sized read-port device (its gate is the storage node)."""
        return Transistor(width=self.read_width, kind="n", node=self.node)

    # ------------------------------------------------------------ ports
    @property
    def read_bitlines(self) -> int:
        """Single-ended read through the decoupled read port."""
        return 1

    @property
    def write_bitlines(self) -> int:
        """Single write bitline into the storage node."""
        return 1

    @property
    def differential_read(self) -> bool:
        """Gain-cell reads are single-ended."""
        return False

    @property
    def read_wordline_cap_per_cell(self) -> float:
        """Load on the read wordline (F): the read device's source line."""
        return self.read_device.drain_cap

    @property
    def write_wordline_cap_per_cell(self) -> float:
        """Gate load on the write wordline (F)."""
        return self.write_device.gate_cap

    @property
    def read_bitline_cap_per_cell(self) -> float:
        """Diffusion load on the read bitline (F)."""
        return self.read_device.drain_cap

    @property
    def write_bitline_cap_per_cell(self) -> float:
        """Diffusion load on the write bitline (F)."""
        return self.write_device.drain_cap

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

        Two terms: the suppressed write-port leak off the storage node
        (the retention current) and the read-port subthreshold leak from
        the precharged read bitline.
        """
        topo = self.topology
        return topo.retention_leak_fraction * self.write_device.leakage_current(
            vdd
        ) + topo.read_leak_fraction * self.read_device.leakage_current(vdd)

    def leakage_power(self, vdd: float) -> float:
        """Static power of one cell (W)."""
        return self.leakage_current(vdd) * vdd

    def read_current(self, vdd: float) -> float:
        """Bitline discharge current of one reading cell (A).

        The stored level drives the read device's gate directly — the
        "gain" — so reads get nearly the full on-current.
        """
        return 0.9 * self.read_device.on_current(vdd)

    # -------------------------------------------------------- retention
    def storage_cap(self) -> float:
        """Storage capacitance (F): the read device's gate."""
        return self.read_device.gate_cap

    def retention_time(self, vdd: float) -> float:
        """Worst-case data retention time at ``vdd`` (s).

        The gate-cap charge budget divided by the suppressed write-port
        leak; much shorter than 1T1C eDRAM because the storage node is
        only a gate.
        """
        leak = (
            self.topology.retention_leak_fraction
            * self.write_device.leakage_current(vdd)
        )
        if leak <= 0.0:
            return math.inf
        charge = self.storage_cap() * self.topology.retention_margin * vdd
        return charge / leak

    # ---------------------------------------------------------- failure
    def _beta(self, vdd: float) -> float:
        """Margin in sigma units; Pelgrom sigmas on both devices."""
        topo = self.topology
        margin = topo.margin_slope * (vdd - topo.margin_v0)
        write_term = topo.write_sensitivity * self.node.sigma_vt(
            self.write_width
        )
        read_term = topo.read_sensitivity * self.node.sigma_vt(self.read_width)
        sigma = math.hypot(write_term, read_term)
        return margin / sigma

    def failure_probability(self, vdd: float) -> float:
        """Hard bit-failure probability of this sized cell at ``vdd``."""
        return pf_for_beta(self._beta(vdd))

    def describe(self) -> str:
        """Short human-readable summary."""
        um2 = self.area * 1e12
        return (
            f"{self.topology.name} x{self.size_factor:.2f} "
            f"(2T gain, {um2:.3f} um^2)"
        )
