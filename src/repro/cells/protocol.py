"""The pluggable cell-technology protocol.

Everything the rest of the system needs from a storage bitcell is
captured by two structural interfaces:

* :class:`CellTechnology` — an *unsized* cell family (an SRAM topology,
  a 1T1C eDRAM cell, a 2T gain cell): it can report whether it functions
  at a supply at all, produce sized designs, evaluate its hard
  bit-failure probability and run the Fig. 2 sizing searches;
* :class:`SizedCell` — one sized instance: the electrical quantities the
  array model consumes (port structure, capacitive loading, leakage,
  read current), its area, its failure probability, and — new with
  dynamic cells — its *data retention time*, from which the array model
  derives refresh power.

Both are :func:`typing.runtime_checkable` protocols, so conformance is
purely structural: the existing SRAM stack satisfies them without
inheriting anything, and its canonical forms (hence all engine job keys)
are untouched.  Each technology also carries a *canonical token*
(``"sram-8t"``, ``"edram-1t1c"``, ``"gain-2t"``) used by saved sweep /
schedule / population artifacts to hard-error on technology mismatch at
``--resume`` time.

Every technology sizes through the one solve of the cell library,
:func:`repro.sram.sizing.size_for_pf`, on its shared width grid.
"""

from __future__ import annotations

from typing import Iterator, Protocol, runtime_checkable

from repro.tech.node import TechnologyNode


@runtime_checkable
class SizedCell(Protocol):
    """One sized bitcell instance of any technology.

    The duck-typed surface consumed by :class:`repro.cells.CellElectricals`,
    :class:`repro.cacti.array.SramArray` and the fault samplers.
    """

    size_factor: float
    node: TechnologyNode

    @property
    def cell_name(self) -> str:
        """Short cell name ("6T", "EDRAM", ...)."""

    @property
    def technology(self) -> str:
        """Canonical technology token ("sram-6t", "edram-1t1c", ...)."""

    @property
    def read_bitlines(self) -> int:
        """Bitlines that swing on a read."""

    @property
    def write_bitlines(self) -> int:
        """Bitlines that swing on a write."""

    @property
    def differential_read(self) -> bool:
        """Whether reads can use low-swing differential sensing."""

    @property
    def read_wordline_cap_per_cell(self) -> float:
        """Gate load a cell puts on the read wordline (F)."""

    @property
    def write_wordline_cap_per_cell(self) -> float:
        """Gate load a cell puts on the write wordline (F)."""

    @property
    def read_bitline_cap_per_cell(self) -> float:
        """Diffusion load a cell puts on ONE read bitline (F)."""

    @property
    def write_bitline_cap_per_cell(self) -> float:
        """Diffusion load a cell puts on ONE write bitline (F)."""

    @property
    def area(self) -> float:
        """Cell area (m^2)."""

    @property
    def width_m(self) -> float:
        """Physical cell width (m)."""

    @property
    def height_m(self) -> float:
        """Physical cell height (m)."""

    def resized(self, size_factor: float) -> "SizedCell":
        """The same cell at a different size factor."""

    def leakage_current(self, vdd: float) -> float:
        """Static current of one cell at ``vdd`` (A)."""

    def leakage_power(self, vdd: float) -> float:
        """Static power of one cell at ``vdd`` (W)."""

    def read_current(self, vdd: float) -> float:
        """Bitline discharge current of one reading cell (A)."""

    def failure_probability(self, vdd: float) -> float:
        """Hard bit-failure probability of this sized cell at ``vdd``."""

    def retention_time(self, vdd: float) -> float | None:
        """Data retention time at ``vdd`` (s); ``None`` for static cells.

        Dynamic cells lose state through their off access device; the
        array model turns a finite retention into a refresh-power term
        charged to the energy ledger as a ``<cache>.refresh`` component.
        """

    def describe(self) -> str:
        """Short human-readable summary."""


@runtime_checkable
class CellTechnology(Protocol):
    """An unsized cell family: the entry point of the pluggable API.

    Registered technologies (see :mod:`repro.cells.registry`) are what
    design-space axes name; the Fig. 2 methodology sizes them through
    this interface only, so SRAM, eDRAM and gain cells all flow through
    the same yield machinery.
    """

    name: str
    vmin_functional: float

    @property
    def technology(self) -> str:
        """Canonical technology token ("sram-6t", "edram-1t1c", ...)."""

    def design(
        self,
        size_factor: float = 1.0,
        node: TechnologyNode | None = None,
    ) -> SizedCell:
        """A sized cell of this technology."""

    def is_operable(self, vdd: float) -> bool:
        """Whether the cell functions at all at ``vdd`` (write floor)."""

    def failure_probability(
        self,
        vdd: float,
        size_factor: float = 1.0,
        node: TechnologyNode | None = None,
    ) -> float:
        """Hard bit-failure probability at (``vdd``, ``size_factor``)."""

    def size_for_pf(
        self,
        vdd: float,
        pf_target: float,
        node: TechnologyNode | None = None,
    ) -> float:
        """Smallest quantized size factor meeting ``pf_target``."""

    def minimal_size_step(self, node: TechnologyNode | None = None) -> float:
        """The technology's minimal width increment (as a size factor)."""


def _designs_of(config) -> Iterator[SizedCell]:
    """Every sized cell reachable from a chip or cache configuration."""
    if config is None:
        return
    way_groups = getattr(config, "way_groups", None)
    if way_groups is not None:
        for group in way_groups:
            yield group.cell
    for attr in ("il1", "dl1"):
        nested = getattr(config, attr, None)
        if nested is not None and nested is not config:
            yield from _designs_of(nested)
    core_arrays = getattr(config, "core_arrays", None)
    if core_arrays is not None:
        yield core_arrays.cell


def technology_tokens(config) -> tuple[str, ...]:
    """Sorted unique canonical technology tokens of a configuration.

    Accepts a :class:`repro.cpu.chip.ChipConfig` or a
    :class:`repro.cache.config.CacheConfig`; the tokens are embedded in
    ``--save-json`` artifacts so ``--resume`` can hard-error when a saved
    campaign was produced by different cell technologies.
    """
    return tuple(sorted({design.technology for design in _designs_of(config)}))
