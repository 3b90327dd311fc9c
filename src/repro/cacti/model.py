"""Cache-level energy/area/timing model assembled from way-group arrays.

The model exposes exactly the operation energies the chip simulator needs,
each split into array energy and EDC codec energy (:class:`AccessEnergy`):

* ``probe_read_energy`` — a load/fetch probe: every powered way reads its
  tag and its data row in parallel (the standard high-performance L1
  organization; this is why one oversized 10T way hurts every access);
* ``probe_write_energy`` — a store probe: tags only;
* ``read_hit_extra_energy`` — per-hit addition in the hitting way group
  (the EDC decode of the selected word when coding is active);
* ``write_hit_energy`` — the data-word write + encode in the hitting way;
* ``fill_energy`` — line fill after a miss (full line + tag write, with
  encodes);
* ``writeback_energy`` — victim line read-out (+ decodes) on dirty
  eviction;
* ``leakage_power`` — static power of all arrays (gated ways leak a
  small residual) plus active codecs.

Check-bit columns are provisioned for the *strongest* code a way group
ever uses, but only the mode-active code's columns are precharged/sensed —
how the paper's "SECDED is simply turned off at HP mode" is realized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.cache.config import CacheConfig, WayGroupConfig
from repro.cacti.array import SramArray
from repro.edc.circuits import CodecCircuit, circuit_for_code
from repro.edc.protection import ProtectionScheme, make_code
from repro.tech.operating import Mode, OperatingPoint

#: Residual leakage of a gated-Vdd way (Powell et al. report ~30x cuts).
GATED_LEAKAGE_FRACTION = 0.03

#: Operating points one model keeps priced.  A chip runs at a handful
#: of points; a table that fills up starts over, so a long Vdd sweep
#: on one chip holds at most this many.
PRICE_TABLE_LIMIT = 64


@dataclass(frozen=True)
class AccessEnergy:
    """Energy of one cache operation, split by origin (J)."""

    array: float = 0.0
    edc: float = 0.0

    @property
    def total(self) -> float:
        """Array plus EDC energy (J)."""
        return self.array + self.edc

    def __add__(self, other: "AccessEnergy") -> "AccessEnergy":
        return AccessEnergy(self.array + other.array, self.edc + other.edc)

    def scaled(self, factor: float) -> "AccessEnergy":
        """Both components multiplied by ``factor``."""
        return AccessEnergy(self.array * factor, self.edc * factor)


@dataclass(frozen=True)
class CachePrices:
    """Every operation energy of one cache at one operating point.

    Attributes:
        probe_read / probe_write: per-probe energies (J).
        groups: per way group, in model order, ``(name, read-hit extra,
            write hit, fill, writeback)`` energies (J).
        leakage: static power (W).
        refresh: retention refresh power (W).
    """

    probe_read: AccessEnergy
    probe_write: AccessEnergy
    groups: tuple[
        tuple[str, AccessEnergy, AccessEnergy, AccessEnergy, AccessEnergy],
        ...,
    ]
    leakage: AccessEnergy
    refresh: float


@lru_cache(maxsize=None)
def _circuit(scheme: ProtectionScheme, data_bits: int) -> CodecCircuit | None:
    code = make_code(scheme, data_bits)
    if code is None:
        return None
    return circuit_for_code(code)


@dataclass(frozen=True)
class WayGroupArrays:
    """The per-way arrays of one way group within a cache."""

    config: CacheConfig
    group: WayGroupConfig

    @cached_property
    def line_bits(self) -> int:
        """Data bits per cache line."""
        return self.config.line_bytes * 8

    @cached_property
    def data_array(self) -> SramArray:
        """The group's data array (with check columns)."""
        cols = self.line_bits + (
            self.config.words_per_line * self.group.stored_data_check_bits
        )
        return SramArray(
            rows=self.config.sets, cols=cols, cell=self.group.cell
        )

    @cached_property
    def tag_array(self) -> SramArray:
        """The group's tag array (with check columns)."""
        cols = self.config.tag_bits + self.group.stored_tag_check_bits
        return SramArray(
            rows=self.config.sets, cols=cols, cell=self.group.cell
        )

    # ------------------------------------------------------- active widths
    def _active_data_cols(self, mode: Mode) -> int:
        return self.line_bits + (
            self.config.words_per_line
            * self.group.active_data_check_bits(mode)
        )

    def _active_tag_cols(self, mode: Mode) -> int:
        return self.config.tag_bits + self.group.active_tag_check_bits(mode)

    def _data_word_cols(self, mode: Mode) -> int:
        return (
            self.config.data_word_bits
            + self.group.active_data_check_bits(mode)
        )

    # -------------------------------------------------------------- codecs
    def data_circuit(self, mode: Mode) -> CodecCircuit | None:
        """Decode-side circuit: the *active* scheme's syndrome slice."""
        scheme = self.group.data_protection.get(mode, ProtectionScheme.NONE)
        return _circuit(scheme, self.config.data_word_bits)

    def tag_circuit(self, mode: Mode) -> CodecCircuit | None:
        """Decode-side tag circuit for the active scheme."""
        scheme = self.group.tag_protection.get(mode, ProtectionScheme.NONE)
        return _circuit(scheme, self.config.tag_bits)

    def data_encode_circuit(self, mode: Mode) -> CodecCircuit | None:
        """Encode-side circuit: always the *stored* codeword format
        (a weaker active mode still writes full-format codewords)."""
        if (
            self.group.data_protection.get(mode, ProtectionScheme.NONE)
            is ProtectionScheme.NONE
        ):
            return None
        return _circuit(
            self.group.stored_data_scheme, self.config.data_word_bits
        )

    def tag_encode_circuit(self, mode: Mode) -> CodecCircuit | None:
        """Encode-side tag circuit (stored format)."""
        if (
            self.group.tag_protection.get(mode, ProtectionScheme.NONE)
            is ProtectionScheme.NONE
        ):
            return None
        return _circuit(self.group.stored_tag_scheme, self.config.tag_bits)

    # ------------------------------------------------------------ energies
    def tag_probe_energy(self, op: OperatingPoint) -> AccessEnergy:
        """One way's tag read + syndrome check during a probe."""
        array = self.tag_array.read_energy(
            op.vdd, active_cols=self._active_tag_cols(op.mode)
        )
        circuit = self.tag_circuit(op.mode)
        edc = circuit.decode_energy(op.vdd) if circuit else 0.0
        return AccessEnergy(array=array, edc=edc)

    def data_read_energy(self, op: OperatingPoint) -> AccessEnergy:
        """One way's data row read during a read probe."""
        array = self.data_array.read_energy(
            op.vdd, active_cols=self._active_data_cols(op.mode)
        )
        return AccessEnergy(array=array)

    def read_hit_extra(self, op: OperatingPoint) -> AccessEnergy:
        """Per-read-hit addition: the selected word drives the output bus
        through the way mux, then its EDC decode (when coding is on)."""
        from repro.cacti.components import OUTPUT_DRIVER_CAP

        out_bits = self._data_word_cols(op.mode)
        array = out_bits * OUTPUT_DRIVER_CAP * op.vdd * op.vdd
        circuit = self.data_circuit(op.mode)
        return AccessEnergy(
            array=array,
            edc=circuit.decode_energy(op.vdd) if circuit else 0.0,
        )

    def write_hit_energy(self, op: OperatingPoint) -> AccessEnergy:
        """Data-word write + encode on a store hit."""
        array = self.data_array.write_energy(
            op.vdd, active_cols=self._data_word_cols(op.mode)
        )
        circuit = self.data_encode_circuit(op.mode)
        edc = circuit.encode_energy(op.vdd) if circuit else 0.0
        return AccessEnergy(array=array, edc=edc)

    def fill_energy(self, op: OperatingPoint) -> AccessEnergy:
        """Line fill: full data row + tag write, with encodes."""
        data = self.data_array.write_energy(
            op.vdd, active_cols=self._active_data_cols(op.mode)
        )
        tag = self.tag_array.write_energy(
            op.vdd, active_cols=self._active_tag_cols(op.mode)
        )
        edc = 0.0
        data_circuit = self.data_encode_circuit(op.mode)
        if data_circuit:
            edc += self.config.words_per_line * data_circuit.encode_energy(
                op.vdd
            )
        tag_circuit = self.tag_encode_circuit(op.mode)
        if tag_circuit:
            edc += tag_circuit.encode_energy(op.vdd)
        return AccessEnergy(array=data + tag, edc=edc)

    def writeback_energy(self, op: OperatingPoint) -> AccessEnergy:
        """Victim line read-out on dirty eviction (with word decodes)."""
        array = self.data_array.read_energy(
            op.vdd,
            active_cols=self._active_data_cols(op.mode),
            out_bits=self._active_data_cols(op.mode),
        )
        circuit = self.data_circuit(op.mode)
        edc = 0.0
        if circuit:
            edc = self.config.words_per_line * circuit.decode_energy(op.vdd)
        return AccessEnergy(array=array, edc=edc)

    # ------------------------------------------------------------- static
    def leakage_power(self, op: OperatingPoint) -> AccessEnergy:
        """Static power (W) of the group's ways (+ codecs when active)."""
        per_way = self.data_array.leakage_power(
            op.vdd
        ) + self.tag_array.leakage_power(op.vdd)
        factor = 1.0 if self.group.is_active(op.mode) else (
            GATED_LEAKAGE_FRACTION
        )
        array = self.group.ways * per_way * factor
        edc = 0.0
        if self.group.is_active(op.mode):
            for circuit in (
                self.data_circuit(op.mode),
                self.tag_circuit(op.mode),
            ):
                if circuit:
                    edc += circuit.leakage_power(op.vdd)
        return AccessEnergy(array=array, edc=edc)

    def refresh_power(self, op: OperatingPoint) -> float:
        """Average refresh power (W) of the group's ways in ``op``.

        Dynamic cells (finite retention) rewrite every data and tag row
        once per retention interval; gated-off groups hold no state and
        refresh nothing.  Static cells return 0 exactly, so SRAM ledgers
        are byte-identical to the pre-refresh model.
        """
        if not self.group.is_active(op.mode):
            return 0.0
        per_way = self.data_array.refresh_power(
            op.vdd
        ) + self.tag_array.refresh_power(op.vdd)
        return self.group.ways * per_way

    @property
    def area(self) -> float:
        """Total silicon area of the group's ways (m^2)."""
        return self.group.ways * (self.data_array.area + self.tag_array.area)

    def access_time(self, op: OperatingPoint) -> float:
        """Array access time; the codec cycle is added architecturally."""
        return max(
            self.data_array.access_time(op.vdd),
            self.tag_array.access_time(op.vdd),
        )


class CacheEnergyModel:
    """Per-mode operation energies for a hybrid cache configuration."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.groups = {
            group.name: WayGroupArrays(config=config, group=group)
            for group in config.way_groups
        }
        self._prices: dict[OperatingPoint, CachePrices] = {}

    def _active_groups(self, mode: Mode) -> list[WayGroupArrays]:
        return [
            arrays
            for arrays in self.groups.values()
            if arrays.group.is_active(mode)
        ]

    def prices(self, op: OperatingPoint) -> CachePrices:
        """Every operation energy at ``op``, priced once per point.

        The chip's energy ledger reads its prices here: jobs that
        share a chip and an operating point (every benchmark of a
        suite, both L1s' repeated probes) reprice nothing.  The table
        is bounded by :data:`PRICE_TABLE_LIMIT`.
        """
        prices = self._prices.get(op)
        if prices is None:
            prices = CachePrices(
                probe_read=self.probe_read_energy(op),
                probe_write=self.probe_write_energy(op),
                groups=tuple(
                    (
                        name,
                        arrays.read_hit_extra(op),
                        arrays.write_hit_energy(op),
                        arrays.fill_energy(op),
                        arrays.writeback_energy(op),
                    )
                    for name, arrays in self.groups.items()
                ),
                leakage=self.leakage_power(op),
                refresh=self.refresh_power(op),
            )
            if len(self._prices) >= PRICE_TABLE_LIMIT:
                self._prices.clear()
            self._prices[op] = prices
        return prices

    # ---------------------------------------------------------- operations
    def probe_read_energy(self, op: OperatingPoint) -> AccessEnergy:
        """A load/fetch probe: all powered ways read tag + data row."""
        total = AccessEnergy()
        for arrays in self._active_groups(op.mode):
            per_way = arrays.tag_probe_energy(op) + arrays.data_read_energy(
                op
            )
            total = total + per_way.scaled(arrays.group.ways)
        return total

    def probe_write_energy(self, op: OperatingPoint) -> AccessEnergy:
        """A store probe: all powered ways read their tag."""
        total = AccessEnergy()
        for arrays in self._active_groups(op.mode):
            total = total + arrays.tag_probe_energy(op).scaled(
                arrays.group.ways
            )
        return total

    def read_hit_extra_energy(
        self, group_name: str, op: OperatingPoint
    ) -> AccessEnergy:
        """Addition for a read hit landing in ``group_name``."""
        return self.groups[group_name].read_hit_extra(op)

    def write_hit_energy(
        self, group_name: str, op: OperatingPoint
    ) -> AccessEnergy:
        """Addition for a store hit landing in ``group_name``."""
        return self.groups[group_name].write_hit_energy(op)

    def fill_energy(self, group_name: str, op: OperatingPoint) -> AccessEnergy:
        """Line fill into ``group_name`` after a miss."""
        return self.groups[group_name].fill_energy(op)

    def writeback_energy(
        self, group_name: str, op: OperatingPoint
    ) -> AccessEnergy:
        """Dirty-victim read-out from ``group_name``."""
        return self.groups[group_name].writeback_energy(op)

    # -------------------------------------------------------------- static
    def leakage_power(self, op: OperatingPoint) -> AccessEnergy:
        """Static power of the whole cache in ``op`` (W)."""
        total = AccessEnergy()
        for arrays in self.groups.values():
            total = total + arrays.leakage_power(op)
        return total

    def refresh_power(self, op: OperatingPoint) -> float:
        """Average refresh power of the whole cache in ``op`` (W).

        Exactly 0 for all-SRAM caches; nonzero only when a powered way
        group uses a dynamic cell technology.
        """
        return sum(
            arrays.refresh_power(op) for arrays in self.groups.values()
        )

    @property
    def area(self) -> float:
        """Total cache area (m^2)."""
        return sum(arrays.area for arrays in self.groups.values())

    def area_by_group(self) -> dict[str, float]:
        """Area per way group (m^2)."""
        return {name: arrays.area for name, arrays in self.groups.items()}

    def access_time(self, op: OperatingPoint) -> float:
        """Hit access time: the slowest powered way's array (s)."""
        active = self._active_groups(op.mode)
        if not active:
            raise ValueError(f"no active ways in {op.mode}")
        return max(arrays.access_time(op) for arrays in active)

    def hit_latency_cycles(self, op: OperatingPoint) -> int:
        """Hit latency in cycles: 1, plus the inline-EDC cycle if any."""
        return 1 + (1 if self.config.edc_inline(op.mode) else 0)
