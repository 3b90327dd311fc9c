"""Non-L1 SRAM structures of the core: register file and TLBs.

"All SRAM arrays except L1 caches have been implemented using 10T cells so
they operate properly at any voltage level considered" (Section IV-A.3).
These structures are identical in every compared configuration, so they
contribute the same absolute energy to baseline and proposed chips — but
they must be present for the *normalized* savings to come out right.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.cacti.array import SramArray
from repro.cells import SizedCell
from repro.tech.operating import OperatingPoint


@dataclass(frozen=True)
class CoreArrays:
    """Register file + I/D TLBs built from (NST-sized) 10T cells.

    Attributes:
        cell: the 10T cell design (sized for ULE-mode reliability).
        rf_entries / rf_bits: register file geometry (32 x 32 default).
        tlb_entries / tlb_bits: per-TLB geometry (32 entries of VPN+PPN
            + flags, ~52 bits).
        rf_reads_per_instr / rf_writes_per_instr: average port activity.
    """

    cell: SizedCell
    rf_entries: int = 32
    rf_bits: int = 32
    tlb_entries: int = 16
    tlb_bits: int = 52
    rf_reads_per_instr: float = 1.6
    rf_writes_per_instr: float = 0.7

    @cached_property
    def register_file(self) -> SramArray:
        """The architectural register file array."""
        return SramArray(
            rows=self.rf_entries, cols=self.rf_bits, cell=self.cell
        )

    @cached_property
    def itlb(self) -> SramArray:
        """The instruction TLB array."""
        return SramArray(
            rows=self.tlb_entries, cols=self.tlb_bits, cell=self.cell
        )

    @cached_property
    def dtlb(self) -> SramArray:
        """The data TLB array."""
        return SramArray(
            rows=self.tlb_entries, cols=self.tlb_bits, cell=self.cell
        )

    def access_energies(self, op: OperatingPoint) -> tuple[float, float]:
        """Switching energy per instruction and per memory op (J).

        Every instruction exercises the register file and the ITLB; every
        memory operation additionally exercises the DTLB.
        """
        rf = self.register_file
        per_instr = (
            self.rf_reads_per_instr
            * rf.read_energy(op.vdd, out_bits=self.rf_bits)
            + self.rf_writes_per_instr * rf.write_energy(op.vdd)
            + self.itlb.read_energy(op.vdd, out_bits=24)
        )
        per_memop = self.dtlb.read_energy(op.vdd, out_bits=24)
        return per_instr, per_memop

    def dynamic_energy(
        self,
        op: OperatingPoint,
        instructions: int,
        memory_ops: int,
    ) -> float:
        """Array switching energy over a run (J)."""
        return run_switching_energy(
            self.access_energies(op), instructions, memory_ops
        )

    def leakage_power(self, op: OperatingPoint) -> float:
        """Static power of all core arrays (W)."""
        return (
            self.register_file.leakage_power(op.vdd)
            + self.itlb.leakage_power(op.vdd)
            + self.dtlb.leakage_power(op.vdd)
        )


def run_switching_energy(
    access_energies: tuple[float, float],
    instructions: int,
    memory_ops: int,
) -> float:
    """Array switching energy of a run, from prices already taken.

    ``access_energies`` is :meth:`CoreArrays.access_energies` at the
    run's operating point, so a chip that prices its core once per
    point adds the same floats as :meth:`CoreArrays.dynamic_energy`.
    """
    if instructions < 0 or memory_ops < 0:
        raise ValueError("counts must be non-negative")
    per_instr, per_memop = access_energies
    return instructions * per_instr + memory_ops * per_memop
