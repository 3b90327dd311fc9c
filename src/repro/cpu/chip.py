"""The full chip: in-order core + IL1 + DL1 + core arrays + energy ledger.

:class:`Chip.run` is the reproduction's MPSim: it streams a trace through
the functional caches (the behavioural model by default; the engine
passes its simulator in as ``simulate=``), derives the cycle count from
the timing model, and prices every event with the CACTI-like energy
models — producing the energy-per-instruction (EPI) breakdowns of the
paper's Figures 3 and 4.

Memory energy is deliberately excluded, as in the paper ("we did not
include memory energy in our results"); memory *latency* is included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.config import CacheConfig
from repro.cache.hybrid import simulate_reference
from repro.cache.stats import CacheStats
from repro.cacti.components import gate_leakage
from repro.cacti.model import PRICE_TABLE_LIMIT, CacheEnergyModel
from repro.cpu.arrays import CoreArrays, run_switching_energy
from repro.cpu.power import EnergyLedger
from repro.cpu.timing import TimingParams, TimingResult, compute_timing
from repro.cpu.trace import Trace
from repro.faults.maps import DieFaultMap
from repro.tech.operating import Mode, OperatingPoint, operating_point_for
from repro.transients.recovery import (
    account_transient_energy,
    recovery_cycles,
)
from repro.transients.sampling import make_sampler
from repro.transients.spec import TransientSpec
from repro.util.profiling import phase


@dataclass(frozen=True)
class ChipConfig:
    """A complete chip configuration.

    Attributes:
        name: configuration label (e.g. "A-baseline").
        il1 / dl1: the L1 cache configurations.
        core_arrays: register file / TLB models (10T, shared design).
        core_logic_cap: effective switched capacitance of the core logic
            per instruction (F) — the Wattch-style lumped core model.
        core_leak_gates: equivalent minimum-gate count for core logic
            leakage.
        timing: pipeline timing constants.
    """

    name: str
    il1: CacheConfig
    dl1: CacheConfig
    core_arrays: CoreArrays
    core_logic_cap: float
    core_leak_gates: int
    timing: TimingParams = field(default_factory=TimingParams)


@dataclass(frozen=True)
class RunResult:
    """Everything measured in one benchmark run on one chip."""

    chip_name: str
    trace_name: str
    mode: Mode
    operating_point: OperatingPoint
    timing: TimingResult
    energy: EnergyLedger
    il1_stats: CacheStats
    dl1_stats: CacheStats

    @property
    def epi(self) -> float:
        """Energy per instruction (J)."""
        return self.energy.total / max(self.timing.instructions, 1)

    @property
    def execution_seconds(self) -> float:
        """Wall-clock run time at the operating point the run used.

        Uses the stored :attr:`operating_point` — an overridden point
        (e.g. the Vcc ablation's) changes the implied wall clock, not
        just the energy.
        """
        return self.operating_point.cycle_time * self.timing.cycles


def suite_mode_metrics(
    results,
    modes: tuple[tuple[Mode, str], ...] = (
        (Mode.ULE, "ule"),
        (Mode.HP, "hp"),
    ),
) -> dict[str, float]:
    """Suite-mean EPI and seconds-per-instruction per mode.

    The shared reduction of the exploration campaigns and population
    studies: results are grouped by their run mode and averaged into
    ``epi_<label>`` / ``spi_<label>`` entries.  Modes with no runs
    reduce to 0.0.
    """
    by_mode: dict[Mode, list[RunResult]] = {
        mode: [] for mode, _ in modes
    }
    for result in results:
        if result.mode in by_mode:
            by_mode[result.mode].append(result)
    metrics: dict[str, float] = {}
    for mode, label in modes:
        runs = by_mode[mode]
        metrics[f"epi_{label}"] = _mean(r.epi for r in runs)
        metrics[f"spi_{label}"] = _mean(
            r.execution_seconds / max(r.timing.instructions, 1)
            for r in runs
        )
    return metrics


def _mean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


@dataclass(frozen=True)
class CorePrices:
    """The core's energy prices at one operating point.

    Attributes:
        access_energies: array switching energy per instruction and per
            memory op (J), see :meth:`CoreArrays.access_energies`.
        arrays_leakage: static power of the core arrays (W).
        logic_leakage: static power of the core logic (W).
    """

    access_energies: tuple[float, float]
    arrays_leakage: float
    logic_leakage: float


class Chip:
    """Executable model of one chip configuration."""

    def __init__(self, config: ChipConfig):
        self.config = config
        self.il1_model = CacheEnergyModel(config.il1)
        # Equal L1 configurations share one model, and so one price table.
        self.dl1_model = (
            self.il1_model
            if config.dl1 == config.il1
            else CacheEnergyModel(config.dl1)
        )
        self._core_prices: dict[OperatingPoint, CorePrices] = {}

    # ------------------------------------------------------------- running
    def run(
        self,
        trace: Trace,
        mode: Mode,
        operating_point: OperatingPoint | None = None,
        fault_map: DieFaultMap | None = None,
        transients: TransientSpec | None = None,
        simulate=simulate_reference,
    ) -> RunResult:
        """Execute a trace in ``mode`` and account time and energy.

        ``fault_map`` applies one die's disabled-line map
        (:class:`repro.faults.maps.DieFaultMap`) to both L1 arrays; a
        fault-free map is byte-identical to passing None.
        ``transients`` enables soft-error injection
        (:class:`repro.transients.spec.TransientSpec`): read hits are
        classified through each array's sampler, refetch and
        correction stalls enter the cycle count, and refetch + scrub
        energy enter the ledger.  A *null* spec is byte-identical to
        passing None.
        ``simulate`` is the functional simulation, a callable with
        :func:`repro.cache.hybrid.simulate_reference`'s signature (the
        default: the behavioural per-access model).  The engine passes
        its simulator and its batch wrapper, which reuses per-trace
        plans and memoizes identical functional simulations; everything
        downstream (timing, energy, the result record) is shared code,
        which is what keeps every simulator bit-identical to this one.
        """
        op = operating_point or operating_point_for(mode)
        if op.mode is not mode:
            raise ValueError("operating point does not match mode")
        spec = TransientSpec.effective(transients)
        il1_sampler = dl1_sampler = None
        if spec is not None:
            il1_sampler = make_sampler(
                self.config.il1, mode, op, spec, "il1"
            )
            dl1_sampler = make_sampler(
                self.config.dl1, mode, op, spec, "dl1"
            )

        # Functional simulation: instruction fetches then data accesses,
        # each under its cache's replacement policy.
        il1_disabled = (
            fault_map.disabled_for("il1", mode) if fault_map else ()
        )
        dl1_disabled = (
            fault_map.disabled_for("dl1", mode) if fault_map else ()
        )
        il1_stats = simulate(
            self.config.il1, mode, trace.pc,
            policy=self.config.il1.replacement,
            disabled_lines=il1_disabled,
            transients=il1_sampler,
        )
        addresses, is_write = trace.memory_stream()
        dl1_stats = simulate(
            self.config.dl1, mode, addresses, is_write,
            policy=self.config.dl1.replacement,
            disabled_lines=dl1_disabled,
            transients=dl1_sampler,
        )

        with phase("run.reduce"):
            recovery = 0.0
            if spec is not None:
                recovery = recovery_cycles(
                    self.config.il1, mode, il1_stats, spec,
                    self.config.timing.memory_latency_cycles,
                ) + recovery_cycles(
                    self.config.dl1, mode, dl1_stats, spec,
                    self.config.timing.memory_latency_cycles,
                )
            timing = compute_timing(
                trace.summary,
                il1_misses=il1_stats.misses,
                dl1_misses=dl1_stats.misses,
                il1_hit_latency=self.il1_model.hit_latency_cycles(op),
                dl1_hit_latency=self.dl1_model.hit_latency_cycles(op),
                params=self.config.timing,
                recovery_cycles=recovery,
            )
            energy = self._account_energy(
                trace, op, timing, il1_stats, dl1_stats, transients=spec
            )
            return RunResult(
                chip_name=self.config.name,
                trace_name=trace.name,
                mode=mode,
                operating_point=op,
                timing=timing,
                energy=energy,
                il1_stats=il1_stats,
                dl1_stats=dl1_stats,
            )

    # -------------------------------------------------------------- energy
    def _account_energy(
        self,
        trace: Trace,
        op: OperatingPoint,
        timing: TimingResult,
        il1_stats: CacheStats,
        dl1_stats: CacheStats,
        transients: TransientSpec | None = None,
    ) -> EnergyLedger:
        with phase("energy.account"):
            ledger = EnergyLedger()
            self._account_cache(
                ledger, "il1", self.il1_model, il1_stats, op
            )
            self._account_cache(
                ledger, "dl1", self.dl1_model, dl1_stats, op
            )

            seconds = timing.cycles * op.cycle_time
            if transients is not None:
                for label, model, stats in (
                    ("il1", self.il1_model, il1_stats),
                    ("dl1", self.dl1_model, dl1_stats),
                ):
                    account_transient_energy(
                        ledger, label, model, stats, op,
                        transients, seconds,
                    )
            for label, model in (
                ("il1", self.il1_model),
                ("dl1", self.dl1_model),
            ):
                prices = model.prices(op)
                leak = prices.leakage
                ledger.add(f"{label}.leakage", leak.array * seconds)
                ledger.add(f"{label}.edc.leakage", leak.edc * seconds)
                # Dynamic cell technologies pay retention refresh for as
                # long as the run holds state.  The component is created
                # only when nonzero, so all-SRAM ledgers stay
                # byte-identical to the pre-refresh model.
                refresh = prices.refresh
                if refresh > 0.0:
                    ledger.add(f"{label}.refresh", refresh * seconds)

            # Core: lumped logic plus the 10T arrays.
            summary = trace.summary
            logic = (
                summary.instructions
                * self.config.core_logic_cap
                * op.vdd
                * op.vdd
            )
            ledger.add("core.logic", logic)
            core = self.core_prices(op)
            ledger.add(
                "core.arrays.dynamic",
                run_switching_energy(
                    core.access_energies,
                    instructions=summary.instructions,
                    memory_ops=summary.memory_ops,
                ),
            )
            ledger.add("core.arrays.leakage", core.arrays_leakage * seconds)
            ledger.add("core.leakage", core.logic_leakage * seconds)
            return ledger

    def core_prices(self, op: OperatingPoint) -> CorePrices:
        """The core's prices at ``op``, priced once per point.

        Like :meth:`CacheEnergyModel.prices`, the table is per chip and
        bounded by :data:`~repro.cacti.model.PRICE_TABLE_LIMIT`.
        """
        prices = self._core_prices.get(op)
        if prices is None:
            arrays = self.config.core_arrays
            prices = CorePrices(
                access_energies=arrays.access_energies(op),
                arrays_leakage=arrays.leakage_power(op),
                logic_leakage=self.config.core_leak_gates
                * gate_leakage(op.vdd, arrays.cell.node),
            )
            if len(self._core_prices) >= PRICE_TABLE_LIMIT:
                self._core_prices.clear()
            self._core_prices[op] = prices
        return prices

    def _account_cache(
        self,
        ledger: EnergyLedger,
        label: str,
        model: CacheEnergyModel,
        stats: CacheStats,
        op: OperatingPoint,
    ) -> None:
        prices = model.prices(op)
        probe_read = prices.probe_read
        probe_write = prices.probe_write
        ledger.add(f"{label}.dynamic", stats.reads * probe_read.array)
        ledger.add(f"{label}.edc", stats.reads * probe_read.edc)
        ledger.add(f"{label}.dynamic", stats.writes * probe_write.array)
        ledger.add(f"{label}.edc", stats.writes * probe_write.edc)

        for group_name, read_hit, write_hit, fill, writeback in prices.groups:
            events = (
                (stats.group_read_hits.get(group_name, 0), read_hit),
                (stats.group_write_hits.get(group_name, 0), write_hit),
                (stats.group_fills.get(group_name, 0), fill),
                (stats.group_writebacks.get(group_name, 0), writeback),
            )
            for count, access in events:
                if count:
                    ledger.add(f"{label}.dynamic", count * access.array)
                    ledger.add(f"{label}.edc", count * access.edc)
