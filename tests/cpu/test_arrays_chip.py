"""Tests for the core arrays and the full chip model."""

import pytest

from repro.cpu.arrays import CoreArrays
from repro.tech.operating import (
    HP_OPERATING_POINT,
    Mode,
    ULE_OPERATING_POINT,
)


class TestCoreArrays:
    def test_dynamic_energy_scales_with_activity(self, design_a):
        arrays = CoreArrays(cell=design_a.cell_10t)
        low = arrays.dynamic_energy(
            HP_OPERATING_POINT, instructions=1000, memory_ops=300
        )
        high = arrays.dynamic_energy(
            HP_OPERATING_POINT, instructions=2000, memory_ops=600
        )
        assert high == pytest.approx(2 * low)

    def test_leakage_positive(self, design_a):
        arrays = CoreArrays(cell=design_a.cell_10t)
        assert arrays.leakage_power(ULE_OPERATING_POINT) > 0

    def test_counts_validated(self, design_a):
        arrays = CoreArrays(cell=design_a.cell_10t)
        with pytest.raises(ValueError):
            arrays.dynamic_energy(HP_OPERATING_POINT, -1, 0)

    def test_arrays_work_at_both_voltages(self, design_a):
        """10T arrays must be functional at 350 mV — the reason the
        paper picks them for all non-L1 structures."""
        assert design_a.cell_10t.topology.vmin_functional < 0.35


class TestChipRun:
    def test_energy_breakdown_sums_to_epi(self, chips_a, small_trace):
        result = chips_a.baseline.run(small_trace, Mode.ULE)
        categories = result.energy.categories()
        assert sum(categories.values()) == pytest.approx(
            result.energy.total
        )
        assert result.epi == pytest.approx(
            result.energy.total / len(small_trace)
        )

    def test_deterministic(self, chips_a, small_trace):
        first = chips_a.baseline.run(small_trace, Mode.ULE)
        second = chips_a.baseline.run(small_trace, Mode.ULE)
        assert first.epi == second.epi
        assert first.timing.cycles == second.timing.cycles

    def test_mode_mismatch_rejected(self, chips_a, small_trace):
        with pytest.raises(ValueError):
            chips_a.baseline.run(
                small_trace, Mode.ULE, operating_point=HP_OPERATING_POINT
            )

    def test_hp_runs_all_ways(self, chips_a, big_trace):
        result = chips_a.baseline.run(big_trace, Mode.HP)
        hp_fills = result.il1_stats.group_fills.get("hp", 0)
        assert hp_fills > 0  # HP ways in use

    def test_ule_runs_single_way(self, chips_a, small_trace):
        result = chips_a.baseline.run(small_trace, Mode.ULE)
        assert result.il1_stats.group_fills.get("hp", 0) == 0
        assert result.il1_stats.group_fills.get("ule", 0) > 0

    def test_epi_orders_of_magnitude(self, chips_a, big_trace):
        """HP-mode EPI of a simple 32 nm core: a few pJ/instruction."""
        result = chips_a.baseline.run(big_trace, Mode.HP)
        assert 1e-12 < result.epi < 100e-12

    def test_ule_epi_below_hp_epi(self, chips_a, small_trace, big_trace):
        """The whole point of ULE mode: far less energy per instruction."""
        hp = chips_a.baseline.run(big_trace, Mode.HP)
        ule = chips_a.baseline.run(small_trace, Mode.ULE)
        assert ule.epi < hp.epi

    def test_execution_seconds(self, chips_a, small_trace):
        result = chips_a.baseline.run(small_trace, Mode.ULE)
        assert result.operating_point == ULE_OPERATING_POINT
        assert result.execution_seconds == pytest.approx(
            result.timing.cycles * 200e-9
        )

    def test_execution_seconds_uses_overridden_point(
        self, chips_a, small_trace
    ):
        """An overridden operating point changes the implied wall clock:
        the run result must report the point it actually used, not the
        mode's paper default."""
        from repro.tech.operating import OperatingPoint

        slow = OperatingPoint(mode=Mode.ULE, vdd=0.40, frequency=1e6)
        result = chips_a.baseline.run(
            small_trace, Mode.ULE, operating_point=slow
        )
        assert result.operating_point == slow
        assert result.execution_seconds == pytest.approx(
            result.timing.cycles / 1e6
        )

    def test_caches_dominate_chip_energy(self, chips_a, big_trace):
        """Paper §I: 'caches become the main energy consumer on the
        chip' — the calibration anchor for CORE_LOGIC_CAP."""
        result = chips_a.baseline.run(big_trace, Mode.HP)
        categories = result.energy.categories()
        cache_energy = (
            categories["il1 dynamic"]
            + categories["dl1 dynamic"]
            + categories["l1 leakage"]
        )
        assert cache_energy > 0.55 * result.energy.total


class TestCorePriceTable:
    """The chip prices its core once per operating point; the ledger
    must add the very floats that per-call pricing adds."""

    POINTS = (
        HP_OPERATING_POINT,
        ULE_OPERATING_POINT,
    )

    @staticmethod
    def _per_call_core(chip, trace, result):
        """The core's ledger entries, repriced from scratch."""
        from repro.cacti.components import gate_leakage

        op = result.operating_point
        arrays = chip.config.core_arrays
        seconds = result.timing.cycles * op.cycle_time
        return [
            (
                "core.arrays.dynamic",
                arrays.dynamic_energy(
                    op,
                    instructions=trace.summary.instructions,
                    memory_ops=trace.summary.memory_ops,
                ),
            ),
            ("core.arrays.leakage", arrays.leakage_power(op) * seconds),
            (
                "core.leakage",
                chip.config.core_leak_gates
                * gate_leakage(op.vdd, arrays.cell.node)
                * seconds,
            ),
        ]

    def test_table_ledger_equals_per_call_pricing(self, chips_a, small_trace):
        import pickle

        from repro.cpu.chip import Chip

        chip = Chip(chips_a.proposed.config)
        for _ in range(2):  # the second pass reads the table
            for op in self.POINTS:
                result = chip.run(small_trace, op.mode, operating_point=op)
                for name, joules in self._per_call_core(
                    chip, small_trace, result
                ):
                    assert result.energy.get(name) == joules
                fresh = Chip(chips_a.proposed.config).run(
                    small_trace, op.mode, operating_point=op
                )
                assert pickle.dumps(result.energy) == pickle.dumps(
                    fresh.energy
                )

    def test_table_stays_bounded(self, chips_a):
        from repro.cacti.model import PRICE_TABLE_LIMIT
        from repro.cpu.chip import Chip
        from repro.tech.operating import OperatingPoint

        chip = Chip(chips_a.proposed.config)
        for step in range(3 * PRICE_TABLE_LIMIT):
            op = OperatingPoint(
                mode=Mode.ULE, vdd=0.30 + step * 1e-4, frequency=5e6
            )
            assert chip.core_prices(op) is chip.core_prices(op)
            assert len(chip._core_prices) <= PRICE_TABLE_LIMIT

    def test_equal_l1s_share_one_energy_model(self, chips_a):
        from dataclasses import replace

        from repro.cpu.chip import Chip

        config = chips_a.proposed.config
        assert config.dl1 == config.il1
        shared = Chip(config)
        assert shared.dl1_model is shared.il1_model
        split = Chip(replace(config, dl1=replace(config.dl1, name="other")))
        assert split.dl1_model is not split.il1_model
