"""Engine equivalence: the vectorized engine must be bit-identical.

The contract of :mod:`repro.engine` is that its two simulators are
interchangeable: for any fresh-cache, static-mask, LRU simulation the
vectorized engine produces *exactly* the counters of the behavioural
reference model — and therefore identical timing and energy ledgers at
the chip level.  These tests pin that contract across modes, way splits,
benchmarks and random streams (hypothesis), and pin which simulator
:func:`~repro.engine.backends.simulate_cache` picks for each policy.
"""

import inspect
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.config import CacheConfig, WayGroupConfig
from repro.cache.hybrid import simulate_reference
from repro.cache.replacement import LruPolicy, PlruPolicy
from repro.core.architect import build_cache_pair, build_chips
from repro.cpu.chip import Chip
from repro.edc.protection import ProtectionScheme
from repro.engine import backends
from repro.engine.backends import simulate_cache
from repro.engine.jobs import SimulationJob, TraceSpec, execute_job
from repro.engine.vectorized import simulate_trace_vectorized
from repro.tech.operating import Mode, OperatingPoint
from repro.workloads.mediabench import generate_trace


def _both_simulators(config, mode, addresses, is_write=None):
    reference = simulate_reference(config, mode, addresses, is_write)
    vectorized = simulate_trace_vectorized(config, mode, addresses, is_write)
    return reference, vectorized


def _assert_stats_identical(reference, vectorized):
    assert reference == vectorized
    # Defaultdict key sets must match too (rendered tables iterate them).
    for attr in (
        "group_read_hits",
        "group_write_hits",
        "group_fills",
        "group_writebacks",
    ):
        assert dict(getattr(reference, attr)) == dict(
            getattr(vectorized, attr)
        )


class TestBackendResolution:
    """``simulate_cache`` picks the simulator from the policy alone:
    the vectorized kernel for a policy named LRU, the behavioural model
    for every other name and for every policy instance."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        real = backends.simulate_trace_vectorized

        def counting(*args, **kwargs):
            calls.append(args[0].name)
            return real(*args, **kwargs)

        monkeypatch.setattr(backends, "simulate_trace_vectorized", counting)
        return calls

    @staticmethod
    def _inputs(design_a):
        _, proposed = build_cache_pair(design_a)
        rng = np.random.default_rng(17)
        addresses = rng.integers(0, 1 << 14, size=3_000, dtype=np.uint64)
        return proposed, addresses, rng.random(3_000) < 0.3

    def test_auto_picks_vectorized_for_lru(self, design_a, kernel_calls):
        config, addresses, is_write = self._inputs(design_a)
        for count, policy in enumerate(("lru", "LRU"), start=1):
            got = simulate_cache(
                config, Mode.ULE, addresses, is_write, policy=policy
            )
            assert len(kernel_calls) == count
            _assert_stats_identical(
                simulate_reference(
                    config, Mode.ULE, addresses, is_write, policy=policy
                ),
                got,
            )

    def test_auto_falls_back_for_other_policies(
        self, design_a, kernel_calls
    ):
        config, addresses, is_write = self._inputs(design_a)
        for make_policy in (
            lambda: "plru",
            lambda: "fifo",
            lambda: "random",
            # Instances, even of LRU, run on the behavioural model.
            lambda: LruPolicy(config.ways),
            lambda: PlruPolicy(config.ways),
        ):
            got = simulate_cache(
                config, Mode.ULE, addresses, is_write,
                policy=make_policy(), seed=3,
            )
            _assert_stats_identical(
                simulate_reference(
                    config, Mode.ULE, addresses, is_write,
                    policy=make_policy(), seed=3,
                ),
                got,
            )
        assert kernel_calls == []


class TestStatsEquivalence:
    @pytest.mark.parametrize("mode", [Mode.HP, Mode.ULE])
    @pytest.mark.parametrize("which", ["baseline", "proposed"])
    def test_benchmark_streams(self, design_a, mode, which):
        """Real benchmark fetch + data streams, both chips, both modes."""
        baseline, proposed = build_cache_pair(design_a)
        config = baseline if which == "baseline" else proposed
        trace = generate_trace("gsm_c", length=20_000, seed=7)

        reference, vectorized = _both_simulators(config, mode, trace.pc)
        _assert_stats_identical(reference, vectorized)

        addresses, is_write = trace.memory_stream()
        reference, vectorized = _both_simulators(
            config, mode, addresses, is_write
        )
        _assert_stats_identical(reference, vectorized)

    @pytest.mark.parametrize("split", [(7, 1), (6, 2), (4, 4)])
    def test_way_splits(self, design_a, split):
        """Non-default HP/ULE way splits (the ablation configurations)."""
        hp_ways, ule_ways = split
        _, proposed = build_cache_pair(
            design_a, hp_ways=hp_ways, ule_ways=ule_ways
        )
        trace = generate_trace("epic_c", length=12_000, seed=11)
        addresses, is_write = trace.memory_stream()
        for mode in (Mode.HP, Mode.ULE):
            reference, vectorized = _both_simulators(
                proposed, mode, addresses, is_write
            )
            _assert_stats_identical(reference, vectorized)

    def test_single_access(self, design_a):
        _, proposed = build_cache_pair(design_a)
        reference, vectorized = _both_simulators(
            proposed,
            Mode.ULE,
            np.array([0x1234], dtype=np.uint64),
            np.array([True]),
        )
        _assert_stats_identical(reference, vectorized)

    def test_empty_stream(self, design_a):
        _, proposed = build_cache_pair(design_a)
        vectorized = simulate_trace_vectorized(
            proposed,
            Mode.HP,
            np.array([], dtype=np.uint64),
        )
        assert vectorized.accesses == 0

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        operations=st.integers(1, 3_000),
        address_bits=st.integers(8, 20),
        write_frac=st.floats(0.0, 1.0),
        mode=st.sampled_from([Mode.HP, Mode.ULE]),
    )
    def test_random_streams(
        self, design_a, seed, operations, address_bits, write_frac, mode
    ):
        """Whatever the stream: identical counters, hit by hit."""
        _, proposed = build_cache_pair(design_a)
        rng = np.random.default_rng(seed)
        addresses = rng.integers(
            0, 1 << address_bits, size=operations, dtype=np.uint64
        )
        is_write = rng.random(operations) < write_frac
        reference, vectorized = _both_simulators(
            proposed, mode, addresses, is_write
        )
        _assert_stats_identical(reference, vectorized)

    def test_single_group_cache(self):
        """A one-group cache (every way active in both modes)."""
        group = WayGroupConfig(
            name="all",
            ways=4,
            cell=_any_cell(),
            data_protection={
                Mode.HP: ProtectionScheme.NONE,
                Mode.ULE: ProtectionScheme.SECDED,
            },
            tag_protection={
                Mode.HP: ProtectionScheme.NONE,
                Mode.ULE: ProtectionScheme.SECDED,
            },
            active_modes=frozenset({Mode.HP, Mode.ULE}),
        )
        config = CacheConfig(
            name="uniform",
            size_bytes=4096,
            line_bytes=32,
            way_groups=(group,),
        )
        rng = np.random.default_rng(3)
        addresses = rng.integers(0, 1 << 14, size=4_000, dtype=np.uint64)
        is_write = rng.random(4_000) < 0.3
        for mode in (Mode.HP, Mode.ULE):
            reference, vectorized = _both_simulators(
                config, mode, addresses, is_write
            )
            _assert_stats_identical(reference, vectorized)


class TestChipLevelEquivalence:
    @pytest.mark.parametrize("mode", [Mode.HP, Mode.ULE])
    def test_run_results_match(self, design_a, mode):
        """Timing, EnergyLedger and stats agree between simulators."""
        chips = build_chips(design_a)
        bench = "g721_c" if mode is Mode.HP else "adpcm_c"
        trace = generate_trace(bench, length=15_000, seed=5)
        for chip in chips.pair():
            reference = chip.run(trace, mode, simulate=simulate_reference)
            vectorized = chip.run(trace, mode, simulate=simulate_cache)
            assert reference.il1_stats == vectorized.il1_stats
            assert reference.dl1_stats == vectorized.dl1_stats
            assert reference.timing == vectorized.timing
            assert list(reference.energy.items()) == list(
                vectorized.energy.items()
            )
            assert reference.epi == vectorized.epi
            assert (
                reference.execution_seconds == vectorized.execution_seconds
            )

    @pytest.mark.parametrize("mode", [Mode.HP, Mode.ULE])
    def test_default_simulate_matches_execute_job(self, design_a, mode):
        """``Chip.run``'s default simulator (the behavioural model)
        and the engine's per-job run pickle to the same bytes on the
        LRU paper chips; the chip itself takes no simulator choice."""
        assert "backend" not in inspect.signature(Chip.run).parameters
        spec = TraceSpec("g721_c", 6_000, 5)
        trace = generate_trace(
            spec.benchmark, length=spec.length, seed=spec.seed
        )
        for chip in build_chips(design_a).pair():
            assert chip.config.il1.replacement == "lru"
            assert chip.config.dl1.replacement == "lru"
            job = SimulationJob(chip=chip.config, trace=spec, mode=mode)
            assert pickle.dumps(chip.run(trace, mode)) == pickle.dumps(
                execute_job(job)
            )

    def test_overridden_operating_point(self, design_a):
        """The Vcc-ablation path: same override, same results."""
        chips = build_chips(design_a)
        point = OperatingPoint(mode=Mode.ULE, vdd=0.40, frequency=5e6)
        trace = generate_trace("adpcm_d", length=8_000, seed=9)
        reference = chips.proposed.run(
            trace, Mode.ULE, operating_point=point,
            simulate=simulate_reference,
        )
        vectorized = chips.proposed.run(
            trace, Mode.ULE, operating_point=point,
            simulate=simulate_cache,
        )
        assert reference.operating_point == point
        assert vectorized.operating_point == point
        assert reference.epi == vectorized.epi
        assert reference.timing == vectorized.timing


def _any_cell():
    from repro.sram.cells import CELL_8T, CellDesign

    return CellDesign(CELL_8T, 2.0)
