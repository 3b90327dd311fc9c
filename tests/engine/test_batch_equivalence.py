"""Batched execution equivalence: trace groups are bit-identical.

The batching layer's acceptance contract:

* results of trace-grouped execution — serial and ``jobs=4`` — are
  bit-identical to per-job :func:`~repro.engine.jobs.execute_job`
  across modes × operating points × fault maps × transient specs;
* inline traces travel to worker processes inside their job chunks
  and come back bit-identical;
* jobs differing only in operating point simulate *once* per cache
  (the batching layer's throughput lever) yet stay mutation-isolated;
* disk-cached results round-trip through parallel runs over inline
  traces.
"""

from repro.engine.batch import (
    execute_group,
    group_by_trace,
    partition_for_dispatch,
)
from repro.engine.jobs import SimulationJob, TraceSpec, execute_job
from repro.engine.session import SimulationSession
from repro.faults.maps import CacheFaultMap, DieFaultMap
from repro.tech.operating import Mode, OperatingPoint
from repro.transients import TransientSpec

TRACE = TraceSpec("adpcm_c", 3_000, 42)


def _results_equal(left, right) -> bool:
    return (
        left.il1_stats == right.il1_stats
        and left.dl1_stats == right.dl1_stats
        and left.timing == right.timing
        and list(left.energy.items()) == list(right.energy.items())
    )


def _assert_all_equal(expected, got):
    assert len(expected) == len(got)
    for index, (left, right) in enumerate(zip(expected, got)):
        assert _results_equal(left, right), f"job {index} diverged"


def _fault_map():
    return DieFaultMap(
        entries=(
            CacheFaultMap(
                cache="dl1", mode=Mode.ULE, disabled=((1, 7), (4, 7))
            ),
            CacheFaultMap(
                cache="il1", mode=Mode.HP, disabled=((0, 0), (2, 3))
            ),
        )
    )


def _ule_point(vdd):
    return OperatingPoint(mode=Mode.ULE, vdd=vdd, frequency=5e6)


def _matrix(chips):
    """Jobs over two shared traces sweeping every batched dimension."""
    spec = TransientSpec(
        acceleration=1e17, scrub_interval_seconds=1e-4, seed=7
    )
    jobs = []
    for point in (None, _ule_point(0.38), _ule_point(0.42)):
        for fault_map in (None, _fault_map()):
            for transients in (None, spec):
                jobs.append(
                    SimulationJob(
                        chip=chips.proposed.config,
                        trace=TRACE,
                        mode=Mode.ULE,
                        operating_point=point,
                        fault_map=fault_map,
                        transients=transients,
                    )
                )
    for fault_map in (None, _fault_map()):
        jobs.append(
            SimulationJob(
                chip=chips.proposed.config,
                trace=TRACE,
                mode=Mode.HP,
                fault_map=fault_map,
            )
        )
    # A second trace group: batches must not leak state across groups.
    jobs.append(
        SimulationJob(
            chip=chips.proposed.config,
            trace=TraceSpec("epic_c", 3_000, 11),
            mode=Mode.ULE,
        )
    )
    return jobs


class TestBatchedVsPerJob:
    def test_serial_session_bit_identical(self, chips_a):
        jobs = _matrix(chips_a)
        expected = [execute_job(job) for job in jobs]
        with SimulationSession() as session:
            got = session.run_jobs(jobs)
        _assert_all_equal(expected, got)

    def test_parallel_session_bit_identical(self, chips_a):
        jobs = _matrix(chips_a)
        expected = [execute_job(job) for job in jobs]
        with SimulationSession(jobs=4) as session:
            got = session.run_jobs(jobs)
        _assert_all_equal(expected, got)


class TestSharedSimulation:
    def test_vdd_sweep_simulates_once_per_cache(
        self, chips_a, monkeypatch
    ):
        """The throughput lever: four operating points of one config
        run the functional simulation once per cache (IL1 + DL1),
        not once per job — and still match per-job execution."""
        points = [_ule_point(vdd) for vdd in (0.35, 0.38, 0.41, 0.44)]
        jobs = [
            SimulationJob(
                chip=chips_a.proposed.config,
                trace=TRACE,
                mode=Mode.ULE,
                operating_point=point,
            )
            for point in points
        ]
        expected = [execute_job(job) for job in jobs]

        from repro.engine import backends

        real = backends.simulate_cache
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(backends, "simulate_cache", counting)
        got = execute_group(jobs)
        assert len(calls) == 2
        _assert_all_equal(expected, got)

    def test_memo_hits_are_mutation_isolated(self, chips_a):
        """Memoized stats come back as deep copies: results must be
        distinct objects, exactly as if each job simulated itself."""
        jobs = [
            SimulationJob(
                chip=chips_a.proposed.config,
                trace=TRACE,
                mode=Mode.ULE,
                operating_point=point,
            )
            for point in (_ule_point(0.38), _ule_point(0.42))
        ]
        first, second = execute_group(jobs)
        assert first.il1_stats is not second.il1_stats
        assert first.il1_stats == second.il1_stats


class TestGrouping:
    def test_groups_follow_first_occurrence_order(self, chips_a):
        other = TraceSpec("epic_c", 3_000, 11)
        jobs = [
            SimulationJob(
                chip=chips_a.proposed.config, trace=trace, mode=Mode.ULE
            )
            for trace in (TRACE, other, TRACE, other)
        ]
        assert group_by_trace(jobs) == [[0, 2], [1, 3]]

    def test_partition_serial_keeps_whole_groups(self, chips_a):
        jobs = [
            SimulationJob(
                chip=chips_a.proposed.config, trace=TRACE, mode=Mode.ULE
            )
        ] * 6
        assert partition_for_dispatch(jobs, workers=1) == [
            list(range(6))
        ]

    def test_partition_chunks_large_groups(self, chips_a):
        """One giant group must not serialize a parallel session: it
        splits into worker-balanced chunks, order preserved."""
        jobs = [
            SimulationJob(
                chip=chips_a.proposed.config, trace=TRACE, mode=Mode.ULE
            )
        ] * 20
        chunks = partition_for_dispatch(jobs, workers=4)
        assert len(chunks) > 1
        assert all(len(chunk) <= 4 for chunk in chunks)
        assert [i for chunk in chunks for i in chunk] == list(range(20))


class TestInlineDispatch:
    def test_parallel_inline_traces_match_per_job(
        self, chips_a, small_trace
    ):
        """Inline traces ship pickled with their chunk of jobs: a
        ``jobs=2`` session over them equals per-job execution."""
        jobs = [
            SimulationJob(
                chip=chips_a.proposed.config,
                trace=small_trace,
                mode=mode,
                operating_point=point,
            )
            for mode, point in (
                (Mode.ULE, None),
                (Mode.ULE, _ule_point(0.38)),
                (Mode.HP, None),
            )
        ]
        expected = [execute_job(job) for job in jobs]
        with SimulationSession(jobs=2) as session:
            got = session.run_jobs(jobs)
            assert session.stats.executed == len(jobs)
        _assert_all_equal(expected, got)


class TestDiskCacheRoundTrip:
    def test_store_backed_parallel_results_round_trip(
        self, chips_a, small_trace, tmp_path
    ):
        """Results computed by a parallel session over an inline trace
        are served bit-identically from the result store afterwards."""
        cache_dir = tmp_path / "cache"
        jobs = [
            SimulationJob(
                chip=chips_a.proposed.config,
                trace=small_trace,
                mode=Mode.ULE,
                operating_point=point,
            )
            for point in (None, _ule_point(0.38), _ule_point(0.42))
        ]
        with SimulationSession(jobs=2, cache_dir=cache_dir) as session:
            first = session.run_jobs(jobs)
            assert session.stats.executed == len(jobs)
        with SimulationSession(jobs=2, cache_dir=cache_dir) as session:
            second = session.run_jobs(jobs)
            assert session.stats.disk_hits == len(jobs)
            assert session.stats.executed == 0
        _assert_all_equal(first, second)
