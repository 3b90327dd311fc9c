"""SimulationSession: batching, dedup, disk memoization, parallelism."""

import pytest

from repro.core.evaluation import evaluate_scenario
from repro.core.scenarios import Scenario
from repro.engine.jobs import SimulationJob, TraceSpec, job_key
from repro.engine.session import (
    SessionStats,
    SimulationSession,
    current_session,
    use_session,
)
from repro.tech.operating import Mode, OperatingPoint
from repro.workloads.mediabench import generate_trace


def _job(chips, which="baseline", bench="adpcm_c", length=4_000,
         mode=Mode.ULE, operating_point=None):
    chip = getattr(chips, which)
    return SimulationJob(
        chip=chip.config,
        trace=TraceSpec(bench, length, 42),
        mode=mode,
        operating_point=operating_point,
    )


class TestSessionStats:
    def test_snapshot_is_frozen(self):
        stats = SessionStats(executed=2, memo_hits=1)
        frozen = stats.snapshot()
        stats.executed += 5
        assert frozen.executed == 2
        assert frozen.memo_hits == 1

    def test_since_yields_deltas(self):
        stats = SessionStats(executed=2, disk_hits=1)
        before = stats.snapshot()
        stats.executed += 3
        stats.memo_hits += 4
        delta = stats.since(before)
        assert delta.executed == 3
        assert delta.memo_hits == 4
        assert delta.disk_hits == 0
        assert delta.requested == 7

    def test_session_phase_attribution(self, chips_a):
        with SimulationSession() as session:
            before = session.stats.snapshot()
            session.run_jobs([_job(chips_a)])
            first = session.stats.since(before)
            assert first.executed == 1
            before = session.stats.snapshot()
            session.run_jobs([_job(chips_a)])
            second = session.stats.since(before)
            assert second.executed == 0
            assert second.memo_hits == 1


class TestJobKey:
    def test_stable_for_equal_jobs(self, chips_a):
        assert job_key(_job(chips_a)) == job_key(_job(chips_a))

    def test_sensitive_to_every_field(self, chips_a):
        base = job_key(_job(chips_a))
        assert job_key(_job(chips_a, which="proposed")) != base
        assert job_key(_job(chips_a, bench="epic_c")) != base
        assert job_key(_job(chips_a, length=5_000)) != base
        assert job_key(_job(chips_a, mode=Mode.HP)) != base
        point = OperatingPoint(mode=Mode.ULE, vdd=0.4, frequency=5e6)
        assert job_key(_job(chips_a, operating_point=point)) != base

    def test_stable_across_interpreter_invocations(self):
        """Keys must survive hash randomization: repr of frozensets
        varies with PYTHONHASHSEED, which would defeat the disk cache
        (regression)."""
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        src_dir = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        code = (
            "from repro.core.evaluation import cached_chips\n"
            "from repro.core.scenarios import Scenario\n"
            "from repro.engine.jobs import SimulationJob, TraceSpec, "
            "job_key\n"
            "from repro.tech.operating import Mode\n"
            "chips = cached_chips(Scenario.A)\n"
            "job = SimulationJob(chip=chips.proposed.config,\n"
            "                    trace=TraceSpec('adpcm_c', 1000, 1),\n"
            "                    mode=Mode.ULE)\n"
            "print(job_key(job))\n"
        )
        keys = set()
        for hash_seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src_dir, env.get("PYTHONPATH", "")])
            )
            result = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            keys.add(result.stdout.strip())
        assert len(keys) == 1

    def test_inline_trace_hashes_content(self, chips_a):
        short = generate_trace("adpcm_c", length=1_000, seed=1)
        long = generate_trace("adpcm_c", length=2_000, seed=1)
        job_short = SimulationJob(
            chip=chips_a.baseline.config, trace=short, mode=Mode.ULE
        )
        job_long = SimulationJob(
            chip=chips_a.baseline.config, trace=long, mode=Mode.ULE
        )
        assert job_key(job_short) != job_key(job_long)
        assert job_key(job_short) == job_key(job_short)


class TestSessionBatching:
    def test_results_in_submission_order(self, chips_a):
        session = SimulationSession()
        jobs = [
            _job(chips_a, which="baseline"),
            _job(chips_a, which="proposed"),
        ]
        results = session.run_jobs(jobs)
        assert results[0].chip_name == chips_a.baseline.config.name
        assert results[1].chip_name == chips_a.proposed.config.name

    def test_duplicate_jobs_execute_once(self, chips_a):
        session = SimulationSession()
        job = _job(chips_a)
        first, second = session.run_jobs([job, job])
        assert first is second
        assert session.stats.executed == 1
        assert session.stats.deduplicated == 1

    def test_memo_across_batches(self, chips_a):
        session = SimulationSession()
        job = _job(chips_a)
        first = session.run_one(job)
        second = session.run_one(job)
        assert first is second
        assert session.stats.executed == 1
        assert session.stats.memo_hits == 1

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            SimulationSession(jobs=0)

    def test_backend_choice_is_result_invariant(self, chips_a):
        """A session's result (the vectorized engine on these LRU
        chips) equals ``Chip.run``'s default, the behavioural model."""
        job = _job(chips_a)
        reference = chips_a.baseline.run(
            generate_trace("adpcm_c", length=4_000, seed=42), job.mode
        )
        vectorized = SimulationSession().run_one(job)
        assert reference.epi == vectorized.epi
        assert reference.il1_stats == vectorized.il1_stats
        assert reference.timing == vectorized.timing


class TestDiskCache:
    def test_second_session_hits_disk(self, chips_a, tmp_path):
        job = _job(chips_a)
        first = SimulationSession(cache_dir=tmp_path)
        result = first.run_one(job)
        assert first.stats.executed == 1
        # Entries are grouped per source-fingerprint generation.
        assert len(list(tmp_path.glob("gen-*/*/*.pkl"))) == 1

        second = SimulationSession(cache_dir=tmp_path)
        cached = second.run_one(job)
        assert second.stats.executed == 0
        assert second.stats.disk_hits == 1
        assert cached.epi == result.epi
        assert cached.il1_stats == result.il1_stats

    def test_corrupt_entry_recomputed_with_warning(
        self, chips_a, tmp_path
    ):
        """A corrupt entry is a *warned* miss, then overwritten."""
        job = _job(chips_a)
        SimulationSession(cache_dir=tmp_path).run_one(job)
        (entry,) = tmp_path.glob("gen-*/*/*.pkl")
        entry.write_bytes(b"not a pickle")
        session = SimulationSession(cache_dir=tmp_path)
        with pytest.warns(RuntimeWarning, match="corrupt result-cache"):
            session.run_one(job)
        assert session.stats.executed == 1

    def test_truncated_entry_recomputed_with_warning(
        self, chips_a, tmp_path
    ):
        """A half-written pickle (crashed writer) is also just a miss."""
        job = _job(chips_a)
        fresh = SimulationSession(cache_dir=tmp_path).run_one(job)
        (entry,) = tmp_path.glob("gen-*/*/*.pkl")
        entry.write_bytes(entry.read_bytes()[:-7])
        session = SimulationSession(cache_dir=tmp_path)
        with pytest.warns(RuntimeWarning, match="treated as a miss"):
            recomputed = session.run_one(job)
        assert session.stats.executed == 1
        assert recomputed.timing.cycles == fresh.timing.cycles

    def test_entries_use_highest_pickle_protocol(self, chips_a, tmp_path):
        """Written with HIGHEST_PROTOCOL: byte 1 carries the version."""
        import pickle
        import pickletools

        SimulationSession(cache_dir=tmp_path).run_one(_job(chips_a))
        (entry,) = tmp_path.glob("gen-*/*/*.pkl")
        payload = entry.read_bytes()
        version = next(
            arg
            for op, arg, _pos in pickletools.genops(payload)
            if op.name == "PROTO"
        )
        assert version == pickle.HIGHEST_PROTOCOL


class TestParallelDispatch:
    def test_parallel_matches_serial(self, chips_a):
        """Process-pool dispatch returns bit-identical results."""
        jobs = [
            _job(chips_a, which=which, bench=bench)
            for which in ("baseline", "proposed")
            for bench in ("adpcm_c", "adpcm_d")
        ]
        serial = SimulationSession(jobs=1).run_jobs(jobs)
        parallel = SimulationSession(jobs=2).run_jobs(jobs)
        for left, right in zip(serial, parallel):
            assert left.chip_name == right.chip_name
            assert left.epi == right.epi
            assert left.il1_stats == right.il1_stats
            assert left.dl1_stats == right.dl1_stats
            assert left.timing == right.timing
            assert list(left.energy.items()) == list(right.energy.items())


class TestCurrentSession:
    def test_default_session_exists(self):
        assert current_session() is not None

    def test_clear_memo_forces_recompute(self, chips_a):
        session = SimulationSession()
        job = _job(chips_a)
        session.run_one(job)
        session.clear_memo()
        session.run_one(job)
        assert session.stats.executed == 2

    def test_reset_default_session(self):
        from repro.engine.session import reset_default_session

        before = current_session()
        reset_default_session()
        after = current_session()
        assert after is not before
        # Restoreable invariant: still a working default.
        assert after.jobs == 1

    def test_use_session_installs_and_restores(self):
        outer = current_session()
        session = SimulationSession()
        with use_session(session):
            assert current_session() is session
        assert current_session() is outer

    def test_evaluation_goes_through_session(self, chips_a, design_a):
        """evaluate_scenario submits its batch to the current session."""
        session = SimulationSession()
        with use_session(session):
            evaluation = evaluate_scenario(
                Scenario.A,
                Mode.ULE,
                trace_length=3_000,
                chips=chips_a,
                design=design_a,
            )
        # 4 SmallBench benchmarks x 2 chips.
        assert session.stats.requested == 2 * len(evaluation.rows)
        assert session.stats.executed == 2 * len(evaluation.rows)

        # A repeated evaluation is served entirely from the memo.
        with use_session(session):
            evaluate_scenario(
                Scenario.A,
                Mode.ULE,
                trace_length=3_000,
                chips=chips_a,
                design=design_a,
            )
        assert session.stats.executed == 2 * len(evaluation.rows)
        assert session.stats.memo_hits == 2 * len(evaluation.rows)


class TestProgressReporting:
    def test_progress_counts_executed_jobs(self, chips_a):
        session = SimulationSession()
        seen = []
        jobs = [
            _job(chips_a, bench=bench)
            for bench in ("adpcm_c", "adpcm_d", "epic_c")
        ]
        session.run_jobs(jobs, progress=lambda d, t: seen.append((d, t)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_progress_skips_cached_jobs(self, chips_a):
        session = SimulationSession()
        session.run_jobs([_job(chips_a)])
        seen = []
        session.run_jobs(
            [_job(chips_a), _job(chips_a, bench="epic_c")],
            progress=lambda d, t: seen.append((d, t)),
        )
        # Only the genuinely new job executes (total excludes the memo
        # hit), so progress reflects real work.
        assert seen == [(1, 1)]

    def test_parallel_progress_reaches_total(self, chips_a):
        with SimulationSession(jobs=2) as session:
            seen = []
            jobs = [
                _job(chips_a, bench=bench, length=2_000)
                for bench in ("adpcm_c", "adpcm_d", "epic_c", "epic_d")
            ]
            results = session.run_jobs(
                jobs, progress=lambda d, t: seen.append((d, t))
            )
        assert len(results) == 4
        assert seen[-1] == (4, 4)
        assert [d for d, _ in seen] == [1, 2, 3, 4]


class TestReplacementPolicyPlumbing:
    def test_replacement_feeds_job_identity(self, chips_a):
        from dataclasses import replace

        base = _job(chips_a)
        plru_cache = replace(chips_a.baseline.config.il1,
                             replacement="plru")
        plru_chip = replace(
            chips_a.baseline.config, il1=plru_cache, dl1=plru_cache
        )
        changed = SimulationJob(
            chip=plru_chip, trace=base.trace, mode=base.mode
        )
        assert job_key(changed) != job_key(base)

    def test_non_lru_chip_runs_via_auto_backend(self, chips_a):
        from dataclasses import replace

        from repro.engine.jobs import execute_job

        plru_cache = replace(chips_a.baseline.config.il1,
                             replacement="plru")
        plru_chip = replace(
            chips_a.baseline.config, il1=plru_cache, dl1=plru_cache
        )
        result = execute_job(
            SimulationJob(
                chip=plru_chip,
                trace=TraceSpec("adpcm_c", 2_000, 42),
                mode=Mode.ULE,
            )
        )
        lru = execute_job(
            SimulationJob(
                chip=chips_a.baseline.config,
                trace=TraceSpec("adpcm_c", 2_000, 42),
                mode=Mode.ULE,
            )
        )
        assert result.timing.instructions == lru.timing.instructions
        # A single powered ULE way leaves no replacement freedom, so
        # the counters must agree with LRU — the policy only changes
        # which simulator runs.
        assert result.il1_stats.misses == lru.il1_stats.misses
