"""Jobs built from trace sources: keys, dedup and dispatch.

A source hands the engine its :meth:`job_trace` — a
:class:`~repro.workloads.mediabench.TraceSpec` or an inline trace —
and the engine never sees the source itself.  Pinned here: a job
built from a source gets the *same* key as the plain job it abstracts,
the spec's token text survives its move into ``repro.workloads``, and
source jobs survive serial and parallel sessions with bit-identical
results.
"""

import pytest

import repro.workloads.mediabench as mediabench
from repro.engine.jobs import (
    SimulationJob,
    TraceSpec,
    _trace_token,
    execute_job,
    job_key,
)
from repro.engine.session import SimulationSession
from repro.tech.operating import Mode
from repro.workloads.mediabench import benchmark_by_name
from repro.workloads.source import SyntheticSource
from repro.workloads.suites import MIX_SUITES, suite_by_name


def _source():
    return SyntheticSource(benchmark_by_name("adpcm_c"), 2000, 2013)


def _mix():
    from repro.workloads.source import as_sources

    (source,) = as_sources((MIX_SUITES["mix1"],), length=1500, seed=3)
    return source


class TestSourceJobKeys:
    def test_trace_spec_token_is_pinned(self):
        """Every synthetic job key hashes this text: moving the class
        into ``repro.workloads`` must not change it."""
        assert TraceSpec is mediabench.TraceSpec
        assert _trace_token(TraceSpec("adpcm_c", 2000, 2013)) == (
            "TraceSpec(benchmark='adpcm_c', length=2000, seed=2013)"
        )

    def test_source_job_key_equals_plain_spec_job_key(self, chips_a):
        """The dedup contract: a source job and the plain job it
        abstracts must land in one cache slot."""
        plain = SimulationJob(
            chip=chips_a.proposed.config,
            trace=TraceSpec("adpcm_c", 2000, 2013),
            mode=Mode.ULE,
        )
        sourced = SimulationJob(
            chip=chips_a.proposed.config,
            trace=_source().job_trace(),
            mode=Mode.ULE,
        )
        assert job_key(sourced) == job_key(plain)

    def test_mix_job_key_is_stable_across_rebuilds(self, chips_a):
        keys = {
            job_key(
                SimulationJob(
                    chip=chips_a.proposed.config,
                    trace=_mix().job_trace(),
                    mode=Mode.ULE,
                )
            )
            for _ in range(2)
        }
        assert len(keys) == 1


class TestSourceSessionEquivalence:
    def _jobs(self, chips):
        return [
            SimulationJob(
                chip=chips.proposed.config,
                trace=source.job_trace(),
                mode=mode,
            )
            for source in (_source(), _mix())
            for mode in (Mode.ULE, Mode.HP)
        ]

    def test_serial_matches_direct_execution(self, chips_a):
        jobs = self._jobs(chips_a)
        expected = [execute_job(job) for job in jobs]
        with SimulationSession() as session:
            got = session.run_jobs(jobs)
        for left, right in zip(expected, got):
            assert list(left.energy.items()) == list(right.energy.items())
            assert left.timing == right.timing

    def test_parallel_matches_serial(self, chips_a):
        jobs = self._jobs(chips_a)
        with SimulationSession() as session:
            serial = session.run_jobs(jobs)
        with SimulationSession(jobs=2) as session:
            parallel = session.run_jobs(jobs)
        for left, right in zip(serial, parallel):
            assert list(left.energy.items()) == list(right.energy.items())
            assert left.il1_stats == right.il1_stats
            assert left.dl1_stats == right.dl1_stats


class TestMixSuiteLookup:
    def test_mix_suite_resolves_to_one_mix_spec(self):
        suite = suite_by_name("mix1", Mode.ULE)
        assert len(suite) == 1
        assert suite[0] is MIX_SUITES["mix1"]

    def test_unknown_suite_lists_mixes(self):
        with pytest.raises(ValueError, match="mix1"):
            suite_by_name("bogus", Mode.ULE)
