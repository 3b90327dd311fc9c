"""Job orchestration: batched, parallel, memoized simulation.

A :class:`SimulationSession` is the front door of the engine: callers
submit batches of :class:`SimulationJob`\\ s and the session

* **deduplicates** identical jobs within and across batches (the same
  (chip, trace, mode, operating point) never simulates twice),
* **dispatches** independent jobs across worker processes with
  :class:`concurrent.futures.ProcessPoolExecutor` when ``jobs > 1``, in
  same-trace chunks: a :class:`~repro.engine.jobs.TraceSpec` is
  regenerated in the worker, an inline trace is pickled with its chunk,
* **memoizes** results in a :class:`~repro.engine.store.ResultCache`:
  in memory and, optionally, in the content-hash-keyed on-disk store
  (:func:`repro.engine.store.generation_store`) across invocations.

A module-global *current session* (default: serial, in-process, no disk
cache) lets the evaluation pipeline batch through the engine without
threading a session argument through every driver; the CLI installs a
configured session via :func:`use_session`.
"""

from __future__ import annotations

import os
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    as_completed,
)
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro.cpu.chip import RunResult
from repro.engine.batch import (
    execute_group,
    group_by_trace,
    partition_for_dispatch,
)
from repro.engine.jobs import SimulationJob, job_key
from repro.engine.store import MEMO, ResultCache, generation_store


@dataclass
class SessionStats:
    """Where each requested job's result came from."""

    executed: int = 0
    memo_hits: int = 0
    disk_hits: int = 0
    deduplicated: int = 0

    @property
    def requested(self) -> int:
        """Total jobs requested through the session."""
        return (
            self.executed
            + self.memo_hits
            + self.disk_hits
            + self.deduplicated
        )


class SimulationSession:
    """Batched job execution with dedup, process dispatch and memoization.

    Parameters
    ----------
    jobs : int
        Worker processes for independent jobs (1 = in-process).
    cache_dir : path-like, optional
        Enable the content-hash-keyed on-disk result store rooted
        here (:func:`repro.engine.store.generation_store`), shared
        with other sessions and ``repro serve --cache-dir``.  Entries
        survive across invocations; any package source edit orphans
        them automatically (see ``docs/architecture.md``, "The
        job-key/caching contract").

    Notes
    -----
    Execution is *trace-grouped*: pending jobs sharing a trace run as
    one group through :func:`repro.engine.batch.execute_group`, which
    hoists the trace's decode/sort/run-collapse into a shared
    :class:`~repro.engine.plan.StreamPlan` and memoizes identical
    functional simulations across the group's jobs.  Results — and job
    keys — are bit-identical to per-job execution; only the wall clock
    changes.

    Examples
    --------
    Run two chips on the same trace in one deduplicated batch::

        from repro.core import Scenario, build_chips, design_scenario
        from repro.engine import (SimulationJob, SimulationSession,
                                  TraceSpec)
        from repro.tech.operating import Mode

        chips = build_chips(design_scenario(Scenario.A))
        with SimulationSession(jobs=4) as session:
            baseline, proposed = session.run_jobs([
                SimulationJob(chip=chips.baseline.config,
                              trace=TraceSpec("adpcm_c", 50_000, 2013),
                              mode=Mode.ULE),
                SimulationJob(chip=chips.proposed.config,
                              trace=TraceSpec("adpcm_c", 50_000, 2013),
                              mode=Mode.ULE),
            ])
        print(1 - proposed.epi / baseline.epi)   # ~0.42 (paper: 42 %)

    Install a session as the ambient one so drivers batch through it
    implicitly::

        from repro.engine.session import use_session

        with SimulationSession(jobs=4) as session, use_session(session):
            ...  # evaluate_scenario / experiments / ScheduleSimulator

    ``session.stats`` reports where each requested job's result came
    from (executed / memo / disk / deduplicated).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str | os.PathLike | None = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        self.stats = SessionStats()
        self._pool: ProcessPoolExecutor | None = None
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.results = ResultCache(
            generation_store(cache_dir) if cache_dir is not None else None
        )

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def clear_memo(self) -> None:
        """Drop all in-memory memoized results.

        Memoization keys capture the job *content* (config, trace, mode,
        operating point) plus the on-disk package sources — not runtime
        state.  Code that changes model behaviour at runtime (e.g.
        monkeypatching an energy component in a test) must clear the
        session it submits through, or use a fresh session.
        """
        self.results = ResultCache(self.results.store)

    def __enter__(self) -> "SimulationSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------- simulation jobs
    def run_jobs(
        self,
        jobs: Sequence[SimulationJob],
        progress: Callable[[int, int], None] | None = None,
    ) -> list[RunResult]:
        """Run a batch, returning results in submission order.

        Within the batch, duplicate jobs execute once; results already
        known to the in-memory memo or the disk cache are not re-run.
        ``progress(done, total)`` — when given — is invoked from the
        driving process as executed jobs complete (``total`` counts only
        the jobs that actually execute, after dedup and cache hits), so
        campaign-scale batches can report without touching the workers.
        """
        keys = [job_key(job) for job in jobs]
        # Batch-local, so a batch larger than the cache's memo bound
        # still returns every result.
        found: dict[str, RunResult] = {}
        pending: dict[str, SimulationJob] = {}
        for key, job in zip(keys, jobs):
            if key in pending:
                self.stats.deduplicated += 1
            elif (hit := self.results.get(key)) is None:
                pending[key] = job
            else:
                found[key], source = hit
                if source == MEMO:
                    self.stats.memo_hits += 1
                else:
                    self.stats.disk_hits += 1
        if pending:
            results = self._execute(list(pending.values()), progress)
            for key, result in zip(pending, results):
                self.results.put(key, result)
                found[key] = result
            self.stats.executed += len(pending)
        return [found[key] for key in keys]

    def run_one(self, job: SimulationJob) -> RunResult:
        """Run a single job through the batching machinery."""
        return self.run_jobs([job])[0]

    def _execute(
        self,
        jobs: Sequence[SimulationJob],
        progress: Callable[[int, int], None] | None = None,
    ) -> list[RunResult]:
        total = len(jobs)
        results: list[RunResult | None] = [None] * total
        done = 0

        def _advance(_result: RunResult) -> None:
            nonlocal done
            done += 1
            if progress is not None:
                progress(done, total)

        if self.jobs > 1 and total > 1:
            # Same-trace jobs travel as groups so workers share each
            # trace's plan and functional-simulation memo.  A chunk is
            # pickled in one call, so an inline trace its jobs share
            # ships once per chunk.
            chunks = partition_for_dispatch(jobs, self.jobs)
            for retry in (False, True):
                # The pool lives for the session: workers keep their
                # chip/trace memos warm across batches (e.g. the per-Vdd
                # evaluations of an ablation) instead of re-deriving them.
                if self._pool is None:
                    self._pool = ProcessPoolExecutor(max_workers=self.jobs)
                try:
                    futures = {
                        self._pool.submit(
                            execute_group, [jobs[index] for index in chunk]
                        ): chunk
                        for chunk in chunks
                        if results[chunk[0]] is None
                    }
                    for future in as_completed(futures):
                        chunk = futures[future]
                        for index, result in zip(chunk, future.result()):
                            results[index] = result
                            _advance(result)
                    return results
                except BrokenExecutor:
                    # One dead worker (OOM kill, segfault) breaks the
                    # whole pool: drop it, and re-run the chunks still
                    # without results once, in a fresh pool.
                    self.close()
                    if retry:
                        raise
        # Serial: groups run in-process.
        for group in group_by_trace(jobs):
            group_results = execute_group(
                [jobs[index] for index in group],
                on_result=_advance,
            )
            for index, result in zip(group, group_results):
                results[index] = result
        return results


# ------------------------------------------------------- current session
#: Fallback session: serial, in-process, memory memo only.
_DEFAULT_SESSION = SimulationSession()
_CURRENT: SimulationSession | None = None


def current_session() -> SimulationSession:
    """The session the evaluation pipeline submits through."""
    if _CURRENT is not None:
        return _CURRENT
    return _DEFAULT_SESSION


def reset_default_session() -> None:
    """Replace the process-global fallback session with a fresh one.

    Use after runtime model changes (monkeypatching, hot reloads) that
    would make the default session's memoized results stale.
    """
    global _DEFAULT_SESSION
    _DEFAULT_SESSION.close()
    _DEFAULT_SESSION = SimulationSession()


@contextmanager
def use_session(session: SimulationSession) -> Iterator[SimulationSession]:
    """Install ``session`` as the current session for the block."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = session
    try:
        yield session
    finally:
        _CURRENT = previous
