"""Experiment orchestration: batched, parallel, memoized simulation.

A :class:`SimulationSession` is the front door of the engine: callers
submit batches of :class:`SimulationJob`\\ s (or whole experiment ids) and
the session

* **deduplicates** identical jobs within and across batches (the same
  (chip, trace, mode, operating point) never simulates twice),
* **dispatches** independent jobs across worker processes with
  :class:`concurrent.futures.ProcessPoolExecutor` when ``jobs > 1``,
* **memoizes** results in memory and, optionally, in the content-hash-keyed
  on-disk store (:func:`repro.engine.store.generation_store`) that
  survives across invocations.

A module-global *current session* (default: serial, in-process, no disk
cache) lets the evaluation pipeline batch through the engine without
threading a session argument through every driver; the CLI installs a
configured session via :func:`use_session`.
"""

from __future__ import annotations

import os
import tempfile
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterator,
    Mapping,
    Sequence,
)

from repro.cpu.chip import RunResult
from repro.cpu.trace import Trace
from repro.engine.backends import BACKENDS
from repro.engine.batch import (
    execute_group,
    group_by_trace,
    partition_for_dispatch,
    strip_traces,
)
from repro.engine.jobs import SimulationJob, job_key, resolve_source
from repro.engine.store import generation_store
from repro.workloads.store import TraceStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.report import ExperimentResult


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

    def snapshot(self) -> "SessionStats":
        """A frozen copy of the counters at this instant.

        Pair with :meth:`since` to attribute work to a phase of a
        larger computation — the surrogate exploration loop snapshots
        around every acquisition round to report jobs simulated per
        round without owning the session.
        """
        return SessionStats(
            executed=self.executed,
            memo_hits=self.memo_hits,
            disk_hits=self.disk_hits,
            deduplicated=self.deduplicated,
        )

    def since(self, earlier: "SessionStats") -> "SessionStats":
        """The counter deltas accumulated after ``earlier``.

        ``earlier`` must be a snapshot of this same monotonically
        growing history (counters never decrease), so every delta is
        non-negative.
        """
        return SessionStats(
            executed=self.executed - earlier.executed,
            memo_hits=self.memo_hits - earlier.memo_hits,
            disk_hits=self.disk_hits - earlier.disk_hits,
            deduplicated=self.deduplicated - earlier.deduplicated,
        )


class SimulationSession:
    """Batched job execution with dedup, process dispatch and memoization.

    Parameters
    ----------
    jobs : int
        Worker processes for independent jobs (1 = in-process).
    backend : {"auto", "vectorized", "reference"}
        Default simulation backend for submitted jobs (all backends
        are bit-identical; "auto" picks the vectorized fast path where
        it applies).
    cache_dir : path-like, optional
        Enable the content-hash-keyed on-disk result store rooted
        here (:func:`repro.engine.store.generation_store`), shared
        with other sessions and ``repro serve --cache-dir``.  Entries
        survive across invocations; any package source edit orphans
        them automatically (see ``docs/architecture.md``, "The
        job-key/caching contract").
    trace_store : path-like, optional
        Root of the content-addressed mmap trace store used to ship
        inline traces to worker processes by digest instead of
        pickling their arrays (see :mod:`repro.workloads.store`).
        Defaults to ``$REPRO_TRACE_STORE`` or a per-user temp
        directory.

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
        backend: str = "auto",
        cache_dir: str | os.PathLike | None = None,
        trace_store: str | os.PathLike | None = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; known: {list(BACKENDS)}"
            )
        self.jobs = jobs
        self.backend = backend
        self.stats = SessionStats()
        self._memo: dict[str, RunResult] = {}
        self._pool: ProcessPoolExecutor | None = None
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._store = (
            generation_store(cache_dir) if cache_dir is not None else None
        )
        self._trace_store_root = trace_store
        self._trace_store: TraceStore | None = None

    @property
    def trace_store(self) -> TraceStore:
        """The session's trace store (created lazily)."""
        if self._trace_store is None:
            self._trace_store = TraceStore(self._trace_store_root)
        return self._trace_store

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
        self._memo.clear()

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
        # Normalize workload sources up front: a TraceSource collapses
        # to its job payload (TraceSpec for synthetic, inline Trace for
        # ingested/mix), so the dedup/dispatch pipeline below — and the
        # pool's pickling — only ever sees plain trace values.
        jobs = [
            job
            if job.trace is (resolved := resolve_source(job.trace))
            else replace(job, trace=resolved)
            for job in jobs
        ]
        keys = [job_key(job) for job in jobs]
        pending: dict[str, SimulationJob] = {}
        for key, job in zip(keys, jobs):
            if key in self._memo:
                self.stats.memo_hits += 1
                continue
            if key in pending:
                self.stats.deduplicated += 1
                continue
            if self._store is not None:
                cached = self._store.get(key)
                if cached is not None:
                    self._memo[key] = cached
                    self.stats.disk_hits += 1
                    continue
            pending[key] = job
        if pending:
            results = self._execute(list(pending.values()), progress)
            for key, result in zip(pending, results):
                self._memo[key] = result
                if self._store is not None:
                    self._store.put(key, result)
            self.stats.executed += len(pending)
        return [self._memo[key] for key in keys]

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
            # The pool lives for the session: workers keep their
            # chip/trace memos warm across batches (e.g. the per-Vdd
            # evaluations of an ablation) instead of re-deriving them.
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            # Same-trace jobs travel as groups so workers share each
            # trace's plan and functional-simulation memo; inline
            # traces are swapped for content-addressed store refs so
            # the pool never pickles trace arrays.
            chunks = partition_for_dispatch(jobs, self.jobs)
            dispatch: Sequence[SimulationJob] = jobs
            store_root = self._trace_store_root
            if any(isinstance(job.trace, Trace) for job in jobs):
                store = self.trace_store
                dispatch = strip_traces(jobs, store)
                store_root = store.root
            futures = {
                self._pool.submit(
                    execute_group,
                    [dispatch[index] for index in chunk],
                    backend=self.backend,
                    store_root=store_root,
                ): chunk
                for chunk in chunks
            }
            for future in as_completed(futures):
                for index, result in zip(futures[future], future.result()):
                    results[index] = result
                    _advance(result)
            return results
        # Serial: groups run in-process; traces stay inline (the store
        # only earns its keep across a process boundary).
        for group in group_by_trace(jobs):
            group_results = execute_group(
                [jobs[index] for index in group],
                backend=self.backend,
                store_root=self._trace_store_root,
                on_result=_advance,
            )
            for index, result in zip(group, group_results):
                results[index] = result
        return results

    # ------------------------------------------------- experiment batches
    def run_experiments(
        self,
        experiment_ids: Sequence[str],
        kwargs_by_id: Mapping[str, dict] | None = None,
        on_result: Callable[[str, "ExperimentResult"], None] | None = None,
    ) -> dict[str, "ExperimentResult"]:
        """Run registry experiments, in parallel when ``jobs > 1``.

        ``on_result`` is invoked as each experiment finishes (completion
        order under parallel dispatch) — callers use it to persist
        reports incrementally, so one failing experiment does not
        discard the others' finished work.

        Each experiment runs in its own worker with a serial inner
        session using this session's backend and disk cache, so process
        counts stay bounded by ``jobs`` whatever the drivers submit
        internally, while results are still shared across experiments
        (and invocations) through the disk cache.  The serial path runs
        under this session itself, sharing the in-memory memo too.
        """
        kwargs_by_id = dict(kwargs_by_id or {})
        if self.jobs > 1 and len(experiment_ids) > 1:
            # Workers are separate processes: the in-memory memo cannot
            # be shared, so cross-experiment result sharing goes through
            # a disk cache — the configured one, or a scratch directory
            # for the duration of the batch.
            scratch: tempfile.TemporaryDirectory | None = None
            if self._cache_dir is not None:
                cache_dir: Path | None = self._cache_dir
            else:
                scratch = tempfile.TemporaryDirectory(
                    prefix="repro-engine-"
                )
                cache_dir = Path(scratch.name)
            items = [
                (
                    experiment_id,
                    kwargs_by_id.get(experiment_id, {}),
                    self.backend,
                    cache_dir,
                )
                for experiment_id in experiment_ids
            ]
            results: dict[str, "ExperimentResult"] = {}
            first_error: BaseException | None = None
            try:
                workers = min(self.jobs, len(items))
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = [
                        pool.submit(_execute_experiment, item)
                        for item in items
                    ]
                    # Drain every future: one failing experiment must
                    # not discard the others' finished results (they
                    # are streamed to on_result); re-raise afterwards.
                    for future in as_completed(futures):
                        try:
                            experiment_id, result = future.result()
                        except BaseException as error:
                            if first_error is None:
                                first_error = error
                            continue
                        results[experiment_id] = result
                        if on_result is not None:
                            on_result(experiment_id, result)
            finally:
                if scratch is not None:
                    scratch.cleanup()
            if first_error is not None:
                raise first_error
            return results

        from repro.experiments.registry import run_experiment

        results = {}
        with use_session(self):
            for experiment_id in experiment_ids:
                result = run_experiment(
                    experiment_id, **kwargs_by_id.get(experiment_id, {})
                )
                results[experiment_id] = result
                if on_result is not None:
                    on_result(experiment_id, result)
        return results


def _execute_experiment(
    item: tuple[str, dict, str, os.PathLike | None]
) -> tuple[str, "ExperimentResult"]:
    """Worker: run one registry experiment under a serial session."""
    experiment_id, kwargs, backend, cache_dir = item
    from repro.experiments.registry import run_experiment

    session = SimulationSession(
        jobs=1, backend=backend, cache_dir=cache_dir
    )
    with use_session(session):
        return experiment_id, run_experiment(experiment_id, **kwargs)


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
