"""Trace-grouped batch execution: shared plans + memoized functional sims.

The sweeps this reproduction exists for (Vdd/EDC design spaces, die
populations, runtime schedules) submit hundreds of jobs that differ in
chip/mode/operating-point/fault-map terms but share a handful of traces.
Per job, the expensive work splits into

* **trace-dependent precomputation** — decode, per-set sort, run
  collapse (:mod:`repro.engine.plan`) — identical for every job on the
  same stream and geometry;
* **functional simulation** — identical for every job whose geometry,
  powered ways, group names, fault map and transient behaviour
  coincide, however much their operating points, bitcells and schemes
  (and therefore energy ledgers) differ;
* **reduction** — timing + energy accounting, cheap and per-job.

This module exploits both redundancies without forking the execution
path: :func:`execute_group` runs each job through the ordinary
:meth:`repro.cpu.chip.Chip.run`, injecting a
:class:`_SharedTraceContext` wrapper as its ``simulate=`` seam.  The
wrapper adds a per-(stream, geometry) :class:`~repro.engine.plan.
StreamPlan` cache and a content-keyed memo of finished
:class:`~repro.cache.stats.CacheStats` in front of the regular
:func:`repro.engine.backends.simulate_cache` — all downstream code is
shared with the per-job path, which is what makes the batched results
bit-identical (enforced by ``tests/engine/test_batch_equivalence.py``).
"""

from __future__ import annotations

import copy
from typing import Callable, Sequence

from repro.cpu.chip import RunResult
from repro.engine import backends
from repro.engine.jobs import SimulationJob, _trace_token, chip_for, trace_for
from repro.engine.plan import build_stream_plan, geometry_key
from repro.util.profiling import phase


def _isolated(stats):
    """A mutation-isolated copy of a functional-simulation result.

    :class:`~repro.cache.stats.CacheStats` rebuilds itself in flat
    Python (``clone``) far cheaper than ``copy.deepcopy``'s recursive
    walk — the difference dominated the ``batch.kernel`` profile on
    memo-heavy sweeps.  Anything else (a monkeypatched seam returning
    a stand-in) falls back to the general deep copy.
    """
    clone = getattr(stats, "clone", None)
    if clone is not None:
        return clone()
    return copy.deepcopy(stats)


def group_by_trace(jobs: Sequence[SimulationJob]) -> list[list[int]]:
    """Partition job indices into same-trace groups.

    Groups are keyed by the job-key trace token (so equal-content
    inline traces group together) and returned in first-occurrence
    order — the property the session relies on to keep batched
    execution deterministic.
    """
    by_token: dict[str, list[int]] = {}
    groups: list[list[int]] = []
    for index, job in enumerate(jobs):
        token = _trace_token(job.trace)
        group = by_token.get(token)
        if group is None:
            by_token[token] = group = []
            groups.append(group)
        group.append(index)
    return groups


def partition_for_dispatch(
    jobs: Sequence[SimulationJob], workers: int
) -> list[list[int]]:
    """Same-trace groups, split so every worker process gets work.

    A group executes as a unit (that is what buys the plan/memo
    sharing), so one giant group would serialize a parallel session.
    Large groups are deterministically chunked to roughly
    ``2 * workers`` pieces across the batch — small enough to balance,
    large enough that each chunk still amortizes its plan builds.
    """
    groups = group_by_trace(jobs)
    if workers <= 1:
        return groups
    limit = max(4, -(-len(jobs) // (workers * 2)))
    chunks: list[list[int]] = []
    for group in groups:
        for start in range(0, len(group), limit):
            chunks.append(group[start : start + limit])
    return chunks


def _functional_key(config, mode) -> tuple:
    """What one functional simulation reads from a cache config.

    The decode geometry, the mode's way mask and each way's group name
    fix every counter the simulators produce: bitcells, protection
    schemes, supply and the configuration's name never change a hit or
    a miss.  (Transient injection reads more of the config; the
    sampler's :attr:`~repro.transients.sampling.TransientSampler.
    content_token` covers that part.)
    """
    return (
        geometry_key(config),
        tuple(config.active_way_mask(mode)),
        tuple(
            group.name
            for group in config.way_groups
            for _way in range(group.ways)
        ),
    )


class _SharedTraceContext:
    """Plan cache + functional-simulation memo for one trace group.

    Installed as :meth:`repro.cpu.chip.Chip.run`'s ``simulate=`` seam,
    so it sees exactly the calls the per-job path would make — same
    signature, same arguments — and answers them bit-identically:

    * a :class:`~repro.engine.plan.StreamPlan` is built once per
      (stream identity, geometry) and handed to every vectorized
      simulation of the group;
    * finished :class:`~repro.cache.stats.CacheStats` are memoized by
      what the simulation reads — stream identity,
      :func:`_functional_key` (geometry, the mode's way mask, per-way
      group names), policy, seed, disabled lines and the transient
      sampler's :attr:`~repro.transients.sampling.TransientSampler.
      content_token` (which covers the config-derived inputs the
      sampler reads) — so jobs differing only in energy terms (a Vdd
      sweep's operating points, the ULE cell, scheme or supply of a
      design-space sweep) simulate once.  Hits return cheap
      :meth:`~repro.cache.stats.CacheStats.clone` copies (flat-counter
      rebuilds, not ``copy.deepcopy`` walks): results stay
      mutation-isolated per job, exactly as if each had simulated
      itself, and a memo hit costs microseconds — the ``batch.memo``
      phase under ``--profile`` makes that visible next to
      ``batch.kernel``.

    Scoped to one group on purpose: nothing outlives the batch, so
    runtime model changes (monkeypatching in tests, hot reloads) can
    never be served stale functional results across batches.
    """

    def __init__(self) -> None:
        self._plans: dict[tuple, object] = {}
        self._memo: dict[tuple, object] = {}
        # Pin the streams behind the id()-based keys: a recycled id
        # must not alias a dead stream's plan or results.
        self._pins: dict[tuple, object] = {}

    def simulate(
        self,
        config,
        mode,
        addresses,
        is_write=None,
        policy="lru",
        seed: int = 0,
        disabled_lines: tuple[tuple[int, int], ...] = (),
        transients=None,
    ):
        """Drop-in for :func:`repro.engine.backends.simulate_cache`."""
        stream = (
            id(addresses),
            id(is_write) if is_write is not None else None,
        )
        self._pins.setdefault(stream, (addresses, is_write))
        memo_key = None
        if isinstance(policy, str):
            # Policy *instances* may carry state; only named policies
            # are safely memoizable by content.
            memo_key = (
                stream,
                _functional_key(config, mode),
                policy.lower(),
                seed,
                tuple(disabled_lines),
                (
                    transients.content_token
                    if transients is not None
                    else None
                ),
            )
            hit = self._memo.get(memo_key)
            if hit is not None:
                with phase("batch.memo"):
                    return _isolated(hit)
        plan = None
        if backends.vectorizable(policy) and len(addresses):
            plan_key = (stream, geometry_key(config))
            plan = self._plans.get(plan_key)
            if plan is None:
                plan = build_stream_plan(config, addresses, is_write)
                self._plans[plan_key] = plan
        stats = backends.simulate_cache(
            config,
            mode,
            addresses,
            is_write,
            policy=policy,
            seed=seed,
            disabled_lines=disabled_lines,
            transients=transients,
            plan=plan,
        )
        if memo_key is not None:
            self._memo[memo_key] = _isolated(stats)
        return stats


def execute_group(
    jobs: Sequence[SimulationJob],
    on_result: Callable[[RunResult], None] | None = None,
) -> list[RunResult]:
    """Run one same-trace job group with shared precomputation.

    Module-level and picklable-by-reference: this is the unit the
    session submits to worker processes.  The trace resolves once
    (inline, or from the per-process spec memo), then every job runs
    through the ordinary :meth:`~repro.cpu.chip.Chip.run` with the
    group's :class:`_SharedTraceContext` as its simulation seam.

    ``on_result`` — when given — fires after each job (serial sessions
    use it for per-job progress reporting).
    """
    results: list[RunResult] = []
    if not jobs:
        return results
    trace = trace_for(jobs[0].trace)
    context = _SharedTraceContext()
    for job in jobs:
        chip = chip_for(job.chip)
        with phase("jobs.execute"):
            result = chip.run(
                trace,
                job.mode,
                operating_point=job.operating_point,
                fault_map=job.fault_map,
                transients=job.transients,
                simulate=context.simulate,
            )
        results.append(result)
        if on_result is not None:
            on_result(result)
    return results
