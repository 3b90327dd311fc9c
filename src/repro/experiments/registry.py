"""Experiment registry: ids -> drivers (see DESIGN.md section 4).

:func:`run_experiments` runs a batch of them through one
:class:`~repro.engine.session.SimulationSession`, fanning whole
experiments out to worker processes when the session has ``jobs > 1``.
"""

from __future__ import annotations

import inspect
import os
import tempfile
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from pathlib import Path

from repro.engine.session import SimulationSession, use_session
from repro.experiments.ablations import (
    run_cache_size_ablation,
    run_memory_latency_ablation,
    run_vdd_ablation,
    run_way_split_ablation,
)
from repro.experiments.area_table import run_area
from repro.experiments.edc_table import run_edc_table
from repro.experiments.epi_figures import run_fig3, run_fig4
from repro.experiments.exec_time import run_exec_time
from repro.experiments.methodology_table import run_methodology
from repro.experiments.modeswitch_table import run_modeswitch
from repro.experiments.policy_sweep import run_policy_sweep
from repro.experiments.population_study import run_population
from repro.experiments.reliability_check import run_reliability
from repro.experiments.report import ExperimentResult
from repro.experiments.sustain import run_cells_sweep, run_sustain
from repro.experiments.sweeps import (
    run_edc_sweep,
    run_space_sweep,
    run_surrogate_sweep,
)
from repro.experiments.transients_table import run_transients
from repro.experiments.wcet_table import run_wcet

_REGISTRY: dict[str, Callable[..., ExperimentResult]] = {
    "fig3": run_fig3,
    "fig4": run_fig4,
    "tab-sizing": run_methodology,
    "tab-area": run_area,
    "tab-exectime": run_exec_time,
    "tab-reliability": run_reliability,
    "tab-edc": run_edc_table,
    "tab-wcet": run_wcet,
    "tab-modeswitch": run_modeswitch,
    "ablation-ways": run_way_split_ablation,
    "ablation-memlat": run_memory_latency_ablation,
    "ablation-cachesize": run_cache_size_ablation,
    "ablation-vdd": run_vdd_ablation,
    "population": run_population,
    "transients": run_transients,
    "sweep-space": run_space_sweep,
    "sweep-edc": run_edc_sweep,
    "sweep-surrogate": run_surrogate_sweep,
    "sweep-policy": run_policy_sweep,
    "sweep-cells": run_cells_sweep,
    "sustain": run_sustain,
}


def list_experiments() -> list[str]:
    """All registered experiment ids."""
    return sorted(_REGISTRY)


def experiment_parameters(experiment_id: str) -> frozenset[str]:
    """Keyword parameters the experiment's driver accepts.

    The CLI uses this to forward only applicable options (e.g.
    ``--trace-length``) instead of maintaining a per-experiment
    allowlist that drifts as drivers are added.
    """
    try:
        driver = _REGISTRY[experiment_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {list_experiments()}"
        ) from None
    return frozenset(inspect.signature(driver).parameters)


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run one experiment by id; kwargs pass through to its driver."""
    try:
        driver = _REGISTRY[experiment_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {list_experiments()}"
        ) from None
    return driver(**kwargs)


def run_experiments(
    session: SimulationSession,
    experiment_ids: Sequence[str],
    kwargs_by_id: Mapping[str, dict] | None = None,
    on_result: Callable[[str, ExperimentResult], None] | None = None,
) -> dict[str, ExperimentResult]:
    """Run registry experiments, in parallel when ``session.jobs > 1``.

    ``on_result`` is invoked as each experiment finishes (completion
    order under parallel dispatch) — callers use it to persist reports
    incrementally, so one failing experiment does not discard the
    others' finished work.

    Each experiment runs in its own worker with a serial inner session
    using ``session``'s disk cache, so process counts stay
    bounded by ``session.jobs`` whatever the drivers submit internally,
    while results are still shared across experiments (and
    invocations) through the disk cache.  The serial path runs under
    ``session`` itself, sharing the in-memory memo too.
    """
    kwargs_by_id = dict(kwargs_by_id or {})
    if session.jobs > 1 and len(experiment_ids) > 1:
        # Workers are separate processes: the in-memory memo cannot be
        # shared, so cross-experiment result sharing goes through a
        # disk cache — the configured one, or a scratch directory for
        # the duration of the batch.
        scratch: tempfile.TemporaryDirectory | None = None
        if session.cache_dir is not None:
            cache_dir: Path | None = session.cache_dir
        else:
            scratch = tempfile.TemporaryDirectory(prefix="repro-engine-")
            cache_dir = Path(scratch.name)
        items = [
            (
                experiment_id,
                kwargs_by_id.get(experiment_id, {}),
                cache_dir,
            )
            for experiment_id in experiment_ids
        ]
        results: dict[str, ExperimentResult] = {}
        first_error: BaseException | None = None
        try:
            workers = min(session.jobs, len(items))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_execute_experiment, item) for item in items
                ]
                # Drain every future: one failing experiment must not
                # discard the others' finished results (they are
                # streamed to on_result); re-raise afterwards.
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

    results = {}
    with use_session(session):
        for experiment_id in experiment_ids:
            result = run_experiment(
                experiment_id, **kwargs_by_id.get(experiment_id, {})
            )
            results[experiment_id] = result
            if on_result is not None:
                on_result(experiment_id, result)
    return results


def _execute_experiment(
    item: tuple[str, dict, os.PathLike | None]
) -> tuple[str, ExperimentResult]:
    """Worker: run one registry experiment under a serial session."""
    experiment_id, kwargs, cache_dir = item
    session = SimulationSession(jobs=1, cache_dir=cache_dir)
    with use_session(session):
        return experiment_id, run_experiment(experiment_id, **kwargs)
