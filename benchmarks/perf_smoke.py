#!/usr/bin/env python3
"""Performance smoke test: simulator and batching speedups, gated.

Two experiments, both writing into ``BENCH_engine.json`` at the repo
root so future PRs can track the trajectory:

A third, separately invoked experiment (``--surrogate``) gates the
surrogate-guided exploration loop and writes ``BENCH_surrogate.json``:
the surrogate campaign must recover at least
``MIN_SURROGATE_HV_RATIO`` of the exhaustive campaign's frontier
hypervolume while submitting at most ``MAX_SURROGATE_JOBS_RATIO`` of
its jobs, bit-identically between serial and ``jobs=4`` sessions.

* **fig3 single-evaluation** — the 12 (chip, benchmark) jobs of one
  fig3-style evaluation (scenario A at HP mode — the heaviest
  per-access workload: BigBench on all eight ways), each run alone
  through ``execute_job`` (the vectorized engine, which the engine
  picks for these LRU chips) vs ``Chip.run``'s default simulator (the
  behavioural reference model), checked to render the same evaluation
  (``speedup``).  No session runs them, so no job shares a simulation
  with another and the ratio compares the two simulators on the same
  work.
* **design-space sweep** — ``SWEEP_CANDIDATES`` ULE operating points
  evaluated over the shared ULE traces on one chip config, the shape
  the paper's Vdd/EDC design-space exploration submits.  The
  mega-batched session path (trace-grouped plan reuse + functional-
  simulation memoization) is timed against (a) a per-job vectorized
  loop (``batch_vs_perjob``) and (b) the behavioural reference model,
  extrapolated from one fully-timed candidate — re-running all
  candidates through the per-access reference model would take minutes
  for no extra information (``sweep_speedup``).  Batched results are
  checked bit-identical to the per-job results.

Gates, all exiting non-zero on failure so CI catches regressions:

* absolute floors — ``MIN_SPEEDUP`` on the fig3 speedup,
  ``MIN_SWEEP_SPEEDUP`` on the sweep-vs-reference speedup and
  ``MIN_BATCH_VS_PERJOB`` on the batched-vs-per-job ratio;
* a relative gate (``--check-against BASELINE.json``) — no fresh
  metric may drop more than ``REGRESSION_TOLERANCE`` below the
  checked-in baseline's.  The baseline is read *before* the fresh
  record overwrites it, so CI can check against the committed file in
  place.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py
    PYTHONPATH=src python benchmarks/perf_smoke.py \
        --check-against BENCH_engine.json
    PYTHONPATH=src python benchmarks/perf_smoke.py --surrogate \
        --check-against BENCH_surrogate.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Callable

from repro.core.calibration import DEFAULT_SEED
from repro.core.evaluation import (
    BenchmarkComparison,
    ScenarioEvaluation,
    cached_chips,
    cached_design,
)
from repro.core.scenarios import Scenario
from repro.cpu.chip import RunResult
from repro.engine.jobs import (
    SimulationJob,
    TraceSpec,
    chip_for,
    execute_job,
    trace_for,
)
from repro.engine.session import SimulationSession
from repro.tech.operating import Mode, OperatingPoint
from repro.workloads.suites import suite_for_mode

#: Floor on the end-to-end evaluation speedup (observed ~20x).
MIN_SPEEDUP = 5.0

#: Floor on the batched sweep vs the reference model (observed
#: several hundred x: the reference walks every access per candidate,
#: the batched path simulates each (trace, config) once per sweep).
MIN_SWEEP_SPEEDUP = 100.0

#: Floor on the batched sweep vs a per-job vectorized loop (the
#: pre-batching engine fast path).
MIN_BATCH_VS_PERJOB = 3.0

#: Allowed fractional drop below the checked-in baseline's metrics
#: before the relative gate fails (shared-runner noise tolerance).
REGRESSION_TOLERANCE = 0.30

#: Dynamic instructions per benchmark; big enough to dominate setup.
TRACE_LENGTH = 60_000

#: Operating-point candidates in the sweep experiment.
SWEEP_CANDIDATES = 50

#: Dynamic instructions per benchmark in the sweep experiment.
SWEEP_TRACE_LENGTH = 60_000

#: The ULE-suite traces every sweep candidate shares.
SWEEP_BENCHMARKS = ("adpcm_c", "adpcm_d", "epic_c", "epic_d")

#: Floor on the surrogate frontier's hypervolume as a fraction of the
#: exhaustive frontier's (observed 0.97-1.00 across seeds).
MIN_SURROGATE_HV_RATIO = 0.95

#: Ceiling on the surrogate campaign's submitted jobs as a fraction of
#: the exhaustive campaign's (the budget is a third of the space, so
#: the observed ratio sits at or below 1/3 exactly).
MAX_SURROGATE_JOBS_RATIO = 1.0 / 3.0

#: Candidate budget of the surrogate benchmark's halton sample.
SURROGATE_SAMPLES = 90

#: Dynamic instructions per benchmark in the surrogate benchmark.
SURROGATE_TRACE_LENGTH = 4_000

#: Quiet rounds before the surrogate benchmark's loop may stop early
#: (more patient than the library default: the gate prizes frontier
#: recovery over squeezing out the last few simulations).
SURROGATE_PATIENCE = 3

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_engine.json"
)

SURROGATE_RESULT_PATH = RESULT_PATH.parent / "BENCH_surrogate.json"


def _reference_run(job: SimulationJob) -> RunResult:
    """Run one job on ``Chip.run``'s default, the behavioural model."""
    return chip_for(job.chip).run(
        trace_for(job.trace), job.mode, operating_point=job.operating_point
    )


def _timed_evaluation(
    run: Callable[[SimulationJob], RunResult], trace_length: int
) -> tuple[float, ScenarioEvaluation]:
    """Wall-clock the jobs of one fig3 evaluation, one at a time.

    ``run`` executes one job (``execute_job`` or :func:`_reference_run`).
    Returns the seconds spent in it and the evaluation its results
    make.  Traces are generated (and memoized per process) inside the
    first timed run.
    """
    benchmarks = suite_for_mode(Mode.HP)
    chips = cached_chips(Scenario.A).pair()
    jobs = [
        SimulationJob(
            chip=chip.config,
            trace=TraceSpec(spec.name, trace_length, DEFAULT_SEED),
            mode=Mode.HP,
        )
        for spec in benchmarks
        for chip in chips
    ]
    start = time.perf_counter()
    results = [run(job) for job in jobs]
    seconds = time.perf_counter() - start
    rows = tuple(
        BenchmarkComparison(
            benchmark=spec.name,
            baseline=results[2 * position],
            proposed=results[2 * position + 1],
        )
        for position, spec in enumerate(benchmarks)
    )
    return seconds, ScenarioEvaluation(
        scenario=Scenario.A,
        mode=Mode.HP,
        design=cached_design(Scenario.A),
        rows=rows,
    )


def _run_results_equal(left, right) -> bool:
    return (
        left.il1_stats == right.il1_stats
        and left.dl1_stats == right.dl1_stats
        and left.timing == right.timing
        and list(left.energy.items()) == list(right.energy.items())
    )


def _sweep_jobs(
    trace_length: int, candidates: int
) -> list[SimulationJob]:
    """The sweep workload: ULE Vdd candidates × shared ULE traces."""
    config = cached_chips(Scenario.A).proposed.config
    step = 0.10 / max(candidates - 1, 1)
    points = [
        OperatingPoint(
            mode=Mode.ULE, vdd=0.35 + index * step, frequency=5e6
        )
        for index in range(candidates)
    ]
    return [
        SimulationJob(
            chip=config,
            trace=TraceSpec(benchmark, trace_length, 2013),
            mode=Mode.ULE,
            operating_point=point,
        )
        for point in points
        for benchmark in SWEEP_BENCHMARKS
    ]


def _timed_sweep(trace_length: int, candidates: int) -> dict:
    """Measure the mega-batched sweep path against both comparators.

    Returns the sweep metric fields of the benchmark record.  The
    reference-model time is measured on one candidate's jobs and
    extrapolated linearly — the reference model has no cross-candidate
    sharing, so its sweep cost is exactly per-candidate cost times the
    candidate count.
    """
    jobs = _sweep_jobs(trace_length, candidates)
    per_candidate = len(SWEEP_BENCHMARKS)

    # Warmup run: traces generate into the per-process memo, which does
    # not belong in the timed comparison (every comparator gets warm
    # traces).
    SimulationSession().run_jobs(jobs)

    start = time.perf_counter()
    with SimulationSession() as session:
        batched = session.run_jobs(jobs)
    batched_seconds = time.perf_counter() - start

    start = time.perf_counter()
    perjob = [execute_job(job) for job in jobs]
    perjob_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for job in jobs[:per_candidate]:
        _reference_run(job)
    reference_candidate_seconds = time.perf_counter() - start
    reference_seconds = reference_candidate_seconds * candidates

    identical = all(
        _run_results_equal(left, right)
        for left, right in zip(batched, perjob)
    )
    return {
        "sweep_candidates": candidates,
        "sweep_trace_length": trace_length,
        "sweep_jobs": len(jobs),
        "sweep_batched_seconds": round(batched_seconds, 4),
        "sweep_perjob_seconds": round(perjob_seconds, 4),
        "sweep_reference_seconds_extrapolated": round(
            reference_seconds, 4
        ),
        "sweep_speedup": round(reference_seconds / batched_seconds, 2),
        "batch_vs_perjob": round(perjob_seconds / batched_seconds, 2),
        "min_sweep_speedup": MIN_SWEEP_SPEEDUP,
        "min_batch_vs_perjob": MIN_BATCH_VS_PERJOB,
        "sweep_identical": identical,
    }


def _surrogate_record(
    seed: int, samples: int, trace_length: int
) -> dict:
    """Measure the surrogate loop head-to-head with the exhaustive run.

    Both campaigns expand the same halton sample of the default space.
    The surrogate runs first in a fresh serial session, the exhaustive
    comparator in its own fresh session (no shared memo — its cost is
    the honest price the surrogate avoids), and a second surrogate run
    under ``jobs=4`` checks the serial-vs-parallel byte-identity
    contract.  Frontier quality is the surrogate frontier's
    hypervolume over the exhaustive frontier's, both scored against
    one reference derived from the exhaustive observations.
    """
    from repro.explore import (
        ExplorationCampaign,
        SurrogateSettings,
        default_space,
    )
    from repro.explore.frontier import hypervolume, reference_point

    campaign = ExplorationCampaign(
        space=default_space(),
        sampler="halton",
        samples=samples,
        trace_length=trace_length,
        seed=seed,
    )
    total = len(campaign.expand()[0])
    settings = SurrogateSettings(
        budget=total // 3, patience=SURROGATE_PATIENCE
    )

    start = time.perf_counter()
    with SimulationSession() as session:
        surrogate = campaign.run_surrogate(
            session=session, settings=settings
        )
    surrogate_seconds = time.perf_counter() - start

    start = time.perf_counter()
    with SimulationSession() as session:
        exhaustive = campaign.run(session=session)
    exhaustive_seconds = time.perf_counter() - start

    with SimulationSession(jobs=4) as session:
        parallel = campaign.run_surrogate(
            session=session, settings=settings
        )
    identical = json.dumps(
        surrogate.to_dict(), sort_keys=True
    ) == json.dumps(parallel.to_dict(), sort_keys=True)

    objectives = exhaustive.objectives
    reference = reference_point(
        [outcome.metrics for outcome in exhaustive.outcomes],
        objectives,
    )
    hv_exhaustive = hypervolume(
        [outcome.metrics for outcome in exhaustive.frontier()],
        objectives,
        reference,
    )
    hv_surrogate = hypervolume(
        [outcome.metrics for outcome in surrogate.frontier()],
        objectives,
        reference,
    )
    hv_ratio = (
        hv_surrogate / hv_exhaustive if hv_exhaustive else 1.0
    )
    return {
        "experiment": (
            "surrogate-guided sweep vs exhaustive campaign "
            "(default space, halton sample)"
        ),
        "seed": seed,
        "surrogate_samples": samples,
        "surrogate_trace_length": trace_length,
        "candidates_total": surrogate.candidates_total,
        "candidates_simulated": len(surrogate.campaign.outcomes),
        "budget": surrogate.budget,
        "rounds": len(surrogate.rounds),
        "converged": surrogate.converged,
        "jobs_submitted": surrogate.jobs_submitted,
        "jobs_executed": surrogate.jobs_executed,
        "exhaustive_jobs": surrogate.exhaustive_jobs,
        "surrogate_jobs_ratio": round(surrogate.jobs_ratio, 4),
        "surrogate_hv_ratio": round(hv_ratio, 4),
        "surrogate_seconds": round(surrogate_seconds, 4),
        "exhaustive_seconds": round(exhaustive_seconds, 4),
        "max_surrogate_jobs_ratio": round(
            MAX_SURROGATE_JOBS_RATIO, 4
        ),
        "min_surrogate_hv_ratio": MIN_SURROGATE_HV_RATIO,
        "surrogate_identical": identical,
    }


def _surrogate_main(
    args: argparse.Namespace, baseline: dict | None
) -> int:
    """The ``--surrogate`` experiment: measure, write, gate."""
    record = _surrogate_record(
        args.seed, args.surrogate_samples, args.surrogate_trace_length
    )
    args.out.write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(record, indent=2))
    print(f"wrote {args.out}")

    if not record["surrogate_identical"]:
        print(
            "FAIL: surrogate campaign diverged between serial and "
            "jobs=4 sessions",
            file=sys.stderr,
        )
        return 1
    if record["surrogate_hv_ratio"] < MIN_SURROGATE_HV_RATIO:
        print(
            f"FAIL: surrogate_hv_ratio "
            f"{record['surrogate_hv_ratio']:.3f} below floor "
            f"{MIN_SURROGATE_HV_RATIO}",
            file=sys.stderr,
        )
        return 1
    # Guard against rounding right at the boundary: the budget is
    # total // 3, so anything beyond a hair over 1/3 is a real leak.
    if record["surrogate_jobs_ratio"] > MAX_SURROGATE_JOBS_RATIO + 1e-9:
        print(
            f"FAIL: surrogate_jobs_ratio "
            f"{record['surrogate_jobs_ratio']:.3f} above ceiling "
            f"{MAX_SURROGATE_JOBS_RATIO:.4f}",
            file=sys.stderr,
        )
        return 1

    if baseline is not None:
        for field in ("surrogate_samples", "surrogate_trace_length"):
            if not _comparable(baseline, record, field):
                print(
                    f"FAIL: baseline measured at {field} "
                    f"{baseline[field]}, this run at {record[field]}; "
                    "the regression gate needs comparable runs",
                    file=sys.stderr,
                )
                return 1
        raw = baseline.get("surrogate_hv_ratio")
        if not isinstance(raw, (int, float)) or raw <= 0:
            print(
                f"FAIL: baseline {args.check_against} has no usable "
                f"'surrogate_hv_ratio' value ({raw!r})",
                file=sys.stderr,
            )
            return 1
        floor = float(raw) * (1.0 - REGRESSION_TOLERANCE)
        if record["surrogate_hv_ratio"] < floor:
            print(
                f"FAIL: surrogate_hv_ratio "
                f"{record['surrogate_hv_ratio']:.3f} regressed more "
                f"than {REGRESSION_TOLERANCE:.0%} below the baseline "
                f"{float(raw):.3f} (floor {floor:.3f})",
                file=sys.stderr,
            )
            return 1
        print(
            f"OK: surrogate_hv_ratio within "
            f"{REGRESSION_TOLERANCE:.0%} of baseline {float(raw):.3f}"
        )
    print(
        f"OK: surrogate recovered "
        f"{record['surrogate_hv_ratio']:.1%} of the exhaustive "
        f"frontier's hypervolume (floor {MIN_SURROGATE_HV_RATIO:.0%}) "
        f"with {record['surrogate_jobs_ratio']:.1%} of its jobs "
        f"(ceiling {MAX_SURROGATE_JOBS_RATIO:.1%})"
    )
    return 0


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="engine performance smoke test"
    )
    parser.add_argument(
        "--check-against", type=pathlib.Path, default=None,
        help=(
            "baseline BENCH_engine.json (BENCH_surrogate.json with "
            "--surrogate); fail if any fresh metric drops more than "
            f"{REGRESSION_TOLERANCE * 100:.0f}%% below its baseline value"
        ),
    )
    parser.add_argument(
        "--trace-length", type=int, default=TRACE_LENGTH,
        help=f"instructions per benchmark (default: {TRACE_LENGTH})",
    )
    parser.add_argument(
        "--sweep-candidates", type=int, default=SWEEP_CANDIDATES,
        help=(
            "operating-point candidates in the sweep experiment "
            f"(default: {SWEEP_CANDIDATES})"
        ),
    )
    parser.add_argument(
        "--sweep-trace-length", type=int, default=SWEEP_TRACE_LENGTH,
        help=(
            "instructions per benchmark in the sweep experiment "
            f"(default: {SWEEP_TRACE_LENGTH})"
        ),
    )
    parser.add_argument(
        "--surrogate", action="store_true",
        help=(
            "run the surrogate-exploration benchmark instead of the "
            "engine benchmarks (writes BENCH_surrogate.json)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=2013,
        help="root seed of the surrogate benchmark (default: 2013)",
    )
    parser.add_argument(
        "--surrogate-samples", type=int, default=SURROGATE_SAMPLES,
        help=(
            "halton sample budget of the surrogate benchmark "
            f"(default: {SURROGATE_SAMPLES})"
        ),
    )
    parser.add_argument(
        "--surrogate-trace-length", type=int,
        default=SURROGATE_TRACE_LENGTH,
        help=(
            "instructions per benchmark in the surrogate benchmark "
            f"(default: {SURROGATE_TRACE_LENGTH})"
        ),
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help=(
            "where to write the fresh record (default: "
            "BENCH_engine.json, or BENCH_surrogate.json with "
            "--surrogate, at the repo root)"
        ),
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = (
            SURROGATE_RESULT_PATH if args.surrogate else RESULT_PATH
        )
    return args


def _comparable(baseline: dict, record: dict, field: str) -> bool:
    """Whether the baseline's workload field matches this run's."""
    value = baseline.get(field)
    return value is None or value == record[field]


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)

    baseline = None
    if args.check_against is not None:
        # Read before writing: the baseline path is usually the same
        # checked-in file the fresh record overwrites below.
        try:
            baseline = json.loads(
                args.check_against.read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError) as error:
            print(
                f"FAIL: cannot read baseline {args.check_against}: "
                f"{error}",
                file=sys.stderr,
            )
            return 1

    if args.surrogate:
        return _surrogate_main(args, baseline)

    cached_chips(Scenario.A)  # design + chip construction out of the timing

    # Vectorized first: it pays trace generation cold while the
    # reference run inherits the memoized traces — conservative for the
    # reported speedup.
    vectorized_seconds, vectorized = _timed_evaluation(
        execute_job, args.trace_length
    )
    reference_seconds, reference = _timed_evaluation(
        _reference_run, args.trace_length
    )

    if reference.render() != vectorized.render():
        print("FAIL: simulators rendered different tables", file=sys.stderr)
        return 1

    sweep = _timed_sweep(args.sweep_trace_length, args.sweep_candidates)

    speedup = reference_seconds / vectorized_seconds
    record = {
        "experiment": (
            "fig3 evaluation jobs, one at a time (scenario A, HP, "
            "BigBench)"
        ),
        "trace_length": args.trace_length,
        "benchmarks": len(reference.rows),
        "reference_seconds": round(reference_seconds, 4),
        "vectorized_seconds": round(vectorized_seconds, 4),
        "speedup": round(speedup, 2),
        "min_speedup": MIN_SPEEDUP,
        "identical_render": True,
        "sweep_experiment": (
            "ULE Vdd design-space sweep (scenario A, shared traces)"
        ),
        **sweep,
    }
    args.out.write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(record, indent=2))
    print(f"wrote {args.out}")

    if not sweep["sweep_identical"]:
        print(
            "FAIL: batched sweep diverged from per-job results",
            file=sys.stderr,
        )
        return 1

    floors = (
        ("speedup", record["speedup"], MIN_SPEEDUP),
        ("sweep_speedup", sweep["sweep_speedup"], MIN_SWEEP_SPEEDUP),
        (
            "batch_vs_perjob",
            sweep["batch_vs_perjob"],
            MIN_BATCH_VS_PERJOB,
        ),
    )
    for name, fresh, floor in floors:
        if fresh < floor:
            print(
                f"FAIL: {name} {fresh:.1f}x below floor {floor}x",
                file=sys.stderr,
            )
            return 1

    if baseline is not None:
        for field in (
            "trace_length",
            "sweep_candidates",
            "sweep_trace_length",
        ):
            if not _comparable(baseline, record, field):
                # Speedups scale with the workload (setup amortization,
                # sharing degree); gating across workloads is noise.
                print(
                    f"FAIL: baseline measured at {field} "
                    f"{baseline[field]}, this run at {record[field]}; "
                    "the regression gate needs comparable runs",
                    file=sys.stderr,
                )
                return 1
        for name, fresh, _floor in floors:
            raw = baseline.get(name)
            if not isinstance(raw, (int, float)) or raw <= 0:
                # A gate that cannot fire is worse than no gate: a
                # baseline without a positive metric must fail loudly,
                # not set the floor to zero.
                print(
                    f"FAIL: baseline {args.check_against} has no "
                    f"usable {name!r} value ({raw!r})",
                    file=sys.stderr,
                )
                return 1
            reference_metric = float(raw)
            floor = reference_metric * (1.0 - REGRESSION_TOLERANCE)
            if fresh < floor:
                print(
                    f"FAIL: {name} {fresh:.1f}x regressed more than "
                    f"{REGRESSION_TOLERANCE:.0%} below the baseline "
                    f"{reference_metric:.1f}x (floor {floor:.1f}x)",
                    file=sys.stderr,
                )
                return 1
            print(
                f"OK: {name} within {REGRESSION_TOLERANCE:.0%} of "
                f"baseline {reference_metric:.1f}x"
            )
    print(f"OK: vectorized engine {speedup:.1f}x faster (floor "
          f"{MIN_SPEEDUP}x)")
    print(
        f"OK: batched sweep {sweep['sweep_speedup']:.1f}x over the "
        f"reference (floor {MIN_SWEEP_SPEEDUP}x), "
        f"{sweep['batch_vs_perjob']:.1f}x over per-job (floor "
        f"{MIN_BATCH_VS_PERJOB}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
