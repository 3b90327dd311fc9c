"""The EPI evaluation pipeline behind the paper's Figures 3 and 4.

For one scenario and one operating mode, every benchmark of the mode's
suite is run on the baseline chip and on the proposed chip; results are
reported as EPI ratios and per-category breakdowns normalized to the
baseline — exactly the presentation of the paper's figures.

All runs are submitted as one batch through the simulation engine's
session (:mod:`repro.engine.session`), which deduplicates shared work,
memoizes results and — when the session is configured with ``jobs > 1``
— dispatches the independent (chip, benchmark) jobs across processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.core import calibration
from repro.core.architect import ScenarioChips, build_chips
from repro.core.methodology import DesignResult, design_scenario
from repro.core.scenarios import Scenario
from repro.cpu.chip import RunResult
from repro.cpu.trace import Trace
from repro.engine.jobs import SimulationJob, TraceSpec
from repro.engine.session import SimulationSession, current_session
from repro.tech.operating import Mode
from repro.util.tables import Table
from repro.workloads.mediabench import (
    BenchmarkSpec,
    benchmark_by_name,
    generate_trace,
)
from repro.workloads.suites import suite_for_mode


@dataclass(frozen=True)
class BenchmarkComparison:
    """Baseline vs proposed on one benchmark."""

    benchmark: str
    baseline: RunResult
    proposed: RunResult

    @property
    def epi_ratio(self) -> float:
        """Proposed EPI / baseline EPI (lower is better)."""
        return self.proposed.epi / self.baseline.epi

    @property
    def epi_saving(self) -> float:
        """Fractional EPI saving of the proposal."""
        return 1.0 - self.epi_ratio

    @property
    def exec_time_ratio(self) -> float:
        """Proposed cycles / baseline cycles."""
        return self.proposed.timing.cycles / self.baseline.timing.cycles

    def normalized_breakdown(self) -> dict[str, float]:
        """Proposed energy categories, normalized to the baseline total."""
        base_total = self.baseline.energy.total
        return {
            name: value / base_total
            for name, value in self.proposed.energy.categories().items()
        }

    def baseline_breakdown(self) -> dict[str, float]:
        """Baseline energy categories, normalized to the baseline total."""
        base_total = self.baseline.energy.total
        return {
            name: value / base_total
            for name, value in self.baseline.energy.categories().items()
        }


@dataclass(frozen=True)
class ScenarioEvaluation:
    """All benchmark comparisons of one (scenario, mode) experiment."""

    scenario: Scenario
    mode: Mode
    design: DesignResult
    rows: tuple[BenchmarkComparison, ...]

    @property
    def average_epi_ratio(self) -> float:
        """Arithmetic-mean EPI ratio over benchmarks (the paper's bar)."""
        return sum(r.epi_ratio for r in self.rows) / len(self.rows)

    @property
    def average_epi_saving(self) -> float:
        """Average fractional EPI saving."""
        return 1.0 - self.average_epi_ratio

    @property
    def average_exec_time_ratio(self) -> float:
        """Average execution-time ratio (proposed / baseline)."""
        return sum(r.exec_time_ratio for r in self.rows) / len(self.rows)

    def render(self) -> str:
        """ASCII table in the spirit of the paper's figure."""
        table = Table(
            [
                "benchmark",
                "EPI ratio",
                "saving %",
                "exec ratio",
                "il1 dyn",
                "dl1 dyn",
                "l1 leak",
                "edc",
                "core",
            ],
            title=(
                f"Scenario {self.scenario.value} @ {self.mode} — "
                "normalized EPI (baseline = 1.0)"
            ),
        )
        for row in self.rows:
            breakdown = row.normalized_breakdown()
            table.add_row(
                [
                    row.benchmark,
                    row.epi_ratio,
                    100.0 * row.epi_saving,
                    row.exec_time_ratio,
                    breakdown["il1 dynamic"],
                    breakdown["dl1 dynamic"],
                    breakdown["l1 leakage"],
                    breakdown["edc"],
                    breakdown["core"],
                ]
            )
        table.add_separator()
        table.add_row(
            [
                "average",
                self.average_epi_ratio,
                100.0 * self.average_epi_saving,
                self.average_exec_time_ratio,
                "",
                "",
                "",
                "",
                "",
            ]
        )
        return table.render()


@lru_cache(maxsize=None)
def cached_design(scenario: Scenario) -> DesignResult:
    """The memoized paper-default design of a scenario."""
    return design_scenario(scenario)


@lru_cache(maxsize=None)
def cached_chips(scenario: Scenario) -> ScenarioChips:
    """The memoized paper-default chips of a scenario."""
    return build_chips(cached_design(scenario))


def _trace_handle(
    spec: BenchmarkSpec, trace_length: int, seed: int
) -> TraceSpec | Trace:
    """A job-ready trace reference for one benchmark.

    Registered benchmarks travel as symbolic :class:`TraceSpec`\\ s (so
    worker processes regenerate — and memoize — them locally); ad-hoc
    specs are generated here and embedded in the job.
    """
    try:
        registered = benchmark_by_name(spec.name) is spec
    except ValueError:
        registered = False
    if registered:
        return TraceSpec(spec.name, trace_length, seed)
    return generate_trace(spec, length=trace_length, seed=seed)


def evaluate_scenario(
    scenario: Scenario,
    mode: Mode,
    benchmarks: tuple[BenchmarkSpec, ...] | None = None,
    trace_length: int = calibration.DEFAULT_TRACE_LENGTH,
    seed: int = calibration.DEFAULT_SEED,
    chips: ScenarioChips | None = None,
    design: DesignResult | None = None,
    operating_point=None,
    session: SimulationSession | None = None,
) -> ScenarioEvaluation:
    """Run the paper's comparison for one scenario at one mode.

    Defaults follow the paper: SmallBench at ULE mode, BigBench at HP
    mode, the designed 7+1 8 KB caches at the published operating points;
    ``operating_point`` overrides the latter (used by the Vcc ablation).

    All (chip, benchmark) runs are submitted as one batch through
    ``session`` (default: the current engine session).  Note that jobs
    carry the chips' *configurations*: workers rebuild ``Chip`` objects
    from config, so everything that shapes the results must live in the
    ``ChipConfig`` — per-instance mutations of a passed ``chips`` pair
    (or ``Chip`` subclass overrides) do not travel.  Sessions also
    memoize results by job content across calls; after changing model
    behaviour at runtime (monkeypatching), clear the session
    (``session.clear_memo()`` /
    :func:`repro.engine.session.reset_default_session`).
    """
    design = design or cached_design(scenario)
    chips = chips or (
        cached_chips(scenario) if design is cached_design(scenario)
        else build_chips(design)
    )
    benchmarks = benchmarks or suite_for_mode(mode)
    session = session or current_session()

    jobs = []
    for spec in benchmarks:
        handle = _trace_handle(spec, trace_length, seed)
        for chip in chips.pair():
            jobs.append(
                SimulationJob(
                    chip=chip.config,
                    trace=handle,
                    mode=mode,
                    operating_point=operating_point,
                )
            )
    results = session.run_jobs(jobs)

    rows = []
    for position, spec in enumerate(benchmarks):
        baseline, proposed = results[2 * position], results[2 * position + 1]
        rows.append(
            BenchmarkComparison(
                benchmark=spec.name, baseline=baseline, proposed=proposed
            )
        )
    return ScenarioEvaluation(
        scenario=scenario, mode=mode, design=design, rows=tuple(rows)
    )
