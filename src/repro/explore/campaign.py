"""Exploration campaigns: expand a space, simulate, reduce, rank.

An :class:`ExplorationCampaign` turns a :class:`~repro.explore.space.
DesignSpace` into candidate chips (:mod:`repro.explore.candidates`),
submits the full cross product of (candidate x benchmark x mode) through
the simulation engine's session **in one batch** — so shared work
deduplicates, the disk cache keys every point, and ``jobs > 1`` fans the
independent runs across processes — and reduces the results into:

* per-candidate metrics (EPI and seconds-per-instruction at both modes,
  cache area, ULE-way yield);
* the Pareto frontier over the campaign objectives;
* per-axis sensitivity tables;
* a ranked, render-ready report.

The reduction is pure arithmetic over deterministic simulation results,
so a campaign renders byte-identically whatever the session's process
count — the property the CLI's serial-vs-parallel contract tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core import calibration
from repro.cpu.chip import RunResult, suite_mode_metrics
from repro.engine.jobs import SimulationJob
from repro.engine.session import SimulationSession, current_session
from repro.explore.candidates import (
    Candidate,
    CandidateError,
    build_candidate,
    default_space,
)
from repro.explore.features import FeatureSchema, free_metrics
from repro.explore.frontier import ConvergenceTracker, knee_index
from repro.explore.pareto import (
    DEFAULT_OBJECTIVES,
    Objective,
    pareto_indices,
    rank_rows,
    sensitivity,
)
from repro.explore.space import DesignSpace, Point
from repro.explore.surrogate import (
    DEFAULT_MEMBERS,
    DEFAULT_NEIGHBOURS,
    MetricSurrogate,
)
from repro.cells import technology_tokens
from repro.faults.maps import DieFaultMap
from repro.faults.sampling import functional_fraction, sample_population
from repro.sustainability import carbon_per_gib_year, chip_capacity_bytes
from repro.tech.operating import HP_OPERATING_POINT, Mode
from repro.transients.metrics import transient_run_metrics
from repro.transients.spec import TransientSpec
from repro.util.rng import derive_seed
from repro.util.tables import Table
from repro.workloads.source import as_sources
from repro.workloads.suites import suite_by_name

#: The across-die percentile population-aware sweeps rank by.
POPULATION_PERCENTILE = 95.0

#: Default objectives when candidates are evaluated across a die
#: population (``dies > 0``): tail behaviour replaces the nominal die.
POPULATION_OBJECTIVES = (
    Objective("epi_ule_p95"),
    Objective("spi_ule_p95"),
    Objective("area_mm2"),
    Objective("yield", maximize=True),
)

#: Objective appended (to either default set) when soft-error
#: injection is active: minimize the observed ULE DUE rate, making
#: detection-vs-correction reliability a first-class trade-off axis.
TRANSIENT_OBJECTIVE = Objective("due_fit_ule")

#: Objective appended when a campaign carries a grid carbon intensity:
#: minimize the annual operational CO2 per GiB of L1 capacity at
#: sustained ULE operation, making sustainability a ranked axis.
CARBON_OBJECTIVE = Objective("co2_per_gib_ule")

#: Metrics computed analytically per candidate — exact for *every*
#: candidate without a single simulated job, so the surrogate never
#: predicts them (see :func:`repro.explore.features.free_metrics`).
FREE_METRIC_NAMES = ("area_mm2", "yield", "ule_size_factor")


@dataclass(frozen=True)
class CandidateOutcome:
    """One candidate with its reduced metrics."""

    candidate: Candidate
    metrics: dict[str, float]

    def point_dict(self) -> Point:
        """The candidate's axis assignment as a dict."""
        return self.candidate.point_dict()


@dataclass(frozen=True)
class CampaignResult:
    """Everything one campaign produced."""

    outcomes: tuple[CandidateOutcome, ...]
    infeasible: tuple[tuple[str, str], ...]
    duplicates: int
    objectives: tuple[Objective, ...]
    trace_length: int
    seed: int
    sampler: str
    dies: int = 0
    #: Candidates whose metrics were adopted from a saved campaign
    #: (``run(reuse=...)``) instead of being simulated.
    reused: int = 0
    #: The grid carbon intensity (g CO2/kWh) the campaign priced its
    #: candidates at, or None when carbon was not assessed.
    carbon_intensity: float | None = None
    #: Sorted union of the canonical cell-technology tokens of every
    #: evaluated candidate (e.g. ``("edram-1t1c", "sram-6t")``) —
    #: saved campaigns embed it so ``--resume`` can hard-error on a
    #: technology mismatch.
    cell_technologies: tuple[str, ...] = ()

    # ------------------------------------------------------------ frontier
    def _reduction(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(frontier indices, ranked indices), computed once.

        The dominance scan is O(n^2 x objectives); outcomes are frozen,
        so the first caller pays and render/save paths share the result.
        """
        cached = self.__dict__.get("_reduction_cache")
        if cached is None:
            rows = [outcome.metrics for outcome in self.outcomes]
            frontier = tuple(pareto_indices(rows, self.objectives))
            ranked = tuple(
                rank_rows(rows, self.objectives, frontier=set(frontier))
            )
            cached = (frontier, ranked)
            object.__setattr__(self, "_reduction_cache", cached)
        return cached

    def frontier(self) -> tuple[CandidateOutcome, ...]:
        """The non-dominated candidates under the objectives."""
        return tuple(self.outcomes[i] for i in self._reduction()[0])

    def ranked(self) -> tuple[CandidateOutcome, ...]:
        """All candidates: frontier first, then by primary objective."""
        return tuple(self.outcomes[i] for i in self._reduction()[1])

    # --------------------------------------------------------- sensitivity
    def axis_sensitivity(
        self, axis: str, metric: str
    ) -> dict[object, float]:
        """Mean of ``metric`` per value of ``axis`` over the campaign."""
        rows = [outcome.metrics for outcome in self.outcomes]
        values = [
            outcome.point_dict().get(axis) for outcome in self.outcomes
        ]
        return sensitivity(rows, values, metric)

    def swept_axes(self) -> list[str]:
        """Axes that actually vary across the feasible candidates."""
        seen: dict[str, set] = {}
        for outcome in self.outcomes:
            for axis, value in outcome.candidate.point:
                seen.setdefault(axis, set()).add(value)
        return sorted(
            axis for axis, values in seen.items() if len(values) > 1
        )

    # -------------------------------------------------------------- report
    def render_report(self, top: int = 20) -> str:
        """Ranked candidates + frontier + per-axis sensitivities."""
        sections = [self._render_ranked(top), self._render_sensitivity()]
        if self.infeasible:
            sections.append(self._render_infeasible())
        return "\n\n".join(section for section in sections if section)

    def _render_ranked(self, top: int) -> str:
        frontier_names = {
            outcome.candidate.name for outcome in self.frontier()
        }
        objective_text = ", ".join(str(o) for o in self.objectives)
        populated = bool(self.outcomes) and (
            "epi_ule_p95" in self.outcomes[0].metrics
        )
        headers = [
            "rank",
            "candidate",
            "pareto",
            "EPI ULE (pJ)",
            "EPI HP (pJ)",
            "t/instr ULE (us)",
            "area (mm^2)",
            "yield",
            "ule cell",
        ]
        if populated:
            headers[3:3] = ["EPI ULE p95 (pJ)", "func frac"]
        table = Table(
            headers,
            title=(
                f"Exploration ranking — {len(self.outcomes)} candidates, "
                f"{len(frontier_names)} on the frontier "
                f"[{objective_text}]"
            ),
        )
        for rank, outcome in enumerate(self.ranked()[:top], start=1):
            metrics = outcome.metrics
            row = [
                rank,
                outcome.candidate.name,
                "*" if outcome.candidate.name in frontier_names
                else "",
                metrics["epi_ule"] * 1e12,
                metrics["epi_hp"] * 1e12,
                metrics["spi_ule"] * 1e6,
                metrics["area_mm2"],
                metrics["yield"],
                outcome.candidate.ule_design.cell.describe(),
            ]
            if populated:
                row[3:3] = [
                    metrics["epi_ule_p95"] * 1e12,
                    metrics["functional_fraction"],
                ]
            table.add_row(row)
        if len(self.outcomes) > top:
            table.add_separator()
            table.add_row(
                ["...", f"({len(self.outcomes) - top} more)"]
                + [""] * (len(headers) - 2)
            )
        return table.render()

    def _render_sensitivity(self) -> str:
        axes = self.swept_axes()
        if not axes:
            return ""
        table = Table(
            [
                "axis",
                "value",
                "mean EPI ULE (pJ)",
                "mean t/instr ULE (us)",
                "mean area (mm^2)",
                "mean yield",
            ],
            title="Per-axis sensitivity (means over the campaign)",
        )
        for axis in axes:
            epi = self.axis_sensitivity(axis, "epi_ule")
            spi = self.axis_sensitivity(axis, "spi_ule")
            area = self.axis_sensitivity(axis, "area_mm2")
            yields = self.axis_sensitivity(axis, "yield")
            for value in sorted(epi, key=_axis_value_order):
                table.add_row(
                    [
                        axis,
                        str(value),
                        epi[value] * 1e12,
                        spi[value] * 1e6,
                        area[value],
                        yields[value],
                    ]
                )
            table.add_separator()
        return table.render()

    def _render_infeasible(self) -> str:
        table = Table(
            ["point", "reason"],
            title=f"Infeasible points ({len(self.infeasible)})",
        )
        for point_text, reason in self.infeasible:
            table.add_row([point_text, reason])
        return table.render()

    # ------------------------------------------------------------- machine
    def to_dict(self) -> dict:
        """Machine-readable form (JSON-able; reloadable by the CLI)."""
        from repro.engine.jobs import _code_fingerprint

        frontier_names = [
            outcome.candidate.name for outcome in self.frontier()
        ]
        return {
            "meta": {
                # Which package sources produced these metrics: the
                # CLI's --resume compares it against the live package
                # and warns that mismatched rows will re-simulate.
                "engine_fingerprint": _code_fingerprint(),
                "trace_length": self.trace_length,
                "seed": self.seed,
                "sampler": self.sampler,
                "candidates": len(self.outcomes),
                "duplicates": self.duplicates,
                "dies": self.dies,
                "reused": self.reused,
                "carbon_intensity": self.carbon_intensity,
                "cell_technologies": list(self.cell_technologies),
            },
            "objectives": [str(o) for o in self.objectives],
            "candidates": [
                {
                    "name": outcome.candidate.name,
                    "point": {
                        key: value
                        for key, value in outcome.candidate.point
                    },
                    "metrics": outcome.metrics,
                }
                for outcome in self.outcomes
            ],
            "frontier": frontier_names,
            "infeasible": [list(entry) for entry in self.infeasible],
        }


@dataclass(frozen=True)
class SurrogateSettings:
    """Knobs of the surrogate-guided active-learning loop.

    Parameters
    ----------
    budget : int or None
        Maximum candidates to *simulate* (None = a third of the
        expanded space, rounded up — the headline "10x fewer jobs"
        envelope leaves the default well inside it).
    seed_candidates : int or None
        Size of the initial space-filling batch (None = a quarter of
        the budget, at least 8, never more than the budget).
    round_size : int or None
        Candidates simulated per acquisition round (None = an eighth
        of the budget, at least 4).
    rel_tol : float
        Relative hypervolume gain under which a round counts as quiet
        (:class:`~repro.explore.frontier.ConvergenceTracker`).
    patience : int
        Consecutive quiet rounds before the loop stops early.
    members : int
        Bootstrap members per surrogate regressor family.
    neighbours : int
        Neighbourhood size of the surrogate's kNN members.
    explore_fraction : float
        Fraction of each round reserved for pure uncertainty
        exploration (the rest exploits the predicted frontier).
    """

    budget: int | None = None
    seed_candidates: int | None = None
    round_size: int | None = None
    rel_tol: float = 1e-3
    patience: int = 2
    members: int = DEFAULT_MEMBERS
    neighbours: int = DEFAULT_NEIGHBOURS
    explore_fraction: float = 0.25

    def resolve(self, total: int) -> tuple[int, int, int]:
        """(budget, seed batch, round size) for ``total`` candidates."""
        if total < 1:
            return 0, 0, 1
        budget = (
            -(-total // 3) if self.budget is None else self.budget
        )
        budget = max(1, min(total, budget))
        seed = (
            max(8, -(-budget // 4))
            if self.seed_candidates is None
            else self.seed_candidates
        )
        seed = max(1, min(seed, budget))
        round_size = (
            max(4, -(-budget // 8))
            if self.round_size is None
            else self.round_size
        )
        return budget, seed, max(1, round_size)


@dataclass(frozen=True)
class SurrogateRound:
    """One acquisition round of a surrogate campaign."""

    #: Round number (0 = the space-filling seed batch).
    index: int
    #: Candidates simulated this round.
    selected: int
    #: Cumulative candidates with metrics after the round (simulated
    #: plus any reused from a resumed campaign).
    total_evaluated: int
    #: Jobs submitted for the round's candidates — a deterministic
    #: function of the selection, reported in the rendered table.
    submitted_jobs: int
    #: Jobs the session actually executed this round (after memo,
    #: disk-cache and dedup hits).  Honest accounting for the
    #: machine-readable dict only: it depends on how warm the ambient
    #: session's caches are, so the rendered report never shows it.
    executed_jobs: int
    #: Hypervolume of the observed rows after the round, scored
    #: against the tracker's evolving shared reference.
    hypervolume: float
    #: Relative hypervolume gain over the previous round (None for the
    #: first round, which has nothing to compare against).
    gain: float | None


@dataclass(frozen=True)
class SurrogateCampaignResult:
    """A surrogate campaign: the reduced result plus its economics."""

    #: The campaign reduction over the simulated subset — same type,
    #: same rendering, same save format as an exhaustive run.
    campaign: CampaignResult
    #: Per-round trace of the active-learning loop.
    rounds: tuple[SurrogateRound, ...]
    #: Feasible candidates in the expanded space.
    candidates_total: int
    #: The resolved simulation budget (candidates).
    budget: int
    #: Jobs the loop submitted to the session.
    jobs_submitted: int
    #: Jobs the session actually executed (after caching/dedup).
    #: Depends on ambient cache warmth, so it stays out of the
    #: rendered report (which must be reproducible across sessions).
    jobs_executed: int
    #: Jobs an exhaustive campaign over the space would have submitted.
    exhaustive_jobs: int
    #: Whether the loop stopped on frontier convergence (False =
    #: budget or space exhausted first).
    converged: bool

    @property
    def evaluated(self) -> int:
        """Candidates with metrics (simulated plus reused)."""
        return len(self.campaign.outcomes)

    @property
    def jobs_ratio(self) -> float:
        """Submitted jobs as a fraction of the exhaustive campaign."""
        return self.jobs_submitted / max(self.exhaustive_jobs, 1)

    def frontier(self) -> tuple[CandidateOutcome, ...]:
        """The non-dominated evaluated candidates."""
        return self.campaign.frontier()

    def render_report(self, top: int = 20) -> str:
        """The campaign report plus the surrogate economics section."""
        return "\n\n".join(
            [self.campaign.render_report(top), self._render_rounds()]
        )

    def _render_rounds(self) -> str:
        stop = "converged" if self.converged else "budget exhausted"
        table = Table(
            [
                "round",
                "simulated",
                "evaluated",
                "jobs",
                "hypervolume",
                "HV gain",
            ],
            title=(
                f"Surrogate exploration — {self.evaluated}/"
                f"{self.candidates_total} candidates evaluated "
                f"(budget {self.budget}, {stop})"
            ),
        )
        for entry in self.rounds:
            table.add_row(
                [
                    entry.index,
                    entry.selected,
                    entry.total_evaluated,
                    entry.submitted_jobs,
                    entry.hypervolume,
                    "" if entry.gain is None else f"{entry.gain:.2%}",
                ]
            )
        lines = [table.render()]
        lines.append(
            f"jobs: {self.jobs_submitted} submitted of "
            f"{self.exhaustive_jobs} exhaustive "
            f"({self.jobs_ratio:.1%})"
        )
        frontier = self.frontier()
        if frontier:
            knee = frontier[
                knee_index(
                    [outcome.metrics for outcome in frontier],
                    self.campaign.objectives,
                )
            ]
            lines.append(
                f"knee (best compromise): {knee.candidate.name}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """The campaign dict plus a ``surrogate`` section.

        Top-level keys stay campaign-shaped, so ``repro pareto`` and
        ``sweep --resume`` consume surrogate-saved JSON unchanged.
        """
        payload = self.campaign.to_dict()
        payload["surrogate"] = {
            "candidates_total": self.candidates_total,
            "budget": self.budget,
            "evaluated": self.evaluated,
            "jobs_submitted": self.jobs_submitted,
            "jobs_executed": self.jobs_executed,
            "exhaustive_jobs": self.exhaustive_jobs,
            "jobs_ratio": self.jobs_ratio,
            "converged": self.converged,
            "rounds": [
                {
                    "index": entry.index,
                    "selected": entry.selected,
                    "total_evaluated": entry.total_evaluated,
                    "submitted_jobs": entry.submitted_jobs,
                    "executed_jobs": entry.executed_jobs,
                    "hypervolume": entry.hypervolume,
                    "gain": entry.gain,
                }
                for entry in self.rounds
            ],
        }
        return payload


@dataclass
class ExplorationCampaign:
    """A configured sweep, ready to expand and run.

    Parameters
    ----------
    space : DesignSpace
        The design space to explore (default: the stock space around
        the paper's design point).
    sampler : {"grid", "random", "halton"}
        How points are drawn from the space.
    samples : int or None
        Point budget (None = the full constrained grid).
    trace_length : int
        Dynamic instructions per benchmark.
    seed : int
        Root seed for trace generation.  It hashes into the engine's
        job keys, so two campaigns with equal seeds share memoized and
        on-disk results.
    objectives : tuple of Objective
        Pareto objectives for the reduction.  With ``dies > 0`` the
        stock objectives upgrade to :data:`POPULATION_OBJECTIVES`
        (p95-across-die instead of nominal-die ULE metrics); an
        explicitly passed tuple is honoured as-is.
    dies : int
        Die population per candidate (0 = nominal die only).  Each
        candidate's population is sampled at its own ULE supply and its
        ULE-suite runs fan out per distinct fault map; candidates gain
        ``epi_ule_p95`` / ``spi_ule_p95`` / ``functional_fraction``
        metrics.
    transients : TransientSpec, optional
        Soft-error injection for every run (:class:`repro.transients.
        spec.TransientSpec`).  Candidates gain ``due_fit_ule`` /
        ``sdc_fit_ule`` / ``refetch_rate_ule`` metrics from their
        nominal ULE runs, and the default objectives grow a
        minimize-``due_fit_ule`` axis (:data:`TRANSIENT_OBJECTIVE`).
    carbon_intensity : float, optional
        Grid carbon intensity in g CO2/kWh (resolve profile names with
        :func:`repro.sustainability.grid_intensity`).  When set, every
        candidate gains a ``co2_per_gib_ule`` metric — annual CO2 per
        GiB of L1 capacity at sustained ULE-mode average power — and
        the default objectives grow a minimize-carbon axis
        (:data:`CARBON_OBJECTIVE`).  None (the default) leaves
        campaigns byte-identical to pre-sustainability ones.

    Examples
    --------
    Sweep the ULE supply at the paper's geometry and inspect the
    frontier::

        from repro.explore import ExplorationCampaign, default_space

        space = default_space().with_overrides(
            {"vdd_ule": (0.35, 0.4, 0.45)})
        campaign = ExplorationCampaign(
            space=space, sampler="halton", samples=50,
            trace_length=20_000)
        result = campaign.run()          # ambient engine session
        for outcome in result.frontier():
            print(outcome.candidate.name, outcome.metrics["epi_ule"])

    Pass an explicit session to parallelize and cache::

        from repro.engine import SimulationSession

        with SimulationSession(jobs=4, cache_dir=".simcache") as s:
            result = campaign.run(session=s)

    The reduction is pure arithmetic over deterministic run results:
    ``result.render_report()`` is byte-identical whatever the
    session's process count.
    """

    space: DesignSpace = field(default_factory=default_space)
    sampler: str = "grid"
    samples: int | None = None
    trace_length: int = calibration.DEFAULT_TRACE_LENGTH
    seed: int = calibration.DEFAULT_SEED
    objectives: tuple[Objective, ...] = DEFAULT_OBJECTIVES
    dies: int = 0
    transients: TransientSpec | None = None
    carbon_intensity: float | None = None

    def __post_init__(self) -> None:
        if self.dies < 0:
            raise ValueError(
                f"dies must be at least 0 (0 = nominal die), got {self.dies}"
            )

    def _transient_spec(self) -> TransientSpec | None:
        """The effective injection spec (null specs act like None)."""
        return TransientSpec.effective(self.transients)

    def _suite_sources(self, suite_name: str, mode: Mode):
        """The trace sources of one suite under this campaign's
        length/seed (memoized: mix sources materialize their
        interleaved trace once per campaign, not once per candidate).
        """
        memo = self.__dict__.setdefault("_suite_source_memo", {})
        key = (suite_name, mode)
        if key not in memo:
            memo[key] = as_sources(
                suite_by_name(suite_name, mode),
                length=self.trace_length,
                seed=self.seed,
            )
        return memo[key]

    # ---------------------------------------------------------- expansion
    def expand(self) -> tuple[list[Candidate], list[tuple[str, str]], int]:
        """Sample the space and build unique, feasible candidates.

        Returns (candidates, infeasible point/reason pairs, duplicate
        count).  Identity is the *label-stripped* hardware digest plus
        everything else that shapes the evaluation — the ULE operating
        point and the workload suite — so distinct points that realize
        identical hardware under identical runs collapse before
        simulation, while hardware-equal points at different supplies
        (whose energies differ) both survive.

        Raises ValueError when no candidate survives: a campaign over
        an empty space has nothing to rank.
        """
        candidates: list[Candidate] = []
        infeasible: list[tuple[str, str]] = []
        duplicates = 0
        seen: set[tuple[object, ...]] = set()
        for point in self.space.sample(
            sampler=self.sampler, samples=self.samples, seed=self.seed
        ):
            try:
                candidate = build_candidate(point)
            except CandidateError as error:
                infeasible.append((_point_text(point), str(error)))
                continue
            key = (
                candidate.digest,
                candidate.ule_point,
                point.get("suite", "paper"),
            )
            if key in seen:
                duplicates += 1
                continue
            seen.add(key)
            candidates.append(candidate)
        if not candidates:
            if not infeasible:
                raise ValueError(
                    "the design space admits no candidate: no point "
                    "passes its constraints"
                )
            point, reason = infeasible[0]
            raise ValueError(
                "the design space admits no candidate: all "
                f"{len(infeasible)} point(s) are infeasible, e.g. "
                f"{point}: {reason}"
            )
        return candidates, infeasible, duplicates

    # ------------------------------------------------------------- running
    def run(
        self,
        session: SimulationSession | None = None,
        progress: Callable[[int, int], None] | None = None,
        reuse: Mapping[str, Mapping[str, float]] | None = None,
    ) -> CampaignResult:
        """Simulate every candidate and reduce the campaign.

        All jobs of all candidates go through ``session.run_jobs`` as
        one batch; ``progress(done, total)`` reports executed jobs from
        the driving process.

        ``reuse`` maps candidate names to previously reduced metrics
        (the ``candidates`` entries of a saved campaign).  A candidate
        whose saved row carries every metric this campaign needs skips
        simulation and adopts the row verbatim; everything else — new
        points, rows saved under different objectives — simulates as
        usual.  Outcomes merge back in expansion order, so a resumed
        campaign renders byte-identically to a fresh one.
        """
        session = session or current_session()
        candidates, infeasible, duplicates = self.expand()

        reused: dict[int, CandidateOutcome] = {}
        fresh: list[tuple[int, Candidate]] = []
        if reuse:
            required = self._required_metrics()
            for index, candidate in enumerate(candidates):
                saved = reuse.get(candidate.name)
                if saved is not None and required <= set(saved):
                    reused[index] = CandidateOutcome(
                        candidate=candidate,
                        metrics={
                            key: float(value)
                            for key, value in saved.items()
                        },
                    )
                else:
                    fresh.append((index, candidate))
        else:
            fresh = list(enumerate(candidates))

        evaluated = self._evaluate_candidates(
            [candidate for _, candidate in fresh], session, progress
        )
        merged: dict[int, CandidateOutcome] = dict(reused)
        for (index, _), outcome in zip(fresh, evaluated):
            merged[index] = outcome
        return CampaignResult(
            outcomes=tuple(
                merged[index] for index in sorted(merged)
            ),
            infeasible=tuple(infeasible),
            duplicates=duplicates,
            objectives=self._effective_objectives(),
            trace_length=self.trace_length,
            seed=self.seed,
            sampler=self.sampler,
            dies=self.dies,
            reused=len(reused),
            carbon_intensity=self.carbon_intensity,
            cell_technologies=self._technology_union(candidates),
        )

    def _required_metrics(self) -> set[str]:
        """Metric keys a saved row must carry to stand in for a run."""
        required = {"epi_ule", "epi_hp", "spi_ule", "spi_hp",
                    "area_mm2", "yield", "ule_size_factor"}
        required |= {o.metric for o in self._effective_objectives()}
        if self.dies:
            required |= {
                "epi_ule_p95", "spi_ule_p95", "functional_fraction"
            }
        return required

    def _evaluate_candidates(
        self,
        candidates: Sequence[Candidate],
        session: SimulationSession,
        progress: Callable[[int, int], None] | None = None,
    ) -> list[CandidateOutcome]:
        """Simulate a candidate subset: one ``run_jobs`` batch, reduce.

        The shared workhorse of :meth:`run` (all candidates at once)
        and :meth:`run_surrogate` (one acquisition round at a time) —
        both paths execute and reduce identically, which is what makes
        a surrogate campaign's per-candidate metrics byte-equal to the
        exhaustive campaign's.
        """
        jobs: list[SimulationJob] = []
        spans: list[
            tuple[Candidate, int, int, int, tuple[DieFaultMap, ...]]
        ] = []
        for candidate in candidates:
            start = len(jobs)
            jobs.extend(self._jobs_for(candidate))
            die_start = len(jobs)
            die_maps: tuple[DieFaultMap, ...] = ()
            if self.dies:
                die_maps = self._die_maps_for(candidate)
                for die_map in die_maps:
                    jobs.extend(self._die_jobs_for(candidate, die_map))
            spans.append(
                (candidate, start, die_start, len(jobs), die_maps)
            )

        results = session.run_jobs(jobs, progress=progress)

        outcomes = []
        for candidate, start, die_start, stop, die_maps in spans:
            metrics = self._reduce(candidate, results[start:die_start])
            if die_maps:
                metrics.update(
                    self._reduce_population(
                        die_maps, results[die_start:stop]
                    )
                )
            outcomes.append(
                CandidateOutcome(candidate=candidate, metrics=metrics)
            )
        return outcomes

    def jobs_per_candidate(self, candidate: Candidate) -> int:
        """How many jobs :meth:`run` would submit for one candidate.

        Counted arithmetically — suite sizes plus ``dies`` fan-out —
        without sampling fault maps, so the surrogate report can state
        the exhaustive-campaign job count it avoided paying.
        """
        suite_name = str(candidate.point_dict().get("suite", "paper"))
        ule = len(self._suite_sources(suite_name, Mode.ULE))
        hp = len(self._suite_sources(suite_name, Mode.HP))
        return ule + hp + self.dies * ule

    def _effective_objectives(self) -> tuple[Objective, ...]:
        """Population sweeps rank the tail, injection adds DUE —
        unless an explicit objective tuple was passed."""
        if tuple(self.objectives) != DEFAULT_OBJECTIVES:
            return tuple(self.objectives)
        base = POPULATION_OBJECTIVES if self.dies else DEFAULT_OBJECTIVES
        if self._transient_spec() is not None:
            base = base + (TRANSIENT_OBJECTIVE,)
        if self.carbon_intensity is not None:
            base = base + (CARBON_OBJECTIVE,)
        return base

    def _die_maps_for(
        self, candidate: Candidate
    ) -> tuple[DieFaultMap, ...]:
        """The candidate's die population at its own ULE supply."""
        return sample_population(
            candidate.chip.il1,
            candidate.chip.dl1,
            dies=self.dies,
            seed=self.seed,
            mode_vdds={Mode.ULE: candidate.ule_point.vdd},
        )

    def _die_jobs_for(
        self, candidate: Candidate, die_map: DieFaultMap
    ) -> list[SimulationJob]:
        """One die's ULE-suite jobs (fault-free dies share keys with
        the candidate's nominal runs)."""
        suite_name = str(candidate.point_dict().get("suite", "paper"))
        fault_map = (
            None if die_map.is_fault_free else die_map.normalized()
        )
        return [
            SimulationJob(
                chip=candidate.chip,
                trace=source.job_trace(),
                mode=Mode.ULE,
                operating_point=candidate.ule_point,
                fault_map=fault_map,
                transients=self._transient_spec(),
            )
            for source in self._suite_sources(suite_name, Mode.ULE)
        ]

    def _reduce_population(
        self,
        die_maps: tuple[DieFaultMap, ...],
        results: Sequence[RunResult],
    ) -> dict[str, float]:
        """Across-die tail metrics from the per-die ULE runs."""
        per_die, remainder = divmod(len(results), len(die_maps))
        if remainder or per_die == 0:
            # Every die submits the same suite; anything else means
            # the spans are misaligned — fail loudly rather than
            # percentile over the wrong runs.
            raise RuntimeError(
                f"population results ({len(results)}) do not split "
                f"evenly over {len(die_maps)} dies"
            )
        epi = []
        spi = []
        for die in range(len(die_maps)):
            runs = results[die * per_die:(die + 1) * per_die]
            die_metrics = suite_mode_metrics(
                runs, modes=((Mode.ULE, "ule"),)
            )
            epi.append(die_metrics["epi_ule"])
            spi.append(die_metrics["spi_ule"])
        return {
            "epi_ule_p95": float(
                np.percentile(np.asarray(epi), POPULATION_PERCENTILE)
            ),
            "spi_ule_p95": float(
                np.percentile(np.asarray(spi), POPULATION_PERCENTILE)
            ),
            "functional_fraction": functional_fraction(
                die_maps, Mode.ULE
            ),
        }

    def _jobs_for(self, candidate: Candidate) -> list[SimulationJob]:
        """The (benchmark x mode) jobs of one candidate."""
        suite_name = str(candidate.point_dict().get("suite", "paper"))
        jobs = []
        for mode, point in (
            (Mode.ULE, candidate.ule_point),
            (Mode.HP, HP_OPERATING_POINT),
        ):
            for source in self._suite_sources(suite_name, mode):
                jobs.append(
                    SimulationJob(
                        chip=candidate.chip,
                        trace=source.job_trace(),
                        mode=mode,
                        operating_point=point,
                        transients=self._transient_spec(),
                    )
                )
        return jobs

    def _reduce(
        self, candidate: Candidate, results: Sequence[RunResult]
    ) -> dict[str, float]:
        """Per-candidate metrics from its runs (order: ULE suite, HP)."""
        metrics = suite_mode_metrics(results)
        metrics.update(free_metrics(candidate))
        if self._transient_spec() is not None:
            ule_runs = [r for r in results if r.mode is Mode.ULE]
            metrics.update(transient_run_metrics(ule_runs, "ule"))
        if self.carbon_intensity is not None:
            metrics["co2_per_gib_ule"] = self._carbon_metric(
                candidate, metrics
            )
        return metrics

    def _carbon_metric(
        self, candidate: Candidate, metrics: Mapping[str, float]
    ) -> float:
        """Annual g CO2 per GiB of L1 at sustained ULE operation.

        Average ULE power is ``epi_ule / spi_ule`` (J per instruction
        over seconds per instruction); a candidate with no ULE runs
        scores 0.0.
        """
        spi = metrics.get("spi_ule", 0.0)
        if spi <= 0.0:
            return 0.0
        power = metrics["epi_ule"] / spi
        return carbon_per_gib_year(
            power,
            chip_capacity_bytes(candidate.chip),
            float(self.carbon_intensity),
        )

    def _technology_union(
        self, candidates: Sequence[Candidate]
    ) -> tuple[str, ...]:
        """Sorted union of the candidates' canonical cell tokens."""
        tokens: set[str] = set()
        for candidate in candidates:
            tokens.update(technology_tokens(candidate.chip))
        return tuple(sorted(tokens))

    def expected_technologies(self) -> tuple[str, ...]:
        """The cell-technology tokens this campaign would evaluate.

        Expands the space (the per-cell sizing is memoized, so a
        following :meth:`run` pays nothing extra) — the CLI's
        ``--resume`` check compares this against a saved campaign's
        embedded tokens before adopting any metrics.
        """
        candidates, _, _ = self.expand()
        return self._technology_union(candidates)

    # ----------------------------------------------------- surrogate loop
    def run_surrogate(
        self,
        session: SimulationSession | None = None,
        settings: SurrogateSettings | None = None,
        progress: Callable[[int, int], None] | None = None,
        reuse: Mapping[str, Mapping[str, float]] | None = None,
    ) -> SurrogateCampaignResult:
        """Explore the space with a surrogate-guided simulation budget.

        Instead of simulating every candidate, the loop

        1. simulates a seeded space-filling batch;
        2. fits :class:`~repro.explore.surrogate.MetricSurrogate`
           ensembles on the evaluated candidates (only the *simulated*
           objective metrics — analytic ones are exact for free);
        3. predicts the rest of the space with uncertainty and spends
           the next round on the predicted Pareto frontier plus the
           most uncertain candidates;
        4. stops when the observed frontier's hypervolume converges
           (:class:`~repro.explore.frontier.ConvergenceTracker`) or
           the budget runs out.

        Every selected candidate runs through the same
        :meth:`_evaluate_candidates` path as :meth:`run`, so its
        metrics are byte-equal to the exhaustive campaign's — the
        surrogate only decides *which* candidates pay for simulation.
        The whole loop is deterministic: seeded selection, sorted
        iteration orders and the surrogate's bit-reproducibility make
        equal-seed runs identical whatever the session's process count.

        ``reuse`` pre-loads saved outcomes (as in :meth:`run`); they
        count as evaluated without spending budget.
        """
        session = session or current_session()
        settings = settings or SurrogateSettings()
        candidates, infeasible, duplicates = self.expand()
        objectives = self._effective_objectives()
        exhaustive_jobs = sum(
            self.jobs_per_candidate(candidate)
            for candidate in candidates
        )

        evaluated: dict[int, CandidateOutcome] = {}
        if reuse:
            required = self._required_metrics()
            for index, candidate in enumerate(candidates):
                saved = reuse.get(candidate.name)
                if saved is not None and required <= set(saved):
                    evaluated[index] = CandidateOutcome(
                        candidate=candidate,
                        metrics={
                            key: float(value)
                            for key, value in saved.items()
                        },
                    )
        reused = len(evaluated)

        budget, seed_size, round_size = settings.resolve(
            len(candidates)
        )
        sim_metrics = sorted(
            {o.metric for o in objectives} - set(FREE_METRIC_NAMES)
        )
        tracker = ConvergenceTracker(
            objectives,
            rel_tol=settings.rel_tol,
            patience=settings.patience,
        )
        schema = (
            FeatureSchema.from_candidates(candidates)
            if candidates
            else None
        )
        features = (
            schema.matrix(candidates) if schema is not None else None
        )

        rounds: list[SurrogateRound] = []
        simulated = 0
        jobs_submitted = 0
        jobs_executed = 0

        def run_round(chosen: list[int]) -> tuple[int, int]:
            """Simulate ``chosen``; (submitted, executed) jobs."""
            nonlocal simulated, jobs_submitted, jobs_executed
            before = session.stats.executed
            outcomes = self._evaluate_candidates(
                [candidates[i] for i in chosen], session, progress
            )
            for index, outcome in zip(chosen, outcomes):
                evaluated[index] = outcome
            simulated += len(chosen)
            submitted = sum(
                self.jobs_per_candidate(candidates[i]) for i in chosen
            )
            jobs_submitted += submitted
            executed = session.stats.executed - before
            jobs_executed += executed
            return submitted, executed

        def record(
            selected: int, submitted: int, executed: int
        ) -> None:
            rows = [
                evaluated[index].metrics
                for index in sorted(evaluated)
            ]
            gain = tracker.update(rows)
            rounds.append(
                SurrogateRound(
                    index=len(rounds),
                    selected=selected,
                    total_evaluated=len(evaluated),
                    submitted_jobs=submitted,
                    executed_jobs=executed,
                    hypervolume=tracker.history[-1],
                    gain=float(gain) if np.isfinite(gain) else None,
                )
            )

        unevaluated = [
            index
            for index in range(len(candidates))
            if index not in evaluated
        ]
        seed_size = min(seed_size, budget, len(unevaluated))
        if seed_size:
            rng = np.random.default_rng(
                derive_seed(self.seed, "explore", "surrogate", "seed")
            )
            chosen = sorted(
                int(i)
                for i in rng.choice(
                    np.asarray(unevaluated),
                    size=seed_size,
                    replace=False,
                )
            )
            submitted, executed = run_round(chosen)
            record(len(chosen), submitted, executed)

        while (
            simulated < budget
            and len(evaluated) < len(candidates)
            and not tracker.converged
        ):
            unevaluated = [
                index
                for index in range(len(candidates))
                if index not in evaluated
            ]
            order = sorted(evaluated)
            surrogate = MetricSurrogate(
                seed=self.seed,
                members=settings.members,
                neighbours=settings.neighbours,
            ).fit(
                features[order],
                {
                    metric: [
                        evaluated[index].metrics[metric]
                        for index in order
                    ]
                    for metric in sim_metrics
                },
            )
            predictions = surrogate.predict(features[unevaluated])

            # Per-metric uncertainty scale: the observed spread, so no
            # single metric's units dominate the acquisition score.
            scales = {
                metric: max(
                    float(
                        np.std(
                            [
                                evaluated[index].metrics[metric]
                                for index in order
                            ]
                        )
                    ),
                    1e-12,
                )
                for metric in sim_metrics
            }
            rows: list[dict[str, float]] = []
            uncertainty = dict.fromkeys(unevaluated, 0.0)
            position = {
                index: at for at, index in enumerate(unevaluated)
            }
            for index in range(len(candidates)):
                outcome = evaluated.get(index)
                if outcome is not None:
                    rows.append(outcome.metrics)
                    continue
                row = free_metrics(candidates[index])
                at = position[index]
                for metric in sim_metrics:
                    mean, std = predictions[metric]
                    row[metric] = float(mean[at])
                    uncertainty[index] += (
                        float(std[at]) / scales[metric]
                    )
                rows.append(row)
            predicted_front = set(pareto_indices(rows, objectives))

            size = min(
                round_size, budget - simulated, len(unevaluated)
            )
            explore_n = min(
                size, int(round(size * settings.explore_fraction))
            )
            explore_order = sorted(
                unevaluated, key=lambda i: (-uncertainty[i], i)
            )
            exploit_order = sorted(
                unevaluated,
                key=lambda i: (
                    0 if i in predicted_front else 1,
                    -uncertainty[i],
                    i,
                ),
            )
            chosen = explore_order[:explore_n]
            chosen_set = set(chosen)
            for index in exploit_order:
                if len(chosen) >= size:
                    break
                if index not in chosen_set:
                    chosen.append(index)
                    chosen_set.add(index)
            chosen.sort()
            submitted, executed = run_round(chosen)
            record(len(chosen), submitted, executed)

        campaign = CampaignResult(
            outcomes=tuple(
                evaluated[index] for index in sorted(evaluated)
            ),
            infeasible=tuple(infeasible),
            duplicates=duplicates,
            objectives=objectives,
            trace_length=self.trace_length,
            seed=self.seed,
            sampler=self.sampler,
            dies=self.dies,
            reused=reused,
            carbon_intensity=self.carbon_intensity,
            cell_technologies=self._technology_union(candidates),
        )
        return SurrogateCampaignResult(
            campaign=campaign,
            rounds=tuple(rounds),
            candidates_total=len(candidates),
            budget=budget,
            jobs_submitted=jobs_submitted,
            jobs_executed=jobs_executed,
            exhaustive_jobs=exhaustive_jobs,
            converged=tracker.converged,
        )


def _axis_value_order(value: object) -> tuple:
    """Sort numeric axis values numerically, everything else as text."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (0, float(value), "")
    return (1, 0.0, str(value))


def _point_text(point: Mapping[str, object]) -> str:
    return ", ".join(
        f"{key}={point[key]}" for key in sorted(point)
    )
