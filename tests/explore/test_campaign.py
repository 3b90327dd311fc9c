"""ExplorationCampaign: batching, dedup, caching, determinism."""

import pytest

from repro.engine.session import SimulationSession, use_session
from repro.explore.campaign import ExplorationCampaign
from repro.explore.candidates import default_constraints
from repro.explore.space import DesignSpace


def _small_space(**overrides):
    axes = {
        "size_kb": (4, 8),
        "line_bytes": (32,),
        "ways": (8,),
        "ule_ways": (1,),
        "ule_cell": ("8T", "10T"),
        "ule_scheme": ("secded",),
        "hp_scheme": ("none",),
        "vdd_ule": (0.35,),
        "replacement": ("lru",),
        "suite": ("paper",),
    }
    axes.update(overrides)
    return DesignSpace.from_dict(axes, default_constraints())


def _campaign(space=None, **kwargs):
    kwargs.setdefault("trace_length", 2_000)
    kwargs.setdefault("seed", 7)
    return ExplorationCampaign(space=space or _small_space(), **kwargs)


class TestExpansion:
    def test_expands_unique_feasible_candidates(self):
        candidates, infeasible, duplicates = _campaign().expand()
        assert len(candidates) == 4
        assert infeasible == []
        assert duplicates == 0
        assert len({c.digest for c in candidates}) == 4

    def test_identical_hardware_deduplicates(self):
        # "lru" and "LRU" are distinct points realizing the same chip:
        # content identity must collapse them before any simulation.
        space = _small_space(
            size_kb=(8,), ule_cell=("8T",), replacement=("lru", "LRU")
        )
        candidates, _, duplicates = _campaign(space).expand()
        assert len(candidates) == 1
        assert duplicates == 1

    def test_equal_hardware_at_distinct_supplies_both_survive(self):
        # 0.352 V and 0.353 V quantize to identical cells (equal
        # hardware digests) but evaluate at different operating points,
        # so merging them would be wrong.
        space = _small_space(
            size_kb=(8,), ule_cell=("10T",), vdd_ule=(0.352, 0.353)
        )
        candidates, _, duplicates = _campaign(space).expand()
        assert len(candidates) == 2
        assert duplicates == 0
        assert candidates[0].digest == candidates[1].digest

    def test_infeasible_points_are_reported_not_fatal(self):
        space = _small_space(ule_cell=("6T", "8T"))
        # No constraint filters 6T here: build_candidate must reject it.
        space = DesignSpace.from_dict(
            {axis.name: axis.values for axis in space.axes}
        )
        candidates, infeasible, _ = _campaign(space).expand()
        assert len(candidates) == 2
        assert len(infeasible) == 2
        assert all("6T" in reason for _, reason in infeasible)

    def test_space_without_a_candidate_is_an_error(self):
        """No point passes the constraints, or every point is
        infeasible: either way there is nothing to rank."""
        with pytest.raises(ValueError, match="no point passes"):
            _campaign(_small_space(ule_ways=(9,))).expand()
        unconstrained = DesignSpace.from_dict(
            {
                axis.name: axis.values
                for axis in _small_space(ule_cell=("6T",)).axes
            }
        )
        with pytest.raises(ValueError, match="infeasible.*6T"):
            _campaign(unconstrained).expand()
        with pytest.raises(ValueError, match="no point passes"):
            _campaign(_small_space(ule_ways=(9,))).run(
                session=SimulationSession()
            )

    def test_negative_dies_rejected_up_front(self):
        with pytest.raises(ValueError, match="dies must be at least 0"):
            _campaign(dies=-1)


class TestRun:
    def test_batches_once_and_reduces_metrics(self):
        session = SimulationSession()
        result = _campaign().run(session=session)
        assert len(result.outcomes) == 4
        # 4 candidates x (5 SmallBench ULE + 5 BigBench HP) jobs.
        assert session.stats.requested == 40
        assert session.stats.executed == 40
        for outcome in result.outcomes:
            metrics = outcome.metrics
            assert metrics["epi_ule"] > 0
            assert metrics["epi_hp"] > 0
            assert metrics["spi_ule"] > 0
            assert metrics["area_mm2"] > 0
            assert 0 < metrics["yield"] <= 1

    def test_progress_reports_executed_jobs(self):
        seen = []
        _campaign().run(
            session=SimulationSession(),
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen[0] == (1, 40)
        assert seen[-1] == (40, 40)

    def test_frontier_is_nonempty_and_nondominated(self):
        from repro.explore.pareto import dominates

        result = _campaign().run(session=SimulationSession())
        frontier = result.frontier()
        assert frontier
        rows = [outcome.metrics for outcome in result.outcomes]
        for chosen in frontier:
            assert not any(
                dominates(row, chosen.metrics, result.objectives)
                for row in rows
            )

    def test_serial_and_parallel_render_identically(self):
        campaign = _campaign()
        serial = campaign.run(session=SimulationSession())
        with SimulationSession(jobs=2) as parallel_session:
            parallel = campaign.run(session=parallel_session)
        assert (
            serial.render_report() == parallel.render_report()
        )

    def test_disk_cache_serves_reruns(self, tmp_path):
        campaign = _campaign()
        first = SimulationSession(cache_dir=tmp_path)
        report = campaign.run(session=first).render_report()
        assert first.stats.executed == 40
        second = SimulationSession(cache_dir=tmp_path)
        rerun = campaign.run(session=second).render_report()
        assert second.stats.executed == 0
        assert second.stats.disk_hits == 40
        assert rerun == report

    def test_uses_current_session_by_default(self):
        session = SimulationSession()
        with use_session(session):
            _campaign().run()
        assert session.stats.requested == 40


class TestReportAndJson:
    @pytest.fixture(scope="class")
    def result(self):
        return _campaign().run(session=SimulationSession())

    def test_report_sections(self, result):
        report = result.render_report()
        assert "Exploration ranking" in report
        assert "Per-axis sensitivity" in report
        assert "pareto" in report

    def test_report_top_truncation(self, result):
        report = result.render_report(top=1)
        assert "(3 more)" in report

    def test_to_dict_round_trips_through_json(self, result):
        import json

        payload = json.loads(json.dumps(result.to_dict(), sort_keys=True))
        assert payload["meta"]["candidates"] == 4
        assert len(payload["candidates"]) == 4
        assert payload["frontier"]
        names = {c["name"] for c in payload["candidates"]}
        assert set(payload["frontier"]) <= names

    def test_sensitivity_tables_cover_swept_axes(self, result):
        assert result.swept_axes() == ["size_kb", "ule_cell"]
        means = result.axis_sensitivity("size_kb", "area_mm2")
        assert set(means) == {4, 8}
        assert means[4] < means[8]


class TestSuiteAxis:
    def test_multi_suite_candidates_get_distinct_names(self):
        space = _small_space(
            size_kb=(8,),
            ule_cell=("8T",),
            suite=("smallbench", "bigbench"),
        )
        candidates, _, duplicates = _campaign(space).expand()
        assert len(candidates) == 2
        assert duplicates == 0
        names = {c.name for c in candidates}
        assert len(names) == 2
        assert any(name.endswith("-smallbench") for name in names)
        assert any(name.endswith("-bigbench") for name in names)

    def test_multi_suite_frontier_names_unambiguous(self):
        space = _small_space(
            size_kb=(8,),
            ule_cell=("8T",),
            suite=("smallbench", "bigbench"),
        )
        result = _campaign(space).run(session=SimulationSession())
        payload = result.to_dict()
        names = [c["name"] for c in payload["candidates"]]
        assert len(set(names)) == len(names)
        report = result.render_report()
        # Exactly as many frontier stars as frontier members.
        starred = sum(
            1 for line in report.splitlines()
            if "| *" in line and "x8k" in line
        )
        assert starred == len(result.frontier())


class TestTransientCampaign:
    """Injection as a first-class exploration axis."""

    def _spec(self):
        from repro.transients import TransientSpec

        return TransientSpec(
            acceleration=1e17, scrub_interval_seconds=1e-4, seed=9
        )

    def test_candidates_gain_transient_metrics(self):
        space = _small_space(ule_scheme=("secded", "dected"))
        campaign = _campaign(space=space, transients=self._spec())
        with SimulationSession() as session:
            result = campaign.run(session=session)
        for outcome in result.outcomes:
            for metric in (
                "due_fit_ule", "sdc_fit_ule", "refetch_rate_ule"
            ):
                assert metric in outcome.metrics
        assert any(
            outcome.metrics["refetch_rate_ule"] > 0
            or outcome.metrics["due_fit_ule"] > 0
            for outcome in result.outcomes
        )

    def test_due_objective_appended_by_default(self):
        campaign = _campaign(transients=self._spec())
        with SimulationSession() as session:
            result = campaign.run(session=session)
        assert "due_fit_ule:min" in [
            str(o) for o in result.objectives
        ]

    def test_explicit_objectives_respected(self):
        from repro.explore.pareto import Objective

        campaign = _campaign(
            transients=self._spec(),
            objectives=(Objective("epi_ule"),),
        )
        with SimulationSession() as session:
            result = campaign.run(session=session)
        assert [str(o) for o in result.objectives] == ["epi_ule:min"]

    def test_dected_way_beats_secded_on_due(self):
        """The scenario-B argument, as a sweep outcome: under
        identical strikes the DECTED ULE way must not lose to the
        SECDED one on the DUE axis."""
        space = _small_space(
            size_kb=(8,),
            ule_cell=("8T",),
            ule_scheme=("secded", "dected"),
        )
        campaign = _campaign(space=space, transients=self._spec())
        with SimulationSession() as session:
            result = campaign.run(session=session)
        by_scheme = {
            outcome.point_dict()["ule_scheme"]: outcome.metrics
            for outcome in result.outcomes
        }
        assert (
            by_scheme["dected"]["due_fit_ule"]
            <= by_scheme["secded"]["due_fit_ule"]
        )

    def test_null_spec_is_inert(self):
        from repro.transients import TransientSpec

        campaign = _campaign(
            transients=TransientSpec(acceleration=0.0)
        )
        with SimulationSession() as session:
            result = campaign.run(session=session)
        assert "due_fit_ule" not in result.outcomes[0].metrics
        assert "due_fit_ule:min" not in [
            str(o) for o in result.objectives
        ]
