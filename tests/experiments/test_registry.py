"""Tests for the experiment registry and the light-weight drivers."""

import pytest

from repro.engine.session import SimulationSession
from repro.experiments import list_experiments, run_experiment
from repro.experiments.registry import run_experiments
from repro.experiments.report import ExperimentResult, PaperComparison


class TestRegistry:
    def test_expected_ids(self):
        ids = list_experiments()
        for expected in (
            "fig3",
            "fig4",
            "tab-sizing",
            "tab-area",
            "tab-exectime",
            "tab-reliability",
            "tab-edc",
            "ablation-ways",
            "ablation-memlat",
            "sweep-policy",
            "sweep-cells",
            "sustain",
            "transients",
        ):
            assert expected in ids

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            run_experiment("fig99")


class TestExperimentBatch:
    def test_run_experiments_serial(self):
        session = SimulationSession()
        results = run_experiments(session, ["tab-sizing", "tab-area"])
        assert set(results) == {"tab-sizing", "tab-area"}
        assert "tab-sizing" in results["tab-sizing"].render()

    def test_run_experiments_uses_disk_cache(self, tmp_path):
        """Experiment batches must flow through the session's disk
        cache (regression: `all --cache-dir` silently ignored it)."""
        session = SimulationSession(cache_dir=tmp_path)
        run_experiments(
            session,
            ["tab-exectime"],
            {"tab-exectime": {"trace_length": 2_000}},
        )
        entries = list(tmp_path.glob("gen-*/*/*.pkl"))
        assert entries

        # A fresh session over the same cache dir executes nothing.
        rerun = SimulationSession(cache_dir=tmp_path)
        run_experiments(
            rerun,
            ["tab-exectime"],
            {"tab-exectime": {"trace_length": 2_000}},
        )
        assert rerun.stats.executed == 0
        assert rerun.stats.disk_hits > 0

    def test_run_experiments_parallel_uses_disk_cache(self, tmp_path):
        session = SimulationSession(jobs=2, cache_dir=tmp_path)
        run_experiments(
            session,
            ["tab-exectime", "tab-wcet"],
            {
                "tab-exectime": {"trace_length": 2_000},
                "tab-wcet": {"trace_length": 2_000},
            },
        )
        assert list(tmp_path.glob("gen-*/*/*.pkl"))

    def test_on_result_streams_completions(self):
        seen = []
        run_experiments(
            SimulationSession(),
            ["tab-sizing", "tab-area"],
            on_result=lambda experiment_id, result: seen.append(
                (experiment_id, result.experiment_id)
            ),
        )
        assert sorted(seen) == [
            ("tab-area", "tab-area"),
            ("tab-sizing", "tab-sizing"),
        ]

    def test_parallel_failure_keeps_completed_results(self, monkeypatch):
        """One exploding experiment must not discard the finished ones:
        successes stream to on_result, the error re-raises after."""
        import repro.experiments.registry as registry

        def boom():
            raise RuntimeError("driver exploded")

        patched = dict(registry._REGISTRY)
        patched["boom"] = boom
        monkeypatch.setattr(registry, "_REGISTRY", patched)

        seen = []
        session = SimulationSession(jobs=2)
        with pytest.raises(RuntimeError, match="driver exploded"):
            run_experiments(
                session,
                ["tab-sizing", "boom", "tab-area"],
                on_result=lambda experiment_id, result: seen.append(
                    experiment_id
                ),
            )
        assert sorted(seen) == ["tab-area", "tab-sizing"]

    def test_run_experiments_parallel_matches_serial(self):
        serial = run_experiments(
            SimulationSession(jobs=1), ["tab-sizing", "tab-area"]
        )
        parallel = run_experiments(
            SimulationSession(jobs=2), ["tab-sizing", "tab-area"]
        )
        for experiment_id in serial:
            assert (
                serial[experiment_id].render()
                == parallel[experiment_id].render()
            )


class TestReportTypes:
    def test_paper_comparison(self):
        comparison = PaperComparison("x", paper=10.0, measured=12.0, unit="%")
        assert comparison.delta == pytest.approx(2.0)
        assert "paper 10" in comparison.render()

    def test_result_render(self):
        result = ExperimentResult(
            experiment_id="t",
            title="title",
            body="body",
            comparisons=(PaperComparison("q", 1.0, 1.5),),
        )
        text = result.render()
        assert "== t: title ==" in text
        assert "Paper vs measured" in text


class TestFastDrivers:
    def test_tab_sizing(self):
        result = run_experiment("tab-sizing")
        assert result.data["A"]["pf_target"] == pytest.approx(
            1.22e-6, rel=0.005
        )
        assert result.data["A"]["s10"] > result.data["A"]["s8"]

    def test_tab_edc(self):
        result = run_experiment("tab-edc")
        for entry in result.data.values():
            assert entry["singles_ok"]
        dected = result.data["dected(45,32)"]
        assert dected["doubles_ok"]
        assert dected["triples_detected"]

    def test_tab_area(self):
        result = run_experiment("tab-area")
        for scenario in ("A", "B"):
            assert result.data["savings"][scenario] > 0.10

    def test_tab_reliability_small(self):
        result = run_experiment("tab-reliability", dies=40)
        for scenario in ("A", "B"):
            entry = result.data[scenario]
            assert entry["silent_errors"] == 0
            assert entry["yield_proposed"] >= entry["yield_baseline"]
            # Empirical yield within 4 sigma of the analytic value.
            sigma = (
                entry["analytic_data_yield"]
                * (1 - entry["analytic_data_yield"])
                / entry["dies"]
            ) ** 0.5
            assert abs(
                entry["empirical_yield"] - entry["analytic_data_yield"]
            ) < max(4 * sigma, 0.05)


class TestTransientsDriver:
    def test_secded_vs_dected_under_identical_strikes(self):
        """Scenario B executable: under the same accelerated strikes
        the DECTED way must not exceed the SECDED baseline on DUEs,
        and the sampled FIT must track the analytic model."""
        result = run_experiment(
            "transients", trace_length=2_000, intervals=150
        )
        events = result.data["events"]
        assert (
            events["proposed"]["due"] <= events["baseline"]["due"]
        )
        assert events["baseline"]["corrected"] > 0
        curve = result.data["curve"]
        for rows in curve.values():
            # FIT grows monotonically as the supply drops.
            accelerated = [
                row["fit_analytic_accelerated"] for row in rows
            ]
            assert accelerated == sorted(accelerated, reverse=True)
        # Sampled-vs-analytic within 4 sigma of the Poisson count the
        # enumeration horizon implies (few events for the DECTED way).
        hours = 150 * 100e-6 / 3600.0
        for comparison in result.comparisons:
            expected_events = comparison.paper * hours / 1e9
            sigma = comparison.paper / max(expected_events, 1.0) ** 0.5
            assert abs(comparison.delta) < 4 * sigma
