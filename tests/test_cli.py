"""Tests for the ``python -m repro`` command-line interface."""

import os
import pathlib
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.__main__ import main


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "fig4" in out
        assert "tab-wcet" in out
        assert "sweep-space" in out
        assert "sweep-policy" in out

    def test_lists_accepted_parameters(self, capsys):
        """Only the parameters ``run`` can set: those its flags
        forward (``--trace-length``, ``--seed``, ``--carbon``) and the
        driver accepts — never a driver-only name like ``dies``."""
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        by_id = {line.split()[0]: line for line in lines if line}
        assert by_id["fig3"].split(None, 1)[1] == "(seed, trace_length)"
        assert by_id["tab-reliability"].split(None, 1)[1] == "(seed)"
        assert by_id["tab-area"].split(None, 1)[1] == "()"
        assert "carbon" in by_id["sustain"]
        for driver_only in ("samples", "policies", "budget_mj", "dies"):
            assert all(driver_only not in line for line in lines)


class TestDesign:
    def test_scenario_a_summary(self, capsys):
        assert main(["design", "A"]) == 0
        out = capsys.readouterr().out
        assert "Pf target" in out
        assert "scenario A" in out

    def test_bad_scenario(self):
        with pytest.raises(SystemExit):
            main(["design", "C"])

    def test_seed_adds_reproducible_mc_check(self, capsys):
        assert main(["design", "A", "--seed", "99"]) == 0
        first = capsys.readouterr().out
        assert "Importance-sampling cross-check (seed 99)" in first
        assert main(["design", "A", "--seed", "99"]) == 0
        assert capsys.readouterr().out == first
        assert main(["design", "A", "--seed", "100"]) == 0
        assert capsys.readouterr().out != first


class TestRun:
    def test_run_fast_experiment(self, capsys):
        assert main(["run", "tab-sizing"]) == 0
        out = capsys.readouterr().out
        assert "tab-sizing" in out
        assert "Paper vs measured" in out

    def test_run_with_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.txt"
        assert main(["run", "tab-area", "--out", str(out_file)]) == 0
        capsys.readouterr()
        assert "tab-area" in out_file.read_text()

    def test_trace_length_forwarded(self, capsys):
        assert main(
            ["run", "tab-exectime", "--trace-length", "5000"]
        ) == 0
        assert "exec" in capsys.readouterr().out.lower()

    def test_jobs_flag(self, capsys):
        assert main(
            ["run", "tab-exectime", "--trace-length", "3000", "--jobs", "2"]
        ) == 0
        assert "exec" in capsys.readouterr().out.lower()

    def test_profile_flag(self, capsys):
        assert main(
            ["run", "tab-exectime", "--trace-length", "3000", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "Per-phase wall-clock" in out
        assert "simulate.vectorized" in out

    def test_cache_dir_flag(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(
            ["run", "tab-exectime", "--trace-length", "3000",
             "--cache-dir", str(cache_dir)]
        ) == 0
        capsys.readouterr()
        assert list(cache_dir.glob("gen-*/*/*.pkl"))


class TestAll:
    def test_all_writes_reports(self, tmp_path, capsys, monkeypatch):
        """Run 'all' against a registry trimmed to the fast drivers."""
        import repro.experiments.registry as registry

        trimmed = {
            "tab-sizing": registry._REGISTRY["tab-sizing"],
            "tab-area": registry._REGISTRY["tab-area"],
        }
        monkeypatch.setattr(registry, "_REGISTRY", trimmed)
        out_dir = tmp_path / "results"
        assert main(["all", "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        assert (out_dir / "tab-sizing.txt").exists()
        assert (out_dir / "tab-area.txt").exists()

    def test_all_parallel_matches_serial(self, tmp_path, capsys):
        """`all --jobs 2` writes the same reports as a serial run."""
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        assert main(
            ["all", "--trace-length", "2000", "--out-dir", str(serial_dir)]
        ) == 0
        assert main(
            ["all", "--trace-length", "2000", "--jobs", "2",
             "--out-dir", str(parallel_dir)]
        ) == 0
        capsys.readouterr()
        serial_reports = sorted(serial_dir.glob("*.txt"))
        assert serial_reports
        for report in serial_reports:
            twin = parallel_dir / report.name
            assert twin.read_text() == report.read_text()

    def test_all_seed_derives_child_seeds(
        self, tmp_path, capsys, monkeypatch
    ):
        """--seed reaches the drivers as a derived per-experiment seed."""
        import repro.experiments.registry as registry
        from repro.util.rng import derive_seed

        captured = {}
        real_driver = registry._REGISTRY["tab-sizing"]

        def fake_driver(trace_length=1000, seed=None):
            captured["seed"] = seed
            return real_driver()

        monkeypatch.setattr(
            registry, "_REGISTRY", {"tab-exectime": fake_driver}
        )
        out_dir = tmp_path / "results"
        assert main(
            ["all", "--seed", "5", "--out-dir", str(out_dir)]
        ) == 0
        capsys.readouterr()
        assert captured["seed"] == derive_seed(5, "all", "tab-exectime")


class TestSchedule:
    FAST = ["schedule", "--trace-length", "10000", "--epoch", "1000"]

    def test_schedule_renders_ledger(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        assert "Schedule —" in out
        assert "utilization(threshold=1)" in out
        assert "transitions" in out

    def test_schedule_serial_matches_parallel(self, tmp_path, capsys):
        serial = tmp_path / "serial.txt"
        parallel = tmp_path / "parallel.txt"
        assert main(self.FAST + ["--out", str(serial)]) == 0
        assert main(
            self.FAST + ["--jobs", "2", "--out", str(parallel)]
        ) == 0
        capsys.readouterr()
        assert serial.read_text() == parallel.read_text()

    def test_schedule_save_json(self, tmp_path, capsys):
        import json

        saved = tmp_path / "schedule.json"
        assert main(self.FAST + ["--save-json", str(saved)]) == 0
        capsys.readouterr()
        payload = json.loads(saved.read_text())
        assert payload["totals"]["switches"] >= 0
        assert payload["epochs"]

    def test_schedule_policies(self, capsys):
        for extra in (
            ["--policy", "static", "--duty", "0.2"],
            ["--policy", "oracle", "--objective", "time"],
            ["--policy", "budget", "--budget-mj", "0.001"],
        ):
            assert main(self.FAST + extra) == 0
        assert "Schedule —" in capsys.readouterr().out

    def test_schedule_benchmark_workload(self, capsys):
        assert main(
            self.FAST + ["--workload", "adpcm_c", "--policy", "static",
                         "--duty", "0"]
        ) == 0
        assert "adpcm_c" in capsys.readouterr().out

    def test_schedule_phase_segmenter(self, capsys):
        assert main(self.FAST + ["--segment", "phase"]) == 0
        assert "Schedule —" in capsys.readouterr().out

    def test_budget_policy_needs_budget(self, capsys):
        assert main(self.FAST + ["--policy", "budget"]) == 2
        assert "budget" in capsys.readouterr().err

    def test_schedule_cache_dir_reruns_from_disk(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        args = self.FAST + ["--cache-dir", str(cache_dir)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert list(cache_dir.glob("gen-*/*/*.pkl"))


class TestSweep:
    AXES = (
        "size_kb=8;line_bytes=32;ways=8;ule_ways=1;ule_cell=8T,10T;"
        "ule_scheme=secded;hp_scheme=none;vdd_ule=0.35;"
        "replacement=lru;suite=paper"
    )

    def test_sweep_reports_frontier(self, capsys):
        assert main(
            ["sweep", "--axes", self.AXES, "--trace-length", "1500",
             "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "Exploration ranking" in out
        assert "frontier" in out

    def test_sweep_serial_matches_parallel(self, tmp_path, capsys):
        serial = tmp_path / "serial.txt"
        parallel = tmp_path / "parallel.txt"
        base = ["sweep", "--axes", self.AXES, "--trace-length", "1500",
                "--seed", "3"]
        assert main(base + ["--out", str(serial)]) == 0
        assert main(
            base + ["--jobs", "2", "--out", str(parallel)]
        ) == 0
        capsys.readouterr()
        assert serial.read_text() == parallel.read_text()

    def test_sweep_save_json_then_pareto(self, tmp_path, capsys):
        saved = tmp_path / "campaign.json"
        assert main(
            ["sweep", "--axes", self.AXES, "--trace-length", "1500",
             "--seed", "3", "--save-json", str(saved)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["pareto", str(saved), "--objectives",
             "epi_ule:min,yield:max"]
        ) == 0
        out = capsys.readouterr().out
        assert "Pareto re-reduction" in out
        assert "epi_ule:min, yield:max" in out

    def test_sweep_samples_cap_and_sampler(self, capsys):
        assert main(
            ["sweep", "--axes", self.AXES, "--sampler", "halton",
             "--samples", "1", "--trace-length", "1500"]
        ) == 0
        assert "1 candidates" in capsys.readouterr().out

    def test_stochastic_sampler_without_samples_errors(self, capsys):
        assert main(
            ["sweep", "--axes", self.AXES, "--sampler", "random"]
        ) == 2
        assert "--samples" in capsys.readouterr().err

    def test_bad_axes_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--axes", "size_kb"])

    def test_unknown_axis_rejected_before_building(self, capsys):
        """A misspelled axis must not pass for an all-infeasible sweep:
        one stderr line and exit 2, before any candidate is built."""
        assert main(["sweep", "--axes", "bogus=1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "unknown axes ['bogus']" in captured.err


class TestSurrogateSweep:
    AXES = (
        "size_kb=4,8,16;line_bytes=32;ways=8;ule_ways=1;"
        "ule_cell=8T,10T;ule_scheme=secded,dected;hp_scheme=none;"
        "vdd_ule=0.35,0.4;replacement=lru;suite=paper"
    )
    BASE = ["sweep", "--axes", AXES, "--trace-length", "1500",
            "--seed", "3", "--surrogate"]

    def test_surrogate_reports_economics(self, capsys):
        assert main(
            self.BASE + ["--budget", "8", "--seed-candidates", "4",
                         "--round-size", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "Surrogate exploration" in out
        assert "jobs:" in out
        assert "exhaustive" in out
        assert "knee (best compromise):" in out

    def test_surrogate_serial_matches_parallel(self, tmp_path, capsys):
        serial = tmp_path / "serial.txt"
        parallel = tmp_path / "parallel.txt"
        args = self.BASE + ["--budget", "8", "--seed-candidates", "4"]
        assert main(args + ["--out", str(serial)]) == 0
        assert main(
            args + ["--jobs", "2", "--out", str(parallel)]
        ) == 0
        capsys.readouterr()
        assert serial.read_text() == parallel.read_text()

    def test_surrogate_json_feeds_pareto_and_resume(
        self, tmp_path, capsys
    ):
        saved = tmp_path / "surrogate.json"
        assert main(
            self.BASE + ["--budget", "8", "--seed-candidates", "4",
                         "--save-json", str(saved)]
        ) == 0
        capsys.readouterr()
        assert main(["pareto", str(saved)]) == 0
        assert "Pareto re-reduction" in capsys.readouterr().out
        assert main(
            ["sweep", "--axes", self.AXES, "--trace-length", "1500",
             "--seed", "3", "--resume", str(saved)]
        ) == 0
        out = capsys.readouterr().out
        assert "Exploration ranking" in out

    def test_surrogate_flags_require_surrogate(self, capsys):
        assert main(
            ["sweep", "--axes", self.AXES, "--budget", "4"]
        ) == 2
        assert "--surrogate" in capsys.readouterr().err

    def test_resume_rejects_mismatched_settings(
        self, tmp_path, capsys
    ):
        saved = tmp_path / "campaign.json"
        assert main(
            ["sweep", "--axes", self.AXES, "--trace-length", "1500",
             "--seed", "3", "--samples", "2", "--save-json",
             str(saved)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["sweep", "--axes", self.AXES, "--trace-length", "2500",
             "--seed", "3", "--samples", "2", "--resume", str(saved)]
        ) == 2
        assert "different settings" in capsys.readouterr().err


class TestPopulation:
    FAST = ["population", "--dies", "25", "--trace-length", "1500"]

    def test_population_renders_report(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        assert "Die population" in out
        assert "Population distributions" in out
        assert "Sampled yield vs ULE supply" in out

    def test_population_serial_matches_parallel(self, tmp_path, capsys):
        serial = tmp_path / "serial.txt"
        parallel = tmp_path / "parallel.txt"
        assert main(self.FAST + ["--out", str(serial)]) == 0
        assert main(
            self.FAST + ["--jobs", "4", "--out", str(parallel)]
        ) == 0
        capsys.readouterr()
        assert serial.read_text() == parallel.read_text()

    def test_population_cache_dir_reruns_from_disk(
        self, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        args = self.FAST + ["--cache-dir", str(cache_dir)]
        assert main(args) == 0
        first = capsys.readouterr()
        assert main(args) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        # The re-run executes nothing: every job is a disk hit.
        assert " 0 executed" in second.err
        assert list(cache_dir.glob("gen-*/*/*.pkl"))

    def test_population_save_json(self, tmp_path, capsys):
        import json

        saved = tmp_path / "population.json"
        assert main(self.FAST + ["--save-json", str(saved)]) == 0
        capsys.readouterr()
        payload = json.loads(saved.read_text())
        assert payload["meta"]["dies"] == 25
        assert payload["percentiles"]["epi_ule"]["p95"] > 0

    def test_population_custom_percentiles(self, capsys):
        assert main(
            self.FAST + ["--percentiles", "50,99.9"]
        ) == 0
        out = capsys.readouterr().out
        assert "p99.9" in out

    def test_population_baseline_chip(self, capsys):
        assert main(
            self.FAST + ["--chip", "baseline", "--dies", "5"]
        ) == 0
        assert "A-baseline" in capsys.readouterr().out

    def test_population_seed_changes_sample(self, capsys):
        assert main(self.FAST + ["--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(self.FAST + ["--seed", "1"]) == 0
        assert capsys.readouterr().out == first

    def test_bad_percentiles_rejected(self):
        with pytest.raises(SystemExit):
            main(self.FAST + ["--percentiles", "150"])
        with pytest.raises(SystemExit):
            main(self.FAST + ["--percentiles", ","])

    def test_population_experiment_registered(self, capsys):
        """Listed with what ``run population`` can set; ``--dies``
        belongs to the ``population`` command, not to ``run``."""
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        by_id = {line.split()[0]: line for line in lines if line}
        assert by_id["population"].split(None, 1)[1] == (
            "(seed, trace_length)"
        )

    def test_sweep_dies_flag_ranks_by_p95(self, tmp_path, capsys):
        import json

        saved = tmp_path / "campaign.json"
        assert main(
            ["sweep", "--axes", TestSweep.AXES, "--trace-length",
             "1500", "--seed", "3", "--dies", "10",
             "--save-json", str(saved)]
        ) == 0
        out = capsys.readouterr().out
        assert "epi_ule_p95:min" in out
        assert "func frac" in out
        payload = json.loads(saved.read_text())
        # Saved campaigns record the population size (provenance for
        # the p95 metrics).
        assert payload["meta"]["dies"] == 10
        assert "epi_ule_p95" in payload["candidates"][0]["metrics"]


class TestParetoErrors:
    def test_missing_results_file(self, tmp_path, capsys):
        assert main(["pareto", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["pareto", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_metric(self, tmp_path, capsys):
        saved = tmp_path / "ok.json"
        saved.write_text(
            '{"objectives": [], "candidates": '
            '[{"name": "c", "metrics": {"epi_ule": 1.0}}]}'
        )
        assert main(
            ["pareto", str(saved), "--objectives", "bogus:min"]
        ) == 2
        assert "bogus" in capsys.readouterr().err

    def test_bad_direction(self, tmp_path, capsys):
        saved = tmp_path / "ok.json"
        saved.write_text('{"objectives": [], "candidates": []}')
        assert main(
            ["pareto", str(saved), "--objectives", "epi_ule:avg"]
        ) == 2
        assert "epi_ule:avg" in capsys.readouterr().err


class TestSweepGuards:
    AXES = TestSweep.AXES

    def test_budgeted_default_sampler_covers_axes(self, capsys):
        """--samples without --sampler must not slice a grid corner."""
        axes = self.AXES.replace("size_kb=8", "size_kb=4,8,16")
        assert main(
            ["sweep", "--axes", axes, "--samples", "6",
             "--trace-length", "1500"]
        ) == 0
        out = capsys.readouterr().out
        assert "x4k" in out and "x8k" in out and "x16k" in out

    def test_auto_backend_accepts_non_lru_axis(self, capsys):
        axes = self.AXES.replace(
            "replacement=lru", "replacement=lru,fifo"
        ).replace("ule_cell=8T,10T", "ule_cell=8T")
        assert main(
            ["sweep", "--axes", axes, "--trace-length", "1500"]
        ) == 0
        assert "fifo" in capsys.readouterr().out


class TestParetoEmptyObjectives:
    def test_comma_only_objectives_rejected(self, tmp_path, capsys):
        saved = tmp_path / "ok.json"
        saved.write_text('{"objectives": [], "candidates": []}')
        assert main(["pareto", str(saved), "--objectives", ","]) == 2
        assert "names no metrics" in capsys.readouterr().err


class TestTransients:
    FAST = [
        "transients",
        "--trace-length", "2000",
        "--intervals", "100",
        "--acceleration", "1e16",
    ]

    def test_renders_curve_and_events(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        assert "Uncorrectable soft-error rate vs ULE supply" in out
        assert "Trace-observed recovery accounting" in out
        assert "Paper vs measured" in out

    def test_save_json_writes_curve(self, tmp_path, capsys):
        import json

        path = tmp_path / "due.json"
        assert main(self.FAST + ["--save-json", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert set(payload["curve"]) == {"baseline", "proposed"}
        for rows in payload["curve"].values():
            assert len(rows) == 5
            for row in rows:
                assert row["fit_sampled_accelerated"] >= 0.0

    def test_serial_matches_parallel(self, tmp_path, capsys):
        serial = tmp_path / "serial.txt"
        parallel = tmp_path / "parallel.txt"
        assert main(self.FAST + ["--out", str(serial)]) == 0
        assert main(
            self.FAST + ["--jobs", "4", "--out", str(parallel)]
        ) == 0
        capsys.readouterr()
        assert serial.read_text() == parallel.read_text()

    def test_experiment_registered(self, capsys):
        assert main(["list"]) == 0
        assert "transients" in capsys.readouterr().out

    def test_population_transient_flag(self, capsys):
        assert main([
            "population", "--dies", "4", "--trace-length", "2000",
            "--scenario", "B", "--transient-accel", "1e16",
        ]) == 0
        out = capsys.readouterr().out
        assert "DUE FIT ULE" in out
        assert "sampled DUE FIT" in out

    def test_schedule_transient_flag(self, capsys):
        assert main([
            "schedule", "--policy", "static", "--duty", "0.5",
            "--trace-length", "20000", "--transient-accel", "1e16",
        ]) == 0
        assert "scrub energy" in capsys.readouterr().out

    def test_sweep_transient_flag(self, capsys):
        assert main([
            "sweep", "--samples", "2", "--trace-length", "2000",
            "--transient-accel", "1e16",
        ]) == 0
        assert "due_fit_ule:min" in capsys.readouterr().out


class TestCellTechnologies:
    """The mixed-technology sweep surface (cells + sustainability PR)."""

    MIXED_AXES = (
        "size_kb=8;line_bytes=32;ways=8;ule_ways=1;"
        "ule_cell=8T,EDRAM,GAIN;ule_scheme=secded;hp_scheme=none;"
        "vdd_ule=0.35;replacement=lru;suite=paper"
    )
    BASE = ["sweep", "--axes", MIXED_AXES, "--trace-length", "1500",
            "--seed", "3"]

    def test_mixed_sweep_serial_matches_jobs_4(self, tmp_path, capsys):
        serial = tmp_path / "serial.txt"
        parallel = tmp_path / "parallel.txt"
        assert main(self.BASE + ["--out", str(serial)]) == 0
        assert main(
            self.BASE + ["--jobs", "4", "--out", str(parallel)]
        ) == 0
        capsys.readouterr()
        assert serial.read_text() == parallel.read_text()

    def test_carbon_flag_adds_the_objective(self, capsys):
        assert main(self.BASE + ["--carbon", "world"]) == 0
        out = capsys.readouterr().out
        assert "co2_per_gib_ule:min" in out

    def test_carbon_accepts_explicit_intensity(self, capsys):
        assert main(self.BASE + ["--carbon", "300"]) == 0
        assert "co2_per_gib_ule:min" in capsys.readouterr().out

    def test_unknown_carbon_profile_rejected(self, capsys):
        assert main(self.BASE + ["--carbon", "mars"]) == 2
        assert "unknown grid profile" in capsys.readouterr().err

    def test_save_json_embeds_cell_technologies(self, tmp_path, capsys):
        import json

        saved = tmp_path / "campaign.json"
        assert main(self.BASE + ["--save-json", str(saved)]) == 0
        capsys.readouterr()
        meta = json.loads(saved.read_text())["meta"]
        assert meta["cell_technologies"] == [
            "edram-1t1c", "gain-2t", "sram-10t", "sram-6t", "sram-8t",
        ]

    def test_resume_rejects_technology_mismatch(self, tmp_path, capsys):
        edram_axes = self.MIXED_AXES.replace(
            "ule_cell=8T,EDRAM,GAIN", "ule_cell=EDRAM"
        )
        gain_axes = self.MIXED_AXES.replace(
            "ule_cell=8T,EDRAM,GAIN", "ule_cell=GAIN"
        )
        saved = tmp_path / "edram.json"
        assert main(
            ["sweep", "--axes", edram_axes, "--trace-length", "1500",
             "--seed", "3", "--save-json", str(saved)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["sweep", "--axes", gain_axes, "--trace-length", "1500",
             "--seed", "3", "--resume", str(saved)]
        ) == 2
        assert "different cell technologies" in capsys.readouterr().err

    def test_resume_accepts_matching_technologies(
        self, tmp_path, capsys
    ):
        saved = tmp_path / "campaign.json"
        assert main(self.BASE + ["--save-json", str(saved)]) == 0
        capsys.readouterr()
        assert main(self.BASE + ["--resume", str(saved)]) == 0
        assert "Exploration ranking" in capsys.readouterr().out

    def test_schedule_save_json_stamps_technologies(
        self, tmp_path, capsys
    ):
        import json

        saved = tmp_path / "schedule.json"
        assert main(
            ["schedule", "--trace-length", "10000", "--epoch", "1000",
             "--save-json", str(saved)]
        ) == 0
        capsys.readouterr()
        meta = json.loads(saved.read_text())["meta"]
        # The paper's scheduled chip is all-SRAM.
        assert meta["cell_technologies"] == [
            "sram-10t", "sram-6t", "sram-8t",
        ]

    def test_population_save_json_stamps_technologies(
        self, tmp_path, capsys
    ):
        import json

        saved = tmp_path / "population.json"
        assert main(
            ["population", "--dies", "4", "--trace-length", "1500",
             "--save-json", str(saved)]
        ) == 0
        capsys.readouterr()
        meta = json.loads(saved.read_text())["meta"]
        assert "sram-8t" in meta["cell_technologies"]

    def test_run_save_json_writes_machine_results(
        self, tmp_path, capsys
    ):
        import json

        saved = tmp_path / "result.json"
        assert main(
            ["run", "tab-sizing", "--save-json", str(saved)]
        ) == 0
        capsys.readouterr()
        payload = json.loads(saved.read_text())
        assert payload["experiment_id"] == "tab-sizing"
        assert "data" in payload and "comparisons" in payload


K6_TEXT = (
    "# demo k6 trace\n"
    "0x00001000 P_MEM_RD 12\n"
    "0x00002040 P_MEM_WR 30\n"
    "0x00001000 P_MEM_RD 55\n"
)

MEMTRACE_TEXT = (
    "0x400100: R 0x1000 8\n"
    "0x400104: W 0x2000 8\n"
    "0x400000: R 0x1008\n"
)


@pytest.fixture
def trace_store_env(tmp_path, monkeypatch):
    """Point the default trace store at a throwaway root."""
    root = tmp_path / "trace-store"
    monkeypatch.setenv("REPRO_TRACE_STORE", str(root))
    return root


class TestIngest:
    def test_ingest_reports_catalog_entry(
        self, tmp_path, trace_store_env, capsys
    ):
        path = tmp_path / "demo.k6"
        path.write_text(K6_TEXT, encoding="utf-8")
        assert main(["ingest", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[ingest] demo: 3 instructions (k6, parser v1)" in out

    def test_ingest_memtrace_sniffed(
        self, tmp_path, trace_store_env, capsys
    ):
        path = tmp_path / "pin.out"
        path.write_text(MEMTRACE_TEXT, encoding="utf-8")
        assert main(["ingest", str(path), "--name", "mcf"]) == 0
        assert "(memtrace," in capsys.readouterr().out

    def test_ingest_missing_file_errors(self, trace_store_env, capsys):
        assert main(["ingest", "/no/such/file.k6"]) == 2
        err = capsys.readouterr().err
        assert "No such file" in err and "/no/such/file.k6" in err

    def test_ingest_malformed_line_reports_location(
        self, tmp_path, trace_store_env, capsys
    ):
        path = tmp_path / "bad.k6"
        path.write_text("0x1000 P_MEM_RD 1\n0x2000 NOP 2\n",
                        encoding="utf-8")
        assert main(["ingest", str(path), "--format", "k6"]) == 2
        err = capsys.readouterr().err
        assert "bad.k6:2" in err

    def test_ingest_name_collision_needs_force(
        self, tmp_path, trace_store_env, capsys
    ):
        first = tmp_path / "demo.k6"
        first.write_text(K6_TEXT, encoding="utf-8")
        other = tmp_path / "other.k6"
        other.write_text("0x9000 P_MEM_WR 1\n", encoding="utf-8")
        assert main(["ingest", str(first)]) == 0
        assert main(["ingest", str(other), "--name", "demo"]) == 2
        assert "already maps" in capsys.readouterr().err
        assert main(
            ["ingest", str(other), "--name", "demo", "--force"]
        ) == 0


class TestTraces:
    def test_empty_catalog_message(self, trace_store_env, capsys):
        assert main(["traces", "list"]) == 0
        assert "is empty" in capsys.readouterr().out

    def test_list_renders_provenance(
        self, tmp_path, trace_store_env, capsys
    ):
        path = tmp_path / "demo.k6"
        path.write_text(K6_TEXT, encoding="utf-8")
        assert main(["ingest", str(path)]) == 0
        capsys.readouterr()
        assert main(["traces", "list"]) == 0
        out = capsys.readouterr().out
        assert "Ingested traces" in out
        assert "demo" in out and "demo.k6" in out

    def test_list_unknown_name_errors(
        self, tmp_path, trace_store_env, capsys
    ):
        assert main(["traces", "list", "ghost"]) == 2
        assert "ghost" in capsys.readouterr().err

    def test_verify_reports_ok(self, tmp_path, trace_store_env, capsys):
        path = tmp_path / "demo.k6"
        path.write_text(K6_TEXT, encoding="utf-8")
        assert main(["ingest", str(path)]) == 0
        capsys.readouterr()
        assert main(["traces", "verify"]) == 0
        assert "[traces] demo: ok (3 instrs)" in capsys.readouterr().out

    def test_verify_flags_missing_entry(
        self, tmp_path, trace_store_env, capsys
    ):
        import shutil

        path = tmp_path / "demo.k6"
        path.write_text(K6_TEXT, encoding="utf-8")
        assert main(["ingest", str(path)]) == 0
        capsys.readouterr()
        # Drop the content-addressed entry, keep the catalog row.
        for child in trace_store_env.iterdir():
            if child.is_dir():
                shutil.rmtree(child)
        assert main(["traces", "verify"]) == 1
        assert "missing" in capsys.readouterr().out


class TestSweepSuite:
    AXES = (
        "size_kb=8;line_bytes=32;ways=8;ule_ways=1;ule_cell=8T;"
        "ule_scheme=parity,secded;hp_scheme=none;vdd_ule=0.35;"
        "replacement=lru"
    )
    BASE = ["sweep", "--suite", "mix1", "--axes", AXES,
            "--trace-length", "1500", "--seed", "3"]

    def test_mix_suite_sweep_runs(self, trace_store_env, capsys):
        assert main(self.BASE) == 0
        assert "Exploration ranking" in capsys.readouterr().out

    def test_mix_suite_serial_matches_parallel(
        self, tmp_path, trace_store_env, capsys
    ):
        serial = tmp_path / "serial.txt"
        parallel = tmp_path / "parallel.txt"
        assert main(self.BASE + ["--out", str(serial)]) == 0
        assert main(
            self.BASE + ["--jobs", "2", "--out", str(parallel)]
        ) == 0
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()
        # Inline mix traces travel with their job chunks: the parallel
        # run publishes no entry to the trace store.
        entries = [p for p in trace_store_env.glob("*/*") if p.is_dir()]
        assert entries == []

    def test_unknown_suite_rejected(self, capsys):
        assert main(
            ["sweep", "--suite", "mix99", "--axes", self.AXES]
        ) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_explicit_axes_override_wins(self, trace_store_env, capsys):
        axes = self.AXES + ";suite=smallbench"
        assert main(
            ["sweep", "--suite", "mix1", "--axes", axes,
             "--trace-length", "1500", "--seed", "3"]
        ) == 0
        assert "smallbench" in capsys.readouterr().out

    def test_resume_engine_drift_warns(
        self, tmp_path, trace_store_env, capsys
    ):
        import json

        saved = tmp_path / "campaign.json"
        base = ["sweep", "--axes", self.AXES, "--trace-length", "1500",
                "--seed", "3"]
        assert main(base + ["--save-json", str(saved)]) == 0
        payload = json.loads(saved.read_text())
        payload["meta"]["engine_fingerprint"] = "not-this-engine"
        saved.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(base + ["--resume", str(saved)]) == 0
        err = capsys.readouterr().err
        assert "re-simulate (engine changed)" in err

    def test_resume_same_engine_is_quiet(
        self, tmp_path, trace_store_env, capsys
    ):
        saved = tmp_path / "campaign.json"
        base = ["sweep", "--axes", self.AXES, "--trace-length", "1500",
                "--seed", "3"]
        assert main(base + ["--save-json", str(saved)]) == 0
        capsys.readouterr()
        assert main(base + ["--resume", str(saved)]) == 0
        assert "engine changed" not in capsys.readouterr().err


class TestPopulationSuite:
    def test_population_mix_suite(self, trace_store_env, capsys):
        assert main(
            ["population", "--dies", "4", "--trace-length", "1500",
             "--suite", "mix2"]
        ) == 0
        assert "Die population" in capsys.readouterr().out

    def test_population_unknown_suite_rejected(self, capsys):
        assert main(
            ["population", "--dies", "4", "--suite", "nope"]
        ) == 2
        assert "nope" in capsys.readouterr().err


class TestScheduleWorkloads:
    def test_schedule_mix_workload(self, trace_store_env, capsys):
        assert main(
            ["schedule", "--workload", "mix3", "--trace-length", "2000",
             "--epoch", "500"]
        ) == 0
        assert "mix3" in capsys.readouterr().out

    def test_schedule_ingested_workload(
        self, tmp_path, trace_store_env, capsys
    ):
        path = tmp_path / "demo.k6"
        path.write_text(K6_TEXT * 40, encoding="utf-8")
        assert main(["ingest", str(path)]) == 0
        capsys.readouterr()
        assert main(
            ["schedule", "--workload", "demo", "--trace-length", "2000",
             "--epoch", "60"]
        ) == 0
        assert "demo" in capsys.readouterr().out


def _kill_worker(jobs):
    """A job-group runner that kills the pool worker running it."""
    os._exit(1)


class TestErrorContract:
    """Malformed input: exit 2, nothing on stdout, one error line."""

    # ``{file}`` is a regular file, ``{bad_json}`` holds no JSON,
    # ``{list_json}`` a JSON list and ``{missing}`` does not exist.
    # ``usage`` cases are argparse's own errors (SystemExit(2), its usage
    # printed above the error line); the rest reach the error boundary
    # in ``main``.
    @pytest.mark.parametrize(
        "argv, usage",
        [
            pytest.param(["run", "nosuch"], False,
                         id="run-unknown-experiment"),
            pytest.param(["run", "fig3", "--trace-length", "0"], True,
                         id="run-zero-trace-length"),
            pytest.param(["run", "tab-exectime", "--trace-length", "-5"],
                         True, id="run-negative-trace-length"),
            pytest.param(["run", "tab-area", "--cache-dir", "{file}/sub"],
                         False, id="run-cache-dir-under-file"),
            pytest.param(["design", "C"], True,
                         id="design-unknown-scenario"),
            pytest.param(["all", "--out-dir", "{file}/sub"], False,
                         id="all-out-dir-under-file"),
            pytest.param(["sweep", "--trace-length", "0", "--samples", "2"],
                         True, id="sweep-zero-trace-length"),
            pytest.param(["sweep", "--resume", "{bad_json}"], False,
                         id="sweep-resume-not-json"),
            pytest.param(["sweep", "--carbon", "mars"], False,
                         id="sweep-unknown-carbon"),
            pytest.param(["sweep", "--axes", "bogus=1"], False,
                         id="sweep-unknown-axis"),
            pytest.param(["sweep", "--dies", "-1"], True,
                         id="sweep-negative-dies"),
            pytest.param(["sweep", "--axes", "ule_ways=9"], False,
                         id="sweep-no-candidate-ways"),
            pytest.param(["sweep", "--axes", "vdd_ule=0.1"], False,
                         id="sweep-no-candidate-vdd"),
            pytest.param(["sweep", "--axes", "vdd_ule=0.1", "--surrogate"],
                         False, id="sweep-surrogate-no-candidate"),
            pytest.param(["schedule", "--workload", "nosuch"], False,
                         id="schedule-unknown-workload"),
            pytest.param(["population", "--suite", "nosuch"], False,
                         id="population-unknown-suite"),
            pytest.param(["transients", "--cache-dir", "{file}/sub"],
                         False, id="transients-cache-dir-under-file"),
            pytest.param(["pareto", "{missing}"], False,
                         id="pareto-missing-file"),
            pytest.param(["pareto", "{list_json}"], False,
                         id="pareto-not-a-campaign"),
            pytest.param(["ingest", "{missing}"], False,
                         id="ingest-missing-file"),
            pytest.param(["ingest", "{file}", "--skip", "-5"], True,
                         id="ingest-negative-skip"),
            pytest.param(["traces", "list", "ghost"], False,
                         id="traces-unknown-name"),
            pytest.param(["serve", "--cache-dir", "{file}/sub"], False,
                         id="serve-cache-dir-under-file"),
            pytest.param(["submit", "--port", "1"], False,
                         id="submit-no-service"),
            pytest.param(["serve", "--port", "99999"], True,
                         id="serve-port-out-of-range"),
            pytest.param(["submit", "--port", "99999"], True,
                         id="submit-port-out-of-range"),
        ],
    )
    def test_malformed_input_exits_2(
        self, argv, usage, tmp_path, trace_store_env, capsys
    ):
        regular = tmp_path / "regular"
        regular.write_text("", encoding="utf-8")
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json", encoding="utf-8")
        list_json = tmp_path / "list.json"
        list_json.write_text("[]", encoding="utf-8")
        argv = [
            arg.format(
                file=regular, bad_json=bad_json, list_json=list_json,
                missing=tmp_path / "nope",
            )
            for arg in argv
        ]
        if usage:
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            status = exit_info.value.code
        else:
            status = main(argv)
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        prefix = f"repro {argv[0]}: error: "
        errors = [
            line for line in captured.err.splitlines()
            if line.startswith(prefix)
        ]
        assert len(errors) == 1, captured.err
        if not usage:
            assert captured.err == errors[0] + "\n"

    def test_twice_dead_workers_exit_2_with_one_line(
        self, monkeypatch, capsys
    ):
        """A pool worker that dies again in the fresh pool: one line."""
        from repro.engine import session as session_module

        monkeypatch.setattr(session_module, "execute_group", _kill_worker)
        status = main(
            ["run", "fig4", "--jobs", "2", "--trace-length", "2000"]
        )
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.startswith("repro run: error: ")
        assert captured.err.count("\n") == 1

    def test_serve_busy_port_fails_fast(self, capsys):
        """A port someone else holds: exit 2 at once, no workers left."""
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            before = set(threading.enumerate())
            outcome = {}
            started = time.monotonic()
            # A daemon thread: if the bind wrongly succeeded, ``serve``
            # would block forever, and the join timeout fails the test.
            runner = threading.Thread(
                target=lambda: outcome.update(
                    status=main(["serve", "--port", str(port)])
                ),
                daemon=True,
            )
            runner.start()
            runner.join(timeout=5.0)
            elapsed = time.monotonic() - started
        assert not runner.is_alive() and elapsed < 5.0
        assert outcome["status"] == 2
        assert set(threading.enumerate()) <= before
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.startswith("repro serve: error: ")
        assert captured.err.count("\n") == 1

    def test_entry_point_reports_without_traceback(self):
        """``python -m repro`` exits 2 through the same boundary."""
        result = subprocess.run(
            [sys.executable, "-m", "repro", "run", "nosuch"],
            capture_output=True, text=True, env=_src_env(),
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith(
            "repro run: error: unknown experiment 'nosuch'"
        )
        assert result.stderr.count("\n") == 1


def _src_env() -> dict:
    """The environment with this checkout's ``repro`` first on the path."""
    import repro

    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "PYTHONPATH": src + (os.pathsep + path if path else ""),
    }


def test_cli_import_loads_no_other_repro_module():
    """Subcommands import what they use: importing the CLI loads no
    other ``repro`` module, so every run's set-up stays minimal."""
    code = (
        "import sys, repro.__main__; "
        "print(*sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'repro'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=_src_env(), check=True,
    )
    assert result.stdout.split() == ["repro", "repro.__main__"]


def test_help_renders_for_every_subcommand(capsys):
    """Help texts format (argparse expands ``%`` only when rendering),
    and a subcommand's own default joins the shared flag's help."""
    for command in ("list", "run", "design", "all", "sweep", "pareto",
                    "schedule", "population", "transients", "ingest",
                    "traces", "serve", "submit"):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: repro {command}")
        if command in ("sweep", "submit"):
            assert "(default: 20000)" in " ".join(out.split())
