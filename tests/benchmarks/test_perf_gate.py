"""The perf_smoke regression gate (--check-against) logic.

The script itself lives outside the package (``benchmarks/``), so it is
loaded by path; the timed evaluations and the timed sweep are stubbed
to make every gate path deterministic — the real end-to-end timing runs
in CI.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

_SCRIPT = (
    pathlib.Path(__file__).resolve().parent.parent.parent
    / "benchmarks"
    / "perf_smoke.py"
)

#: The stubbed fresh metrics every gate test sees.
FRESH = {"speedup": 20.0, "sweep_speedup": 500.0, "batch_vs_perjob": 5.0}


def _fake_sweep_metrics(trace_length, candidates, *, identical=True) -> dict:
    return {
        "sweep_candidates": candidates,
        "sweep_trace_length": trace_length,
        "sweep_jobs": candidates * 4,
        "sweep_batched_seconds": 0.1,
        "sweep_perjob_seconds": 0.1 * FRESH["batch_vs_perjob"],
        "sweep_reference_seconds_extrapolated": (
            0.1 * FRESH["sweep_speedup"]
        ),
        "sweep_speedup": FRESH["sweep_speedup"],
        "batch_vs_perjob": FRESH["batch_vs_perjob"],
        "min_sweep_speedup": 100.0,
        "min_batch_vs_perjob": 3.0,
        "sweep_identical": identical,
    }


@pytest.fixture()
def perf_smoke(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perf_smoke_under_test", _SCRIPT
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)

    class _FakeEvaluation:
        rows = [None] * 6

        @staticmethod
        def render() -> str:
            return "identical tables"

    def fake_timed(run, trace_length):
        seconds = 0.1 if run is module.execute_job else 2.0  # 20x
        return seconds, _FakeEvaluation()

    monkeypatch.setattr(module, "_timed_evaluation", fake_timed)
    monkeypatch.setattr(module, "_timed_sweep", _fake_sweep_metrics)
    monkeypatch.setattr(module, "cached_chips", lambda scenario: None)
    yield module
    sys.modules.pop(spec.name, None)


def _baseline(tmp_path, speedup=None, **overrides) -> str:
    payload = dict(FRESH)
    if speedup is not None:
        payload["speedup"] = speedup
    payload.update(overrides)
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestRegressionGate:
    def test_passes_within_tolerance(self, perf_smoke, tmp_path):
        out = tmp_path / "fresh.json"
        status = perf_smoke.main(
            ["--check-against", _baseline(tmp_path, 22.0),
             "--out", str(out)]
        )
        assert status == 0
        fresh = json.loads(out.read_text())
        assert fresh["speedup"] == 20.0
        assert fresh["sweep_speedup"] == 500.0
        assert fresh["batch_vs_perjob"] == 5.0

    def test_fails_beyond_tolerance(self, perf_smoke, tmp_path, capsys):
        status = perf_smoke.main(
            ["--check-against", _baseline(tmp_path, 40.0),
             "--out", str(tmp_path / "fresh.json")]
        )
        assert status == 1
        assert "regressed" in capsys.readouterr().err

    def test_boundary_is_exactly_thirty_percent(
        self, perf_smoke, tmp_path
    ):
        """A fresh 20x against a baseline of exactly 20/0.7: just at
        the floor passes; one hair above the baseline fails."""
        at_floor = 20.0 / (1.0 - perf_smoke.REGRESSION_TOLERANCE)
        assert perf_smoke.main(
            ["--check-against", _baseline(tmp_path, at_floor),
             "--out", str(tmp_path / "fresh.json")]
        ) == 0
        assert perf_smoke.main(
            ["--check-against", _baseline(tmp_path, at_floor + 0.1),
             "--out", str(tmp_path / "fresh.json")]
        ) == 1

    def test_mismatched_trace_length_fails(
        self, perf_smoke, tmp_path, capsys
    ):
        """Speedups from different workloads are incomparable: a
        baseline recorded at another trace length must not gate."""
        path = _baseline(tmp_path, trace_length=60_000)
        status = perf_smoke.main(
            ["--check-against", path, "--trace-length", "5000",
             "--out", str(tmp_path / "fresh.json")]
        )
        assert status == 1
        assert "comparable" in capsys.readouterr().err

    def test_matching_trace_length_gates(self, perf_smoke, tmp_path):
        path = _baseline(tmp_path, trace_length=60_000)
        assert perf_smoke.main(
            ["--check-against", path,
             "--out", str(tmp_path / "fresh.json")]
        ) == 0

    def test_baseline_without_speedup_fails(
        self, perf_smoke, tmp_path, capsys
    ):
        """A baseline lacking a positive speedup must fail loudly —
        a zero floor would make the gate pass vacuously forever."""
        path = tmp_path / "baseline.json"
        path.write_text("{}")
        status = perf_smoke.main(
            ["--check-against", str(path),
             "--out", str(tmp_path / "fresh.json")]
        )
        assert status == 1
        assert "no usable 'speedup'" in capsys.readouterr().err

    def test_missing_baseline_fails(self, perf_smoke, tmp_path, capsys):
        status = perf_smoke.main(
            ["--check-against", str(tmp_path / "absent.json"),
             "--out", str(tmp_path / "fresh.json")]
        )
        assert status == 1
        assert "cannot read baseline" in capsys.readouterr().err

    def test_no_baseline_keeps_absolute_floors_only(
        self, perf_smoke, tmp_path
    ):
        assert perf_smoke.main(
            ["--out", str(tmp_path / "fresh.json")]
        ) == 0


class TestCommandLine:
    def test_help_exits_zero(self, perf_smoke, capsys):
        """Every help string must survive argparse's %-formatting."""
        with pytest.raises(SystemExit) as exit_info:
            perf_smoke.main(["--help"])
        assert exit_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "drops more than 30% below its baseline value" in text


class TestSweepGate:
    def test_sweep_regression_fails(self, perf_smoke, tmp_path, capsys):
        """The batching throughput is gated exactly like the backend
        speedup: a big drop below the baseline's sweep_speedup fails
        even when the backend speedup is healthy."""
        status = perf_smoke.main(
            ["--check-against",
             _baseline(tmp_path, sweep_speedup=2_000.0),
             "--out", str(tmp_path / "fresh.json")]
        )
        assert status == 1
        assert "sweep_speedup" in capsys.readouterr().err

    def test_batch_vs_perjob_regression_fails(
        self, perf_smoke, tmp_path, capsys
    ):
        status = perf_smoke.main(
            ["--check-against",
             _baseline(tmp_path, batch_vs_perjob=20.0),
             "--out", str(tmp_path / "fresh.json")]
        )
        assert status == 1
        assert "batch_vs_perjob" in capsys.readouterr().err

    def test_baseline_without_sweep_metric_fails(
        self, perf_smoke, tmp_path, capsys
    ):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"speedup": 20.0}))
        status = perf_smoke.main(
            ["--check-against", str(path),
             "--out", str(tmp_path / "fresh.json")]
        )
        assert status == 1
        assert "no usable 'sweep_speedup'" in capsys.readouterr().err

    def test_mismatched_sweep_candidates_fails(
        self, perf_smoke, tmp_path, capsys
    ):
        """Sharing degree scales with the candidate count: sweeps of
        different widths are incomparable."""
        path = _baseline(tmp_path, sweep_candidates=50)
        status = perf_smoke.main(
            ["--check-against", path, "--sweep-candidates", "10",
             "--out", str(tmp_path / "fresh.json")]
        )
        assert status == 1
        assert "comparable" in capsys.readouterr().err

    def test_below_sweep_floor_fails(
        self, perf_smoke, tmp_path, monkeypatch, capsys
    ):
        def slow_sweep(trace_length, candidates):
            metrics = _fake_sweep_metrics(trace_length, candidates)
            metrics["sweep_speedup"] = 40.0  # < MIN_SWEEP_SPEEDUP
            return metrics

        monkeypatch.setattr(perf_smoke, "_timed_sweep", slow_sweep)
        status = perf_smoke.main(
            ["--out", str(tmp_path / "fresh.json")]
        )
        assert status == 1
        assert "below floor" in capsys.readouterr().err

    def test_diverged_sweep_results_fail(
        self, perf_smoke, tmp_path, monkeypatch, capsys
    ):
        """Bit-identity is the contract — a fast but wrong batch path
        must never pass the benchmark."""
        monkeypatch.setattr(
            perf_smoke,
            "_timed_sweep",
            lambda trace_length, candidates: (
                _fake_sweep_metrics(
                    trace_length, candidates, identical=False
                )
            ),
        )
        status = perf_smoke.main(
            ["--out", str(tmp_path / "fresh.json")]
        )
        assert status == 1
        assert "diverged" in capsys.readouterr().err


def _fake_surrogate_record(
    hv_ratio=0.99, jobs_ratio=0.3333, identical=True, seed=2013,
    samples=90, trace_length=4_000,
) -> dict:
    return {
        "experiment": "surrogate benchmark (stubbed)",
        "seed": seed,
        "surrogate_samples": samples,
        "surrogate_trace_length": trace_length,
        "candidates_total": samples,
        "candidates_simulated": samples // 3,
        "budget": samples // 3,
        "rounds": 4,
        "converged": True,
        "jobs_submitted": samples // 3 * 10,
        "jobs_executed": samples // 3 * 10,
        "exhaustive_jobs": samples * 10,
        "surrogate_jobs_ratio": jobs_ratio,
        "surrogate_hv_ratio": hv_ratio,
        "surrogate_seconds": 1.0,
        "exhaustive_seconds": 3.0,
        "max_surrogate_jobs_ratio": 0.3333,
        "min_surrogate_hv_ratio": 0.95,
        "surrogate_identical": identical,
    }


class TestSurrogateGate:
    @pytest.fixture()
    def stubbed(self, perf_smoke, monkeypatch):
        def fake_record(seed, samples, trace_length):
            return _fake_surrogate_record(
                seed=seed, samples=samples, trace_length=trace_length
            )

        monkeypatch.setattr(
            perf_smoke, "_surrogate_record", fake_record
        )
        return perf_smoke

    def test_healthy_run_passes(self, stubbed, tmp_path):
        out = tmp_path / "fresh.json"
        assert stubbed.main(["--surrogate", "--out", str(out)]) == 0
        fresh = json.loads(out.read_text())
        assert fresh["surrogate_hv_ratio"] == 0.99
        assert fresh["surrogate_jobs_ratio"] == 0.3333

    def test_low_hv_ratio_fails(
        self, perf_smoke, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            perf_smoke,
            "_surrogate_record",
            lambda *a: _fake_surrogate_record(hv_ratio=0.90),
        )
        status = perf_smoke.main(
            ["--surrogate", "--out", str(tmp_path / "fresh.json")]
        )
        assert status == 1
        assert "surrogate_hv_ratio" in capsys.readouterr().err

    def test_jobs_ratio_above_ceiling_fails(
        self, perf_smoke, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            perf_smoke,
            "_surrogate_record",
            lambda *a: _fake_surrogate_record(jobs_ratio=0.5),
        )
        status = perf_smoke.main(
            ["--surrogate", "--out", str(tmp_path / "fresh.json")]
        )
        assert status == 1
        assert "surrogate_jobs_ratio" in capsys.readouterr().err

    def test_serial_parallel_divergence_fails(
        self, perf_smoke, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            perf_smoke,
            "_surrogate_record",
            lambda *a: _fake_surrogate_record(identical=False),
        )
        status = perf_smoke.main(
            ["--surrogate", "--out", str(tmp_path / "fresh.json")]
        )
        assert status == 1
        assert "diverged" in capsys.readouterr().err

    def test_regression_gate_on_hv_ratio(
        self, stubbed, tmp_path, capsys
    ):
        # 0.99 fresh against an (hypothetical) much better baseline
        # computed so the 30% tolerance fails: 0.99 < 1.5 * 0.7.
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(_fake_surrogate_record(hv_ratio=1.5))
        )
        status = stubbed.main(
            ["--surrogate", "--check-against", str(baseline),
             "--out", str(tmp_path / "fresh.json")]
        )
        assert status == 1
        assert "regressed" in capsys.readouterr().err

    def test_mismatched_workload_fails(
        self, stubbed, tmp_path, capsys
    ):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(_fake_surrogate_record(samples=40))
        )
        status = stubbed.main(
            ["--surrogate", "--check-against", str(baseline),
             "--out", str(tmp_path / "fresh.json")]
        )
        assert status == 1
        assert "comparable" in capsys.readouterr().err

    def test_different_seed_still_comparable(self, stubbed, tmp_path):
        """The CI matrix checks both seeds against one committed
        baseline: seeds differ, workload shape matches, gate runs."""
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(_fake_surrogate_record(seed=2014))
        )
        assert stubbed.main(
            ["--surrogate", "--check-against", str(baseline),
             "--out", str(tmp_path / "fresh.json")]
        ) == 0

    def test_baseline_without_hv_ratio_fails(
        self, stubbed, tmp_path, capsys
    ):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{}")
        status = stubbed.main(
            ["--surrogate", "--check-against", str(baseline),
             "--out", str(tmp_path / "fresh.json")]
        )
        assert status == 1
        err = capsys.readouterr().err
        assert "no usable 'surrogate_hv_ratio'" in err


class TestCheckedInBaseline:
    def test_checked_in_baseline_is_readable(self):
        """CI points --check-against at the committed file; it must
        parse and carry every gated metric above its absolute floor."""
        repo_root = _SCRIPT.parent.parent
        payload = json.loads(
            (repo_root / "BENCH_engine.json").read_text()
        )
        assert payload["speedup"] >= payload["min_speedup"]
        assert (
            payload["sweep_speedup"] >= payload["min_sweep_speedup"]
        )
        assert (
            payload["batch_vs_perjob"]
            >= payload["min_batch_vs_perjob"]
        )

    def test_checked_in_surrogate_baseline_is_readable(self):
        repo_root = _SCRIPT.parent.parent
        payload = json.loads(
            (repo_root / "BENCH_surrogate.json").read_text()
        )
        assert (
            payload["surrogate_hv_ratio"]
            >= payload["min_surrogate_hv_ratio"]
        )
        assert (
            payload["surrogate_jobs_ratio"]
            <= payload["max_surrogate_jobs_ratio"] + 1e-9
        )
        assert payload["surrogate_identical"] is True