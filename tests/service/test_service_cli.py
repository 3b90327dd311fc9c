"""The ``serve``/``submit`` CLI surface, driven against a live service."""

from __future__ import annotations

import pytest

from repro.__main__ import main
from repro.engine.store import generation_store
from repro.service.api import serve_in_thread
from repro.service.scheduler import ServiceScheduler


@pytest.fixture(scope="module")
def served_port(tmp_path_factory):
    """A real service on an ephemeral port (store-backed, 2 workers)."""
    store = generation_store(tmp_path_factory.mktemp("cli-cache"))
    scheduler = ServiceScheduler(store, workers=2)
    scheduler.start()
    handle = serve_in_thread(scheduler)
    yield handle.port
    handle.close()
    scheduler.stop()


def test_submit_runs_jobs_and_reports(served_port, capsys):
    status = main(
        [
            "submit",
            "--port", str(served_port),
            "--benchmarks", "adpcm_c,epic_c",
            "--seeds", "1,2",
            "--trace-length", "1000",
            "--tenant", "cli-test",
        ]
    )
    captured = capsys.readouterr()
    assert status == 0
    assert captured.out.count(" done ") == 4
    assert "EPI [pJ]" in captured.out
    assert "4 jobs via" in captured.out
    assert "service totals" in captured.err


def test_submit_is_idempotent_and_dedups(served_port, capsys):
    argv = [
        "submit",
        "--port", str(served_port),
        "--benchmarks", "gsm_c",
        "--seeds", "7",
        "--trace-length", "1000",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert " done " in captured.out
    assert "dedup" in captured.err


def test_submit_rejects_unknown_benchmark(served_port, capsys):
    status = main(
        ["submit", "--port", str(served_port), "--benchmarks", "no_such"]
    )
    assert status == 2
    assert "error:" in capsys.readouterr().err


def test_submit_without_service_fails_cleanly(capsys):
    # An ephemeral port that nothing listens on.
    status = main(
        ["submit", "--port", "1", "--benchmarks", "adpcm_c"]
    )
    assert status == 2
    assert "no service at" in capsys.readouterr().err


def test_serve_and_submit_share_cache_generations(tmp_path, capsys):
    """`serve --cache-dir` publishes where library sessions read."""
    from repro.engine.jobs import job_key
    from repro.engine.session import SimulationSession
    from repro.service.requests import JobRequest, resolve

    scheduler = ServiceScheduler(generation_store(tmp_path), workers=2)
    scheduler.start()
    handle = serve_in_thread(scheduler)
    try:
        status = main(
            [
                "submit",
                "--port", str(handle.port),
                "--benchmarks", "adpcm_c",
                "--seeds", "3",
                "--trace-length", "1000",
            ]
        )
        assert status == 0
        request = JobRequest(
            benchmark="adpcm_c", trace_length=1000, seed=3
        )
        job = resolve(request)
        # The entry landed in the generation a library session with the
        # same --cache-dir would consult.
        assert generation_store(tmp_path).get(job_key(job)) is not None
        with SimulationSession(cache_dir=tmp_path) as session:
            session.run_jobs([job])
        assert session.stats.disk_hits == 1
    finally:
        handle.close()
        scheduler.stop()
    capsys.readouterr()
