"""One pass of one benchmark workload, run in a fresh interpreter.

``run.py`` starts this script once per pass, so every pass pays its
own imports and starts with empty in-process caches::

    python perfbench/workload.py <workload> <phase> --seed N \
        --work DIR --result FILE [--trace]

``phase`` is ``import`` (time the imports and stop), ``cold`` (run the
workload into the fresh directories under ``--work``) or ``warm`` (run
it again over what the cold pass stored there).  The pass writes one
JSON object to ``--result``: its set-up and wall time, per-result
latencies, output digests, check outcomes and peak memory; with
``--trace`` also the per-layer spans of :mod:`tracer`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import pathlib
import pickle
import resource
import statistics
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent

#: Modules each workload's command uses, imported before the first
#: call; their import time is the pass's set-up time.
SETUP_IMPORTS = {
    "repro-all": ("repro.__main__", "repro.experiments", "repro.engine.session"),
    "sweep-grid": ("repro.__main__", "repro.explore", "repro.engine.session"),
    "service-fleet": ("repro.service", "repro.engine.jobs"),
}

#: ``service-fleet`` request grid: benchmarks x trace seeds x chips x
#: modes x Vdd scales, at a short trace so service overheads stay
#: visible next to simulation time.
FLEET_TRACE_LENGTH = 4_000
FLEET_TRACE_SEEDS = 12
FLEET_CHIPS = ("proposed", "baseline")
FLEET_MODES = ("hp", "ule")
FLEET_VDD_SCALES = (None, 1.1)
#: Requests per client batch: two clients' batches fit the default
#: 256-entry admission queue together, so nothing is shed.
FLEET_BATCH = 64
#: Rounds per pass, each on its own trace seeds; the pass reports the
#: median round.
FLEET_ROUNDS = 4
#: How often the service re-checks job states for progress streams.
FLEET_POLL_S = 0.01
FLEET_JOIN_TIMEOUT_S = 60.0
#: Library-mode cross-check sample of the cold fleet's payloads.
FLEET_LIBRARY_SAMPLE = 16


class LineClock(io.TextIOBase):
    """A text sink that timestamps every line starting with ``marker``.

    Stands in for ``sys.stdout``/``sys.stderr`` around an in-process
    command, so result completions are observed from outside the
    program without wrapping any of its functions.
    """

    def __init__(self, marker: str):
        self.marker = marker
        self.lines: list[str] = []
        self.marked: list[tuple[float, str]] = []
        self._partial = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        now = time.perf_counter()
        self._partial += text
        *complete, self._partial = self._partial.split("\n")
        for line in complete:
            self.lines.append(line)
            if line.startswith(self.marker):
                self.marked.append((now, line))
        return len(text)


class Untraced:
    """Stand-in for :class:`tracer.Tracer` when the pass is not traced."""

    def start(self) -> None:
        """Nothing to record."""

    def stop(self) -> None:
        """Nothing to record."""


def run_cli(argv: list[str], marker: str, stream: str, tracer) -> dict:
    """Run ``repro <argv>`` in-process, timing lines from ``stream``."""
    from repro.__main__ import main

    clock = LineClock(marker)
    sinks = {"stdout": clock, "stderr": io.StringIO()}
    if stream == "stderr":
        sinks = {"stdout": io.StringIO(), "stderr": clock}
    with contextlib.redirect_stdout(sinks["stdout"]), \
            contextlib.redirect_stderr(sinks["stderr"]):
        tracer.start()
        started = time.perf_counter()
        try:
            status = main(argv)
        except SystemExit as error:
            status = error.code if isinstance(error.code, int) else 1
        wall = time.perf_counter() - started
        tracer.stop()
    return {
        "wall_s": wall,
        "span_s": wall,
        "exit": status or 0,
        "marked": [(stamp - started, line) for stamp, line in clock.marked],
        "lines": clock.lines,
    }


def digest_files(paths: list[pathlib.Path]) -> str:
    """sha256 over the named files' names and bytes, in the given order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# ----------------------------------------------------------- repro-all
def repro_all(phase: str, seed: int, work: pathlib.Path, tracer) -> dict:
    """``repro all`` serially: cold into a fresh cache, warm over it."""
    out = work / f"out-{phase}"
    run = run_cli(
        ["all", "--seed", str(seed), "--out-dir", str(out),
         "--cache-dir", str(work / "cache")],
        "[done]", "stdout", tracer,
    )
    reports = sorted(out.glob("*.txt"))
    # A report's latency is its experiment's run time in the serial
    # pass: from the previous report's write (or the start) to its own.
    stamps = [0.0, *(stamp for stamp, _line in run.pop("marked"))]
    run["latencies"] = [b - a for a, b in zip(stamps, stamps[1:])]
    run["results"] = len(reports)
    run["digest"] = digest_files(reports)
    run["checks"] = {
        "exit 0": run["exit"] == 0,
        "a report per experiment": len(reports) == len(run["latencies"]) > 0,
    }
    return run


# ---------------------------------------------------------- sweep-grid
def sweep_grid(phase: str, seed: int, work: pathlib.Path, tracer) -> dict:
    """The default ``repro sweep``: cold fills the cache, warm reads it."""
    out = work / f"sweep-{phase}.txt"
    run = run_cli(
        ["sweep", "--seed", str(seed), "--cache-dir", str(work / "cache"),
         "--out", str(out)],
        "[sweep] ", "stderr", tracer,
    )
    stats_line = next(
        (line for line in run["lines"] if "jobs requested:" in line), ""
    )
    requested = int(stats_line.split()[1]) if stats_line else 0
    # Jobs are delivered in progress chunks ("[sweep] done/total jobs",
    # one per trace group); a job's latency is its chunk's time, from
    # the previous chunk's line (or the start) to its own.
    run["latencies"] = []
    previous, delivered = 0.0, 0
    for stamp, line in run.pop("marked"):
        if line.endswith(" jobs"):
            done = int(line.split()[1].split("/")[0])
            run["latencies"] += [stamp - previous] * (done - delivered)
            previous, delivered = stamp, done
    run["results"] = requested
    run["digest"] = (
        hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else ""
    )
    run["checks"] = {
        "exit 0": run["exit"] == 0,
        "session summary printed": requested > 0,
    }
    if phase == "warm":
        run["checks"]["warm pass executes nothing"] = (
            f"{requested} jobs requested: 0 executed" in stats_line
        )
    return run


# ------------------------------------------------------- service-fleet
def fleet_requests(seed: int, round_index: int) -> list:
    """One round's request list, in request order (one trace per 8)."""
    from repro.service import JobRequest
    from repro.tech.operating import Mode, operating_point_for
    from repro.workloads.mediabench import BENCHMARKS

    requests = []
    for index in range(FLEET_TRACE_SEEDS):
        trace_seed = seed * 1000 + round_index * FLEET_TRACE_SEEDS + index
        for spec in BENCHMARKS:
            for chip in FLEET_CHIPS:
                for mode in FLEET_MODES:
                    nominal = operating_point_for(Mode(mode)).vdd
                    for scale in FLEET_VDD_SCALES:
                        requests.append(JobRequest(
                            benchmark=spec.name,
                            trace_length=FLEET_TRACE_LENGTH,
                            seed=trace_seed,
                            mode=mode,
                            chip=chip,
                            vdd=None if scale is None else nominal * scale,
                        ))
    return requests


def drive(client, requests: list, events: list, failures: list) -> None:
    """One tenant's closed loop: submit a batch, stream it to the end."""
    for start in range(0, len(requests), FLEET_BATCH):
        batch = requests[start:start + FLEET_BATCH]
        submitted = time.perf_counter()
        try:
            keys = client.submit_all(batch)
            for event in client.stream(keys):
                if event.get("state") in ("done", "failed"):
                    events.append(
                        (submitted, time.perf_counter(), event["state"])
                    )
        except Exception as error:  # reported as a failed operation
            failures.append(f"{client.tenant}: {error!r}")
            return


def fleet_round(handle, requests: list, failures: list) -> dict:
    """Both tenants drive their overlapping halves of one round."""
    from repro.service import ServiceClient

    n = len(requests)
    halves = {"alice": requests[: n * 3 // 5], "bob": requests[n * 2 // 5:]}
    events: list = []
    threads = [
        threading.Thread(
            target=drive,
            args=(ServiceClient(handle.host, handle.port, tenant=tenant),
                  half, events, failures),
            name=f"client-{tenant}",
        )
        for tenant, half in halves.items()
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=FLEET_JOIN_TIMEOUT_S)
    failures += [f"stuck {t.name}" for t in threads if t.is_alive()]
    return {
        "wall_s": max((done for _s, done, _st in events), default=started)
        - started,
        "submissions": sum(len(half) for half in halves.values()),
        "completed": sum(1 for _s, _d, state in events if state == "done"),
        "latencies": [done - sub for sub, done, _st in events],
    }


def service_fleet(
    phase: str, seed: int, work: pathlib.Path, tracer
) -> dict:
    """Two client threads drive an in-process two-worker service.

    Each round runs twice: cold on a service whose store starts empty,
    then warm on a second service instance (a restarted or sibling
    replica) sharing that store, so every warm job is a store read.
    Interleaving the rounds spreads cold and warm samples over the pass.
    """
    from repro.engine.jobs import execute_job, job_key
    from repro.service import (
        ServiceScheduler,
        ShardedResultStore,
        resolve,
        serve_in_thread,
    )

    requests = [
        fleet_requests(seed, index) for index in range(FLEET_ROUNDS)
    ]
    services = []
    for _name in ("cold", "warm"):
        scheduler = ServiceScheduler(
            ShardedResultStore(work / "store"), workers=2
        )
        scheduler.start()
        services.append(
            (scheduler, serve_in_thread(scheduler, poll_interval=FLEET_POLL_S))
        )
    (cold, cold_handle), (warm, warm_handle) = services
    try:
        failures: list[str] = []
        rounds = []
        tracer.start()
        started = time.perf_counter()
        for batch in requests:
            rounds.append((fleet_round(cold_handle, batch, failures),
                           fleet_round(warm_handle, batch, failures)))
        span = time.perf_counter() - started
        tracer.stop()
        flat = [request for batch in requests for request in batch]
        keys = [job_key(resolve(request)) for request in flat]
        payloads = [cold.result_bytes(key) for key in keys]
        submissions = sum(c["submissions"] + w["submissions"]
                          for c, w in rounds)
        completed = sum(c["completed"] + w["completed"] for c, w in rounds)
        stride = max(1, len(flat) // FLEET_LIBRARY_SAMPLE)
        checks = {
            "clients finished": not failures,
            "every submission completed": completed == submissions,
            "payloads equal library execution": all(
                payloads[i] == pickle.dumps(
                    execute_job(resolve(flat[i])),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
                for i in range(0, len(flat), stride)
            ),
            "warm rounds served from the store": (
                warm.stats.executed == 0 and warm.stats.served_store > 0
            ),
            "warm payloads equal cold payloads": all(
                warm.result_bytes(key) == payload
                for key, payload in zip(keys, payloads)
            ),
        }
        return {
            "wall_s": statistics.median(c["wall_s"] for c, _w in rounds),
            "warm_walls": [w["wall_s"] for _c, w in rounds],
            "span_s": span,
            "exit": 0,
            "latencies": [v for c, _w in rounds for v in c["latencies"]],
            "results": rounds[0][0]["submissions"],
            "submissions": submissions,
            "failed_jobs": submissions - completed,
            "digest": hashlib.sha256(b"".join(payloads)).hexdigest(),
            "checks": checks,
            "errors": failures,
            "scheduler": {
                key: value + warm.stats.to_dict()[key]
                for key, value in cold.stats.to_dict().items()
            },
        }
    finally:
        for scheduler, handle in services:
            handle.close()
            scheduler.stop()


WORKLOADS = {
    "repro-all": repro_all,
    "sweep-grid": sweep_grid,
    "service-fleet": service_fleet,
}


def main() -> int:
    """Run one pass and write its JSON result file."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("phase", choices=("import", "cold", "warm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=pathlib.Path, required=True)
    parser.add_argument("--result", type=pathlib.Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    started = time.perf_counter()
    for name in SETUP_IMPORTS[args.workload]:
        importlib.import_module(name)
    result = {"setup_s": time.perf_counter() - started}
    if args.phase != "import":
        tracer = Untraced()
        if args.trace:
            sys.path.insert(0, str(HERE))
            import tracer as tracing

            tracer = tracing.install()
        result.update(
            WORKLOADS[args.workload](args.phase, args.seed, args.work, tracer)
        )
        result.pop("lines", None)
        if args.trace:
            result["trace"] = tracer.report(result["span_s"])
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
