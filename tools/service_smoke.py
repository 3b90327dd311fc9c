"""Fleet-service smoke: two concurrent clients, one overlapping sweep.

Boots the full service stack (sharded store, fair scheduler, HTTP API)
on an ephemeral port, then drives it the way a fleet would: two clients
submit *overlapping* halves of a benchmark sweep concurrently and wait
for completion over the streaming endpoint.  The run fails unless:

* every job completes (no stuck, failed or torn entries);
* cross-client dedup — measured as ``1 - executed / submitted``, which
  is robust to scheduling order — reaches the acceptance floor;
* every payload a client unpickles is **byte-identical** to what a
  serial library-mode session computes for the same job key.

Usage::

    python tools/service_smoke.py --out service_smoke.json
    python tools/service_smoke.py --sweep 50 --trace-length 2000
"""

from __future__ import annotations

import argparse
import json
import pathlib
import pickle
import sys
import tempfile
import threading
import time

REPO_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(REPO_SRC) not in sys.path:  # pragma: no cover - direct execution
    sys.path.insert(0, str(REPO_SRC))

from repro.engine.jobs import job_key  # noqa: E402
from repro.engine.session import SimulationSession  # noqa: E402
from repro.engine.store import ShardedResultStore  # noqa: E402
from repro.service.api import serve_in_thread  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.requests import JobRequest, resolve  # noqa: E402
from repro.service.scheduler import ServiceScheduler  # noqa: E402
from repro.workloads.mediabench import BENCHMARKS  # noqa: E402

#: Acceptance floor for cross-client deduplication.
DEDUP_FLOOR = 0.40

#: Per-client share of the sweep (45/50 each side -> 40-job overlap).
OVERLAP_MARGIN = 0.1


def build_sweep(size: int, trace_length: int) -> list[JobRequest]:
    """``size`` distinct requests cycling benchmarks x seeds x modes."""
    names = sorted(spec.name for spec in BENCHMARKS)
    return [
        JobRequest(
            benchmark=names[index % len(names)],
            trace_length=trace_length,
            seed=index // len(names) + 1,
            mode="ule" if index % 2 == 0 else "hp",
        )
        for index in range(size)
    ]


def run_smoke(
    sweep: int, trace_length: int, workers: int, store_root: str
) -> dict:
    """One full smoke pass; returns the machine-readable summary."""
    requests = build_sweep(sweep, trace_length)
    margin = max(1, int(sweep * OVERLAP_MARGIN))
    slices = {
        "alice": requests[: sweep - margin],
        "bob": requests[margin:],
    }

    store = ShardedResultStore(store_root)
    scheduler = ServiceScheduler(store, workers=workers)
    scheduler.start()
    handle = serve_in_thread(scheduler)
    print(
        f"[smoke] service on http://{handle.host}:{handle.port}; "
        f"sweep {sweep}, overlap {sweep - 2 * margin}, "
        f"{workers} workers",
        file=sys.stderr,
    )
    keys: dict[str, list[str]] = {}
    errors: dict[str, Exception] = {}

    def drive(tenant: str) -> None:
        client = ServiceClient(handle.host, handle.port, tenant=tenant)
        try:
            submitted = client.submit_all(slices[tenant])
            states = client.wait(submitted, timeout=600.0)
            bad = {k: s for k, s in states.items() if s != "done"}
            if bad:
                raise RuntimeError(f"{tenant}: non-done jobs {bad}")
            keys[tenant] = submitted
        except Exception as error:  # propagated to the main thread
            errors[tenant] = error

    started = time.monotonic()
    clients = [
        threading.Thread(target=drive, args=(tenant,), name=tenant)
        for tenant in slices
    ]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join(timeout=900.0)
    elapsed = time.monotonic() - started
    try:
        if errors:
            raise RuntimeError(f"client failures: {errors}")

        stats = scheduler.stats
        dedup = 1.0 - stats.executed / stats.submitted
        print(
            f"[smoke] {stats.submitted} submitted, "
            f"{stats.executed} executed, dedup {dedup:.1%} "
            f"in {elapsed:.1f} s",
            file=sys.stderr,
        )
        if dedup < DEDUP_FLOOR:
            raise SystemExit(
                f"FAIL: cross-client dedup {dedup:.1%} below the "
                f"{DEDUP_FLOOR:.0%} acceptance floor"
            )

        # Byte-identity: a serial library session must produce the
        # exact pickle bytes every client received.
        reference = ServiceClient(handle.host, handle.port, tenant="ref")
        with SimulationSession(jobs=1) as session:
            local = session.run_jobs(
                [resolve(request) for request in requests]
            )
        mismatches = 0
        for request, result in zip(requests, local):
            expected = pickle.dumps(
                result, protocol=pickle.HIGHEST_PROTOCOL
            )
            key = job_key(resolve(request))
            if reference.result_bytes(key) != expected:
                mismatches += 1
        if mismatches:
            raise SystemExit(
                f"FAIL: {mismatches}/{len(requests)} service payloads "
                "differ from library-mode execution"
            )
        print(
            f"[smoke] byte-identity held for all {len(requests)} jobs",
            file=sys.stderr,
        )
        return {
            "sweep": sweep,
            "trace_length": trace_length,
            "workers": workers,
            "submitted": stats.submitted,
            "executed": stats.executed,
            "attached": stats.attached,
            "served_store": stats.served_store,
            "served_memo": stats.served_memo,
            "dedup_fraction": dedup,
            "dedup_floor": DEDUP_FLOOR,
            "byte_identity_checked": len(requests),
            "elapsed_seconds": elapsed,
        }
    finally:
        handle.close()
        scheduler.stop()


def main(argv: list[str] | None = None) -> int:
    """Parse flags, run the smoke, optionally save the JSON summary."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sweep", type=int, default=50,
        help="jobs in the overlapping sweep (default: 50)",
    )
    parser.add_argument(
        "--trace-length", type=int, default=2000,
        help="dynamic instructions per job (default: 2000)",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="service executor threads (default: 4)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="write the machine-readable summary to this file",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="service-smoke-") as root:
        summary = run_smoke(
            args.sweep, args.trace_length, args.workers, root
        )
    print(json.dumps(summary, indent=2, sort_keys=True))
    if args.out:
        args.out.write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"[smoke] summary saved -> {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
