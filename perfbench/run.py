"""End-to-end benchmark of the reproduction: one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload repro-all --seed 2013 \
        --seconds 20 --trace 0

Workloads (see ``perfbench/README.md``):

* ``repro-all``     -- ``repro all`` serially, cold then warm cache;
* ``sweep-grid``    -- the default ``repro sweep`` grid, cold then warm;
* ``service-fleet`` -- two client threads against an in-process
  two-worker service, cold then warm store.

Every pass runs in a fresh interpreter (``perfbench/workload.py``) on
fresh temporary directories under ``.perfbench-tmp/`` in the checkout,
removed before exit.  Groups of one cold pass and its warm passes
repeat while another group fits in ``--seconds``; at least one group
always runs.

With ``--trace 0`` the run reports the end-to-end metrics, measured
untraced.  With ``--trace 1`` it runs one untraced and one traced group
and reports the per-layer metrics of the traced group
(``perfbench/tracer.py``), checking that every layer fires where it
should and stays at zero calls where the workload bypasses it.

Output: a human-readable summary, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402  (perfbench/tracer.py; imports no repro code)

WORKLOADS = ("repro-all", "sweep-grid", "service-fleet")

#: The repository's calibration default (repro.core.calibration).
DEFAULT_SEED = 2013

#: Import-only interpreters started before the passes; their set-up
#: times join those of the pass interpreters in the setup_s median.
SETUP_PROBES = 2

#: Warm passes after each cold pass.  The sweep's warm pass is short,
#: so its median needs more samples; a warm ``repro all`` is long.
#: ``service-fleet`` interleaves its warm rounds with the cold ones
#: inside the cold pass (``warm_walls``).
WARM_PASSES = {"repro-all": 1, "sweep-grid": 2, "service-fleet": 0}

#: Wall-clock limit of one pass interpreter.
PASS_TIMEOUT_S = 150

#: Pinned outputs per workload and seed: the default seed and one
#: held-out seed.  ``digest`` is the sha256 of the rendered outputs;
#: ``paper_max_rel_err`` the repr of the exact accuracy figure.
PINS = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))

#: Workloads on which each layer must record at least one call.
FIRES = {
    "core.methodology": {"repro-all", "service-fleet"},
    "explore.candidates": {"repro-all", "sweep-grid"},
    "workloads.mediabench": set(WORKLOADS),
    "engine.jobs": set(WORKLOADS),
    "engine.session": {"repro-all", "sweep-grid"},
    "engine.batch": {"repro-all", "sweep-grid"},
    "engine.backends": set(WORKLOADS),
    "engine.plan": set(WORKLOADS),
    "engine.vectorized": set(WORKLOADS),
    "cpu.chip": set(WORKLOADS),
    "cache.edc_layer": {"repro-all"},
    "reliability.fault_maps": {"repro-all"},
    "explore.surrogate": {"repro-all"},
    "explore.frontier": {"repro-all"},
    "faults.sampling": {"repro-all"},
    "runtime.simulator": {"repro-all"},
    "service.store": set(WORKLOADS),
    "service.scheduler": {"service-fleet"},
    "service.client": {"service-fleet"},
    "experiments.registry": {"repro-all"},
}

#: (layer, workload, phase) that must record exactly zero calls: the
#: bypasses the workloads are built to show.
ZERO = [
    (layer, workload, phase)
    for layer in ("cache.edc_layer", "reliability.fault_maps")
    for workload, phase in (("sweep-grid", "cold"), ("sweep-grid", "warm"),
                            ("service-fleet", "cold"))
] + [
    (layer, "sweep-grid", "warm")
    for layer in ("workloads.mediabench", "engine.plan", "engine.vectorized")
]

#: Counters of the service scheduler reported as per-layer metrics.
SCHEDULER_COUNTERS = (
    "submitted", "executed", "attached", "served_store", "served_memo",
    "shed", "retried", "failed",
)

#: Experiment ids with a per-experiment span metric.
EXPERIMENTS = (
    "ablation-cachesize", "ablation-memlat", "ablation-vdd", "ablation-ways",
    "fig3", "fig4", "population", "sustain", "sweep-cells", "sweep-edc",
    "sweep-policy", "sweep-space", "sweep-surrogate", "tab-area", "tab-edc",
    "tab-exectime", "tab-modeswitch", "tab-reliability", "tab-sizing",
    "tab-wcet", "transients",
)


class Tally:
    """Attempted and failed operations, with the failures named."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        """Count one operation; record it when it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def child(workload: str, phase: str, seed: int, work: pathlib.Path,
          trace: bool = False, importtime: bool = False) -> dict | None:
    """Run one pass interpreter; its result dict, or None if it died."""
    result = work / f"{phase}-result.json"
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        REPRO_TRACE_STORE=str(work / "traces"),
        TMPDIR=str(work),
    )
    command = [sys.executable]
    if importtime:
        command += ["-X", "importtime"]
    command += [
        str(HERE / "workload.py"), workload, phase, "--seed", str(seed),
        "--work", str(work), "--result", str(result),
    ]
    if trace:
        command.append("--trace")
    try:
        proc = subprocess.run(
            command, env=env, cwd=work, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"[perfbench] {workload} {phase}: timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.exists():
        print(f"[perfbench] {workload} {phase}: exit {proc.returncode}\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    data = json.loads(result.read_text(encoding="utf-8"))
    if importtime:
        data["importtime"] = proc.stderr
    return data


def run_passes(workload: str, seed: int, scratch: pathlib.Path, tally: Tally,
             warm_passes: int = 1,
             trace: bool = False) -> tuple[dict, list[dict]] | None:
    """One cold pass, then ``warm_passes`` warm ones, on a fresh directory."""
    work = pathlib.Path(tempfile.mkdtemp(dir=scratch))
    warms = []
    try:
        cold = child(workload, "cold", seed, work, trace=trace)
        tally.check(f"{workload} cold pass exits 0", cold is not None)
        while cold is not None and len(warms) < warm_passes:
            warm = child(workload, "warm", seed, work, trace=trace)
            tally.check(f"{workload} warm pass exits 0", warm is not None)
            if warm is None:
                break
            warms.append(warm)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if cold is None or len(warms) < warm_passes:
        return None
    for phase, data in [("cold", cold)] + [("warm", w) for w in warms]:
        for name, ok in data["checks"].items():
            tally.check(f"{phase}: {name}", ok)
        for error in data.get("errors", []):
            print(f"[perfbench] {phase}: {error}", file=sys.stderr)
        jobs = data.get("failed_jobs")
        if jobs is not None:
            tally.attempted += data["submissions"]
            tally.failures += [f"{phase}: failed job"] * jobs
    for warm in warms:
        tally.check("warm output equals cold output",
                    warm["digest"] == cold["digest"])
    pinned = PINS.get(workload, {}).get(str(seed))
    if pinned is not None:
        tally.check("cold output equals pinned digest",
                    cold["digest"] == pinned["digest"])
    return cold, warms


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, seed: int, seconds: float,
               scratch: pathlib.Path, tally: Tally) -> dict | None:
    """Untraced set-up probes and pass groups -> end-to-end metrics."""
    setups = []
    probe_dir = pathlib.Path(tempfile.mkdtemp(dir=scratch))
    for _ in range(SETUP_PROBES):
        probe = child(workload, "import", seed, probe_dir)
        tally.check("import probe exits 0", probe is not None)
        if probe is not None:
            setups.append(probe["setup_s"])
    shutil.rmtree(probe_dir, ignore_errors=True)

    groups = []
    started = time.perf_counter()
    while True:
        group_started = time.perf_counter()
        group = run_passes(workload, seed, scratch, tally,
                           warm_passes=WARM_PASSES[workload])
        if group is None:
            return None
        groups.append(group)
        now = time.perf_counter()
        if now - started + (now - group_started) > seconds:
            break
    colds = [cold for cold, _warms in groups]
    warms = [warm for _cold, more in groups for warm in more]
    tally.check("outputs repeat across pass groups",
                len({cold["digest"] for cold in colds}) == 1)

    setups += [data["setup_s"] for data in colds + warms]
    latencies = [value for cold in colds for value in cold["latencies"]]
    print(f"[perfbench] {workload}: {len(colds)} cold and {len(warms)} "
          f"warm passes, {len(setups)} set-up samples, {len(latencies)} "
          f"result latencies, output digest {colds[0]['digest']}")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(d["wall_s"] for d in colds), "s"),
        "warm_wall_s": (statistics.median(
            [d["wall_s"] for d in warms]
            + [v for d in colds for v in d.get("warm_walls", [])]
        ), "s"),
        "jobs_per_s": (
            statistics.median(d["results"] / d["wall_s"] for d in colds),
            "1/s",
        ),
        "result_p50_s": (percentile(latencies, 50), "s"),
        "result_p99_s": (percentile(latencies, 99), "s"),
        "peak_rss_mb": (
            statistics.median(d["peak_rss_mb"] for d in colds + warms), "MB"
        ),
    }


def import_split(stderr: str) -> dict[str, float]:
    """Self import time of repro, scipy and numpy from ``-X importtime``."""
    totals = {"repro": 0.0, "scipy": 0.0, "numpy": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us = int(fields[0])
        except ValueError:
            continue  # the header line
        package = fields[2].strip().split(".")[0]
        if package in totals:
            totals[package] += self_us / 1e6
    return totals


def per_layer(workload: str, seed: int, scratch: pathlib.Path,
              tally: Tally) -> dict | None:
    """One untraced and one traced pass group -> per-layer metrics."""
    probe_dir = pathlib.Path(tempfile.mkdtemp(dir=scratch))
    probe = child(workload, "import", seed, probe_dir, importtime=True)
    shutil.rmtree(probe_dir, ignore_errors=True)
    tally.check("import probe exits 0", probe is not None)
    warm_passes = min(WARM_PASSES[workload], 1)
    plain = run_passes(workload, seed, scratch, tally, warm_passes)
    traced = run_passes(workload, seed, scratch, tally, warm_passes,
                      trace=True)
    if probe is None or plain is None or traced is None:
        return None
    plain = [plain[0], *plain[1]]
    traced = [traced[0], *traced[1]]
    spans = {phase: data["trace"] for phase, data in zip(("cold", "warm"),
                                                         traced)}

    for layer, workloads in FIRES.items():
        if workload in workloads:
            fired = sum(spans[p]["calls"].get(layer, 0) for p in spans)
            tally.check(f"{layer} fires on {workload}", fired > 0)
    for layer, zero_workload, phase in ZERO:
        if zero_workload == workload:
            calls = spans[phase]["calls"].get(layer, 0)
            tally.check(f"{layer} bypassed on {workload} {phase}", calls == 0)

    def total(section: str, key: str) -> float:
        return sum(spans[p][section].get(key, 0) for p in spans)

    def counter(layer: str, key: str) -> float:
        return sum(spans[p]["counters"].get(layer, {}).get(key, 0)
                   for p in spans)

    metrics = {}
    for package, seconds in import_split(probe["importtime"]).items():
        metrics[f"import.{package}_s"] = (seconds, "s")
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] = (total("self_s", layer), "s")
        metrics[f"{layer}.calls"] = (total("calls", layer), "count")

    session = {key: counter("engine.session", key) for key in
               ("executed", "memo_hits", "disk_hits", "deduplicated")}
    requested = sum(session.values())
    for key, value in session.items():
        metrics[f"engine.session.{key}"] = (value, "count")
    metrics["engine.session.reuse_ratio"] = (
        (requested - session["executed"]) / requested if requested else 0.0,
        "ratio",
    )
    groups = metrics["engine.batch.calls"][0]
    metrics["engine.batch.jobs_per_group"] = (
        counter("engine.batch", "jobs") / groups if groups else 0.0, "count"
    )
    accesses = counter("engine.vectorized", "accesses")
    metrics["engine.vectorized.accesses"] = (accesses, "count")
    metrics["engine.vectorized.ns_per_access"] = (
        metrics["engine.vectorized.self_s"][0] * 1e9 / accesses
        if accesses else 0.0,
        "ns",
    )
    metrics["cache.edc_layer.reads"] = (
        counter("cache.edc_layer", "reads"), "count"
    )
    gets = counter("service.store", "gets")
    metrics["service.store.hit_ratio"] = (
        counter("service.store", "hits") / gets if gets else 0.0, "ratio"
    )

    scheduler = {key: 0 for key in SCHEDULER_COUNTERS}
    for data in traced:
        stats = data.get("scheduler", {})
        for key in SCHEDULER_COUNTERS:
            if key == "shed":
                scheduler[key] += (stats.get("shed_saturated", 0)
                                   + stats.get("shed_quota", 0))
            else:
                scheduler[key] += stats.get(key, 0)
    for key, value in scheduler.items():
        metrics[f"service.scheduler.{key}"] = (value, "count")
    metrics["service.scheduler.dedup_fraction"] = (
        1.0 - scheduler["executed"] / scheduler["submitted"]
        if scheduler["submitted"] else 0.0,
        "ratio",
    )

    for experiment in EXPERIMENTS:
        metrics[f"experiments.{experiment}.s"] = (
            counter("experiments", experiment), "s"
        )

    def max_rel_err(rows) -> float:
        return max((abs(measured - paper) / abs(paper)
                    for paper, measured in rows if paper != 0), default=0.0)

    accuracy = max_rel_err(spans["cold"]["paper_rows"])
    if workload == "repro-all":
        tally.check("paper_max_rel_err repeats on the warm pass",
                    max_rel_err(spans["warm"]["paper_rows"]) == accuracy)
        pinned = PINS.get(workload, {}).get(str(seed))
        if pinned is not None:
            tally.check("paper_max_rel_err equals its pin",
                        repr(accuracy) == pinned["paper_max_rel_err"])
    metrics["paper_max_rel_err"] = (accuracy, "ratio")

    traced_wall = sum(spans[p]["wall_s"] for p in spans)
    plain_wall = sum(data["span_s"] for data in plain)
    attributed = sum(metrics[f"{layer}.self_s"][0] for layer in tracer.LAYERS)
    metrics["unattributed_s"] = (traced_wall - attributed, "s")
    metrics["trace_overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["result_samples"] = (len(plain[0]["latencies"]), "count")
    print(f"[perfbench] {workload}: traced {traced_wall:.3f} s, "
          f"untraced {plain_wall:.3f} s, output digest "
          f"{plain[0]['digest']}, paper_max_rel_err {accuracy!r}")
    return metrics


def main() -> int:
    """Parse flags, run the workload, print the summary and JSON line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    scratch_root = ROOT / ".perfbench-tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(dir=scratch_root))
    tally = Tally()
    try:
        if args.trace:
            metrics = per_layer(args.workload, args.seed, scratch, tally)
        else:
            metrics = end_to_end(args.workload, args.seed, args.seconds,
                                 scratch, tally)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still owns a directory here
    if metrics is None:
        print(f"error: {args.workload} did not complete: "
              f"{tally.failures}", file=sys.stderr)
        return 1

    for failure in tally.failures:
        print(f"[perfbench] FAILED: {failure}")
    print(f"[perfbench] {args.workload} seed {args.seed}: "
          f"{tally.attempted} operations, {len(tally.failures)} failed "
          f"(failed_ratio {len(tally.failures) / tally.attempted:.4f})")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
