"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro list
    python -m repro run fig4
    python -m repro run fig3 --trace-length 60000 --out fig3.txt
    python -m repro run fig3 --jobs 4
    python -m repro design A
    python -m repro all --jobs 4 --out-dir results/
    python -m repro run fig4 --profile
    python -m repro sweep --samples 200 --jobs 4 --save-json sweep.json
    python -m repro sweep --axes "size_kb=4,8,16;ule_scheme=secded,dected"
    python -m repro pareto sweep.json --objectives epi_ule:min,area_mm2:min
    python -m repro schedule --policy utilization --epoch 10000 --jobs 4
    python -m repro schedule --policy static --duty 0.05 --save-json s.json
    python -m repro schedule --policy budget --budget-mj 0.002
    python -m repro population --dies 200 --jobs 4 --save-json pop.json
    python -m repro population --dies 500 --percentiles 50,95,99.9
    python -m repro transients --scenario B --save-json due_curve.json
    python -m repro transients --acceleration 1e16 --scrub-us 100
    python -m repro population --dies 100 --transient-accel 1e16
    python -m repro schedule --policy static --transient-accel 1e16
    python -m repro serve --port 8642 --cache-dir cache/ --workers 4
    python -m repro submit --port 8642 --benchmarks adpcm_c,epic_c \
        --seeds 1,2,3 --trace-length 20000

Engine options (``run``, ``all``, ``sweep``, ``schedule``,
``population`` and ``transients``):

* ``--jobs N`` — dispatch independent work across N processes;
* ``--cache-dir DIR`` — memoize simulation results on disk, keyed by a
  content hash of the full job description;
* ``--profile`` — print per-phase wall-clock (trace generation,
  simulation, energy accounting) after the run.

Exit status:

* ``0`` — success;
* ``1`` — ``traces verify`` found damage, or ``submit`` had failed jobs;
* ``2`` — a usage or input error, or a ``--jobs N`` worker that died
  again after one fresh pool, reported on stderr as one
  ``repro <cmd>: error: <message>`` line (argparse prints its usage
  above that line for a malformed command line).
"""

from __future__ import annotations

import argparse
import pathlib
import sys


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be at least 0")
    return value


def _port(text: str) -> int:
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError("must be in 0..65535")
    return value


def _axis_value(text: str):
    """Parse one axis value: int, then float, then bare string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_percentiles(text: str) -> tuple[float, ...]:
    """Parse ``"50,90,95,99"`` into a percentile tuple."""
    values = []
    for clause in text.split(","):
        clause = clause.strip()
        if not clause:
            continue
        try:
            value = float(clause)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad percentile {clause!r}"
            ) from None
        if not 0.0 <= value <= 100.0:
            raise argparse.ArgumentTypeError(
                f"percentile {clause} outside [0, 100]"
            )
        values.append(value)
    if not values:
        raise argparse.ArgumentTypeError("empty --percentiles")
    return tuple(values)


def _parse_axes(text: str) -> dict[str, tuple]:
    """Parse ``"size_kb=4,8;ule_scheme=secded,dected"`` overrides."""
    axes: dict[str, tuple] = {}
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        name, separator, values = clause.partition("=")
        if not separator or not values:
            raise argparse.ArgumentTypeError(
                f"bad axis clause {clause!r}; expected name=v1,v2,..."
            )
        axes[name.strip()] = tuple(
            _axis_value(value.strip()) for value in values.split(",")
        )
    if not axes:
        raise argparse.ArgumentTypeError("empty --axes specification")
    return axes


#: Every flag that two or more subcommands take, as ``add_argument``
#: keywords.  :func:`_flags` adds a fresh copy per subcommand (argparse
#: ``parents=`` would share one Action, leaking one subcommand's default
#: into another's).
_SHARED_FLAGS: dict[str, dict] = {
    "--trace-length": dict(
        type=_positive_int, default=None,
        help="dynamic instructions per benchmark trace",
    ),
    "--seed": dict(type=int, default=None, help="root random seed"),
    "--scenario": dict(
        choices=("A", "B"), default="A",
        help="paper scenario whose chips to run",
    ),
    "--chip": dict(
        choices=("proposed", "baseline"), default="proposed",
        help="which of the scenario's chips to run",
    ),
    "--suite": dict(
        default=None,
        help=(
            "workload suite: paper (mode-split default), smallbench, "
            "bigbench, all, or a multi-programmed mix mix1..mix7 "
            "(ingested components when cataloged, synthetic proxies "
            "otherwise)"
        ),
    ),
    "--carbon": dict(
        default=None,
        help=(
            "grid carbon intensity, a profile name (world, eu, "
            "renewable, coal) or g CO2/kWh, for the sustainability "
            "experiments and sweep's co2_per_gib_ule objective"
        ),
    ),
    "--transient-accel": dict(
        type=float, default=None,
        help=(
            "enable soft-error injection with this upset-rate "
            "acceleration (e.g. 1e16; default: off)"
        ),
    ),
    "--scrub-us": dict(
        type=float, default=100.0,
        help="scrub interval in microseconds for injection",
    ),
    "--top": dict(
        type=_positive_int, default=20,
        help="ranked candidates to print",
    ),
    "--out": dict(
        type=pathlib.Path, default=None,
        help="also write the report to this file",
    ),
    "--save-json": dict(
        type=pathlib.Path, default=None,
        help="write the machine-readable results to this JSON file",
    ),
    "--jobs": dict(
        type=_positive_int, default=1,
        help="worker processes for independent jobs",
    ),
    "--cache-dir": dict(
        type=pathlib.Path, default=None,
        help=(
            "on-disk simulation result cache; serve and library runs "
            "on one directory dedup against each other (default: "
            "in-memory only)"
        ),
    ),
    "--profile": dict(
        action="store_true", default=False,
        help="print per-phase wall-clock after the run (forces --jobs 1)",
    ),
    "--host": dict(default="127.0.0.1", help="service address"),
    "--port": dict(
        type=_port, default=8642,
        help="service port, 0-65535; serve --port 0 picks an ephemeral one",
    ),
    "--store": dict(
        type=pathlib.Path, default=None,
        help=(
            "trace store root (default: $REPRO_TRACE_STORE or the "
            "per-user store)"
        ),
    ),
}

_ENGINE = ("--jobs", "--cache-dir", "--profile")
_REPORT = ("--out", "--save-json")
_TRANSIENT = ("--transient-accel", "--scrub-us")


def _flags(parser: argparse.ArgumentParser, *names: str, **defaults) -> None:
    """Add the shared flags ``names`` to one subcommand.

    ``defaults`` overrides a flag's default by destination name (e.g.
    ``trace_length=20_000``); a set default is appended to the help.
    """
    for name in names:
        spec = dict(_SHARED_FLAGS[name])
        spec["default"] = defaults.get(
            name[2:].replace("-", "_"), spec["default"]
        )
        if spec["default"] not in (None, False):
            spec["help"] += " (default: %(default)s)"
        parser.add_argument(name, **spec)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Efficient Cache Architectures for Reliable "
            "Hybrid Voltage Operation Using EDC Codes' (DATE 2013)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str):
        subparser = commands.add_parser(name, help=summary)
        subparser.set_defaults(handler=handler)
        return subparser

    command("list", _cmd_list, "list experiment ids")

    run = command("run", _cmd_run, "run one experiment")
    run.add_argument("experiment", help="experiment id (see list)")
    _flags(run, "--trace-length", "--seed", "--carbon", *_REPORT, *_ENGINE)

    design = command(
        "design", _cmd_design,
        "run the Fig. 2 methodology for a scenario (with --seed, "
        "cross-check the analytic cell Pf values by importance sampling)",
    )
    design.add_argument("scenario", choices=["A", "B"])
    _flags(design, "--seed")

    all_ = command(
        "all", _cmd_all,
        "run every experiment and write the reports (each experiment "
        "draws a child seed derived from --seed)",
    )
    all_.add_argument(
        "--out-dir", type=pathlib.Path, default=pathlib.Path("results"),
        help="directory for the rendered reports",
    )
    _flags(all_, "--trace-length", "--seed", *_ENGINE)

    sweep = command(
        "sweep", _cmd_sweep,
        "explore the design space and report the Pareto frontier",
    )
    sweep.add_argument(
        "--samples", type=_positive_int, default=None,
        help="candidate budget (default: the full constrained grid)",
    )
    sweep.add_argument(
        "--sampler", choices=("grid", "random", "halton"),
        default=None,
        help=(
            "how to pick points from the space (default: the full "
            "grid, or a low-discrepancy halton walk when --samples "
            "bounds the budget — a truncated grid would only cover a "
            "corner of the space)"
        ),
    )
    sweep.add_argument(
        "--axes", type=_parse_axes, default=None,
        help=(
            "axis overrides, e.g. "
            "\"size_kb=4,8,16;ule_scheme=secded,dected\""
        ),
    )
    sweep.add_argument(
        "--dies", type=_non_negative_int, default=0,
        help=(
            "evaluate each candidate across a sampled die population "
            "and rank by p95-across-die (default: 0 = nominal die)"
        ),
    )
    sweep.add_argument(
        "--surrogate", action="store_true",
        help=(
            "surrogate-guided exploration: simulate a seeded batch, "
            "fit regressor ensembles, spend the budget on the "
            "predicted frontier + most uncertain candidates until the "
            "hypervolume converges (same reduction, fraction of the "
            "jobs)"
        ),
    )
    sweep.add_argument(
        "--budget", type=_positive_int, default=None,
        help=(
            "max candidates to simulate with --surrogate (default: a "
            "third of the space, rounded up)"
        ),
    )
    sweep.add_argument(
        "--seed-candidates", type=_positive_int, default=None,
        help=(
            "initial space-filling batch size with --surrogate "
            "(default: a quarter of the budget, at least 8)"
        ),
    )
    sweep.add_argument(
        "--round-size", type=_positive_int, default=None,
        help=(
            "candidates simulated per acquisition round with "
            "--surrogate (default: an eighth of the budget, at "
            "least 4)"
        ),
    )
    sweep.add_argument(
        "--hv-tol", type=float, default=None,
        help=(
            "relative hypervolume gain under which a surrogate round "
            "counts as converged (default: 1e-3)"
        ),
    )
    sweep.add_argument(
        "--patience", type=_positive_int, default=None,
        help=(
            "consecutive quiet rounds before the surrogate loop "
            "stops (default: 2)"
        ),
    )
    sweep.add_argument(
        "--resume", type=pathlib.Path, default=None,
        help=(
            "reuse candidate metrics from a saved campaign "
            "(sweep --save-json); matching candidates skip "
            "simulation, everything else runs as usual"
        ),
    )
    _flags(
        sweep, "--suite", "--trace-length", "--seed", *_TRANSIENT,
        "--carbon", "--top", *_REPORT, *_ENGINE, trace_length=20_000,
    )

    schedule = command(
        "schedule", _cmd_schedule,
        "simulate policy-scheduled HP/ULE operation over a trace",
    )
    schedule.add_argument(
        "--policy",
        choices=("static", "utilization", "budget", "oracle"),
        default="utilization",
        help="mode-scheduling policy (default: utilization)",
    )
    schedule.add_argument(
        "--epoch", type=_positive_int, default=10_000,
        help="instructions per epoch (default: 10000)",
    )
    schedule.add_argument(
        "--segment", choices=("fixed", "phase"), default="fixed",
        help="epoch segmenter (default: fixed-length epochs)",
    )
    schedule.add_argument(
        "--duty", type=float, default=0.1,
        help="HP epoch fraction for --policy static (default: 0.1)",
    )
    schedule.add_argument(
        "--threshold", type=float, default=1.0,
        help=(
            "ULE-capacity overflow factor for --policy utilization "
            "(default: 1.0)"
        ),
    )
    schedule.add_argument(
        "--budget-mj", type=float, default=None,
        help="energy budget in mJ (required by --policy budget)",
    )
    schedule.add_argument(
        "--objective", choices=("energy", "time"), default="energy",
        help="what --policy oracle minimizes (default: energy)",
    )
    schedule.add_argument(
        "--workload", default="sensor",
        help=(
            "'sensor' (phased monitoring+burst trace), a mix "
            "mix1..mix7, an ingested trace or a benchmark name, e.g. "
            "adpcm_c (default: sensor)"
        ),
    )
    _flags(
        schedule, "--scenario", "--chip", "--trace-length", "--seed",
        *_TRANSIENT, *_REPORT, *_ENGINE, trace_length=100_000,
    )

    population = command(
        "population", _cmd_population,
        "simulate a die population sampled from the variation models",
    )
    population.add_argument(
        "--dies", type=_positive_int, default=100,
        help="population size (default: 100; identical dies dedup)",
    )
    population.add_argument(
        "--percentiles", type=_parse_percentiles, default=None,
        help="population percentiles, e.g. \"50,90,95,99\"",
    )
    _flags(
        population, "--scenario", "--chip", "--trace-length", "--suite",
        "--seed", *_TRANSIENT, *_REPORT, *_ENGINE, suite="paper",
    )

    transients = command(
        "transients", _cmd_transients,
        "soft-error injection study: DUE-vs-Vdd curve + "
        "trace-observed recovery accounting",
    )
    transients.add_argument(
        "--acceleration", type=float, default=None,
        help="upset-rate acceleration (default: 1e16)",
    )
    transients.add_argument(
        "--intervals", type=_positive_int, default=400,
        help=(
            "scrub intervals the FIT enumeration covers per array "
            "(default: 400)"
        ),
    )
    _flags(
        transients, "--scenario", "--scrub-us", "--trace-length",
        "--seed", *_REPORT, *_ENGINE, scenario="B",
    )

    serve = command(
        "serve", _cmd_serve,
        "run the fleet simulation service: HTTP job API over a shared "
        "sharded result store",
    )
    serve.add_argument(
        "--workers", type=_positive_int, default=2,
        help=(
            "executor threads; each runs one same-trace group at a "
            "time (default: 2)"
        ),
    )
    serve.add_argument(
        "--queue-capacity", type=_positive_int, default=256,
        help=(
            "admission bound in queued jobs; beyond it submissions "
            "shed with reason 'saturated' (default: 256)"
        ),
    )
    serve.add_argument(
        "--tenant-quota", type=_positive_int, default=None,
        help=(
            "max outstanding jobs per tenant; beyond it submissions "
            "shed with reason 'quota' (default: unlimited)"
        ),
    )
    _flags(serve, "--host", "--port", "--cache-dir")

    submit = command(
        "submit", _cmd_submit,
        "submit simulation jobs to a running fleet service",
    )
    submit.add_argument(
        "--tenant", default="cli",
        help="tenant id for quotas and fair-share (default: cli)",
    )
    submit.add_argument(
        "--benchmarks", default="adpcm_c",
        help="comma-separated benchmark names (default: adpcm_c)",
    )
    submit.add_argument(
        "--seeds", default="1",
        help="comma-separated trace seeds (default: 1)",
    )
    submit.add_argument(
        "--mode", choices=("ule", "hp"), default="ule",
        help="operating mode (default: ule)",
    )
    submit.add_argument(
        "--timeout", type=float, default=600.0,
        help="seconds to wait for completion (default: 600)",
    )
    _flags(
        submit, "--host", "--port", "--trace-length", "--scenario",
        "--chip", trace_length=20_000,
    )

    pareto = command(
        "pareto", _cmd_pareto,
        "re-reduce a saved sweep (from sweep --save-json)",
    )
    pareto.add_argument(
        "results", type=pathlib.Path,
        help="campaign JSON written by sweep --save-json",
    )
    pareto.add_argument(
        "--objectives", default=None,
        help=(
            "comma-separated metric[:min|:max] list, e.g. "
            "epi_ule:min,area_mm2:min,yield:max"
        ),
    )
    _flags(pareto, "--top")

    ingest = command(
        "ingest", _cmd_ingest,
        "parse a real-workload trace file (DRAMSim2 k6 or Pin/DynamoRIO "
        "memtrace) into the trace store",
    )
    ingest.add_argument(
        "trace_file", type=pathlib.Path,
        help="the text trace file to ingest",
    )
    ingest.add_argument(
        "--format", choices=("k6", "memtrace"), default=None,
        help="input format (default: sniffed from the first line)",
    )
    ingest.add_argument(
        "--name", default=None,
        help=(
            "catalog name for the trace (default: the file stem); "
            "name it after a mix component (e.g. mcf) and every mix "
            "using that component picks up the real trace"
        ),
    )
    ingest.add_argument(
        "--limit", type=_positive_int, default=None,
        help="keep at most this many records",
    )
    ingest.add_argument(
        "--skip", type=_non_negative_int, default=0,
        help="drop this many records first (windowing; default: 0)",
    )
    ingest.add_argument(
        "--force", action="store_true",
        help="allow re-pointing an existing catalog name at new content",
    )
    _flags(ingest, "--store")

    traces = command(
        "traces", _cmd_traces, "inspect the ingested-trace catalog"
    )
    traces.add_argument(
        "action", choices=("list", "verify"),
        help=(
            "list: the catalog with provenance; verify: re-hash "
            "stored bytes against their content addresses"
        ),
    )
    traces.add_argument(
        "names", nargs="*",
        help="restrict to these catalog names (default: all)",
    )
    _flags(traces, "--store")
    return parser


# ------------------------------------------------------------- helpers
def _seed(args: argparse.Namespace) -> int:
    """``--seed``, or the calibrated default seed."""
    from repro.core.calibration import DEFAULT_SEED

    return DEFAULT_SEED if args.seed is None else args.seed


def _trace_length(args: argparse.Namespace) -> int:
    """``--trace-length``, or the calibrated default length."""
    from repro.core.calibration import DEFAULT_TRACE_LENGTH

    if args.trace_length is None:
        return DEFAULT_TRACE_LENGTH
    return args.trace_length


def _transient_spec(args: argparse.Namespace, seed: int):
    """The TransientSpec of a command's flags (None = injection off)."""
    if args.transient_accel is None:
        return None
    from repro.transients import TransientSpec
    from repro.util.rng import derive_seed

    return TransientSpec(
        acceleration=args.transient_accel,
        scrub_interval_seconds=args.scrub_us * 1e-6,
        seed=derive_seed(seed, "transients"),
    )


#: The driver parameters ``run`` and ``all`` set from their flags
#: (``--trace-length``, ``--seed``, ``--carbon``).
_RUN_PARAMETERS = ("trace_length", "seed", "carbon")


def _run_kwargs(
    args: argparse.Namespace,
    experiment_id: str,
    derive_child_seed: bool = False,
) -> dict:
    """Forward only the options the chosen driver accepts.

    Batch commands set ``derive_child_seed`` so each experiment draws a
    decorrelated child of the root ``--seed`` (the same child whatever
    the batch order or parallelism — bit-reproducible).
    """
    from repro.experiments.registry import experiment_parameters

    accepted = experiment_parameters(experiment_id)
    kwargs = {
        name: getattr(args, name, None)
        for name in _RUN_PARAMETERS
        if name in accepted and getattr(args, name, None) is not None
    }
    if derive_child_seed and "seed" in kwargs:
        from repro.util.rng import derive_seed

        kwargs["seed"] = derive_seed(kwargs["seed"], "all", experiment_id)
    return kwargs


def _read_campaign(path: pathlib.Path) -> dict:
    """The JSON document a ``sweep --save-json`` wrote to ``path``."""
    import json

    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise ValueError(f"cannot read {path}: {error}") from None
    except json.JSONDecodeError as error:
        raise ValueError(f"{path} is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path} does not hold a saved campaign")
    return payload


def _progress_printer(tag: str):
    """A ``progress(done, total)`` callback printing ~10 stderr lines."""

    def progress(done: int, total: int) -> None:
        stride = max(1, total // 10)
        if done == total or done % stride == 0:
            print(f"[{tag}] {done}/{total} jobs", file=sys.stderr)

    return progress


def _print_session_stats(tag: str, session) -> None:
    """One stderr line: where each requested job's result came from."""
    stats = session.stats
    print(
        f"[{tag}] {stats.requested} jobs requested: "
        f"{stats.executed} executed, {stats.deduplicated} deduplicated, "
        f"{stats.memo_hits} memo hits, {stats.disk_hits} disk hits",
        file=sys.stderr,
    )


def _emit(
    args: argparse.Namespace, rendered: str, payload, saved: str = "results"
) -> int:
    """Print a report, then honour ``--out`` and ``--save-json``.

    ``payload()`` builds the JSON document, only when it is saved;
    stderr then names what was saved (e.g. ``[sweep] campaign saved``).
    """
    print(rendered)
    if args.out:
        args.out.write_text(rendered + "\n", encoding="utf-8")
    if args.save_json:
        import json

        args.save_json.write_text(
            json.dumps(payload(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"[{args.command}] {saved} saved -> {args.save_json}",
              file=sys.stderr)
    return 0


def _stamped(payload: dict, config) -> dict:
    """``payload`` with ``meta.cell_technologies`` of a chip config."""
    from repro.cells import technology_tokens

    payload["meta"]["cell_technologies"] = list(technology_tokens(config))
    return payload


def _simulating(handler):
    """Run ``handler(args, session)`` under the engine flags' session.

    The session is also the current one for the pipeline's own
    submissions; ``--profile`` prints the phase table after the report.
    """

    def run(args: argparse.Namespace) -> int:
        from repro.engine.session import SimulationSession, use_session
        from repro.util.profiling import profiled

        jobs = args.jobs
        if args.profile and jobs > 1:
            print(
                "[note] --profile times the driving process only; "
                "forcing --jobs 1",
                file=sys.stderr,
            )
            jobs = 1
        session = SimulationSession(jobs=jobs, cache_dir=args.cache_dir)
        with session, use_session(session):
            if not args.profile:
                return handler(args, session)
            with profiled() as profiler:
                status = handler(args, session)
            print()
            print(profiler.render())
            return status

    return run


# ----------------------------------------------------------- handlers
def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments import list_experiments
    from repro.experiments.registry import experiment_parameters

    for experiment_id in list_experiments():
        parameters = ", ".join(sorted(
            experiment_parameters(experiment_id).intersection(
                _RUN_PARAMETERS
            )
        ))
        print(f"{experiment_id:<20} ({parameters})")
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    from repro.core import Scenario, design_scenario

    design = design_scenario(Scenario(args.scenario))
    print(design.summary())
    if args.seed is not None:
        print()
        print(_design_mc_check(design, args.seed))
    return 0


@_simulating
def _cmd_run(args: argparse.Namespace, session) -> int:
    from repro.experiments import run_experiment

    result = run_experiment(
        args.experiment, **_run_kwargs(args, args.experiment)
    )

    def payload() -> dict:
        import dataclasses

        fields = dataclasses.asdict(result)
        del fields["body"]  # the report itself; --out saves that
        return fields

    return _emit(args, result.render(), payload)


@_simulating
def _cmd_all(args: argparse.Namespace, session) -> int:
    from repro.experiments.registry import list_experiments, run_experiments

    args.out_dir.mkdir(parents=True, exist_ok=True)

    def write_report(experiment_id: str, result) -> None:
        path = args.out_dir / f"{experiment_id}.txt"
        path.write_text(result.render() + "\n", encoding="utf-8")
        print(f"[done] {experiment_id} -> {path}")

    experiment_ids = list_experiments()
    # Reports are written as each experiment completes, so a late
    # failure or interrupt keeps the finished work.
    run_experiments(
        session,
        experiment_ids,
        {
            experiment_id: _run_kwargs(
                args, experiment_id, derive_child_seed=True
            )
            for experiment_id in experiment_ids
        },
        on_result=write_report,
    )
    return 0


@_simulating
def _cmd_transients(args: argparse.Namespace, session) -> int:
    from repro.experiments.transients_table import (
        DEFAULT_ACCELERATION,
        run_transients,
    )

    result = run_transients(
        trace_length=_trace_length(args),
        seed=_seed(args),
        scenario=args.scenario,
        acceleration=(
            DEFAULT_ACCELERATION
            if args.acceleration is None
            else args.acceleration
        ),
        scrub_interval_us=args.scrub_us,
        intervals=args.intervals,
    )
    _print_session_stats("transients", session)
    return _emit(args, result.render(), lambda: result.data)


@_simulating
def _cmd_population(args: argparse.Namespace, session) -> int:
    from repro.faults.population import (
        DEFAULT_PERCENTILES,
        scenario_population_study,
    )

    seed = _seed(args)
    study = scenario_population_study(
        args.scenario,
        chip=args.chip,
        dies=args.dies,
        trace_length=_trace_length(args),
        seed=seed,
        percentiles=args.percentiles or DEFAULT_PERCENTILES,
        transients=_transient_spec(args, seed),
        suite=str(args.suite).lower(),
    )
    result = study.run(
        session=session, progress=_progress_printer("population")
    )
    _print_session_stats("population", session)
    return _emit(
        args, result.render(),
        lambda: _stamped(result.to_dict(), study.chip),
    )


def _schedule_trace(args: argparse.Namespace, seed: int):
    """The workload of a ``schedule`` invocation.

    ``sensor`` composes the phased monitoring+burst day-in-the-life
    trace (four 20 %-monitor / 5 %-burst periods); ``mix1..mix7``
    build the multi-programmed mix at the requested length; a name in
    the trace-store catalog schedules that ingested trace; any other
    name is a registered benchmark, generated at the requested length.
    """
    workload = args.workload.lower()
    if workload == "sensor":
        from repro.workloads.phases import sensor_node_trace

        burst = max(args.trace_length // 20, 1)
        return sensor_node_trace(
            monitor_length=4 * burst,
            burst_length=burst,
            bursts=4,
            seed=seed,
        )
    from repro.workloads.suites import MIX_SUITES

    if workload in MIX_SUITES:
        from repro.workloads.source import as_sources

        return as_sources(
            (MIX_SUITES[workload],), length=args.trace_length, seed=seed
        )[0].materialize()
    from repro.workloads.store import TraceStore

    entry = TraceStore().lookup(args.workload)
    if entry is not None:
        from repro.workloads.source import IngestedSource

        return IngestedSource(
            name=entry.name, digest=entry.digest, length=entry.length
        ).materialize()
    from repro.workloads.mediabench import generate_trace

    return generate_trace(
        args.workload, length=args.trace_length, seed=seed
    )


@_simulating
def _cmd_schedule(args: argparse.Namespace, session) -> int:
    from repro.core import Scenario, build_chips, design_scenario
    from repro.runtime import ScheduleSimulator, policy_by_name

    policy = policy_by_name(
        args.policy,
        hp_duty=args.duty,
        threshold=args.threshold,
        budget_joules=(
            None if args.budget_mj is None else args.budget_mj * 1e-3
        ),
        objective=args.objective,
    )
    seed = _seed(args)
    trace = _schedule_trace(args, seed)
    chips = build_chips(design_scenario(Scenario(args.scenario)))
    chip = getattr(chips, args.chip)
    simulator = ScheduleSimulator(
        chip,
        policy,
        epoch_length=args.epoch,
        segmenter=args.segment,
        session=session,
        transients=_transient_spec(args, seed),
    )
    result = simulator.run(trace, progress=_progress_printer("schedule"))
    _print_session_stats("schedule", session)
    return _emit(
        args, result.render(),
        lambda: _stamped(result.to_dict(), chip.config), "ledger",
    )


def _resumed_metrics(args: argparse.Namespace, campaign, seed: int):
    """Candidate metrics of the ``--resume`` campaign, by name.

    The saved run must match this one's trace length, seed, die count
    and cell technologies; a different engine version only warns.
    """
    payload = _read_campaign(args.resume)
    meta = payload.get("meta", {})
    mismatched = [
        f"{key} (saved {meta.get(key)!r}, requested {wanted!r})"
        for key, wanted in (
            ("trace_length", args.trace_length),
            ("seed", seed),
            ("dies", campaign.dies),
        )
        if meta.get(key) != wanted
    ]
    if mismatched:
        raise ValueError(
            "--resume campaign was run with different settings: "
            + ", ".join(mismatched)
        )
    saved_cells = meta.get("cell_technologies")
    if saved_cells is not None:
        # Saved metrics embed each candidate's priced physics; adopting
        # rows measured on different cell technologies would silently
        # mix incompatible hardware — hard-error, like the checks above.
        wanted_cells = list(campaign.expected_technologies())
        if list(saved_cells) != wanted_cells:
            raise ValueError(
                "--resume campaign covers different cell technologies: "
                f"saved {list(saved_cells)!r}, requested {wanted_cells!r}"
            )
    saved_fingerprint = meta.get("engine_fingerprint")
    if saved_fingerprint is not None:
        from repro.engine.jobs import _code_fingerprint

        if saved_fingerprint != _code_fingerprint():
            # Soft warning, not an error: name-matched candidates still
            # adopt their saved metrics, but anything the saved campaign
            # does not cover gets fresh job keys — the old disk-cache
            # generation no longer applies.
            print(
                "warning: --resume campaign was produced by a "
                "different engine version; non-reused candidates' "
                "results will re-simulate (engine changed)",
                file=sys.stderr,
            )
    return {
        entry["name"]: entry["metrics"]
        for entry in payload.get("candidates", [])
    }


@_simulating
def _cmd_sweep(args: argparse.Namespace, session) -> int:
    from repro.explore import (
        ExplorationCampaign,
        SurrogateSettings,
        default_space,
    )
    from repro.explore.candidates import CANDIDATE_AXES

    surrogate_only = [
        name
        for name, value in (
            ("--budget", args.budget),
            ("--seed-candidates", args.seed_candidates),
            ("--round-size", args.round_size),
            ("--hv-tol", args.hv_tol),
            ("--patience", args.patience),
        )
        if value is not None
    ]
    if surrogate_only and not args.surrogate:
        raise ValueError(
            f"{', '.join(surrogate_only)} require(s) --surrogate"
        )
    # A budgeted default sweep must cover the space, not a row-major
    # corner of it: switch to the low-discrepancy walk.
    sampler = args.sampler or (
        "halton" if args.samples is not None else "grid"
    )
    if sampler != "grid" and args.samples is None:
        raise ValueError(f"--sampler {sampler} needs --samples")

    space = default_space()
    if args.suite is not None:
        from repro.workloads.suites import known_suite_names

        suite = str(args.suite).lower()
        if suite not in known_suite_names():
            raise ValueError(
                f"unknown suite {args.suite!r}; known: "
                f"{known_suite_names()}"
            )
        space = space.with_overrides({"suite": (suite,)})
    if args.axes:
        unknown = sorted(set(args.axes) - set(CANDIDATE_AXES))
        if unknown:
            raise ValueError(
                f"unknown axes {unknown}; known: "
                f"{', '.join(CANDIDATE_AXES)}"
            )
        space = space.with_overrides(args.axes)
    seed = _seed(args)
    carbon_intensity = None
    if args.carbon is not None:
        from repro.sustainability import grid_intensity

        carbon_intensity = grid_intensity(args.carbon)
    campaign = ExplorationCampaign(
        space=space,
        sampler=sampler,
        samples=args.samples,
        trace_length=args.trace_length,
        seed=seed,
        dies=args.dies,
        transients=_transient_spec(args, seed),
        carbon_intensity=carbon_intensity,
    )
    reuse = None
    if args.resume:
        reuse = _resumed_metrics(args, campaign, seed)

    progress = _progress_printer("sweep")
    if args.surrogate:
        settings = SurrogateSettings(
            budget=args.budget,
            seed_candidates=args.seed_candidates,
            round_size=args.round_size,
            rel_tol=args.hv_tol if args.hv_tol is not None else 1e-3,
            patience=args.patience if args.patience is not None else 2,
        )
        result = campaign.run_surrogate(
            session=session,
            settings=settings,
            progress=progress,
            reuse=reuse,
        )
    else:
        result = campaign.run(
            session=session, progress=progress, reuse=reuse
        )
    _print_session_stats("sweep", session)
    return _emit(
        args, result.render_report(top=args.top), result.to_dict,
        "campaign",
    )


def _cmd_pareto(args: argparse.Namespace) -> int:
    from repro.explore.pareto import Objective, render_saved_campaign

    payload = _read_campaign(args.results)
    objectives = None
    if args.objectives:
        objectives = tuple(
            Objective.parse(text.strip())
            for text in args.objectives.split(",")
            if text.strip()
        )
        if not objectives:
            raise ValueError(
                "--objectives names no metrics; use "
                "metric[:min|:max][,...]"
            )
    try:
        rendered = render_saved_campaign(payload, objectives, top=args.top)
    except KeyError as error:
        raise ValueError(
            f"metric {error} not present in the saved campaign's "
            "candidates"
        ) from None
    print(rendered)
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.workloads.ingest import ingest_file
    from repro.workloads.store import TraceStore

    store = TraceStore(args.store)
    entry = ingest_file(
        args.trace_file,
        store=store,
        fmt=args.format,
        name=args.name,
        limit=args.limit,
        skip=args.skip,
        force=args.force,
    )
    print(
        f"[ingest] {entry.name}: {entry.length} instructions "
        f"({entry.format}, parser v{entry.parser_version}) -> "
        f"{entry.digest[:12]}... in {store.root}"
    )
    return 0


def _cmd_traces(args: argparse.Namespace) -> int:
    from repro.util.tables import Table
    from repro.workloads.store import TraceStore

    store = TraceStore(args.store)
    catalog = store.catalog()
    names = tuple(args.names) if args.names else tuple(sorted(catalog))
    if args.action == "list":
        unknown = sorted(set(names) - set(catalog))
        if unknown:
            raise ValueError(f"not in the catalog: {unknown}")
        if not names:
            print(f"[traces] catalog at {store.root} is empty "
                  "(run 'repro ingest')")
            return 0
        table = Table(
            ["name", "instructions", "format", "parser", "source",
             "digest"],
            title=f"Ingested traces — {store.root}",
        )
        for name in names:
            entry = catalog[name]
            table.add_row([
                entry.name, entry.length, entry.format,
                f"v{entry.parser_version}",
                f"{entry.source_name} ({entry.source_digest[:12]}...)",
                f"{entry.digest[:12]}...",
            ])
        print(table.render())
        return 0
    # verify: re-hash stored bytes against their content addresses.
    report = store.verify(names if names else None)
    status = 0
    for name, state, detail in report:
        print(f"[traces] {name}: {state} ({detail})")
        if state != "ok":
            status = 1
    if not report:
        print(f"[traces] catalog at {store.root} is empty; "
              "nothing to verify")
    return status


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.engine.store import generation_store
    from repro.service.api import serve_in_thread
    from repro.service.scheduler import ServiceScheduler

    # The engine's generation store: the service shares entries (and
    # byte-identical payloads) with any library session pointing
    # --cache-dir at the same directory.
    store = (
        generation_store(args.cache_dir)
        if args.cache_dir is not None
        else None
    )
    scheduler = ServiceScheduler(
        store,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        tenant_quota=args.tenant_quota,
    )
    # Bind before starting the workers: a busy port raises here, with
    # no worker thread left behind.
    handle = serve_in_thread(scheduler, host=args.host, port=args.port)
    scheduler.start()
    quota = f", quota {args.tenant_quota}/tenant" if args.tenant_quota else ""
    print(
        f"[serve] fleet service listening on "
        f"http://{handle.host}:{handle.port} "
        f"({args.workers} workers, queue {args.queue_capacity}{quota})",
        file=sys.stderr,
    )
    try:
        while True:
            time.sleep(3600.0)
    except KeyboardInterrupt:
        print("[serve] shutting down", file=sys.stderr)
    finally:
        handle.close()
        scheduler.stop()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.requests import JobRequest
    from repro.util.tables import Table

    requests = [
        JobRequest(
            benchmark=benchmark.strip(),
            trace_length=args.trace_length,
            seed=int(seed),
            mode=args.mode,
            scenario=args.scenario,
            chip=args.chip,
        )
        for benchmark in args.benchmarks.split(",")
        if benchmark.strip()
        for seed in args.seeds.split(",")
        if seed.strip()
    ]
    if not requests:
        raise ValueError("no jobs requested")
    client = ServiceClient(
        args.host, args.port, tenant=args.tenant, timeout=args.timeout
    )
    if not client.healthy():
        raise ValueError(
            f"no service at http://{args.host}:{args.port} "
            "(start one with: python -m repro serve)"
        )
    try:
        keys = client.submit_all(requests)
        states = client.wait(keys, timeout=args.timeout)
    except ServiceError as error:
        raise ValueError(str(error)) from None
    table = Table(
        ["benchmark", "seed", "mode", "state", "EPI [pJ]", "job key"],
        title=f"{len(requests)} jobs via {args.host}:{args.port} "
        f"(tenant {args.tenant})",
    )
    failed = 0
    for request, key in zip(requests, keys):
        state = states.get(key, "unknown")
        epi = ""
        if state == "done":
            metrics = client.poll(key, with_result=True).get("metrics", {})
            if "epi" in metrics:
                epi = f"{metrics['epi'] * 1e12:.3f}"
        else:
            failed += 1
        table.add_row([request.benchmark, str(request.seed),
                       request.mode, state, epi, key[:12]])
    print(table.render())
    stats = client.stats()["scheduler"]
    print(
        f"[submit] service totals: {stats['submitted']} submitted, "
        f"{stats['executed']} executed, "
        f"dedup {stats['dedup_fraction']:.0%}",
        file=sys.stderr,
    )
    return 1 if failed else 0


def _design_mc_check(design, seed: int) -> str:
    """Seeded importance-sampling cross-check of the analytic Pf values.

    Child streams derive from the root seed and the quantity's label
    path, so the same ``--seed`` reproduces the same table bit-for-bit
    regardless of evaluation order.
    """
    from repro.cells import importance_sampling_pf
    from repro.tech.operating import HP_OPERATING_POINT, ULE_OPERATING_POINT
    from repro.util.rng import RngStreams
    from repro.util.tables import Table

    streams = RngStreams(seed)
    scenario = design.scenario.value
    table = Table(
        ["cell @ Vdd", "analytic Pf", "sampled Pf", "rel. err"],
        title=f"Importance-sampling cross-check (seed {seed})",
    )
    checks = (
        ("6T", design.cell_6t, HP_OPERATING_POINT.vdd, design.pf_6t_hp),
        ("10T", design.cell_10t, ULE_OPERATING_POINT.vdd,
         design.pf_10t_ule),
        ("8T", design.cell_8t, ULE_OPERATING_POINT.vdd, design.pf_8t_ule),
    )
    for name, cell, vdd, analytic in checks:
        rng = streams.fresh("design", scenario, name)
        estimate = importance_sampling_pf(cell, vdd, 20_000, rng)
        table.add_row(
            [
                f"{name} @ {vdd * 1e3:.0f} mV",
                f"{analytic:.3g}",
                f"{estimate.pf:.3g}",
                f"{estimate.relative_error:.2g}",
            ]
        )
    return table.render()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: parse argv, run the subcommand, return its status.

    The one error boundary: a ``ValueError`` (bad input, unreadable or
    malformed files), an ``OSError`` or a ``BrokenExecutor`` (a pool
    worker died twice) from any subcommand becomes a single
    ``repro <cmd>: error: <message>`` stderr line and exit status 2.  A
    ``BrokenPipeError`` propagates, for the ``__main__`` guard.
    """
    from concurrent.futures import BrokenExecutor

    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        raise
    except (ValueError, OSError, BrokenExecutor) as error:
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `python -m repro design A | head`
        sys.exit(0)
