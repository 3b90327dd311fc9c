"""transients: executable soft-error injection vs the analytic model.

The paper's scenario-B argument — DECTED keeps a soft-error budget
where hard faults already consumed SECDED's single correction — is
stated analytically.  This experiment makes it executable on both axes:

* a **DUE-vs-Vdd curve** per chip: the analytic uncorrectable rate
  (:meth:`~repro.reliability.soft_errors.SoftErrorModel.cache_fit`,
  true and accelerated physics) next to the *sampled* rate of the
  counter-based injector, enumerated with no trace in the loop — the
  statistical validation of the subsystem;
* **trace-observed recovery accounting** at the paper's ULE point:
  corrected / refetched / DUE / SDC reads, the recovery-stall share
  and the injection EPI overhead of each chip, simulated through the
  engine (so the vectorized engine, dedup and caching all apply).

The two chips of the scenario differ only in the ULE way's code, so
the table is a direct SECDED-vs-DECTED comparison under identical
strikes.
"""

from __future__ import annotations

from repro.core import calibration
from repro.core.evaluation import cached_chips
from repro.core.scenarios import Scenario
from repro.engine.jobs import SimulationJob, TraceSpec
from repro.engine.session import current_session
from repro.experiments.report import ExperimentResult, PaperComparison
from repro.faults.population import DEFAULT_VDD_GRID
from repro.tech.operating import Mode, OperatingPoint, ULE_OPERATING_POINT
from repro.transients.metrics import transient_run_metrics
from repro.transients.sampling import analytic_cache_fit, make_sampler
from repro.transients.spec import TransientSpec
from repro.util.rng import derive_seed
from repro.util.tables import Table
from repro.workloads.suites import suite_for_mode

#: Default rate acceleration: pushes the per-word-interval upset mean
#: into observable territory while staying far from saturation.
DEFAULT_ACCELERATION = 1e16

#: Default scrub interval (µs) for the experiment's injection spec.
DEFAULT_SCRUB_US = 100.0


def _curve_rows(
    config, mode_vdds, spec: TransientSpec, intervals: int
) -> list[dict]:
    """Analytic and sampled FIT of one chip's L1s per ULE supply."""
    rows = []
    for vdd in mode_vdds:
        op = OperatingPoint(
            mode=Mode.ULE,
            vdd=vdd,
            frequency=ULE_OPERATING_POINT.frequency,
        )
        analytic_true = analytic_fit = sampled_fit = 0.0
        for label, cache in (("il1", config.il1), ("dl1", config.dl1)):
            analytic_true += analytic_cache_fit(
                cache, Mode.ULE, vdd, spec
            )
            analytic_fit += analytic_cache_fit(
                cache, Mode.ULE, vdd, spec, accelerated=True
            )
            sampler = make_sampler(cache, Mode.ULE, op, spec, label)
            sampled_fit += sampler.sampled_cache_fit(intervals)
        rows.append(
            {
                "vdd": vdd,
                "fit_analytic": analytic_true,
                "fit_analytic_accelerated": analytic_fit,
                "fit_sampled_accelerated": sampled_fit,
            }
        )
    return rows


def run_transients(
    trace_length: int = 12_000,
    seed: int = calibration.DEFAULT_SEED,
    scenario: str = "B",
    acceleration: float = DEFAULT_ACCELERATION,
    scrub_interval_us: float = DEFAULT_SCRUB_US,
    intervals: int = 400,
) -> ExperimentResult:
    """Soft-error injection study of one scenario's two chips.

    Parameters
    ----------
    trace_length : int
        Dynamic instructions per benchmark for the trace-driven half.
    seed : int
        Root seed (injection streams derive a child).
    scenario : str
        Paper scenario ("A" or "B"; B is the soft-error scenario).
    acceleration : float
        Upset-rate acceleration of the injection spec.
    scrub_interval_us : float
        Scrub interval in microseconds.
    intervals : int
        Scrub intervals the no-trace FIT enumeration covers per array
        (more intervals, tighter Monte Carlo error).
    """
    scenario = Scenario(scenario)
    chips = cached_chips(scenario)
    spec = TransientSpec(
        acceleration=acceleration,
        scrub_interval_seconds=scrub_interval_us * 1e-6,
        seed=derive_seed(seed, "transients"),
    )

    curve_table = Table(
        [
            "chip",
            "Vdd ULE (mV)",
            "FIT analytic (true)",
            "FIT analytic (accel)",
            "FIT sampled (accel)",
        ],
        title=(
            "Uncorrectable soft-error rate vs ULE supply "
            f"(x{acceleration:g} acceleration, "
            f"{scrub_interval_us:g} us scrub)"
        ),
    )
    curve: dict[str, list[dict]] = {}
    comparisons = []
    for name in ("baseline", "proposed"):
        config = getattr(chips, name).config
        rows = _curve_rows(config, DEFAULT_VDD_GRID, spec, intervals)
        curve[name] = rows
        for row in rows:
            curve_table.add_row(
                [
                    config.name,
                    f"{row['vdd'] * 1e3:.0f}",
                    f"{row['fit_analytic']:.3g}",
                    f"{row['fit_analytic_accelerated']:.4g}",
                    f"{row['fit_sampled_accelerated']:.4g}",
                ]
            )
        anchor = next(
            row for row in rows
            if abs(row["vdd"] - ULE_OPERATING_POINT.vdd) < 1e-9
        )
        comparisons.append(
            PaperComparison(
                quantity=(
                    f"{config.name} accelerated DUE FIT at 350 mV "
                    "(analytic vs sampled)"
                ),
                paper=anchor["fit_analytic_accelerated"],
                measured=anchor["fit_sampled_accelerated"],
            )
        )

    # Trace-driven half: both chips, ULE suite, with and without
    # injection (the clean runs price the EPI overhead).
    session = current_session()
    suite = tuple(suite_for_mode(Mode.ULE))
    jobs = []
    for name in ("baseline", "proposed"):
        config = getattr(chips, name).config
        for injected in (spec, None):
            for bench in suite:
                jobs.append(
                    SimulationJob(
                        chip=config,
                        trace=TraceSpec(bench.name, trace_length, seed),
                        mode=Mode.ULE,
                        transients=injected,
                    )
                )
    results = session.run_jobs(jobs)

    events_table = Table(
        [
            "chip",
            "corrected",
            "refetches",
            "DUE",
            "SDC",
            "recovery cycles",
            "EPI overhead",
        ],
        title=(
            "Trace-observed recovery accounting at 350 mV "
            f"({trace_length} instr x {len(suite)} benchmarks)"
        ),
    )
    events: dict[str, dict] = {}
    per_chip = 2 * len(suite)
    for rank, name in enumerate(("baseline", "proposed")):
        config = getattr(chips, name).config
        chunk = results[rank * per_chip:(rank + 1) * per_chip]
        injected, clean = chunk[:len(suite)], chunk[len(suite):]
        corrected = refetches = due = sdc = 0
        recovery = 0.0
        for run in injected:
            for stats in (run.il1_stats, run.dl1_stats):
                corrected += stats.transient_corrected
                refetches += stats.transient_refetches
                due += stats.transient_due
                sdc += stats.transient_silent
            recovery += run.timing.recovery_cycles
        epi_injected = sum(r.epi for r in injected) / len(injected)
        epi_clean = sum(r.epi for r in clean) / len(clean)
        overhead = epi_injected / epi_clean - 1.0
        events[name] = {
            "corrected": corrected,
            "refetches": refetches,
            "due": due,
            "sdc": sdc,
            "recovery_cycles": recovery,
            "epi_overhead": overhead,
            **transient_run_metrics(injected, "ule"),
        }
        events_table.add_row(
            [
                config.name,
                corrected,
                refetches,
                due,
                sdc,
                f"{recovery:.0f}",
                f"{100 * overhead:.2f} %",
            ]
        )

    return ExperimentResult(
        experiment_id="transients",
        title=(
            f"Soft-error transients — scenario {scenario.value}, "
            "SECDED vs DECTED under identical strikes"
        ),
        body="\n\n".join(
            (curve_table.render(), events_table.render())
        ),
        comparisons=tuple(comparisons),
        data={
            "curve": curve,
            "events": events,
            "spec": {
                "acceleration": acceleration,
                "scrub_interval_us": scrub_interval_us,
                "intervals": intervals,
            },
        },
    )
