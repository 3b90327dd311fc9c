"""tab-wcet: quantifying the predictability argument of Sections I-II.

The paper rejects faulty-entry disabling because it "fail[s] to provide
strong timing guarantees required for the worst-case execution time
(WCET) estimation".  This driver compares, per SmallBench workload at ULE
mode, the WCET bound a portable analysis can publish for:

* an entry-disable design on min-size 8T cells (usable lines vary per
  die -> no guaranteed hits), and
* the paper's 8T+SECDED design (full capacity guaranteed on every
  yielding die -> the deterministic miss counts hold in the bound),

plus the underlying disable statistics that make the first bound
unavoidable.
"""

from __future__ import annotations

from repro.core import calibration
from repro.core.architect import build_chips
from repro.core.evaluation import evaluate_scenario
from repro.core.methodology import design_scenario
from repro.core.predictability import (
    disable_statistics,
    wcet_all_miss,
    wcet_guaranteed_capacity,
)
from repro.core.scenarios import Scenario
from repro.experiments.report import ExperimentResult, PaperComparison
from repro.cells import CELL_8T, CellDesign, analytic_pf
from repro.tech.operating import Mode, ULE_OPERATING_POINT
from repro.util.tables import Table


def run_wcet(
    trace_length: int = calibration.DEFAULT_TRACE_LENGTH,
    seed: int = calibration.DEFAULT_SEED,
) -> ExperimentResult:
    """WCET bounds: entry disabling vs the paper's EDC design."""
    design = design_scenario(Scenario.A)
    chips = build_chips(design)
    evaluation = evaluate_scenario(
        Scenario.A,
        Mode.ULE,
        trace_length=trace_length,
        seed=seed,
        chips=chips,
        design=design,
    )

    # Entry-disable baseline: min-size 8T without coding at 350 mV.
    pf_minsize = analytic_pf(CellDesign(CELL_8T, 1.0), ULE_OPERATING_POINT.vdd)
    stats = disable_statistics(
        chips.proposed.config.il1,
        pf_bit=pf_minsize,
        active_ways=1,
        hard_fault_budget=0,
    )

    table = Table(
        [
            "benchmark",
            "exec cycles (EDC design)",
            "WCET (EDC design)",
            "WCET (entry disabling)",
            "WCET blow-up",
        ],
        title="ULE-mode WCET bounds (scenario A geometry)",
    )
    data: dict = {
        "p_line_disabled": stats.p_line_disabled,
        "expected_disabled_lines": stats.expected_disabled_lines,
        "p_some_set_dead": stats.p_some_set_fully_disabled,
    }
    blowups = []
    for row in evaluation.rows:
        proposed = row.proposed
        summary_cycles = proposed.timing.cycles
        summary = _summary_of(proposed)
        guaranteed = wcet_guaranteed_capacity(
            # The functional miss counts are die-independent under EDC.
            summary,
            il1_misses=proposed.il1_stats.misses,
            dl1_misses=proposed.dl1_stats.misses,
            il1_hit_latency=2,  # +1 EDC cycle, as executed
            dl1_hit_latency=2,
        )
        all_miss = wcet_all_miss(
            summary, il1_hit_latency=1, dl1_hit_latency=1
        )
        blowup = all_miss.cycles / guaranteed.cycles
        blowups.append(blowup)
        table.add_row(
            [
                row.benchmark,
                summary_cycles,
                guaranteed.cycles,
                all_miss.cycles,
                f"{blowup:.1f}x",
            ]
        )
        data[row.benchmark] = {
            "executed": summary_cycles,
            "wcet_edc": guaranteed.cycles,
            "wcet_disable": all_miss.cycles,
        }

    stats_table = Table(
        ["quantity", "value"],
        title=(
            "Entry-disable statistics (min-size 8T, "
            f"Pf = {pf_minsize:.2e} @ 350 mV)"
        ),
    )
    stats_table.add_row(
        ["P(line disabled)", f"{stats.p_line_disabled:.3f}"]
    )
    stats_table.add_row(
        ["expected disabled lines / die", stats.expected_disabled_lines]
    )
    stats_table.add_row(
        [
            "P(some set fully disabled)",
            f"{stats.p_some_set_fully_disabled:.3f}",
        ]
    )

    comparison = PaperComparison(
        quantity=(
            "WCET blow-up of entry disabling vs EDC design "
            "(paper: 'strong guarantees not achievable')"
        ),
        paper=1.0,
        measured=sum(blowups) / len(blowups),
        unit="x",
    )
    data["mean_blowup"] = sum(blowups) / len(blowups)
    return ExperimentResult(
        experiment_id="tab-wcet",
        title="WCET predictability: EDC design vs entry disabling (§I-II)",
        body=table.render() + "\n\n" + stats_table.render(),
        comparisons=(comparison,),
        data=data,
    )


def _summary_of(run_result):
    """Trace summary reconstructed from a run (traces are regenerable,
    but the run result already carries everything the bound needs)."""
    from repro.workloads.mediabench import generate_trace

    trace = generate_trace(
        run_result.trace_name,
        length=run_result.timing.instructions,
        seed=calibration.DEFAULT_SEED,
    )
    return trace.summary
