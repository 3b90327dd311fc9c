"""Recovery-cost accounting: refetch stalls, correction stalls, scrub.

The paper's detection-vs-correction argument is *economic*: detection-
only EDC keeps the common-case access fast and pays a refetch only when
a strike is actually detected, while inline ECC pays its correction
latency on every access.  This module prices the recovery paths the
classification layer (:mod:`repro.transients.sampling`) counts:

* a **refetch** (detected strike, clean line) stalls for the memory
  latency and re-fills the word's line — charged as one fill into the
  affected way group (memory energy stays excluded, as everywhere);
* an off-critical-path **correction** stalls the pipeline for the
  spec's ``correction_cycles`` (inline-EDC groups pay theirs inside
  the hit latency already, so they charge nothing extra);
* the **scrub engine** sweeps every protected word once per scrub
  interval — read + decode + re-encode + write — priced per pass and
  charged pro rata over the run's wall-clock.

All functions are pure arithmetic over counters the backends produced
bit-identically, so recovery accounting can never reintroduce backend
divergence.
"""

from __future__ import annotations

from repro.cache.config import CacheConfig
from repro.cache.stats import CacheStats
from repro.cacti.model import CacheEnergyModel
from repro.edc.protection import ProtectionScheme
from repro.tech.operating import Mode, OperatingPoint
from repro.transients.spec import TransientSpec


def recovery_cycles(
    config: CacheConfig,
    mode: Mode,
    stats: CacheStats,
    spec: TransientSpec,
    memory_latency_cycles: int,
) -> float:
    """Pipeline stall cycles one array's transient recoveries cost.

    Refetches stall like ordinary misses (the word must come back from
    the next level before the consumer proceeds); corrections stall
    only in way groups whose EDC decode sits *off* the critical path —
    inline groups already stretched the hit latency for every access.
    DUE and silent events charge nothing: they are failures, not
    recoveries, and are accounted as reliability events instead.
    """
    cycles = float(stats.transient_refetches * memory_latency_cycles)
    if spec.correction_cycles:
        for group in config.way_groups:
            if not group.is_active(mode) or group.edc_inline(mode):
                continue
            corrected = stats.group_transient_corrected.get(
                group.name, 0
            )
            cycles += corrected * spec.correction_cycles
    return cycles


def scrub_pass_energy(
    model: CacheEnergyModel, op: OperatingPoint
) -> tuple[float, float]:
    """(array J, EDC J) of one full scrub sweep of the protected groups.

    Each protected line is read out with per-word decodes (the
    writeback path) and written back re-encoded (the fill path).
    Unprotected groups are not scrubbed — there is nothing to check.
    """
    array = 0.0
    edc = 0.0
    config = model.config
    for group in config.way_groups:
        if not group.is_active(op.mode):
            continue
        scheme = group.data_protection.get(
            op.mode, ProtectionScheme.NONE
        )
        if scheme is ProtectionScheme.NONE:
            continue
        lines = config.sets * group.ways
        read = model.writeback_energy(group.name, op)
        write = model.fill_energy(group.name, op)
        array += lines * (read.array + write.array)
        edc += lines * (read.edc + write.edc)
    return array, edc


def account_transient_energy(
    ledger,
    label: str,
    model: CacheEnergyModel,
    stats: CacheStats,
    op: OperatingPoint,
    spec: TransientSpec,
    seconds: float,
) -> None:
    """Charge one array's refetch and scrub energy into the ledger.

    ``ledger`` is anything with an ``add(component, joules)`` method —
    the chip's :class:`~repro.cpu.power.EnergyLedger` in practice.
    Refetch energy lands under ``<label>.refetch`` (array) and
    ``<label>.edc`` (re-encode), scrub energy under ``<label>.scrub``
    and ``<label>.edc.scrub`` — the split keeps the report's EDC
    category faithful.  Scrub is charged pro rata: ``seconds /
    scrub_interval`` passes over the run's wall-clock.
    """
    for group in model.config.way_groups:
        refetches = stats.group_transient_refetches.get(group.name, 0)
        if not refetches:
            continue
        fill = model.fill_energy(group.name, op)
        ledger.add(f"{label}.refetch", refetches * fill.array)
        ledger.add(f"{label}.edc", refetches * fill.edc)
    if seconds > 0:
        array, edc = scrub_pass_energy(model, op)
        passes = seconds / spec.scrub_interval_seconds
        if array:
            ledger.add(f"{label}.scrub", array * passes)
        if edc:
            ledger.add(f"{label}.edc.scrub", edc * passes)
