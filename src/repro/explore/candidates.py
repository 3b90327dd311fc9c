"""From sweep points to sized, executable chip candidates.

A sweep point assigns the axes of :func:`default_space`; this module
runs the generalized Fig. 2 methodology for the point's ULE way (sizing
the chosen bitcell under the chosen EDC scheme at the chosen supply) and
assembles a full :class:`~repro.cpu.chip.ChipConfig` through the public
candidate builders of :mod:`repro.core.architect`.

Candidates are *single* chips — the exploration campaign compares them
against each other, not against a paired baseline — and are identified
by the content digest of their chip configuration, so structurally
identical points collapse before any simulation is submitted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Mapping

from repro.cache.config import decode_invalidity
from repro.core import calibration
from repro.core.architect import (
    build_chip,
    hybrid_way_groups,
    make_cache_config,
)
from repro.core.methodology import (
    WayDesign,
    default_ule_geometry,
    design_way_for_pf,
    design_way_for_yield,
)
from repro.core.scenarios import ProtectionPlan
from repro.cpu.chip import ChipConfig
from repro.edc.protection import ProtectionScheme
from repro.explore.space import Constraint, DesignSpace, Point
from repro.cells import (
    CELL_6T,
    CELL_10T,
    requires_hard_fault_coding,
    technology_by_name,
)
from repro.tech.operating import HP_OPERATING_POINT, Mode, OperatingPoint
from repro.util.canonical import canonical_digest

#: ULE frequency is held at the paper's 5 MHz across NST supplies.
ULE_FREQUENCY = 5e6

#: The axes :func:`build_candidate` reads.  A sweep point may assign any
#: subset of them and nothing else; the CLI rejects other names before
#: building anything.
CANDIDATE_AXES = (
    "size_kb", "line_bytes", "ways", "ule_ways", "ule_cell", "ule_scheme",
    "hp_scheme", "vdd_ule", "replacement", "suite",
)


class CandidateError(ValueError):
    """A sweep point that cannot be realized as hardware."""


@dataclass(frozen=True)
class Candidate:
    """One buildable sweep point.

    Attributes:
        point: the axis assignment that produced the candidate.
        chip: the executable chip configuration.
        ule_design: the sized ULE way (cell, Pf, yield).
        ule_point: the candidate's ULE operating point.
    """

    point: tuple[tuple[str, object], ...]
    chip: ChipConfig
    ule_design: WayDesign
    ule_point: OperatingPoint

    @property
    def name(self) -> str:
        """The candidate's report/campaign row label."""
        return self.chip.name

    @cached_property
    def digest(self) -> str:
        """Content digest of the candidate's *hardware* (walked once).

        Labels are stripped before hashing: two sweep points whose
        names differ but whose configurations quantize to the same
        sized hardware digest identically.  The operating point is NOT
        part of this digest — hardware identity and evaluation identity
        are separate (see ``ExplorationCampaign.expand``).
        """
        blank_cache = replace(self.chip.il1, name="")
        blank = replace(
            self.chip,
            name="",
            il1=blank_cache,
            dl1=(
                blank_cache
                if self.chip.dl1 == self.chip.il1
                else replace(self.chip.dl1, name="")
            ),
        )
        return canonical_digest(blank)

    def point_dict(self) -> Point:
        """The axis assignment as a dict."""
        return dict(self.point)


def default_space() -> DesignSpace:
    """The stock exploration space around the paper's design point.

    576 grid combinations before constraints; the paper's own proposed
    designs (scenarios A and B) are interior points of the space.
    """
    return DesignSpace.from_dict(
        {
            "size_kb": (4, 8, 16),
            "line_bytes": (16, 32),
            "ways": (4, 8),
            "ule_ways": (1, 2),
            "ule_cell": ("8T", "10T"),
            "ule_scheme": ("parity", "secded", "dected"),
            "hp_scheme": ("none", "secded"),
            "vdd_ule": (0.35, 0.40),
            "replacement": ("lru",),
            "suite": ("paper",),
        },
        constraints=default_constraints(),
    )


def hardware_invalidity(point: Mapping[str, object]) -> str | None:
    """Why a point cannot be hardware, or None if it can.

    The single source of the cheap validity rules: the default space's
    constraints and :func:`build_candidate` both consult it, so the
    sampler and the builder can never disagree about feasibility.
    """
    size_bytes = int(point.get("size_kb", 8)) * 1024
    line_bytes = int(point.get("line_bytes", 32))
    ways = int(point.get("ways", 8))
    ule_ways = int(point.get("ule_ways", 1))
    if ule_ways >= ways:
        return "ule_ways must leave at least one HP way"
    lines = size_bytes // line_bytes
    if lines < ways or lines % ways:
        return (
            f"{size_bytes // 1024} KB / {line_bytes} B lines do not "
            f"fill {ways} ways evenly"
        )
    invalid = decode_invalidity(line_bytes, lines // ways)
    if invalid is not None:
        return (
            f"{size_bytes // 1024} KB / {line_bytes} B lines / {ways} "
            f"ways: {invalid}"
        )
    cell = technology_by_name(str(point.get("ule_cell", "8T")))
    vdd_ule = float(point.get("vdd_ule", 0.35))
    if vdd_ule < cell.vmin_functional:
        return (
            f"{cell.name} is not functional at {vdd_ule * 1e3:.0f} mV"
        )
    return None


def default_constraints() -> tuple[Constraint, ...]:
    """Hardware-validity predicates over fully-assigned points."""

    def hardware_valid(point: Point) -> bool:
        return hardware_invalidity(point) is None

    def coded_if_weak(point: Point) -> bool:
        # Weak-at-NST technologies (8T, eDRAM, gain cell) lean on EDC
        # to absorb hard faults; without a correcting code their yield
        # target is unreachable (the sizing loop would diverge), so
        # reject the combination up front.
        scheme = _scheme(point.get("ule_scheme", "secded"))
        if requires_hard_fault_coding(str(point.get("ule_cell", "8T"))):
            return scheme.hard_fault_budget > 0
        return True

    return (hardware_valid, coded_if_weak)


def _scheme(value: object) -> ProtectionScheme:
    if isinstance(value, ProtectionScheme):
        return value
    return ProtectionScheme(str(value).lower())


@lru_cache(maxsize=None)
def _hp_cell(pf_target: float):
    """The 6T HP-way cell, sized once per Pf target (shared by all)."""
    geometry = default_ule_geometry()
    return design_way_for_pf(
        CELL_6T,
        ProtectionScheme.NONE,
        geometry,
        HP_OPERATING_POINT.vdd,
        pf_target=pf_target,
    ).cell


@lru_cache(maxsize=None)
def _reference_yield(geometry, vdd: float) -> float:
    """The paper-baseline yield floor: a pf-target-sized 10T way."""
    return design_way_for_pf(
        CELL_10T,
        ProtectionScheme.NONE,
        geometry,
        vdd,
        hard_budget=0,
    ).yield_value


@lru_cache(maxsize=None)
def _design_ule_way(
    cell_name: str, scheme: ProtectionScheme, geometry, vdd: float
) -> WayDesign:
    """Size one candidate ULE way (memoized across candidates).

    Correcting schemes get the proposed-side treatment — grow from
    minimum size until the coded yield reaches the 10T reference floor;
    detection-only schemes get baseline-style pf-target sizing.
    """
    topology = technology_by_name(cell_name)
    if scheme.hard_fault_budget > 0:
        return design_way_for_yield(
            topology,
            scheme,
            geometry,
            vdd,
            yield_floor=_reference_yield(geometry, vdd),
        )
    return design_way_for_pf(topology, scheme, geometry, vdd)


def build_candidate(point: Mapping[str, object]) -> Candidate:
    """Realize one sweep point as a sized chip configuration.

    Raises :class:`CandidateError` when the point is not buildable
    (an unknown axis, inconsistent geometry, an unreachable yield
    target, ...).
    """
    unknown = sorted(set(point) - set(CANDIDATE_AXES))
    if unknown:
        raise CandidateError(f"unknown axes: {unknown}")
    size_kb = int(point.get("size_kb", 8))
    line_bytes = int(point.get("line_bytes", 32))
    ways = int(point.get("ways", 8))
    ule_ways = int(point.get("ule_ways", 1))
    ule_cell = str(point.get("ule_cell", "8T")).upper()
    ule_scheme = _scheme(point.get("ule_scheme", "secded"))
    hp_scheme = _scheme(point.get("hp_scheme", "none"))
    vdd_ule = float(point.get("vdd_ule", 0.35))
    replacement = str(point.get("replacement", "lru")).lower()
    # The suite is campaign-level (it shapes the runs, not the
    # hardware) but must still distinguish the candidate's *name*:
    # reports and saved campaigns key rows by name.
    suite = str(point.get("suite", "paper")).lower()
    if suite != "paper":
        from repro.workloads.suites import known_suite_names, suite_by_name

        try:
            suite_by_name(suite, Mode.ULE)
        except ValueError:
            raise CandidateError(
                f"unknown suite {suite!r}; known: {known_suite_names()}"
            ) from None

    size_bytes = size_kb * 1024
    invalid = hardware_invalidity(point)
    if invalid is not None:
        raise CandidateError(invalid)

    geometry = default_ule_geometry(
        cache_bytes=size_bytes,
        line_bytes=line_bytes,
        ways=ways,
        ule_ways=ule_ways,
    )
    try:
        ule_design = _design_ule_way(
            ule_cell, ule_scheme, geometry, vdd_ule
        )
    except RuntimeError as error:
        raise CandidateError(str(error)) from error

    edc_inline = ule_scheme.hard_fault_budget > 0
    groups = hybrid_way_groups(
        hp_cell=_hp_cell(calibration.PF_TARGET),
        ule_cell=ule_design.cell,
        hp_plan=ProtectionPlan(hp=hp_scheme, ule=hp_scheme),
        ule_plan=ProtectionPlan(hp=hp_scheme, ule=ule_scheme),
        ule_edc_inline=edc_inline,
        hp_ways=ways - ule_ways,
        ule_ways=ule_ways,
    )
    name = (
        f"x{size_kb}k-l{line_bytes}-{ways - ule_ways}+{ule_ways}-"
        f"{ule_cell.lower()}-{ule_scheme.value}-hp{hp_scheme.value}-"
        f"{vdd_ule * 1e3:.0f}mv-{replacement}"
    )
    if suite != "paper":
        name += f"-{suite}"
    cache = make_cache_config(
        name, groups, size_bytes, line_bytes, replacement=replacement
    )
    chip = build_chip(name, cache, core_cell=_ule_core_cell())
    return Candidate(
        point=tuple(sorted(dict(point).items(), key=lambda kv: kv[0])),
        chip=chip.config,
        ule_design=ule_design,
        ule_point=OperatingPoint(
            mode=Mode.ULE, vdd=vdd_ule, frequency=ULE_FREQUENCY
        ),
    )


@lru_cache(maxsize=None)
def _ule_core_cell():
    """The shared non-L1 array cell: NST-sized 10T, as in the paper."""
    geometry = default_ule_geometry()
    return design_way_for_pf(
        CELL_10T,
        ProtectionScheme.NONE,
        geometry,
        0.35,
    ).cell
