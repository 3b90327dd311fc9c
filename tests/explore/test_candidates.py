"""Candidate building: sizing, validity, identity."""

import dataclasses

import pytest

import repro.explore.candidates as candidates_module
from repro.edc.protection import ProtectionScheme
from repro.explore.candidates import (
    CandidateError,
    build_candidate,
    default_space,
)
from repro.tech.operating import Mode

PAPER_POINT = {
    "size_kb": 8,
    "line_bytes": 32,
    "ways": 8,
    "ule_ways": 1,
    "ule_cell": "8T",
    "ule_scheme": "secded",
    "hp_scheme": "none",
    "vdd_ule": 0.35,
    "replacement": "lru",
    "suite": "paper",
}


def _point(**overrides):
    point = dict(PAPER_POINT)
    point.update(overrides)
    return point


class TestPaperPoint:
    def test_reproduces_scenario_a_proposed_design(self, design_a):
        """The paper's scenario-A proposed chip is an interior point."""
        candidate = build_candidate(PAPER_POINT)
        il1 = candidate.chip.il1
        assert il1.ways == 8
        assert il1.size_bytes == 8 * 1024
        hp, ule = il1.way_groups
        assert (hp.ways, ule.ways) == (7, 1)
        assert ule.cell.topology.name == "8T"
        # Same sizing as the Fig. 2 methodology run for scenario A.
        assert ule.cell.size_factor == design_a.cell_8t.size_factor
        assert candidate.ule_design.yield_value == pytest.approx(
            design_a.yield_proposed
        )
        assert ule.data_protection[Mode.ULE] is ProtectionScheme.SECDED
        assert ule.edc_inline(Mode.ULE)

    def test_ule_operating_point_follows_vdd_axis(self):
        candidate = build_candidate(_point(vdd_ule=0.40))
        assert candidate.ule_point.vdd == pytest.approx(0.40)
        assert candidate.ule_point.mode is Mode.ULE

    def test_replacement_axis_reaches_cache_config(self):
        candidate = build_candidate(_point(replacement="plru"))
        assert candidate.chip.il1.replacement == "plru"


class TestIdentity:
    def test_digest_is_stable_and_content_keyed(self):
        a = build_candidate(PAPER_POINT)
        b = build_candidate(dict(PAPER_POINT))
        assert a.digest == b.digest
        c = build_candidate(_point(ule_scheme="dected"))
        assert c.digest != a.digest

    def test_digest_ignores_labels(self):
        """Supplies that quantize to the same sized cells hash alike.

        0.352 V and 0.353 V land on the same discrete cell sizes, so
        the hardware is identical even though every config label
        differs; the digest must see through the names.
        """
        a = build_candidate(_point(ule_cell="10T", vdd_ule=0.352))
        b = build_candidate(_point(ule_cell="10T", vdd_ule=0.353))
        assert a.name != b.name
        assert a.digest == b.digest
        # The evaluation identity still differs: the operating points
        # are distinct, which is why dedup keys include them.
        assert a.ule_point != b.ule_point

    def test_digest_is_walked_once(self, monkeypatch):
        """The digest is cached on the candidate: the same value as
        before, and a second read walks nothing."""
        candidate = dataclasses.replace(build_candidate(PAPER_POINT))
        walks = []
        real = candidates_module.canonical_digest

        def counting(value):
            walks.append(value)
            return real(value)

        monkeypatch.setattr(candidates_module, "canonical_digest", counting)
        assert candidate.digest == (
            "a8e23a4c3e960e28f0bc8ec30836e0b6"
            "37acc11b15db2ee6a4ff13a6f416e036"
        )
        assert candidate.digest == candidate.digest
        assert len(walks) == 1

    def test_point_round_trips(self):
        candidate = build_candidate(PAPER_POINT)
        assert candidate.point_dict() == PAPER_POINT


class TestValidity:
    def test_rejects_unknown_axis(self):
        with pytest.raises(CandidateError, match="unknown axes"):
            build_candidate(_point(voltage_island=2))

    def test_rejects_all_ule_split(self):
        with pytest.raises(CandidateError):
            build_candidate(_point(ule_ways=8))

    def test_rejects_geometry_mismatch(self):
        with pytest.raises(CandidateError):
            build_candidate(_point(size_kb=1, line_bytes=64, ways=32))

    def test_rejects_non_power_of_two_geometry(self):
        """48 sets (12 KB / 32 B / 8 ways) or a 48 B line cannot decode
        addresses by bit fields: the sweep drops the point with the
        reason instead of ranking aliased counts."""
        for overrides, reason in (
            (dict(size_kb=12), "48 sets is not a power of two"),
            (dict(size_kb=12, line_bytes=48), "48 B is not a power"),
        ):
            point = _point(**overrides)
            assert reason in candidates_module.hardware_invalidity(point)
            assert not default_space().admits(point)
            with pytest.raises(CandidateError, match=reason):
                build_candidate(point)
        assert candidates_module.hardware_invalidity(
            _point(size_kb=12, ways=6)
        ) is None

    def test_rejects_subthreshold_6t(self):
        with pytest.raises(CandidateError):
            build_candidate(_point(ule_cell="6T"))

    def test_10t_parity_uses_pf_target_sizing(self, design_a):
        candidate = build_candidate(
            _point(ule_cell="10T", ule_scheme="parity")
        )
        # Detection-only coding cannot relax the sizing: the cell lands
        # on the baseline 10T size of the paper's methodology.
        assert candidate.ule_design.cell.size_factor == pytest.approx(
            design_a.cell_10t.size_factor
        )
        assert not candidate.chip.il1.edc_inline(Mode.ULE)


class TestDefaultSpace:
    def test_paper_point_is_admissible(self):
        assert default_space().admits(PAPER_POINT)

    def test_uncorrected_8t_is_excluded(self):
        space = default_space()
        assert not space.admits(_point(ule_scheme="parity"))

    def test_grid_has_hundreds_of_feasible_points(self):
        space = default_space()
        feasible = list(space.grid())
        assert len(feasible) >= 200
        for point in feasible[:: max(1, len(feasible) // 25)]:
            build_candidate(point)  # must not raise
