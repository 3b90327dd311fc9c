"""Tests for repro.sram.failure — including the paper's cell anchors."""

import math

import pytest

from repro.core.calibration import PF_TARGET
from repro.sram.cells import CELL_6T, CELL_8T, CELL_10T, CellDesign
from repro.sram.failure import (
    CellFailureModel,
    analytic_pf,
    beta_for_pf,
    pf_for_beta,
)

#: ``(beta, Phi(-beta))`` reference pairs from ``scipy.stats.norm.sf``.
SF_REFERENCE = [
    (-3.0, 0.9986501019683699),
    (0.0, 0.5),
    (1.0, 0.15865525393145707),
    (3.0, 0.0013498980316300933),
    (6.0, 9.865876450376946e-10),
    (8.0, 6.22096057427174e-16),
    (12.0, 1.776482112077653e-33),
]

#: ``(pf, beta)`` reference pairs from ``scipy.stats.norm.isf``.
ISF_REFERENCE = [
    (0.3, 0.5244005127080409),
    (1e-3, 3.090232306167813),
    (1e-9, 5.9978070150076865),
    (1e-15, 7.941345326170998),
    (1e-30, 11.464024688443613),
]


class TestAnalyticPf:
    def test_bounds(self):
        for topo in (CELL_6T, CELL_8T, CELL_10T):
            for vdd in (0.2, 0.35, 0.6, 1.0):
                pf = analytic_pf(CellDesign(topo), vdd)
                assert 0.0 <= pf <= 1.0

    def test_monotone_in_vdd(self):
        design = CellDesign(CELL_8T)
        assert analytic_pf(design, 0.35) > analytic_pf(design, 0.6) > (
            analytic_pf(design, 1.0)
        )

    def test_monotone_in_size(self):
        model = CellFailureModel(CELL_8T)
        assert model.pf(0.35, 1.0) > model.pf(0.35, 2.0) > model.pf(0.35, 4.0)


class TestPaperAnchors:
    """The calibration anchors of DESIGN.md section 6."""

    def test_6t_usable_at_1v_but_not_350mv(self):
        design = CellDesign(CELL_6T)
        assert analytic_pf(design, 1.0) < 1e-4
        assert analytic_pf(design, 0.35) > 0.5

    def test_8t_and_10t_orders_better_than_6t_at_high_vdd(self):
        """Paper III-B: 'both 8T and 10T cells are more reliable (by some
        orders of magnitude) than 6T ones at high voltage'."""
        pf_6t = analytic_pf(CellDesign(CELL_6T), 1.0)
        assert analytic_pf(CellDesign(CELL_8T), 1.0) < pf_6t / 100
        assert analytic_pf(CellDesign(CELL_10T), 1.0) < pf_6t / 100

    def test_minsize_8t_unusable_uncoded_at_nst(self):
        """The premise of the proposal: min-size 8T has Pf far above the
        fault-free target, so EDC (not up-sizing alone) must bridge it."""
        pf = analytic_pf(CellDesign(CELL_8T), 0.35)
        assert pf > 100 * PF_TARGET

    def test_10t_needs_heavy_upsizing_at_nst(self):
        """The baseline's cost: several-x up-sizing at 350 mV."""
        model = CellFailureModel(CELL_10T)
        assert model.pf(0.35, 1.0) > PF_TARGET
        assert model.pf(0.35, 5.0) < PF_TARGET


class TestNormalTail:
    """Both directions of the tail, against scipy to 1e-12 relative."""

    @pytest.mark.parametrize("beta, pf", SF_REFERENCE)
    def test_pf_for_beta(self, beta, pf):
        assert math.isclose(pf_for_beta(beta), pf, rel_tol=1e-12)

    @pytest.mark.parametrize("pf, beta", ISF_REFERENCE)
    def test_beta_for_pf(self, pf, beta):
        assert math.isclose(beta_for_pf(pf), beta, rel_tol=1e-12)


class TestBetaForPf:
    def test_known_point(self):
        assert beta_for_pf(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_tail_value(self):
        """The paper's Pf target, against ``scipy.stats.norm.isf``."""
        assert math.isclose(
            beta_for_pf(1.22e-6), 4.713080289428367, rel_tol=1e-12
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            beta_for_pf(0.0)
        with pytest.raises(ValueError):
            beta_for_pf(1.0)


class TestOperability:
    def test_6t_not_operable_at_nst(self):
        assert not CellFailureModel(CELL_6T).is_operable(0.35)

    def test_10t_operable_deep(self):
        assert CellFailureModel(CELL_10T).is_operable(0.20)
