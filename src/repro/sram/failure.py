"""Closed-form cell failure probability ``Pf(cell, Vdd, size)``.

The hard-fault probability of a bitcell is the probability that local Vt
variation pushes its worst-case margin below zero:

    Pf = Phi(-margin(Vdd) / sigma_composite(size))

Up-sizing enters through Pelgrom's law (sigma ~ 1/sqrt(size)), which is the
handle the paper's design methodology (Fig. 2) turns.

:func:`pf_for_beta` and :func:`beta_for_pf` are the one implementation of
the standard normal tail; every cell technology converts between margins
and failure probabilities through them.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from repro.sram.cells import CellDesign, CellTopology
from repro.sram.margins import MarginModel
from repro.tech.node import TechnologyNode, ptm32


def pf_for_beta(beta: float) -> float:
    """Failure probability ``Phi(-beta)`` of a ``beta``-sigma margin."""
    return 0.5 * math.erfc(beta / math.sqrt(2.0))


def analytic_pf(design: CellDesign, vdd: float) -> float:
    """Hard-failure probability of one sized cell at ``vdd``.

    >>> from repro.sram import CELL_6T, CellDesign
    >>> pf_hi = analytic_pf(CellDesign(CELL_6T), 1.0)
    >>> pf_lo = analytic_pf(CellDesign(CELL_6T), 0.35)
    >>> pf_hi < 1e-4 < pf_lo
    True
    """
    return pf_for_beta(MarginModel(design).beta(vdd))


def beta_for_pf(pf: float) -> float:
    """Sigma margin required for a failure probability ``pf``."""
    if not 0.0 < pf < 1.0:
        raise ValueError("pf must be in (0, 1)")
    return -statistics.NormalDist().inv_cdf(pf)


@dataclass(frozen=True)
class CellFailureModel:
    """Failure probability of one topology as a function of (Vdd, size).

    A thin convenience wrapper used by the sizing search; it avoids
    rebuilding :class:`CellDesign` objects at every probe.
    """

    topology: CellTopology
    node: TechnologyNode = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.node is None:
            object.__setattr__(self, "node", ptm32())

    def design(self, size_factor: float) -> CellDesign:
        """A sized design of this topology."""
        return CellDesign(self.topology, size_factor, self.node)

    def pf(self, vdd: float, size_factor: float) -> float:
        """Failure probability at (``vdd``, ``size_factor``)."""
        return analytic_pf(self.design(size_factor), vdd)

    def beta(self, vdd: float, size_factor: float) -> float:
        """Margin in sigma units at (``vdd``, ``size_factor``)."""
        return MarginModel(self.design(size_factor)).beta(vdd)

    def is_operable(self, vdd: float) -> bool:
        """Whether the topology functions at all at ``vdd``.

        Below ``vmin_functional`` (a write-ability floor), no amount of
        up-sizing makes the cell usable — the reason the baseline
        architecture had to pick 10T Schmitt-trigger cells for 350 mV.
        """
        return vdd >= self.topology.vmin_functional
