"""Yield-driven bitcell sizing — step 1 of the paper's Fig. 2 methodology.

Two searches are provided:

* :func:`size_for_pf` — the smallest size factor at which a cell
  technology meets a target failure probability at a given supply (used to
  size the 6T cells at HP mode and the 10T cells at ULE mode: "size 10T
  bitcell to match the same hard bit failure rate (Pf) as 6T bitcells at HP
  mode").  It is the one sizing solve of the cell library: the SRAM
  topologies, the eDRAM and the gain-cell technologies all call it;
* the incremental loop of Fig. 2 (start at minimum size, grow by the
  "minimal amount possible for the targeted technology" until the coded
  yield target is met) lives in :mod:`repro.core.methodology`, which calls
  :func:`minimal_size_step` for the increment.
"""

from __future__ import annotations

import math

from repro.sram.failure import beta_for_pf
from repro.tech.node import TechnologyNode

#: Width quantization of the target technology: widths move in steps of 5 %
#: of wmin, the "minimal amount possible" of Fig. 2 step 5a.
MINIMAL_SIZE_STEP = 0.05

#: Safety bound for the searches; no realistic design exceeds this.
MAX_SIZE_FACTOR = 64.0


def minimal_size_step(node: TechnologyNode | None = None) -> float:
    """The smallest width increment of the technology (as a size factor)."""
    del node  # single-node library; kept for interface symmetry
    return MINIMAL_SIZE_STEP


def quantize_size(size_factor: float) -> float:
    """Round a size factor up to the width grid (never below 1)."""
    steps = math.ceil(round(size_factor / MINIMAL_SIZE_STEP, 9))
    return max(1.0, steps * MINIMAL_SIZE_STEP)


def size_for_pf(
    technology,
    vdd: float,
    pf_target: float,
    node: TechnologyNode | None = None,
) -> float:
    """Smallest quantized size factor with ``Pf <= pf_target`` at ``vdd``.

    ``technology`` is any :class:`repro.cells.CellTechnology` whose margin
    grows as ``sqrt(size)`` (Pelgrom); the solve reads only its
    ``is_operable``, ``failure_probability``, ``name`` and
    ``vmin_functional``.

    Raises:
        ValueError: if the technology cannot function at ``vdd`` at all
            (write-ability floor), has no positive nominal margin there,
            or no size within the search bound reaches the target — all
            real design failures (e.g. trying to size a 6T cell for
            350 mV).
    """
    if not 0.0 < pf_target < 1.0:
        raise ValueError("pf_target must be in (0, 1)")
    if not technology.is_operable(vdd):
        raise ValueError(
            f"{technology.name} is not functional at {vdd:.3f} V "
            f"(floor {technology.vmin_functional:.2f} V)"
        )
    pf_min = technology.failure_probability(vdd, 1.0, node)
    if pf_min <= pf_target:
        return 1.0
    if pf_min >= 0.5:  # Pf = Phi(-beta) >= 1/2 iff beta <= 0
        raise ValueError(
            f"{technology.name} has no positive nominal margin at "
            f"{vdd:.3f} V; up-sizing cannot fix it"
        )

    # The margin is monotone in size (beta ~ sqrt(size)), so solve
    # analytically and then snap up to the width grid, verifying.
    exact = (beta_for_pf(pf_target) / beta_for_pf(pf_min)) ** 2
    size = quantize_size(exact)
    while technology.failure_probability(vdd, size, node) > pf_target:
        size = round(size + MINIMAL_SIZE_STEP, 9)
        if size > MAX_SIZE_FACTOR:
            raise ValueError(
                f"cannot reach Pf={pf_target:g} for {technology.name} "
                f"at {vdd:.3f} V within size {MAX_SIZE_FACTOR}"
            )
    return size
