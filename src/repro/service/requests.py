"""Wire-level job descriptions and their resolution to engine jobs.

Clients of the simulation service do not ship pickled model objects;
they describe work declaratively as a :class:`JobRequest` — scenario,
chip, benchmark, trace length, seed, mode, optional Vdd override — and
the service resolves each request to a :class:`repro.engine.jobs.
SimulationJob` with the exact builders library code uses
(:func:`repro.core.build_chips` + :class:`~repro.engine.jobs.TraceSpec`).
Resolution is deterministic, so a request submitted twice — by the same
tenant or different ones — lands on the *same* engine job key and is
one execution.

Canonicalization reuses :mod:`repro.util.canonical` (the machinery
behind sweep-candidate digests and engine job keys): a request's
:meth:`JobRequest.digest` is invocation-stable and independent of JSON
field order on the wire.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import lru_cache

from repro.engine.jobs import SimulationJob, TraceSpec
from repro.tech.operating import Mode, operating_point_for
from repro.util.canonical import canonical_digest

#: Accepted values of the enumerated request fields.
SCENARIOS = ("A", "B")
CHIPS = ("proposed", "baseline")
MODES = {"hp": Mode.HP, "ule": Mode.ULE}

#: Largest admitted ``vdd`` override, as a multiple of the technology
#: node's nominal supply (:attr:`repro.tech.node.TechnologyNode.
#: vdd_nominal`, 1.0 V for ``ptm32``).  The device models are
#: calibrated up to nominal; far above it they leave any physical
#: regime (at 50 V the EPI reaches 1e83 J, at 1 kV the leakage model
#: overflows), so a request beyond 1.5x nominal is rejected.
VDD_MARGIN = 1.5


class RequestError(ValueError):
    """A request that cannot be resolved to a simulation job."""


@dataclass(frozen=True)
class JobRequest:
    """One declarative simulation request, as submitted over the wire.

    Attributes:
        benchmark: registered benchmark name (e.g. ``"adpcm_c"``).
        trace_length: dynamic instructions to simulate.
        seed: trace-generation seed.
        mode: operating mode, ``"hp"`` or ``"ule"``.
        scenario: paper scenario whose chips to run, ``"A"`` or ``"B"``.
        chip: ``"proposed"`` or ``"baseline"``.
        vdd: optional supply-voltage override of the mode's paper
            default operating point (frequency is kept).
    """

    benchmark: str
    trace_length: int
    seed: int
    mode: str = "ule"
    scenario: str = "A"
    chip: str = "proposed"
    vdd: float | None = None

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise RequestError(
                f"unknown scenario {self.scenario!r}; one of {SCENARIOS}"
            )
        if self.chip not in CHIPS:
            raise RequestError(
                f"unknown chip {self.chip!r}; one of {CHIPS}"
            )
        if self.mode not in MODES:
            raise RequestError(
                f"unknown mode {self.mode!r}; one of {tuple(MODES)}"
            )
        if not isinstance(self.trace_length, int) or self.trace_length < 1:
            raise RequestError("trace_length must be a positive integer")
        if not isinstance(self.seed, int):
            raise RequestError("seed must be an integer")
        if self.vdd is not None:
            _check_vdd(self.vdd)

    def digest(self) -> str:
        """Invocation-stable content digest of the request."""
        return canonical_digest(self)

    def to_dict(self) -> dict:
        """The JSON-able wire form of the request."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "JobRequest":
        """Parse a wire payload, rejecting unknown or missing fields."""
        if not isinstance(payload, dict):
            raise RequestError(
                f"job request must be an object, got {type(payload).__name__}"
            )
        fields = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(payload) - fields)
        if unknown:
            raise RequestError(f"unknown job-request fields: {unknown}")
        try:
            return cls(**payload)
        except TypeError as error:
            raise RequestError(str(error)) from None


def _check_vdd(vdd: float) -> None:
    """Reject a ``vdd`` override that is not a finite supply in range."""
    from repro.tech.node import ptm32

    if not vdd > 0:
        raise RequestError(f"vdd override must be positive, got {vdd!r}")
    limit = ptm32().vdd_nominal * VDD_MARGIN
    if not vdd <= limit:
        raise RequestError(
            f"vdd override {vdd!r} V is above the {limit:g} V maximum "
            f"({VDD_MARGIN:g}x the node's nominal supply)"
        )


@lru_cache(maxsize=4)
def _scenario_chips(scenario: str):
    """Build (once per process) the chip pair of a paper scenario."""
    from repro.core import Scenario, build_chips, design_scenario

    return build_chips(design_scenario(Scenario(scenario)))


def resolve(request: JobRequest) -> SimulationJob:
    """Resolve a wire request to the engine job it describes.

    Uses the same scenario builders as library code, so the resulting
    :func:`~repro.engine.jobs.job_key` — and therefore every cache and
    dedup layer — is shared between service clients and in-process
    sessions.  Raises :class:`RequestError` for benchmarks the workload
    registry does not know.
    """
    from repro.workloads.mediabench import BENCHMARKS

    known = {spec.name for spec in BENCHMARKS}
    if request.benchmark not in known:
        raise RequestError(
            f"unknown benchmark {request.benchmark!r}; "
            f"one of {sorted(known)}"
        )
    chip = getattr(_scenario_chips(request.scenario), request.chip).config
    mode = MODES[request.mode]
    operating_point = None
    if request.vdd is not None:
        operating_point = replace(
            operating_point_for(mode), vdd=request.vdd
        )
    return SimulationJob(
        chip=chip,
        trace=TraceSpec(
            benchmark=request.benchmark,
            length=request.trace_length,
            seed=request.seed,
        ),
        mode=mode,
        operating_point=operating_point,
    )
