"""Synthetic MediaBench benchmark descriptors and the trace generator.

Every spec documents the character we give the substitute (see the suite
docstring in :mod:`repro.workloads`): instruction mix, code footprint,
data working set, and the blend of address patterns.  The numbers follow
the benchmarks' published profiles qualitatively — ADPCM is a tiny
streaming kernel, EPIC a small wavelet coder, G.721 table-driven, GSM
block/table mixed, MPEG-2 blocked with big frames.

``dep_next_frac`` (loads whose value is consumed by the next instruction)
and ``redirect_frac`` (branches that redirect the fetch stream) are the
two knobs the ULE execution-time overhead depends on; media kernels are
heavily software-pipelined, so both are low — calibrated so that the
paper's "+1 EDC cycle costs ~3 % execution time" anchor is met (see
DESIGN.md section 6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cpu.trace import InstrKind, Trace
from repro.util import profiling
from repro.util.rng import derive_seed
from repro.workloads import patterns


@dataclass(frozen=True)
class BenchmarkSpec:
    """A synthetic benchmark's generation parameters.

    Attributes:
        name: benchmark id (mediabench name + _c/_d for encode/decode).
        category: "small" (SmallBench) or "big" (BigBench).
        load_frac / store_frac / branch_frac: dynamic instruction mix
            (the remainder are ALU ops).
        code_bytes: instruction footprint.
        stream_bytes: size of the streamed input/output buffers.
        table_bytes: size of the constant-table region (0 = none).
        block_bytes / image_bytes: blocked-access region (0 = none).
        stack_bytes: hot stack frame size.
        mix_stream / mix_table / mix_block / mix_stack: address-pattern
            blend over data accesses (must sum to 1).
        dep_next_frac: fraction of loads feeding the next instruction.
        redirect_frac: fraction of branches that redirect fetch.
    """

    name: str
    category: str
    load_frac: float
    store_frac: float
    branch_frac: float
    code_bytes: int
    stream_bytes: int
    table_bytes: int
    block_bytes: int
    image_bytes: int
    stack_bytes: int
    mix_stream: float
    mix_table: float
    mix_block: float
    mix_stack: float
    dep_next_frac: float
    redirect_frac: float

    def __post_init__(self) -> None:
        mix = self.mix_stream + self.mix_table + self.mix_block + self.mix_stack
        if abs(mix - 1.0) > 1e-9:
            raise ValueError(f"{self.name}: pattern mix sums to {mix}")
        if self.load_frac + self.store_frac + self.branch_frac >= 1.0:
            raise ValueError(f"{self.name}: instruction mix exceeds 1")

    @property
    def data_working_set(self) -> int:
        """Approximate distinct data bytes the benchmark touches."""
        footprint = self.stack_bytes
        if self.mix_stream:
            footprint += self.stream_bytes
        if self.mix_table:
            footprint += self.table_bytes
        if self.mix_block:
            footprint += self.image_bytes
        return footprint


_SMALL = dict(category="small", dep_next_frac=0.15, redirect_frac=0.10)
_BIG = dict(category="big", dep_next_frac=0.14, redirect_frac=0.10)

#: The ten benchmarks of the paper (Section IV-A.1).
BENCHMARKS: tuple[BenchmarkSpec, ...] = (
    # --- SmallBench: fits ~1 KB --------------------------------------
    BenchmarkSpec(
        name="adpcm_c",
        load_frac=0.20, store_frac=0.07, branch_frac=0.13,
        code_bytes=768, stream_bytes=512, table_bytes=64,
        block_bytes=0, image_bytes=0, stack_bytes=96,
        mix_stream=0.72, mix_table=0.08, mix_block=0.0, mix_stack=0.20,
        **_SMALL,
    ),
    BenchmarkSpec(
        name="adpcm_d",
        load_frac=0.22, store_frac=0.09, branch_frac=0.12,
        code_bytes=640, stream_bytes=512, table_bytes=64,
        block_bytes=0, image_bytes=0, stack_bytes=96,
        mix_stream=0.70, mix_table=0.12, mix_block=0.0, mix_stack=0.18,
        **_SMALL,
    ),
    BenchmarkSpec(
        name="epic_c",
        load_frac=0.24, store_frac=0.10, branch_frac=0.11,
        code_bytes=896, stream_bytes=448, table_bytes=64,
        block_bytes=64, image_bytes=192, stack_bytes=96,
        mix_stream=0.52, mix_table=0.10, mix_block=0.20, mix_stack=0.18,
        **_SMALL,
    ),
    BenchmarkSpec(
        name="epic_d",
        load_frac=0.25, store_frac=0.11, branch_frac=0.10,
        code_bytes=832, stream_bytes=448, table_bytes=64,
        block_bytes=64, image_bytes=192, stack_bytes=96,
        mix_stream=0.55, mix_table=0.09, mix_block=0.18, mix_stack=0.18,
        **_SMALL,
    ),
    # --- BigBench: needs the full 8 KB -------------------------------
    BenchmarkSpec(
        name="g721_c",
        load_frac=0.26, store_frac=0.09, branch_frac=0.13,
        code_bytes=6144, stream_bytes=4096, table_bytes=6144,
        block_bytes=0, image_bytes=0, stack_bytes=256,
        mix_stream=0.40, mix_table=0.42, mix_block=0.0, mix_stack=0.18,
        **_BIG,
    ),
    BenchmarkSpec(
        name="g721_d",
        load_frac=0.27, store_frac=0.10, branch_frac=0.12,
        code_bytes=5632, stream_bytes=4096, table_bytes=6144,
        block_bytes=0, image_bytes=0, stack_bytes=256,
        mix_stream=0.42, mix_table=0.40, mix_block=0.0, mix_stack=0.18,
        **_BIG,
    ),
    BenchmarkSpec(
        name="gsm_c",
        load_frac=0.25, store_frac=0.10, branch_frac=0.12,
        code_bytes=8192, stream_bytes=6144, table_bytes=4096,
        block_bytes=128, image_bytes=2048, stack_bytes=320,
        mix_stream=0.38, mix_table=0.26, mix_block=0.18, mix_stack=0.18,
        **_BIG,
    ),
    BenchmarkSpec(
        name="gsm_d",
        load_frac=0.26, store_frac=0.11, branch_frac=0.11,
        code_bytes=7680, stream_bytes=6144, table_bytes=4096,
        block_bytes=128, image_bytes=2048, stack_bytes=320,
        mix_stream=0.40, mix_table=0.25, mix_block=0.17, mix_stack=0.18,
        **_BIG,
    ),
    BenchmarkSpec(
        name="mpeg2_c",
        load_frac=0.30, store_frac=0.12, branch_frac=0.09,
        code_bytes=10240, stream_bytes=8192, table_bytes=2048,
        block_bytes=256, image_bytes=16384, stack_bytes=384,
        mix_stream=0.24, mix_table=0.10, mix_block=0.50, mix_stack=0.16,
        **_BIG,
    ),
    BenchmarkSpec(
        name="mpeg2_d",
        load_frac=0.29, store_frac=0.13, branch_frac=0.09,
        code_bytes=9216, stream_bytes=8192, table_bytes=2048,
        block_bytes=256, image_bytes=16384, stack_bytes=384,
        mix_stream=0.26, mix_table=0.10, mix_block=0.48, mix_stack=0.16,
        **_BIG,
    ),
)

_BY_NAME = {spec.name: spec for spec in BENCHMARKS}


def benchmark_by_name(name: str) -> BenchmarkSpec:
    """Look up a benchmark spec by its name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; choose from {sorted(_BY_NAME)}"
        ) from None


@dataclass(frozen=True)
class TraceSpec:
    """A regenerable trace: registered benchmark name + length + seed.

    What a simulation job carries for a registered benchmark instead of
    the trace itself: worker processes regenerate it locally with
    :func:`generate_trace`.  Its ``repr`` is the trace part of every
    synthetic job key.
    """

    benchmark: str
    length: int
    seed: int


def generate_trace(
    spec: BenchmarkSpec | str, length: int = 200_000, seed: int = 2013
) -> Trace:
    """Generate the deterministic trace of one benchmark.

    Args:
        spec: benchmark spec or name.
        length: dynamic instruction count.
        seed: root seed (the per-benchmark stream is derived from it, so
            different benchmarks decorrelate under the same root seed).
    """
    with profiling.phase("trace.generate"):
        return _generate_trace(spec, length, seed)


def _generate_trace(
    spec: BenchmarkSpec | str, length: int, seed: int
) -> Trace:
    if isinstance(spec, str):
        spec = benchmark_by_name(spec)
    if length <= 0:
        raise ValueError("length must be positive")
    rng = np.random.default_rng(derive_seed(seed, "trace", spec.name))

    # Instruction kinds.
    probabilities = np.array(
        [
            1.0 - spec.load_frac - spec.store_frac - spec.branch_frac,
            spec.load_frac,
            spec.store_frac,
            spec.branch_frac,
        ]
    )
    kind = rng.choice(4, size=length, p=probabilities).astype(np.uint8)

    # Fetch addresses.
    pc = patterns.loop_pc_stream(length, spec.code_bytes, rng)

    # Data addresses: assign each memory op a pattern class, then fill
    # each class's positions with its generator's addresses in one
    # scatter (order inside a class is preserved, which keeps streams
    # sequential).
    addr = np.zeros(length, dtype=np.uint64)
    memop_positions = np.nonzero(
        (kind == InstrKind.LOAD) | (kind == InstrKind.STORE)
    )[0]
    n_mem = len(memop_positions)
    if n_mem:
        mix = np.array(
            [spec.mix_stream, spec.mix_table, spec.mix_block, spec.mix_stack]
        )
        classes = rng.choice(4, size=n_mem, p=mix)
        class_addresses = [
            patterns.streaming_addresses(
                max(int((classes == 0).sum()), 1),
                spec.stream_bytes,
                rng,
                revisit=0.15,
            ),
            patterns.table_addresses(
                max(int((classes == 1).sum()), 1),
                max(spec.table_bytes, 64),
                rng,
            ),
            (
                patterns.blocked_addresses(
                    max(int((classes == 2).sum()), 1),
                    spec.image_bytes,
                    spec.block_bytes,
                    rng,
                )
                if spec.block_bytes
                else patterns.streaming_addresses(
                    max(int((classes == 2).sum()), 1),
                    spec.stream_bytes,
                    rng,
                )
            ),
            patterns.stack_addresses(
                max(int((classes == 3).sum()), 1), spec.stack_bytes, rng
            ),
        ]
        for cls, addresses in enumerate(class_addresses):
            positions = memop_positions[classes == cls]
            addr[positions] = addresses[: len(positions)]

    # Load-use dependencies and fetch redirects.
    dep_next = np.zeros(length, dtype=bool)
    load_positions = np.nonzero(kind == InstrKind.LOAD)[0]
    if len(load_positions):
        dep_next[load_positions] = rng.random(len(load_positions)) < (
            spec.dep_next_frac
        )
    redirect = np.zeros(length, dtype=bool)
    branch_positions = np.nonzero(kind == InstrKind.BRANCH)[0]
    if len(branch_positions):
        redirect[branch_positions] = rng.random(len(branch_positions)) < (
            spec.redirect_frac
        )

    return Trace(
        name=spec.name,
        pc=pc,
        kind=kind,
        addr=addr,
        dep_next=dep_next,
        redirect=redirect,
    )
