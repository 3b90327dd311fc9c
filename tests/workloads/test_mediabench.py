"""Tests for the synthetic MediaBench generators."""

import numpy as np
import pytest

from repro.cpu.trace import InstrKind
from repro.workloads.mediabench import (
    BENCHMARKS,
    BenchmarkSpec,
    benchmark_by_name,
    generate_trace,
)
from repro.workloads.suites import ALL_BENCHMARKS, BIGBENCH, SMALLBENCH
from repro.tech.operating import Mode
from repro.workloads.suites import suite_for_mode


class TestSuites:
    def test_paper_roster(self):
        names = {spec.name for spec in ALL_BENCHMARKS}
        assert names == {
            "adpcm_c", "adpcm_d", "epic_c", "epic_d",
            "g721_c", "g721_d", "gsm_c", "gsm_d", "mpeg2_c", "mpeg2_d",
        }

    def test_split_matches_paper(self):
        assert {s.name for s in SMALLBENCH} == {
            "adpcm_c", "adpcm_d", "epic_c", "epic_d"
        }
        assert len(BIGBENCH) == 6

    def test_mode_assignment(self):
        assert suite_for_mode(Mode.ULE) is SMALLBENCH
        assert suite_for_mode(Mode.HP) is BIGBENCH

    def test_lookup(self):
        assert benchmark_by_name("gsm_c").category == "big"
        with pytest.raises(ValueError):
            benchmark_by_name("quake3")


class TestSpecs:
    def test_smallbench_fits_1kb(self):
        """The paper's defining property: SmallBench working sets fit
        very small caches (~1 KB)."""
        for spec in SMALLBENCH:
            assert spec.data_working_set <= 1024
            assert spec.code_bytes <= 1024

    def test_bigbench_needs_more(self):
        for spec in BIGBENCH:
            assert spec.data_working_set > 4 * 1024

    def test_mix_validation(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(
                name="bad", category="small",
                load_frac=0.2, store_frac=0.1, branch_frac=0.1,
                code_bytes=512, stream_bytes=256, table_bytes=0,
                block_bytes=0, image_bytes=0, stack_bytes=64,
                mix_stream=0.5, mix_table=0.2, mix_block=0.0,
                mix_stack=0.2,  # sums to 0.9
                dep_next_frac=0.1, redirect_frac=0.1,
            )


class TestGeneration:
    def test_deterministic(self):
        a = generate_trace("adpcm_c", length=5000, seed=1)
        b = generate_trace("adpcm_c", length=5000, seed=1)
        assert np.array_equal(a.pc, b.pc)
        assert np.array_equal(a.addr, b.addr)
        assert np.array_equal(a.kind, b.kind)

    def test_seed_sensitivity(self):
        a = generate_trace("adpcm_c", length=5000, seed=1)
        b = generate_trace("adpcm_c", length=5000, seed=2)
        assert not np.array_equal(a.addr, b.addr)

    def test_instruction_mix_respected(self):
        spec = benchmark_by_name("mpeg2_c")
        trace = generate_trace(spec, length=40_000, seed=3)
        summary = trace.summary
        assert summary.loads / len(trace) == pytest.approx(
            spec.load_frac, abs=0.02
        )
        assert summary.stores / len(trace) == pytest.approx(
            spec.store_frac, abs=0.02
        )
        assert summary.branches / len(trace) == pytest.approx(
            spec.branch_frac, abs=0.02
        )

    def test_memory_ops_have_addresses(self):
        trace = generate_trace("g721_c", length=10_000, seed=4)
        addresses, _ = trace.memory_stream()
        assert (addresses > 0).all()

    def test_code_footprint_within_spec(self):
        for name in ("adpcm_c", "mpeg2_d"):
            spec = benchmark_by_name(name)
            trace = generate_trace(spec, length=20_000, seed=5)
            assert trace.code_footprint_bytes() <= spec.code_bytes + 64

    def test_working_set_tracks_spec(self):
        small = generate_trace("adpcm_c", length=30_000, seed=6)
        big = generate_trace("mpeg2_c", length=30_000, seed=6)
        assert small.working_set_bytes() < 1024
        assert big.working_set_bytes() > 8 * 1024

    def test_dep_next_only_on_loads(self):
        trace = generate_trace("epic_c", length=10_000, seed=7)
        dep_positions = np.nonzero(trace.dep_next)[0]
        assert (trace.kind[dep_positions] == InstrKind.LOAD).all()

    def test_redirects_only_on_branches(self):
        trace = generate_trace("epic_c", length=10_000, seed=8)
        redirect_positions = np.nonzero(trace.redirect)[0]
        assert (
            trace.kind[redirect_positions] == InstrKind.BRANCH
        ).all()

    def test_bad_length(self):
        with pytest.raises(ValueError):
            generate_trace("adpcm_c", length=0)

    #: ``content_digest()`` of generated traces with streaming (adpcm),
    #: small-block (epic, gsm) and large-block (mpeg2) address mixes.
    PINNED_DIGESTS = {
        ("adpcm_c", 5_000, 2013): (
            "bd8bedf23adb91e2c8569c8aeac9be42"
            "629bc2705fc6c2f386142104dbd82ef4"
        ),
        ("epic_c", 20_000, 7): (
            "85e5e925ba88b4b456898476fd7c084d"
            "5b693b87426dbc0249d9d6412d6a2e41"
        ),
        ("mpeg2_c", 20_000, 2013): (
            "dde8e03bb7cccee6c817a3c4601c8e24"
            "705bddeb29c2233affef1bf9318986d4"
        ),
        ("gsm_c", 3_000, 0): (
            "db58c22440579ecc12132555db1d177c"
            "cbd2e7d8b6d16e340e24cd618b65dd19"
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED_DIGESTS))
    def test_generated_bytes_are_pinned(self, case):
        """Trace bytes feed every job key and stored result."""
        name, length, seed = case
        trace = generate_trace(name, length=length, seed=seed)
        assert trace.content_digest() == self.PINNED_DIGESTS[case]
