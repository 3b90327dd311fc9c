"""Trace-source layer: byte-identity pins and mix determinism.

The seam's acceptance contract in tests:

* :class:`SyntheticSource` is *invisible* to the engine — its job
  trace is the exact ``TraceSpec`` the pre-refactor pipeline keyed
  caches on, and the generated arrays' digest is byte-pinned so a
  generator drift can never silently orphan a fleet's cached results;
* :class:`MixSource` is a pure function of its components' content —
  any permutation of the same ratio-normalized components interleaves
  into a byte-identical trace (hypothesis-checked).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.ingest import ingest_file
from repro.workloads.mediabench import (
    BENCHMARKS,
    TraceSpec,
    benchmark_by_name,
    generate_trace,
)
from repro.workloads.source import (
    MIX_COMPONENTS,
    IngestedSource,
    MixSource,
    SyntheticSource,
    TraceSource,
    as_sources,
    component_source,
)
from repro.workloads.store import TraceStore
from repro.workloads.suites import MIX_SUITES, MixSpec

#: sha256 of ``generate_trace("adpcm_c", length=2000, seed=2013)``,
#: pinned at the source-layer refactor.  A change here means synthetic
#: job keys drift and every cached synthetic result is orphaned.
PINNED_ADPCM_DIGEST = (
    "6b4d723f49a24f88b072970ff078790e6627e8a9ca0a521564f72f048b18a7ba"
)


def _synthetic(name: str, length: int = 400, seed: int = 7) -> SyntheticSource:
    return SyntheticSource(MIX_COMPONENTS[name], length=length, seed=seed)


class TestSyntheticSource:
    def test_job_trace_is_the_classic_spec(self):
        source = SyntheticSource(benchmark_by_name("adpcm_c"), 2000, 2013)
        assert source.job_trace() == TraceSpec("adpcm_c", 2000, 2013)

    def test_materialized_digest_matches_direct_generation(self):
        source = SyntheticSource(benchmark_by_name("adpcm_c"), 2000, 2013)
        direct = generate_trace("adpcm_c", length=2000, seed=2013)
        assert source.content_digest() == direct.content_digest()

    def test_synthetic_digest_is_byte_pinned(self):
        """The generator's output for the canonical spec must never
        drift — cached results across every fleet key off it."""
        source = SyntheticSource(benchmark_by_name("adpcm_c"), 2000, 2013)
        assert source.content_digest() == PINNED_ADPCM_DIGEST

    def test_materialize_is_cached_per_instance(self):
        source = _synthetic("mcf")
        assert source.materialize() is source.materialize()


class TestIngestedSource:
    @pytest.fixture
    def store(self, tmp_path):
        path = tmp_path / "demo.k6"
        path.write_text(
            "0x1000 P_MEM_RD 3\n0x2000 P_MEM_WR 9\n", encoding="utf-8"
        )
        store = TraceStore(tmp_path / "store")
        ingest_file(path, store=store, name="demo")
        return store

    def test_from_catalog_resolves(self, store):
        source = IngestedSource.from_catalog("demo", store=store)
        assert source.name == "demo"
        assert source.length == 2
        assert source.content_digest() == store.lookup("demo").digest

    def test_from_catalog_unknown_name_raises(self, store):
        with pytest.raises(KeyError, match="'nope' is not in the store"):
            IngestedSource.from_catalog("nope", store=store)

    def test_job_trace_is_the_inline_trace(self, store):
        source = IngestedSource.from_catalog("demo", store=store)
        trace = source.job_trace()
        assert trace.content_digest() == source.digest


class TestMixSourceValidation:
    def test_empty_components_rejected(self):
        with pytest.raises(ValueError, match="no components"):
            MixSource("m", (), length=100)

    def test_ratio_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2 components but 1 ratios"):
            MixSource(
                "m", (_synthetic("mcf"), _synthetic("lbm")),
                length=100, ratios=(1.0,),
            )

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(ValueError, match="must be positive"):
            MixSource(
                "m", (_synthetic("mcf"),), length=100, ratios=(0.0,)
            )

    def test_length_below_component_count_rejected(self):
        with pytest.raises(ValueError, match="below component count"):
            MixSource(
                "m", (_synthetic("mcf"), _synthetic("lbm")), length=1
            )


class TestMixSourceInterleaving:
    def _mix(self, names=("mcf", "lbm", "bfs"), length=600, ratios=None):
        return MixSource(
            "mix", tuple(_synthetic(n) for n in names),
            length=length, ratios=ratios,
        )

    def test_materializes_exact_length(self):
        assert len(self._mix().materialize()) == 600

    def test_quotas_follow_ratios(self):
        mix = self._mix(("mcf", "lbm"), length=600, ratios=(3.0, 1.0))
        quotas = dict(zip((c.name for c in mix.components), mix._quotas()))
        assert quotas["mcf"] == 450
        assert quotas["lbm"] == 150

    def test_every_component_gets_an_address_space(self):
        trace = self._mix().materialize()
        spaces = np.unique(trace.addr >> np.uint64(56))
        assert list(spaces) == [1, 2, 3]
        pc_spaces = np.unique(trace.pc >> np.uint64(56))
        assert list(pc_spaces) == [1, 2, 3]

    def test_short_component_wraps_around(self):
        short = _synthetic("mcf", length=50)
        mix = MixSource("m", (short, _synthetic("lbm")), length=400)
        # 50-instruction component feeding ~200 slots must wrap, not
        # truncate the mix.
        assert len(mix.materialize()) == 400

    def test_job_trace_is_the_interleaved_trace(self):
        mix = self._mix()
        assert mix.job_trace() is mix.materialize()

    def test_rebuilt_mix_is_byte_identical(self):
        assert (
            self._mix().content_digest() == self._mix().content_digest()
        )

    @given(order=st.permutations(range(4)))
    @settings(max_examples=15, deadline=None)
    def test_component_permutation_preserves_digest(self, order):
        """Ratio-normalized mixes are order-independent: construction
        canonicalizes by content digest before scheduling."""
        names = ("mcf", "lbm", "bfs", "stream_add")
        ratios = (4.0, 2.0, 1.0, 1.0)
        baseline = MixSource(
            "mix", tuple(_synthetic(n) for n in names),
            length=240, ratios=ratios,
        )
        permuted = MixSource(
            "mix", tuple(_synthetic(names[i]) for i in order),
            length=240, ratios=tuple(ratios[i] for i in order),
        )
        assert permuted.content_digest() == baseline.content_digest()

    def test_scaled_ratios_are_normalized(self):
        names = ("mcf", "lbm")
        left = self._mix(names, ratios=(1.0, 3.0))
        right = self._mix(names, ratios=(10.0, 30.0))
        assert left.content_digest() == right.content_digest()


class TestComponentResolution:
    def test_falls_back_to_synthetic_proxy(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        source = component_source("mcf", length=300, seed=7, store=store)
        assert isinstance(source, SyntheticSource)
        assert source.spec is MIX_COMPONENTS["mcf"]

    def test_upgrades_to_ingested_when_cataloged(self, tmp_path):
        path = tmp_path / "real.k6"
        path.write_text("0x1000 P_MEM_RD 3\n", encoding="utf-8")
        store = TraceStore(tmp_path / "store")
        ingest_file(path, store=store, name="mcf")
        source = component_source("mcf", length=300, seed=7, store=store)
        assert isinstance(source, IngestedSource)

    def test_unknown_component_rejected(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        with pytest.raises(ValueError, match="unknown mix component"):
            component_source("gcc", length=300, seed=7, store=store)

    def test_proxies_stay_out_of_the_paper_vocabulary(self):
        """MIX_COMPONENTS must never leak into BENCHMARKS — the paper's
        ten-benchmark listings are byte-stable."""
        assert not set(MIX_COMPONENTS) & {b.name for b in BENCHMARKS}
        assert all(
            spec.category == "mix" for spec in MIX_COMPONENTS.values()
        )


class TestAsSources:
    def test_benchmark_specs_become_synthetic(self):
        sources = as_sources(
            (benchmark_by_name("adpcm_c"),), length=2000, seed=2013
        )
        assert isinstance(sources[0], SyntheticSource)
        assert sources[0].job_trace() == TraceSpec("adpcm_c", 2000, 2013)

    def test_mix_specs_become_mixes(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        sources = as_sources(
            (MIX_SUITES["mix1"],), length=400, seed=7, store=store
        )
        assert isinstance(sources[0], MixSource)
        assert sources[0].name == "mix1"
        assert len(sources[0].components) == 4

    def test_existing_sources_pass_through(self):
        source = _synthetic("mcf")
        assert as_sources((source,), length=400, seed=7)[0] is source

    def test_unknown_entries_rejected(self):
        with pytest.raises(TypeError, match="cannot build a trace source"):
            as_sources(("adpcm_c",), length=400, seed=7)

    def test_every_source_satisfies_the_protocol(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        sources = as_sources(
            (benchmark_by_name("adpcm_c"), MIX_SUITES["mix1"]),
            length=400, seed=7, store=store,
        )
        assert all(isinstance(s, TraceSource) for s in sources)

    def test_all_registered_mixes_resolve(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        for spec in MIX_SUITES.values():
            assert isinstance(spec, MixSpec)
            (source,) = as_sources(
                (spec,), length=100, seed=7, store=store
            )
            assert isinstance(source, MixSource)
