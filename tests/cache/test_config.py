"""Tests for repro.cache.config."""

import pytest

from repro.cache.config import CacheConfig, WayGroupConfig
from repro.core.architect import build_cache_pair
from repro.edc.protection import ProtectionScheme
from repro.sram.cells import CELL_6T, CELL_8T, CellDesign
from repro.tech.operating import Mode


def _simple_group(name="g", ways=4, active=(Mode.HP, Mode.ULE)):
    return WayGroupConfig(
        name=name,
        ways=ways,
        cell=CellDesign(CELL_6T),
        data_protection={
            Mode.HP: ProtectionScheme.NONE,
            Mode.ULE: ProtectionScheme.NONE,
        },
        tag_protection={
            Mode.HP: ProtectionScheme.NONE,
            Mode.ULE: ProtectionScheme.NONE,
        },
        active_modes=frozenset(active),
    )


def _config(groups=None) -> CacheConfig:
    return CacheConfig(
        name="test",
        size_bytes=8 * 1024,
        line_bytes=32,
        way_groups=groups or (_simple_group(ways=8),),
    )


class TestGeometry:
    def test_paper_geometry(self):
        config = _config()
        assert config.ways == 8
        assert config.sets == 32
        assert config.lines == 256
        assert config.words_per_line == 8
        assert config.offset_bits == 5
        assert config.index_bits == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            CacheConfig("x", 8192, 0, (_simple_group(),))
        with pytest.raises(ValueError):
            CacheConfig("x", 8190, 32, (_simple_group(),))
        with pytest.raises(ValueError):
            CacheConfig("x", 8192, 32, ())

    def test_non_power_of_two_geometry_rejected(self):
        """Index and tag are address bit fields: 12 KB / 32 B lines /
        8 ways gives 48 sets, where byte addresses 0 and 1536 would both
        decode to set 0, tag 0.  A 48 B line breaks the offset field."""
        with pytest.raises(ValueError, match="48 sets"):
            CacheConfig("x", 12 * 1024, 32, (_simple_group(ways=8),))
        with pytest.raises(ValueError, match="48 B"):
            CacheConfig("x", 12 * 1024, 48, (_simple_group(ways=8),))
        # Power-of-two sets over a non-power-of-two way count are fine.
        config = CacheConfig("x", 12 * 1024, 32, (_simple_group(ways=6),))
        assert config.sets == 64

    def test_missing_protection_rejected(self):
        with pytest.raises(ValueError):
            WayGroupConfig(
                name="bad",
                ways=1,
                cell=CellDesign(CELL_8T),
                data_protection={Mode.HP: ProtectionScheme.NONE},
                tag_protection={Mode.HP: ProtectionScheme.NONE},
                active_modes=frozenset({Mode.HP, Mode.ULE}),
            )


class TestAddressMapping:
    def test_index_tag_roundtrip_distinct(self):
        config = _config()
        a, b = 0x1000_0000, 0x1000_0020
        assert config.index_of(a) != config.index_of(b)

    def test_tag_masked(self):
        config = _config()
        assert config.tag_of(0xFFFF_FFFF) < (1 << config.tag_bits)

    def test_same_line_same_index(self):
        config = _config()
        assert config.index_of(0x1234_0043) == config.index_of(0x1234_005F)


class TestWayGroups:
    def test_group_of_way(self, design_a):
        baseline, _ = build_cache_pair(design_a)
        assert baseline.group_of_way(0).name == "hp"
        assert baseline.group_of_way(6).name == "hp"
        assert baseline.group_of_way(7).name == "ule"
        with pytest.raises(ValueError):
            baseline.group_of_way(8)

    def test_ways_of_group(self, design_a):
        baseline, _ = build_cache_pair(design_a)
        assert baseline.ways_of_group("hp") == list(range(7))
        assert baseline.ways_of_group("ule") == [7]
        with pytest.raises(ValueError):
            baseline.ways_of_group("nope")

    def test_active_masks(self, design_a):
        baseline, _ = build_cache_pair(design_a)
        assert baseline.active_ways(Mode.HP) == 8
        assert baseline.active_ways(Mode.ULE) == 1
        mask = baseline.active_way_mask(Mode.ULE)
        assert mask == [False] * 7 + [True]


class TestStoredFormats:
    def test_scenario_a_proposed(self, design_a):
        _, proposed = build_cache_pair(design_a)
        ule = proposed.group_of_way(7)
        assert ule.stored_data_check_bits == 7
        assert ule.active_data_check_bits(Mode.HP) == 0   # code off
        assert ule.active_data_check_bits(Mode.ULE) == 7

    def test_scenario_b_proposed_stored_dected(self, design_b):
        """The stored format is DECTED even when running SECDED at HP."""
        _, proposed = build_cache_pair(design_b)
        ule = proposed.group_of_way(7)
        assert ule.stored_data_check_bits == 13
        assert ule.stored_data_scheme is ProtectionScheme.DECTED
        assert ule.active_data_check_bits(Mode.HP) == 13
        assert ule.active_data_check_bits(Mode.ULE) == 13

    def test_edc_inline_only_proposed_at_ule(self, design_a):
        baseline, proposed = build_cache_pair(design_a)
        assert not baseline.edc_inline(Mode.ULE)
        assert proposed.edc_inline(Mode.ULE)
        assert not proposed.edc_inline(Mode.HP)

    def test_describe(self, design_a):
        baseline, _ = build_cache_pair(design_a)
        assert "8 KB" in baseline.describe() or "8 KB" in str(
            baseline.describe()
        )


class TestPicklability:
    def test_config_round_trips_through_pickle(self, design_a):
        """Engine workers receive configs by pickling: the frozen mapping
        proxies must survive the round trip re-frozen and equal."""
        import pickle

        baseline, proposed = build_cache_pair(design_a)
        for config in (baseline, proposed):
            clone = pickle.loads(pickle.dumps(config))
            assert clone.name == config.name
            assert clone.ways == config.ways
            for original, copied in zip(
                config.way_groups, clone.way_groups
            ):
                assert dict(copied.data_protection) == dict(
                    original.data_protection
                )
                assert dict(copied.tag_protection) == dict(
                    original.tag_protection
                )
                assert copied.active_modes == original.active_modes
                assert copied.edc_inline_modes == original.edc_inline_modes
            # Proxies must be re-frozen, not left as mutable dicts.
            with pytest.raises(TypeError):
                clone.way_groups[0].data_protection[Mode.HP] = None
            # The engine's canonical content token (the basis of job
            # keys) must survive the round trip.  Plain repr is NOT
            # order-stable for frozenset fields, so compare canonically.
            from repro.engine.jobs import _canonical

            assert _canonical(clone) == _canonical(config)


class TestReplacementField:
    def test_defaults_to_lru(self):
        assert _config().replacement == "lru"

    def test_accepts_known_policies(self):
        for policy in ("lru", "fifo", "plru", "random"):
            config = CacheConfig(
                name="test",
                size_bytes=8 * 1024,
                line_bytes=32,
                way_groups=(_simple_group(ways=8),),
                replacement=policy,
            )
            assert config.replacement == policy

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="replacement"):
            CacheConfig(
                name="test",
                size_bytes=8 * 1024,
                line_bytes=32,
                way_groups=(_simple_group(ways=8),),
                replacement="belady",
            )

    def test_describe_mentions_non_default_policy(self):
        config = CacheConfig(
            name="test",
            size_bytes=8 * 1024,
            line_bytes=32,
            way_groups=(_simple_group(ways=8),),
            replacement="plru",
        )
        assert "plru" in config.describe()
        assert "lru" not in _config().describe()


class TestCanonical:
    def test_equal_configs_share_digest(self):
        from repro.cache.config import config_digest

        assert config_digest(_config()) == config_digest(_config())

    def test_digest_is_content_sensitive(self):
        from repro.cache.config import config_digest

        base = _config()
        renamed = CacheConfig(
            name="other",
            size_bytes=base.size_bytes,
            line_bytes=base.line_bytes,
            way_groups=base.way_groups,
        )
        repoliced = CacheConfig(
            name=base.name,
            size_bytes=base.size_bytes,
            line_bytes=base.line_bytes,
            way_groups=base.way_groups,
            replacement="fifo",
        )
        assert config_digest(renamed) != config_digest(base)
        assert config_digest(repoliced) != config_digest(base)

    def test_canonical_is_jsonable_and_ordered(self):
        import json

        form = _config().canonical()
        text = json.dumps(form, sort_keys=True)
        assert json.loads(text) == form
        # Frozenset fields must canonicalize to sorted lists.
        group = form["way_groups"][0]
        assert group["active_modes"] == sorted(group["active_modes"])

    def test_digest_method_matches_function(self):
        from repro.cache.config import config_digest

        config = _config()
        assert config.digest() == config_digest(config)

    def test_scenario_pair_digests_differ(self, design_a):
        baseline, proposed = build_cache_pair(design_a)
        assert baseline.digest() != proposed.digest()
