"""Each engine step runs once per distinct input.

* The batch functional memo keys on what the simulation reads, so chips
  that differ only in ULE cell, ULE scheme or ULE supply simulate once
  per (stream, functional key) — and a transient sampler's token keeps
  chips whose schemes classify upsets differently apart.
* A chip config is walked once per object, however many job keys,
  chip builds and trace groups use it; the job key still hashes the
  same ``\\x1f``-joined token text.
* Energy prices are computed once per (cache model, operating point),
  in a bounded table.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.cacti.model import PRICE_TABLE_LIMIT, CacheEnergyModel
from repro.engine.batch import execute_group
from repro.engine.jobs import (
    ENGINE_CACHE_VERSION,
    SimulationJob,
    TraceSpec,
    _code_fingerprint,
    _trace_token,
    execute_job,
    job_key,
)
from repro.engine.session import SimulationSession
from repro.explore.candidates import build_candidate
from repro.faults.maps import CacheFaultMap, DieFaultMap
from repro.tech.operating import Mode, OperatingPoint
from repro.transients import TransientSpec
from repro.util import canonical
from repro.util.canonical import canonical_text

TRACE = TraceSpec("adpcm_c", 2_000, 5)
SPEC = TransientSpec(acceleration=1e17, scrub_interval_seconds=1e-4, seed=7)


@pytest.fixture
def count_simulations(monkeypatch):
    """Count calls of the engine's functional simulation entry point."""
    from repro.engine import backends

    real = backends.simulate_cache
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(backends, "simulate_cache", counting)
    return calls


def _assert_all_equal(expected, got):
    assert len(expected) == len(got)
    for index, (left, right) in enumerate(zip(expected, got)):
        assert left.il1_stats == right.il1_stats, f"job {index}"
        assert left.dl1_stats == right.dl1_stats, f"job {index}"
        assert left.timing == right.timing, f"job {index}"
        assert list(left.energy.items()) == list(right.energy.items())


def _candidates(points):
    return [build_candidate(point) for point in points]


def _jobs(candidates, modes=(Mode.ULE, Mode.HP), transients=None):
    return [
        SimulationJob(
            chip=candidate.chip,
            trace=TRACE,
            mode=mode,
            operating_point=(
                candidate.ule_point if mode is Mode.ULE else None
            ),
            transients=transients,
        )
        for candidate in candidates
        for mode in modes
    ]


class TestFunctionalMemo:
    def test_energy_only_axes_simulate_once(self, count_simulations):
        """ULE cell, ULE scheme and ULE supply change energy, not one
        hit or miss: N such chips in both modes simulate once per
        (stream, functional key) — 2 streams x 2 modes — not 4N."""
        candidates = _candidates([
            {"ule_cell": "8T", "ule_scheme": "secded", "vdd_ule": 0.35},
            {"ule_cell": "10T", "ule_scheme": "secded", "vdd_ule": 0.35},
            {"ule_cell": "8T", "ule_scheme": "dected", "vdd_ule": 0.35},
            {"ule_cell": "8T", "ule_scheme": "secded", "vdd_ule": 0.40},
        ])
        jobs = _jobs(candidates)
        expected = [execute_job(job) for job in jobs]
        count_simulations.clear()
        got = execute_group(jobs)
        assert len(count_simulations) == 4
        _assert_all_equal(expected, got)

    def test_geometry_still_separates(self, count_simulations):
        candidates = _candidates([
            {"ule_scheme": "secded"},
            {"ule_scheme": "secded", "ways": 4},
        ])
        execute_group(_jobs(candidates, modes=(Mode.ULE,)))
        assert len(count_simulations) == 4

    def test_group_names_still_separate(self, count_simulations):
        """Per-group counters are keyed by group name, so a renamed
        group never reuses another config's counters."""
        chip = _candidates([{}])[0].chip
        cache = chip.il1
        renamed = replace(cache, way_groups=tuple(
            replace(group, name=f"{group.name}-renamed")
            for group in cache.way_groups
        ))
        twin = replace(chip, il1=renamed, dl1=renamed)
        jobs = [
            SimulationJob(chip=config, trace=TRACE, mode=Mode.HP)
            for config in (chip, twin)
        ]
        expected = [execute_job(job) for job in jobs]
        count_simulations.clear()
        got = execute_group(jobs)
        assert len(count_simulations) == 4
        _assert_all_equal(expected, got)
        assert "hp-renamed" in got[1].dl1_stats.group_fills

    def test_transient_schemes_do_not_share(self, count_simulations):
        """With injection on, the sampler's budgets depend on the ULE
        scheme: each scheme simulates on its own, and every result
        equals per-job execution."""
        candidates = _candidates([
            {"ule_cell": "10T", "ule_scheme": scheme}
            for scheme in ("parity", "secded", "dected")
        ])
        jobs = _jobs(candidates, modes=(Mode.ULE,), transients=SPEC)
        expected = [execute_job(job) for job in jobs]
        count_simulations.clear()
        got = execute_group(jobs)
        assert len(count_simulations) == 2 * len(candidates)
        _assert_all_equal(expected, got)
        assert any(r.dl1_stats.transient_affected for r in expected)

    def test_sampler_token_covers_config_inputs(self):
        from repro.transients.sampling import make_sampler

        tokens = {
            make_sampler(
                candidate.chip.dl1,
                Mode.ULE,
                candidate.ule_point,
                SPEC,
                "dl1",
            ).content_token
            for candidate in _candidates([
                {"ule_cell": "10T", "ule_scheme": scheme}
                for scheme in ("parity", "secded", "dected")
            ] + [{"ule_cell": "10T", "ule_scheme": "secded",
                  "line_bytes": 16}])
        }
        assert len(tokens) == 4


class TestConfigWalkedOnce:
    def test_shared_config_is_walked_once(self, chips_a, monkeypatch):
        """job_key, chip_for and every trace group's execute_group walk
        a shared config object once in total."""
        config = replace(chips_a.proposed.config, name="walk-once")
        watched = (config, config.il1, config.dl1)
        walks = []
        real = canonical.canonical_form

        def counting(value):
            if any(value is item for item in watched):
                walks.append(value)
            return real(value)

        monkeypatch.setattr(canonical, "canonical_form", counting)
        canonical_text(config)
        one_walk = len(walks)
        walks.clear()

        jobs = [
            SimulationJob(chip=config, trace=trace, mode=mode)
            for trace in (
                TRACE,
                TraceSpec("epic_c", 2_000, 5),
                TraceSpec("g721_c", 2_000, 5),
            )
            for mode in (Mode.ULE, Mode.HP)
        ]
        with SimulationSession() as session:
            session.run_jobs(jobs)
            assert session.stats.executed == len(jobs)
        assert len(walks) == one_walk

    @pytest.mark.parametrize("variant", ["plain", "point", "faults", "spec"])
    def test_job_key_hashes_the_joined_tokens(self, chips_a, variant):
        job = SimulationJob(
            chip=chips_a.proposed.config, trace=TRACE, mode=Mode.ULE
        )
        if variant == "point":
            job = replace(
                job,
                operating_point=OperatingPoint(
                    mode=Mode.ULE, vdd=0.4, frequency=5e6
                ),
            )
        elif variant == "faults":
            job = replace(
                job,
                fault_map=DieFaultMap(entries=(CacheFaultMap(
                    cache="dl1", mode=Mode.ULE, disabled=((3, 7),)
                ),)),
            )
        elif variant == "spec":
            job = replace(job, transients=SPEC)
        fault_map = job.fault_map
        text = "\x1f".join((
            f"engine-cache-v{ENGINE_CACHE_VERSION}",
            _code_fingerprint(),
            canonical_text(job.chip),
            _trace_token(job.trace),
            repr(job.mode),
            canonical_text(job.operating_point),
            canonical_text(
                None if fault_map is None or fault_map.is_fault_free
                else fault_map.normalized()
            ),
            canonical_text(TransientSpec.effective(job.transients)),
        ))
        assert job_key(job) == hashlib.sha256(
            text.encode("utf-8")
        ).hexdigest()

    def test_equal_configs_share_keys(self, chips_a):
        config = chips_a.proposed.config
        twin = replace(config)
        assert twin is not config
        assert job_key(
            SimulationJob(chip=twin, trace=TRACE, mode=Mode.ULE)
        ) == job_key(SimulationJob(chip=config, trace=TRACE, mode=Mode.ULE))


class TestPriceTable:
    def test_prices_equal_direct_pricing(self, chips_a):
        model = CacheEnergyModel(chips_a.proposed.config.dl1)
        for op in (
            OperatingPoint(mode=Mode.ULE, vdd=0.35, frequency=5e6),
            OperatingPoint(mode=Mode.HP, vdd=1.0, frequency=1e9),
        ):
            prices = model.prices(op)
            assert model.prices(op) is prices
            assert prices.probe_read == model.probe_read_energy(op)
            assert prices.probe_write == model.probe_write_energy(op)
            assert prices.leakage == model.leakage_power(op)
            assert prices.refresh == model.refresh_power(op)
            for name, read_hit, write_hit, fill, writeback in prices.groups:
                assert read_hit == model.read_hit_extra_energy(name, op)
                assert write_hit == model.write_hit_energy(name, op)
                assert fill == model.fill_energy(name, op)
                assert writeback == model.writeback_energy(name, op)

    def test_table_stays_bounded(self, chips_a):
        model = CacheEnergyModel(chips_a.proposed.config.il1)
        for step in range(1_000):
            model.prices(OperatingPoint(
                mode=Mode.ULE, vdd=0.30 + step * 1e-4, frequency=5e6
            ))
            assert len(model._prices) <= PRICE_TABLE_LIMIT
