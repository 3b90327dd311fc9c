"""Counter-based soft-error sampling and read classification.

The heart of the subsystem is a *counter-based* random stream: the
upset count of one stored word in one scrub interval is a pure function
of ``(seed, way, set, word, interval)``, computed by hashing the
coordinates (splitmix64 finalizer) into a uniform and inverting the
Poisson CDF.  Nothing is drawn sequentially, so

* serial and ``--jobs N`` runs are byte-identical (no shared stream to
  race on),
* the reference and vectorized backends agree bit-for-bit (both call
  the same array kernel — the scalar path wraps length-1 arrays), and
* repeated reads of the same word in the same interval observe the
  *same* accumulated damage, exactly like a real exposed cell.

:class:`TransientSampler` binds one cache array in one operating mode:
per way it precomputes the Poisson CDF thresholds (evaluated through
the log-space :func:`repro.reliability.soft_errors.poisson_pmf`) and
the active code's correction/detection budgets, and classifies reads as
clean / corrected / detected→refetch / detected-on-dirty (DUE) /
silent (SDC).

Modeling notes (shared by both backends, so equivalence is by
construction):

* accesses sit on the wall clock at ``i * cycles_per_access *
  cycle_time`` — interval boundaries must be known *before* timing is;
* only **read hits** observe stored (exposed) data: misses and
  bypasses fetch fresh words from memory, writes overwrite the word;
* a read observes the whole interval's upset draw even if the line was
  filled mid-interval, and a refetch does not clear the interval's
  draw for later reads — both conservative, both deterministic;
* data words only; tag upsets are second-order and left analytic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.stats import TransientOutcome
from repro.edc.protection import ProtectionScheme, make_code
from repro.reliability.soft_errors import SoftErrorModel, poisson_pmf
from repro.tech.operating import Mode, OperatingPoint
from repro.transients.spec import TransientSpec
from repro.util.rng import derive_seed

#: splitmix64 finalizer constants.
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

#: 53-bit mantissa scale: uniforms in [0, 1).
_UNIFORM_SCALE = 2.0 ** -53

#: Interval block size for whole-array enumeration (bounds memory).
_ENUMERATE_BLOCK = 64


def _mix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over a uint64 array (wraps silently)."""
    x = x.copy()
    x ^= x >> 30
    x *= _MIX1
    x ^= x >> 27
    x *= _MIX2
    x ^= x >> 31
    return x


def counter_uniforms(
    way_seed: int,
    sets: np.ndarray,
    words: np.ndarray,
    intervals: np.ndarray,
) -> np.ndarray:
    """Order-independent uniforms in [0, 1) keyed on the coordinates.

    Three chained splitmix64 finalizer rounds over ``(seed, set, word,
    interval)``.  Pure and vectorized: the value at one coordinate
    never depends on which other coordinates were evaluated, or in
    what order — the property that keeps serial and parallel runs
    byte-identical.
    """
    z = np.atleast_1d(
        np.full_like(
            np.asarray(sets, dtype=np.uint64),
            np.uint64(way_seed & 0xFFFFFFFFFFFFFFFF),
        )
    )
    z = _mix64(z ^ np.asarray(sets, dtype=np.uint64))
    z = _mix64(z ^ np.asarray(words, dtype=np.uint64))
    z = _mix64(z ^ np.asarray(intervals, dtype=np.uint64))
    return (z >> 11).astype(np.float64) * _UNIFORM_SCALE


@dataclass(frozen=True)
class WayTransientParams:
    """Per-way precomputed sampling and classification parameters.

    Attributes:
        group: owning way-group name (for per-group stats counters).
        word_bits: exposed bits per stored word under the active code.
        correctable / detectable: the active code's budgets (0/0 for
            unprotected ways — any upset is consumed silently).
        thresholds: Poisson CDF values for upset counts ``0..
            detectable``; ``searchsorted`` inverts a uniform into an
            upset count (counts beyond ``detectable`` fall off the
            end, which is exactly the silent region).
        way_seed: derived child seed of this way's counter stream.
    """

    group: str
    word_bits: int
    correctable: int
    detectable: int
    thresholds: np.ndarray
    way_seed: int

    def upset_counts(
        self,
        sets: np.ndarray,
        words: np.ndarray,
        intervals: np.ndarray,
    ) -> np.ndarray:
        """Upset counts of the given (set, word, interval) coordinates."""
        uniform = counter_uniforms(self.way_seed, sets, words, intervals)
        return np.searchsorted(self.thresholds, uniform, side="right")


class TransientSampler:
    """Soft-error injection for one cache array in one operating mode.

    Built per run from the job's :class:`~repro.transients.spec.
    TransientSpec` (see :func:`make_sampler`); holds no mutable state,
    so one sampler may serve any number of classification calls in any
    order.

    Attributes:
        config: the cache configuration being injected.
        mode: the operating mode of the run.
        vdd: supply voltage the upset rate was evaluated at.
        spec: the originating injection spec.
        accesses_per_interval: how many accesses share one scrub
            interval on the nominal wall clock.
    """

    def __init__(
        self,
        config: CacheConfig,
        mode: Mode,
        op: OperatingPoint,
        spec: TransientSpec,
        seed: int,
    ):
        self.config = config
        self.mode = mode
        self.vdd = op.vdd
        self.spec = spec
        self.seed = seed
        self.accesses_per_interval = max(
            1,
            int(
                spec.scrub_interval_seconds
                / (op.cycle_time * spec.cycles_per_access)
            ),
        )
        rate = spec.accelerated_rate_per_bit(op.vdd)
        mask = config.active_way_mask(mode)
        self._ways: list[WayTransientParams | None] = []
        for way, active in enumerate(mask):
            if not active:
                self._ways.append(None)
                continue
            group = config.group_of_way(way)
            scheme = group.data_protection.get(
                mode, ProtectionScheme.NONE
            )
            code = make_code(scheme, config.data_word_bits)
            word_bits = code.n if code else config.data_word_bits
            correctable = code.correctable if code else 0
            detectable = code.detectable if code else 0
            mean = rate * word_bits * spec.scrub_interval_seconds
            thresholds = np.cumsum(
                [poisson_pmf(mean, k) for k in range(detectable + 1)]
            )
            self._ways.append(
                WayTransientParams(
                    group=group.name,
                    word_bits=word_bits,
                    correctable=correctable,
                    detectable=detectable,
                    thresholds=thresholds,
                    way_seed=derive_seed(seed, "way", way),
                )
            )

    @property
    def content_token(self) -> str:
        """Canonical text identifying this sampler's entire behaviour.

        Two samplers with equal tokens classify every (way, set, word,
        interval) coordinate identically and attribute it to the same
        group: the spec fixes the physics and budgets, ``mode``/``vdd``
        fix the upset rate, ``accesses_per_interval`` fixes interval
        indexing and ``seed`` the counter streams.  The config-derived
        inputs are folded in too — each way's group, exposed word bits
        and budgets (None when gated), and the line and word widths
        that map addresses to words — so batched callers
        (:mod:`repro.engine.batch`) need not key on the config.
        """
        from repro.util.canonical import canonical_text

        return canonical_text(
            (
                self.spec,
                repr(self.mode),
                self.vdd,
                self.accesses_per_interval,
                self.seed,
                self.config.line_bytes,
                self.config.data_word_bits,
                [
                    None if params is None else (
                        params.group,
                        params.word_bits,
                        params.correctable,
                        params.detectable,
                    )
                    for params in self._ways
                ],
            )
        )

    # ----------------------------------------------------------- geometry
    def way_params(self, way: int) -> WayTransientParams | None:
        """Sampling parameters of one way (None when gated off)."""
        return self._ways[way]

    def interval_of(self, access_index: int) -> int:
        """Scrub-interval index of one program-order access position."""
        return access_index // self.accesses_per_interval

    def word_of(self, address: int) -> int:
        """Data-word index of a byte address within its cache line."""
        return (
            (address % self.config.line_bytes) * 8
            // self.config.data_word_bits
        )

    # ------------------------------------------------------ classification
    def classify_upsets(
        self,
        params: WayTransientParams,
        upsets: np.ndarray,
        dirty: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(corrected, refetch, due, silent) masks for upset counts.

        Pure integer comparisons against the way's budgets — the one
        classification rule both backends share: within the correction
        budget the decoder fixes the word; within detection the word
        refetches from the next level unless the line is dirty (the
        only copy is the corrupt one: a detected uncorrectable error,
        DUE); beyond detection the corrupt word is consumed (SDC).
        """
        affected = upsets > 0
        corrected = affected & (upsets <= params.correctable)
        detected = (
            (upsets > params.correctable)
            & (upsets <= params.detectable)
        )
        due = detected & dirty
        refetch = detected & ~dirty
        silent = upsets > params.detectable
        return corrected, refetch, due, silent

    def observe_read_hit(
        self,
        way: int,
        set_index: int,
        address: int,
        access_index: int,
        dirty: bool,
    ) -> TransientOutcome | None:
        """Classify one read hit (the reference backend's scalar path).

        Wraps the array kernel with length-1 arrays so the float path
        (hash, uniform, CDF inversion) is byte-identical to the
        vectorized backend's.  Returns None for an unaffected read.
        """
        params = self._ways[way]
        if params is None:  # pragma: no cover - gated ways cannot hit
            return None
        upsets = int(
            params.upset_counts(
                np.asarray([set_index], dtype=np.uint64),
                np.asarray([self.word_of(address)], dtype=np.uint64),
                np.asarray(
                    [self.interval_of(access_index)], dtype=np.uint64
                ),
            )[0]
        )
        if upsets == 0:
            return None
        if upsets <= params.correctable:
            return TransientOutcome.CORRECTED
        if upsets <= params.detectable:
            return (
                TransientOutcome.DUE if dirty
                else TransientOutcome.REFETCH
            )
        return TransientOutcome.SILENT

    # ------------------------------------------------------- whole array
    def uncorrectable_events(self, intervals: int) -> int:
        """Uncorrectable (beyond-correction) word-interval events.

        Enumerates every (way, set, word, interval) draw of the array
        over ``intervals`` scrub intervals — the sampled counterpart of
        :meth:`repro.reliability.soft_errors.SoftErrorModel.cache_fit`,
        with *no* trace in the loop.  Used by the population study's
        statistical cross-check.
        """
        if intervals < 0:
            raise ValueError("intervals must be >= 0")
        sets = self.config.sets
        words = self.config.words_per_line
        set_grid, word_grid = np.meshgrid(
            np.arange(sets, dtype=np.uint64),
            np.arange(words, dtype=np.uint64),
            indexing="ij",
        )
        set_flat = set_grid.ravel()
        word_flat = word_grid.ravel()
        total = 0
        for way, params in enumerate(self._ways):
            if params is None:
                continue
            for start in range(0, intervals, _ENUMERATE_BLOCK):
                block = np.arange(
                    start,
                    min(start + _ENUMERATE_BLOCK, intervals),
                    dtype=np.uint64,
                )
                sets_b = np.repeat(set_flat, len(block))
                words_b = np.repeat(word_flat, len(block))
                intervals_b = np.tile(block, len(set_flat))
                upsets = params.upset_counts(sets_b, words_b, intervals_b)
                total += int(
                    np.count_nonzero(upsets > params.correctable)
                )
        return total

    def sampled_cache_fit(self, intervals: int) -> float:
        """Sampled uncorrectable-error rate of the array, in FIT.

        Counts the enumerated events and converts to failures per
        billion hours.  The figure is at *accelerated* physics — tail
        probabilities scale like ``acceleration ** (budget + 1)``, so
        they cannot be linearly de-accelerated — and compares directly
        against ``analytic_cache_fit(..., accelerated=True)``: the two
        differ only by Monte Carlo noise (see docs/transients.md for
        the documented tolerance).
        """
        if intervals <= 0:
            raise ValueError("intervals must be positive")
        events = self.uncorrectable_events(intervals)
        hours = intervals * self.spec.scrub_interval_seconds / 3600.0
        return events / hours * 1e9


def make_sampler(
    config: CacheConfig,
    mode: Mode,
    op: OperatingPoint,
    spec: TransientSpec,
    label: str,
) -> TransientSampler:
    """Build one array's sampler with its derived child seed.

    ``label`` names the physical array ("il1" / "dl1"): each array
    derives its own stream from the spec's root seed, so the two L1s
    draw decorrelated upsets even when they share a configuration.
    """
    return TransientSampler(
        config,
        mode,
        op,
        spec,
        seed=derive_seed(spec.seed, "transients", label),
    )


def analytic_cache_fit(
    config: CacheConfig,
    mode: Mode,
    vdd: float,
    spec: TransientSpec,
    accelerated: bool = False,
) -> float:
    """Closed-form uncorrectable-error rate of one array, in FIT.

    Sums :meth:`~repro.reliability.soft_errors.SoftErrorModel.
    cache_fit` over the mode's active way groups, each with its active
    code's word geometry and correction budget.  By default this is
    the true (unaccelerated) physics — the paper-scale number;
    ``accelerated=True`` folds the spec's acceleration into the upset
    rate, which is what the *sampled* FIT must be validated against
    (tail probabilities scale like ``acceleration ** (budget + 1)``,
    so the two scales are not related by a simple factor).
    """
    model = spec.soft_error_model()
    if accelerated:
        model = SoftErrorModel(
            fit_per_mbit_nominal=(
                model.fit_per_mbit_nominal * spec.acceleration
            ),
            voltage_sensitivity=model.voltage_sensitivity,
            vdd_nominal=model.vdd_nominal,
        )
    total = 0.0
    for group in config.way_groups:
        if not group.is_active(mode):
            continue
        scheme = group.data_protection.get(mode, ProtectionScheme.NONE)
        code = make_code(scheme, config.data_word_bits)
        word_bits = code.n if code else config.data_word_bits
        correctable = code.correctable if code else 0
        total += model.cache_fit(
            vdd,
            words=config.sets * group.ways * config.words_per_line,
            word_bits=word_bits,
            scrub_interval_seconds=spec.scrub_interval_seconds,
            soft_budget=correctable,
        )
    return total
