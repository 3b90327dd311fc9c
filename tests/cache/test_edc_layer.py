"""Tests for the EDC storage layer (faults x codecs)."""

import itertools

import numpy as np
import pytest

from repro.cache.edc_layer import ProtectedArray
from repro.edc.base import DecodeStatus
from repro.edc.protection import ProtectionScheme
from repro.reliability.fault_maps import FaultMap, generate_fault_map


def _single_fault_map(word_bits: int, word: int, bit: int) -> FaultMap:
    return FaultMap(
        word_bits=word_bits,
        words=8,
        fault_masks={word: 1 << bit},
        stuck_values={word: 1 << bit},
    )


class TestCleanArray:
    def test_roundtrip(self, rng):
        array = ProtectedArray(8, 32, ProtectionScheme.SECDED)
        for index in range(8):
            value = int(rng.integers(0, 1 << 32))
            array.write(index, value)
            record = array.read(index)
            assert record.value == value
            assert record.status is DecodeStatus.CLEAN
            assert record.correct

    def test_unwritten_read_rejected(self):
        array = ProtectedArray(4, 32, ProtectionScheme.NONE)
        with pytest.raises(ValueError):
            array.read(0)

    def test_value_range_checked(self):
        array = ProtectedArray(4, 8, ProtectionScheme.NONE)
        with pytest.raises(ValueError):
            array.write(0, 256)

    def test_geometry_mismatch_rejected(self, rng):
        fmap = generate_fault_map(0.01, 8, 32, rng)  # 32 != 39 stored
        with pytest.raises(ValueError):
            ProtectedArray(8, 32, ProtectionScheme.SECDED, fault_map=fmap)


class TestFaultyReads:
    def test_secded_hides_single_stuck_bit(self, rng):
        fmap = _single_fault_map(39, word=3, bit=10)
        array = ProtectedArray(
            8, 32, ProtectionScheme.SECDED, fault_map=fmap
        )
        flagged = 0
        for _ in range(50):
            value = int(rng.integers(0, 1 << 32))
            array.write(3, value)
            record = array.read(3)
            assert record.correct
            assert record.value == value
            if record.status is DecodeStatus.CORRECTED:
                flagged += 1
        # Roughly half the writes conflict with the stuck polarity.
        assert 10 < flagged < 45
        assert array.silent_errors == 0

    def test_unprotected_array_corrupts(self, rng):
        fmap = _single_fault_map(32, word=0, bit=4)
        array = ProtectedArray(8, 32, ProtectionScheme.NONE, fault_map=fmap)
        wrong = 0
        for _ in range(40):
            value = int(rng.integers(0, 1 << 32))
            array.write(0, value)
            if not array.read(0).correct:
                wrong += 1
        assert wrong > 5
        assert array.silent_errors == wrong

    def test_two_stuck_bits_beat_secded(self, rng):
        fmap = FaultMap(
            word_bits=39,
            words=8,
            fault_masks={1: 0b101},
            stuck_values={1: 0b101},
        )
        array = ProtectedArray(
            8, 32, ProtectionScheme.SECDED, fault_map=fmap
        )
        outcomes = set()
        for _ in range(60):
            array.write(1, int(rng.integers(0, 1 << 32)))
            outcomes.add(array.read(1).status)
        assert DecodeStatus.DETECTED in outcomes
        assert not array.word_is_usable(1, hard_budget=1)

    def test_dected_hides_stuck_bit_plus_soft_flip(self, rng):
        fmap = _single_fault_map(45, word=2, bit=7)
        array = ProtectedArray(
            8, 32, ProtectionScheme.DECTED, fault_map=fmap
        )
        for soft_bit in (0, 11, 31, 44):
            value = int(rng.integers(0, 1 << 32))
            array.write(2, value)
            record = array.read(2, soft_error_bits=(soft_bit,))
            assert record.correct
            assert record.value == value
        assert array.silent_errors == 0

    def test_soft_bit_range_checked(self, rng):
        array = ProtectedArray(4, 32, ProtectionScheme.SECDED)
        array.write(0, 5)
        with pytest.raises(ValueError):
            array.read(0, soft_error_bits=(39,))


class TestUsability:
    def test_budget_logic(self):
        fmap = FaultMap(
            word_bits=39,
            words=4,
            fault_masks={0: 0b1, 2: 0b11},
            stuck_values={},
        )
        array = ProtectedArray(
            4, 32, ProtectionScheme.SECDED, fault_map=fmap
        )
        assert array.word_is_usable(0, 1)
        assert not array.word_is_usable(2, 1)
        assert not array.usable(1)
        assert array.usable(2)

    def test_exercise_counts(self, rng):
        array = ProtectedArray(16, 32, ProtectionScheme.SECDED)
        array.exercise(rng, rounds=2)
        assert array.reads == 32
        assert array.silent_errors == 0
        assert array.detected_reads == 0


class TestFailureModeSplit:
    """silent_errors is now the sum of two distinguishable modes."""

    def test_parity_double_flip_is_undetected(self):
        """Two flips alias parity back to even: status CLEAN, wrong
        data — an *undetected* error, not a miscorrection."""
        array = ProtectedArray(4, 32, ProtectionScheme.PARITY)
        array.write(0, 0b1010)
        record = array.read(0, soft_error_bits=(0, 1))
        assert record.status is DecodeStatus.CLEAN
        assert not record.correct
        assert array.undetected_errors == 1
        assert array.miscorrections == 0
        assert array.silent_errors == 1

    def test_secded_triple_flip_can_miscorrect(self):
        """Three flips sit within distance 1 of some *wrong* codeword
        for many patterns: the decoder "fixes" onto it — a
        miscorrection (never CLEAN, since d_min = 4)."""
        array = ProtectedArray(4, 32, ProtectionScheme.SECDED)
        array.write(0, 0xDEADBEEF)
        found = False
        for bits in itertools.combinations(range(array.stored_bits), 3):
            before = array.miscorrections
            record = array.read(0, soft_error_bits=bits)
            assert record.status is not DecodeStatus.CLEAN
            if (
                record.status is DecodeStatus.CORRECTED
                and not record.correct
            ):
                assert array.miscorrections == before + 1
                found = True
                break
        assert found
        assert array.undetected_errors == 0
        assert array.silent_errors == array.miscorrections

    def test_sum_preserved_for_back_compat(self):
        array = ProtectedArray(4, 32, ProtectionScheme.PARITY)
        array.write(0, 1)
        array.read(0, soft_error_bits=(2, 3))
        array.read(0, soft_error_bits=(4, 5))
        assert array.silent_errors == (
            array.miscorrections + array.undetected_errors
        ) == 2

    def test_clean_reads_leave_both_counters_zero(self):
        array = ProtectedArray(4, 32, ProtectionScheme.SECDED)
        array.write(1, 77)
        array.read(1)
        array.read(1, soft_error_bits=(5,))
        assert array.miscorrections == 0
        assert array.undetected_errors == 0
        assert array.silent_errors == 0


class TestDuplicateSoftErrorBits:
    """Duplicate indices would XOR-cancel and hide the strike."""

    def test_duplicates_rejected(self):
        array = ProtectedArray(4, 32, ProtectionScheme.SECDED)
        array.write(0, 9)
        with pytest.raises(ValueError, match="duplicate"):
            array.read(0, soft_error_bits=(3, 3))

    def test_duplicates_rejected_even_with_others(self):
        array = ProtectedArray(4, 32, ProtectionScheme.DECTED)
        array.write(0, 9)
        with pytest.raises(ValueError, match="XOR-cancel"):
            array.read(0, soft_error_bits=(1, 5, 1))

    def test_counters_untouched_by_rejected_read(self):
        array = ProtectedArray(4, 32, ProtectionScheme.SECDED)
        array.write(0, 9)
        with pytest.raises(ValueError):
            array.read(0, soft_error_bits=(2, 2))
        assert array.reads == 0
        assert array.silent_errors == 0

    def test_distinct_bits_still_fine(self):
        array = ProtectedArray(4, 32, ProtectionScheme.DECTED)
        array.write(0, 9)
        record = array.read(0, soft_error_bits=(1, 5))
        assert record.correct


def _counting_codec(monkeypatch, array):
    """Count ``array.code``'s encode and decode calls."""
    calls = {"encode": 0, "decode": 0}
    for name in calls:
        real = getattr(array.code, name)

        def counting(word, _name=name, _real=real):
            calls[_name] += 1
            return _real(word)

        monkeypatch.setattr(array.code, name, counting)
    return calls


def _counters(array):
    return (
        array.reads,
        array.corrected_reads,
        array.detected_reads,
        array.miscorrections,
        array.undetected_errors,
    )


class TestCleanWordsSkipTheCodec:
    """A word with no stuck bit and no soft-error bit reads back its
    stored codeword: CLEAN with the written value, without a decode."""

    @pytest.mark.parametrize(
        "scheme",
        [ProtectionScheme.PARITY, ProtectionScheme.SECDED,
         ProtectionScheme.DECTED],
    )
    def test_fault_free_exercise_never_decodes(self, monkeypatch, scheme):
        stored_bits = ProtectedArray(64, 32, scheme).stored_bits
        fmap = generate_fault_map(
            0.0, 64, stored_bits, np.random.default_rng(1)
        )
        array = ProtectedArray(64, 32, scheme, fault_map=fmap)
        calls = _counting_codec(monkeypatch, array)
        array.exercise(np.random.default_rng(3), rounds=2)
        assert calls == {"encode": 0, "decode": 0}
        assert _counters(array) == (128, 0, 0, 0, 0)

    def test_clean_word_with_soft_bits_still_decodes(self, monkeypatch):
        array = ProtectedArray(8, 32, ProtectionScheme.SECDED)
        calls = _counting_codec(monkeypatch, array)
        array.write(5, 0xCAFE)
        record = array.read(5, soft_error_bits=(9,))
        assert calls == {"encode": 1, "decode": 1}
        assert record.status is DecodeStatus.CORRECTED
        assert record.correct and record.value == 0xCAFE
        assert _counters(array) == (1, 1, 0, 0, 0)
        # The codeword is encoded once and kept until the next write.
        array.read(5, soft_error_bits=(9, 20))
        assert calls == {"encode": 1, "decode": 2}
        assert array.detected_reads == 1
        array.write(5, 7)
        array.read(5, soft_error_bits=(1,))
        assert calls == {"encode": 2, "decode": 3}

    def test_only_faulty_words_decode(self, monkeypatch):
        fmap = _single_fault_map(39, word=3, bit=10)
        array = ProtectedArray(
            8, 32, ProtectionScheme.SECDED, fault_map=fmap
        )
        calls = _counting_codec(monkeypatch, array)
        array.exercise(np.random.default_rng(11), rounds=4)
        assert calls == {"encode": 4, "decode": 4}
        assert array.reads == 32


class TestFaultyDieCounters:
    """Counters of densely faulty dies, pinned from the decode-every-
    word implementation: skipping clean words changes none of them."""

    #: scheme -> (faulty words, reads, corrected, detected,
    #: miscorrections, undetected, usable(1), usable(2)).
    PINNED = {
        ProtectionScheme.NONE: (44, 192, 0, 0, 0, 78, False, False),
        ProtectionScheme.PARITY: (45, 192, 0, 61, 0, 15, False, False),
        ProtectionScheme.SECDED: (46, 192, 66, 21, 2, 0, False, False),
        ProtectionScheme.DECTED: (52, 192, 94, 5, 0, 0, False, False),
    }

    @pytest.mark.parametrize("scheme", list(PINNED))
    def test_counters_match_pins(self, scheme):
        rng = np.random.default_rng(2013)
        bare = ProtectedArray(64, 32, scheme)
        fmap = generate_fault_map(0.03, 64, bare.stored_bits, rng)
        array = ProtectedArray(64, 32, scheme, fault_map=fmap)
        array.exercise(rng, rounds=3)
        assert (
            len(fmap.fault_masks),
            *_counters(array),
            array.usable(1),
            array.usable(2),
        ) == self.PINNED[scheme]


class TestExerciseDraws:
    """``exercise`` draws each round's words in one vector draw.  It
    relies on numpy yielding the same values, and leaving the same
    generator state, as one scalar draw per word; both are pinned here,
    against a per-word ``write``/``read`` loop kept as the reference."""

    @pytest.mark.parametrize("data_bits", [26, 32, 63])
    def test_vector_draw_equals_scalar_draws(self, data_bits):
        vector_rng = np.random.default_rng(data_bits)
        scalar_rng = np.random.default_rng(data_bits)
        for words in (1, 7, 256):
            drawn = vector_rng.integers(
                0, 1 << data_bits, size=words
            ).tolist()
            assert drawn == [
                int(scalar_rng.integers(0, 1 << data_bits))
                for _ in range(words)
            ]
            assert (
                vector_rng.bit_generator.state
                == scalar_rng.bit_generator.state
            )

    @staticmethod
    def _per_word_exercise(array, rng, rounds):
        """Reference: one scalar draw and one ``write`` per word."""
        faulty = [i for i in range(array.words) if i in array._fault_masks]
        for _ in range(rounds):
            for index in range(array.words):
                array.write(index, int(rng.integers(0, 1 << array.data_bits)))
            array.reads += array.words - len(faulty)
            for index in faulty:
                array.read(index)

    @pytest.mark.parametrize(
        "scheme, data_bits",
        [
            (ProtectionScheme.NONE, 63),
            (ProtectionScheme.PARITY, 26),
            (ProtectionScheme.SECDED, 32),
            (ProtectionScheme.DECTED, 32),
        ],
    )
    def test_exercise_equals_per_word_loop(self, scheme, data_bits):
        stored_bits = ProtectedArray(64, data_bits, scheme).stored_bits
        fmap = generate_fault_map(
            0.03, 64, stored_bits, np.random.default_rng(5)
        )
        assert fmap.fault_masks  # stuck bits, so the codec runs
        arrays, rngs = [], []
        for _ in range(2):
            arrays.append(
                ProtectedArray(64, data_bits, scheme, fault_map=fmap)
            )
            rngs.append(np.random.default_rng(2013))
        arrays[0].exercise(rngs[0], rounds=3)
        self._per_word_exercise(arrays[1], rngs[1], rounds=3)
        vector, scalar = arrays
        assert _counters(vector) == _counters(scalar)
        assert vector._shadow == scalar._shadow
        assert vector._stored == scalar._stored
        assert vector._written == scalar._written
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
