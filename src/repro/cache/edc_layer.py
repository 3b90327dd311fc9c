"""Stored-word simulation through hard faults and the EDC codec.

:class:`ProtectedArray` models one physical word array of a ULE way: every
write stores a codeword of the value; every read passes it through the
die's stuck-at fault map (and optional soft-error flips) and decodes it.
Against a shadow copy of the written values it classifies each read as
clean / corrected / detected / **silent** (decoder claimed success but
returned wrong data) — the last category must stay empty whenever the
fault map respects the code's budget, which is what the reliability
experiments verify against Eq. (1)-(2).

Clean words skip the codec: a word with no stuck bit and no soft-error
bit reads back its stored codeword, whose syndrome is zero, so the read
is ``CLEAN`` with the written value — decided without encoding or
decoding.  Codewords are encoded lazily, on the first read that passes
a faulty or struck word through the decoder.  A die at the designed Pf
has a handful of stuck bits, so the Monte Carlo decodes only the few
words they touch; every counter is the same as decoding all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.edc.base import DecodeStatus, LinearBlockCode
from repro.edc.protection import ProtectionScheme, make_code
from repro.reliability.fault_maps import FaultMap


@dataclass(frozen=True)
class WordReadRecord:
    """One read through the protected array.

    Attributes:
        value: the data returned to the consumer.
        status: decoder outcome (CLEAN for unprotected arrays).
        correct: whether ``value`` matches what was last written.
    """

    value: int
    status: DecodeStatus
    correct: bool


class ProtectedArray:
    """A fault-injected, EDC-protected array of fixed-width words."""

    def __init__(
        self,
        words: int,
        data_bits: int,
        scheme: ProtectionScheme,
        fault_map: FaultMap | None = None,
    ):
        if words <= 0 or data_bits <= 0:
            raise ValueError("bad geometry")
        self.words = words
        self.data_bits = data_bits
        self.scheme = scheme
        self.code: LinearBlockCode | None = make_code(scheme, data_bits)
        self.stored_bits = (
            self.code.n if self.code is not None else data_bits
        )
        if fault_map is not None:
            if fault_map.words < words:
                raise ValueError("fault map smaller than the array")
            if fault_map.word_bits != self.stored_bits:
                raise ValueError(
                    f"fault map is {fault_map.word_bits} bits/word; "
                    f"array stores {self.stored_bits}"
                )
        self.fault_map = fault_map
        self._fault_masks = (
            fault_map.fault_masks if fault_map is not None else {}
        )
        #: Codeword per word; None until a read needs it (see read()).
        self._stored: list[int | None] = [None] * words
        self._shadow = [0] * words
        self._written = [False] * words
        self.reads = 0
        self.corrected_reads = 0
        self.detected_reads = 0
        self.miscorrections = 0
        self.undetected_errors = 0

    # --------------------------------------------------------------- API
    def write(self, index: int, value: int) -> None:
        """Store ``value`` at ``index`` (encoded when first read)."""
        self._check_index(index)
        if value < 0 or value >> self.data_bits:
            raise ValueError(f"value does not fit in {self.data_bits} bits")
        self._stored[index] = None
        self._shadow[index] = value
        self._written[index] = True

    def read(
        self,
        index: int,
        soft_error_bits: tuple[int, ...] = (),
    ) -> WordReadRecord:
        """Read ``index`` through faults (+ optional transient flips).

        ``soft_error_bits`` must name *distinct* bit positions: two
        mentions of the same bit would XOR-cancel silently, so an
        injected double strike would masquerade as no strike at all.
        Duplicates are rejected rather than deduplicated — a caller
        producing them almost certainly meant different positions.
        """
        self._check_index(index)
        if not self._written[index]:
            raise ValueError(f"word {index} read before written")
        if len(set(soft_error_bits)) != len(soft_error_bits):
            raise ValueError(
                "duplicate soft-error bit positions: "
                f"{tuple(soft_error_bits)} (duplicates would XOR-cancel "
                "and hide the injected strike)"
            )
        for bit in soft_error_bits:
            if not 0 <= bit < self.stored_bits:
                raise ValueError("soft-error bit out of range")
        self.reads += 1
        if not soft_error_bits and index not in self._fault_masks:
            # Clean word: the stored codeword reads back unchanged.
            return WordReadRecord(
                value=self._shadow[index],
                status=DecodeStatus.CLEAN,
                correct=True,
            )
        raw = self._stored[index]
        if raw is None:
            value = self._shadow[index]
            raw = self.code.encode(value) if self.code else value
            self._stored[index] = raw
        if self.fault_map is not None:
            raw = self.fault_map.apply(index, raw)
        for bit in soft_error_bits:
            raw ^= 1 << bit
        if self.code is None:
            value = raw
            status = DecodeStatus.CLEAN
        else:
            result = self.code.decode(raw)
            value = result.data
            status = result.status
        correct = (
            status is not DecodeStatus.DETECTED
            and value == self._shadow[index]
        )
        if status is DecodeStatus.CORRECTED:
            self.corrected_reads += 1
        elif status is DecodeStatus.DETECTED:
            self.detected_reads += 1
        if not correct:
            if status is DecodeStatus.CORRECTED:
                self.miscorrections += 1
            elif status is DecodeStatus.CLEAN:
                self.undetected_errors += 1
        return WordReadRecord(value=value, status=status, correct=correct)

    @property
    def silent_errors(self) -> int:
        """Reads where the decoder claimed success but the data is wrong.

        The sum of the two distinguishable failure modes —
        :attr:`miscorrections` (status ``CORRECTED``, wrong data: the
        decoder "fixed" the word onto the wrong codeword) and
        :attr:`undetected_errors` (status ``CLEAN``, wrong data: the
        error pattern aliased to a valid codeword).  Scenario-B
        verification needs the split; existing yield checks keep
        consuming the sum.
        """
        return self.miscorrections + self.undetected_errors

    # --------------------------------------------------------- analysis
    def word_is_usable(self, index: int, hard_budget: int) -> bool:
        """Static check: does the word's fault count fit the budget?"""
        self._check_index(index)
        if self.fault_map is None:
            return True
        return self.fault_map.faults_in_word(index) <= hard_budget

    def usable(self, hard_budget: int) -> bool:
        """Whether every word of the array fits the budget (die works).

        Fault-free words fit any non-negative budget, so only the
        faulty words are counted.
        """
        if self.fault_map is None:
            return True
        return hard_budget >= 0 and all(
            self.fault_map.faults_in_word(index) <= hard_budget
            for index in self._fault_masks
            if index < self.words
        )

    def exercise(self, rng: np.random.Generator, rounds: int = 1) -> None:
        """Write random data everywhere and read it back ``rounds`` times.

        Used by the Monte Carlo yield validation: after exercising, the
        ``silent_errors`` /  ``detected_reads`` counters tell whether this
        die behaved as a yielding part.  Each round draws its words in
        one vector draw, in word order: numpy yields the same values,
        and leaves the generator in the same state, as one scalar draw
        per word.  Writing every word then resets the stored codewords
        and the shadow wholesale.  A clean word's read only counts (see
        :meth:`read`), so only the words with stuck bits are read
        through the codec.
        """
        faulty = [i for i in range(self.words) if i in self._fault_masks]
        for _ in range(rounds):
            self._shadow = rng.integers(
                0, 1 << self.data_bits, size=self.words
            ).tolist()
            self._stored = [None] * self.words
            self._written = [True] * self.words
            self.reads += self.words - len(faulty)
            for index in faulty:
                self.read(index)

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.words:
            raise IndexError(f"word index {index} out of range")
