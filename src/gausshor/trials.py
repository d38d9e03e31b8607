"""Seed plumbing, the seeded trial loop and the records of both factoring drivers.

Randomness is derived from a single 64-bit seed through the counter-based
Philox4x64-10 generator (Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC'11) keyed on (seed, trial index), so trial t sees the same
stream whether trials run serially, in parallel, or are re-run alone.  The
stream is computed in pure Python and gives the same doubles, bit for bit,
as numpy's ``Generator(Philox(key=...)).random()``; ``numpy.random`` is
never imported.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

_MASK64 = (1 << 64) - 1
# Philox4x64 round multipliers and Weyl key increments (Random123)
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B


class TrialStream:
    """Philox4x64-10 keyed on two 64-bit words, read as uniform doubles in [0, 1).

    Block b (b = 1, 2, ...) encrypts the counter words (b, 0, 0, 0) under
    the key and yields four 64-bit words, first word first; a double is the
    top 53 bits of one word.  This is numpy's Philox with its counter at 0,
    whose higher counter words stay 0 for the first 2**64 blocks.
    """

    __slots__ = ("_key", "_counter", "_words")

    def __init__(self, k0: int, k1: int):
        self._key = (k0 & _MASK64, k1 & _MASK64)
        self._counter = 0
        self._words: list[int] = []

    def _next_block(self) -> None:
        self._counter += 1
        c0, c1, c2, c3 = self._counter, 0, 0, 0
        k0, k1 = self._key
        for _ in range(10):
            p0 = _M0 * c0
            p1 = _M1 * c2
            c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK64, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64
            k0 = (k0 + _W0) & _MASK64
            k1 = (k1 + _W1) & _MASK64
        # popped from the end, so the block's first word is read first
        self._words = [c3, c2, c1, c0]

    def random(self) -> float:
        """Next uniform double in [0, 1), a multiple of 2**-53."""
        if not self._words:
            self._next_block()
        return (self._words.pop() >> 11) * 2.0**-53


def trial_rng(seed: int, trial_index: int) -> TrialStream:
    """Independent stream for one trial, keyed on (seed mod 2**64, trial index)."""
    if trial_index < 0:
        raise ValueError(f"trial index must be >= 0, got {trial_index}")
    return TrialStream(seed, trial_index)


class TrialRecord(NamedTuple):
    """What one trial measured and concluded.

    outcome_b: the measured B value (a divisor-signal label for the
        branch algorithm, a register index for the superposition one).
    outcome_a: the A-register sample, when one was taken.
    candidate: denominator proposed by rational reconstruction, if any.
    factor: nontrivial divisor reported by this trial, or None.
    """

    index: int
    outcome_b: int
    outcome_a: int | None = None
    candidate: int | None = None
    factor: int | None = None


class DriverResult(NamedTuple):
    """End-to-end verdict of a factoring driver with its seed provenance."""

    n: int
    succeeded: bool
    factor: int | None
    trials_run: int
    max_trials: int
    seed: int
    records: tuple[TrialRecord, ...] = ()


def drive(
    n: int,
    max_trials: int,
    seed: int,
    trial: Callable[[int, TrialStream], TrialRecord],
) -> DriverResult:
    """Run trial(t, trial_rng(seed, t)) for t < max_trials, up to the first record with a factor."""
    if max_trials < 0:
        raise ValueError(f"trial budget must be >= 0, got {max_trials}")
    records = []
    for t in range(max_trials):
        rec = trial(t, trial_rng(seed, t))
        records.append(rec)
        if rec.factor is not None:
            return DriverResult(n, True, rec.factor, t + 1, max_trials, seed, tuple(records))
    return DriverResult(n, False, None, max_trials, max_trials, seed, tuple(records))
