"""Seed plumbing and result records shared by both factoring drivers.

Randomness is derived from a single 64-bit seed through the counter-based
Philox generator keyed on (seed, trial index), so trial t sees the same
stream whether trials run serially, in parallel, or are re-run alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent generator for one trial, keyed on (seed, trial index)."""
    if trial_index < 0:
        raise ValueError(f"trial index must be >= 0, got {trial_index}")
    # a uint64 array: a Python list would pass seeds >= 2**63 through float64
    key = np.array([seed & _MASK64, trial_index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class TrialRecord:
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


@dataclass(frozen=True)
class DriverResult:
    """End-to-end verdict of a factoring driver with its seed provenance."""

    n: int
    succeeded: bool
    factor: int | None
    trials_run: int
    max_trials: int
    seed: int
    records: tuple[TrialRecord, ...] = field(default_factory=tuple)
