import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausshor.shor_gauss import factor_driver
from gausshor.superposition import run_qubit, sample_factor_driver
from gausshor.trials import TrialRecord, drive, trial_rng


def test_seeds_above_2_63_do_not_collide():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = [trial_rng(seed, 0).random() for seed in (2**63, 2**63 + 1, 2**64 - 1)]
    assert len(set(draws)) == 3
    # 0.9412138513175567 is the draw both seeds shared when the key went through float64
    assert 0.9412138513175567 not in draws[1:]


def test_seed_is_taken_mod_2_64():
    assert trial_rng(2**64 + 5, 3).random() == trial_rng(5, 3).random()
    assert trial_rng(-1, 0).random() == trial_rng(2**64 - 1, 0).random()


def _draws(stream, k: int) -> list[float]:
    return [stream.random() for _ in range(k)]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1))
def test_stream_matches_list_keyed_philox_below_2_63(seed, trial):
    # the streams documented before keys became uint64 arrays stay put
    reference = np.random.Generator(np.random.Philox(key=[seed, trial]))
    assert _draws(trial_rng(seed, trial), 4) == reference.random(4).tolist()


@settings(max_examples=200, deadline=None)
@given(st.integers(-(2**70), 2**70), st.integers(0, 2**64 - 1))
def test_stream_matches_numpy_philox_bit_for_bit(seed, trial):
    # nine draws read three Philox blocks of four words, so two block boundaries
    key = np.array([seed % 2**64, trial % 2**64], dtype=np.uint64)
    reference = np.random.Generator(np.random.Philox(key=key)).random(9)
    assert _draws(trial_rng(seed, trial), 9) == reference.tolist()


def test_negative_trial_index_is_rejected():
    with pytest.raises(ValueError, match="trial index must be >= 0, got -1"):
        trial_rng(0, -1)


def _factor_at(hit: int | None, calls: list):
    """A trial that records its index and its first draw, and finds a factor at index hit."""
    def trial(t, rng):
        calls.append(t)
        return TrialRecord(t, int(rng.random() * 2**62), factor=7 if t == hit else None)

    return trial


def test_drive_stops_at_first_factor():
    calls = []
    res = drive(35, 10, 3, _factor_at(2, calls))
    assert calls == [0, 1, 2]
    assert (res.n, res.succeeded, res.factor, res.trials_run, res.max_trials, res.seed) == (
        35, True, 7, 3, 10, 3
    )
    assert [r.index for r in res.records] == [0, 1, 2] and res.records[-1].factor == 7


def test_drive_exhausts_its_budget():
    calls = []
    res = drive(35, 4, 3, _factor_at(None, calls))
    assert calls == [0, 1, 2, 3] and len(res.records) == 4
    assert not res.succeeded and res.factor is None and res.trials_run == res.max_trials == 4


def test_drive_with_no_budget_runs_no_trial():
    calls = []
    res = drive(35, 0, 3, _factor_at(0, calls))
    assert calls == [] and res.records == ()
    assert not res.succeeded and res.factor is None and res.trials_run == 0


def test_drive_hands_trial_t_its_own_stream():
    seed = 2**63 + 11
    res = drive(35, 5, seed, _factor_at(None, []))
    expected = [int(trial_rng(seed, t).random() * 2**62) for t in range(5)]
    assert [r.outcome_b for r in res.records] == expected


def test_negative_budget_is_rejected():
    calls = []
    with pytest.raises(ValueError):
        drive(35, -3, 0, _factor_at(None, calls))
    assert calls == []
    with pytest.raises(ValueError):
        factor_driver(91, 14, -3, 0)
    with pytest.raises(ValueError):
        sample_factor_driver(run_qubit(21, 9), -3, 0)
