import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from gausshor.trials import trial_rng


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


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1))
def test_stream_matches_list_keyed_philox_below_2_63(seed, trial):
    # the streams documented before keys became uint64 arrays stay put
    reference = np.random.Generator(np.random.Philox(key=[seed, trial]))
    assert np.array_equal(trial_rng(seed, trial).random(4), reference.random(4))
