import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from gausshor.kernels import eval_W
from gausshor.numtheory import factor_semiprime
from gausshor import states
from gausshor.states import (
    AmplitudeCapError,
    BipartiteState,
    Distribution,
    StateIntegrityError,
    ZeroMarginalError,
    amplitude_cap,
    apply_quadratic_phase,
    collapse_b,
    conditional_a,
    marginal_b,
    measure_b,
    purity_a,
    purity_closed,
    qft_b,
    qft_vector,
    qft_vector_inverse,
    sample_cdf,
    sample_outcome,
    uniform_product,
)
from gausshor.superposition import run_exact
from gausshor.trials import trial_rng

import oracles


def psi2(n: int) -> BipartiteState:
    return qft_b(apply_quadratic_phase(uniform_product(n, n), n))


def test_uniform_product_values():
    st = uniform_product(2, 2)
    assert np.allclose(st.amps, 0.5)
    st = uniform_product(91, 91)
    assert np.allclose(st.amps, 1 / 91)


def test_amplitude_cap():
    uniform_product(2048, 2048)  # 2**22 entries fit under the default cap
    with pytest.raises(AmplitudeCapError):
        uniform_product(1 << 20, 1 << 20)


def test_amplitude_cap_env_override(monkeypatch):
    monkeypatch.setenv("GAUSSHOR_MEM_CAP", "1000")
    assert amplitude_cap() == 1000
    with pytest.raises(AmplitudeCapError):
        uniform_product(40, 40)
    uniform_product(25, 25)
    monkeypatch.setenv("GAUSSHOR_MEM_CAP", "0")
    with pytest.raises(ValueError):
        uniform_product(2, 2)


def test_norm_integrity_enforced():
    bad = np.full((2, 2), 0.7, dtype=np.complex128)
    with pytest.raises(StateIntegrityError):
        BipartiteState(2, 2, bad)


@pytest.mark.parametrize("sign", [1, -1])
def test_norm_check_threshold(sign):
    """The 1e-9 tolerance rejects a squared-norm error of 1e-8 and accepts 1e-10."""

    def grid(err):
        return np.full((6, 10), math.sqrt((1 + sign * err) / 60), dtype=np.complex128)

    with pytest.raises(StateIntegrityError):
        BipartiteState(6, 10, grid(1e-8))
    BipartiteState(6, 10, grid(1e-10))


def test_quadratic_phase_is_diagonal_unitary():
    st = uniform_product(16, 16)
    out = apply_quadratic_phase(st, 35)
    assert np.sum(np.abs(out.amps) ** 2) == pytest.approx(1.0, abs=1e-12)
    # (l=1, m=1) picks up exactly exp(2 pi i / n)
    ratio = out.amps[1, 1] / st.amps[1, 1]
    assert ratio == pytest.approx(np.exp(2j * np.pi / 35), abs=1e-12)
    # uniform rows keep a uniform A marginal
    row_mass = np.sum(np.abs(out.amps) ** 2, axis=1)
    assert np.allclose(row_mass, 1 / 16, atol=1e-12)


def test_qft_b_delta_and_uniform():
    amps = np.zeros((1, 8), dtype=np.complex128)
    amps[0, 0] = 1.0
    st = qft_b(BipartiteState(1, 8, amps))
    assert np.allclose(st.amps, 1 / math.sqrt(8), atol=1e-12)
    back = qft_b(st)  # uniform B register transforms to a delta again
    assert abs(back.amps[0, 0]) == pytest.approx(1.0, abs=1e-9)


def test_qft_b_sign_convention():
    # entry (l=1, n=1) of the transformed identity row must carry +i phase
    amps = np.zeros((1, 4), dtype=np.complex128)
    amps[0, 1] = 1.0
    st = qft_b(BipartiteState(1, 4, amps))
    assert st.amps[0, 1] == pytest.approx(0.5j, abs=1e-12)
    naive = oracles.dft_plus([0.0, 1.0, 0.0, 0.0])
    assert np.allclose(st.amps[0], naive, atol=1e-12)


def test_psi2_reconstruction_entrywise():
    for n in (15, 21, 35, 91):
        st = psi2(n)
        root = math.sqrt(n)
        for ell in range(n):
            for n0 in range(n):
                assert st.amps[ell, n0] == pytest.approx(
                    eval_W(n0, ell, n) / root, abs=1e-9
                )


def test_marginal_b_examples():
    assert np.allclose(marginal_b(uniform_product(3, 3)).probs, 1 / 3, atol=1e-12)
    mb = marginal_b(psi2(91))
    assert mb.probs[0] == pytest.approx(325 / 8281, abs=1e-9)
    assert np.sum(mb.probs) == pytest.approx(1.0, abs=1e-9)


def test_measure_b_product_state_independent_of_outcome():
    st = uniform_product(5, 4)
    for seed in range(4):
        res = measure_b(st, trial_rng(seed, 0))
        assert np.allclose(res.state_a, 1 / math.sqrt(5), atol=1e-12)


def test_collapse_matches_shifted_sum():
    st = psi2(91)
    res = collapse_b(st, 4)
    w = np.array([eval_W(4, ell, 91) for ell in range(91)])
    w /= np.linalg.norm(w)
    assert np.allclose(res.state_a, w, atol=1e-9)


def test_measure_b_deterministic_under_seed():
    st = psi2(91)
    seq1 = [measure_b(st, trial_rng(9, t)).outcome for t in range(24)]
    seq2 = [measure_b(st, trial_rng(9, t)).outcome for t in range(24)]
    assert seq1 == seq2


def test_measure_b_never_draws_zero_mass():
    # half the B labels of this state carry no amplitude
    amps = np.zeros((2, 4), dtype=np.complex128)
    amps[0, 0] = amps[1, 2] = 1 / math.sqrt(2)
    st = BipartiteState(2, 4, amps)
    outcomes = {measure_b(st, trial_rng(1, t)).outcome for t in range(64)}
    assert outcomes <= {0, 2}


def test_conditional_a_examples():
    st = psi2(91)
    c0 = conditional_a(st, 0)
    assert c0.probs[0] == pytest.approx(91 / 325, abs=1e-9)
    c14 = conditional_a(st, 14)
    assert np.all(c14.probs[13::13] < 1e-12)
    c4 = conditional_a(st, 4)
    coprime = [l for l in range(91) if math.gcd(l, 91) == 1]
    assert np.allclose(c4.probs[coprime], 1 / 72, atol=1e-9)


def test_conditional_on_impossible_outcome():
    amps = np.zeros((2, 2), dtype=np.complex128)
    amps[0, 0] = 1.0
    st = BipartiteState(2, 2, amps)
    with pytest.raises(ZeroMarginalError):
        conditional_a(st, 1)


def test_purity_product_and_maximally_entangled():
    assert purity_a(uniform_product(7, 9)) == pytest.approx(1.0, abs=1e-9)
    for d in (2, 5, 8):
        amps = np.eye(d, dtype=np.complex128) / math.sqrt(d)
        assert purity_a(BipartiteState(d, d, amps)) == pytest.approx(1 / d, abs=1e-9)


def test_purity_examples_and_qft_invariance():
    s = factor_semiprime(91)
    st1 = apply_quadratic_phase(uniform_product(91, 91), 91)
    mu1 = purity_a(st1)
    assert mu1 == pytest.approx(325 / 8281, abs=1e-9)
    assert mu1 == pytest.approx(oracles.purity_brute(91), abs=1e-9)
    assert purity_a(qft_b(st1)) == pytest.approx(mu1, abs=1e-9)
    assert purity_closed(s) == Fraction(325, 8281)
    assert purity_closed(factor_semiprime(15)) == Fraction(45, 225)


def gram_purity(a: np.ndarray) -> float:
    """The full-Gram purity formula the blocked purity_a must reproduce."""
    gram = a @ a.conj().T
    return float(np.sum(gram.real**2 + gram.imag**2))


@pytest.mark.parametrize("n", [15, 21, 91, 221, 899])
def test_purity_matches_full_gram_bits(n):
    state = run_exact(n).state
    assert purity_a(state) == gram_purity(state.amps)


def test_purity_test_sizes_cover_uneven_blocks():
    step = states._GRAM_BLOCK_ENTRIES // 899
    assert 1 < step < 899 and 899 % step != 0  # several blocks, the last one short


@pytest.mark.parametrize("shape", [(5, 9), (9, 5), (300, 700), (700, 300)])
def test_purity_non_square(shape):
    """Both orientations; 300 x 700 spans more than one block of rows."""
    rng = np.random.default_rng(sum(shape))
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    small = amps if shape[0] <= shape[1] else amps.T
    expected = gram_purity(small)
    assert purity_a(BipartiteState(*shape, amps)) == pytest.approx(expected, rel=1e-15, abs=0)
    assert purity_a(BipartiteState(shape[1], shape[0], amps.T)) == pytest.approx(
        expected, rel=1e-15, abs=0
    )


def test_purity_peak_allocation_below_one_complex_grid():
    n = 899
    state = run_exact(n).state
    tracemalloc.start()
    try:
        purity_a(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n * n


def test_purity_closed_maximal_near_sqrt():
    # d(p) = 4n - 2p - 2n/p + 1 over the divisor grid peaks at the divisor
    # closest to sqrt(n); d is symmetric under p <-> n/p so ties are fine
    for n in (15, 91, 105, 143, 1155):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        dvals = {d: 4 * n - 2 * d - 2 * (n // d) + 1 for d in divisors}
        closest = min(divisors, key=lambda d: abs(d - math.sqrt(n)))
        assert dvals[closest] == max(dvals.values())


def test_qft_vector_roundtrip_and_norm():
    rng = np.random.default_rng(7)
    for d in (64, 91, 128, 2048):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        fwd = qft_vector(v)
        assert np.linalg.norm(fwd) == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(qft_vector_inverse(fwd) - v)) < 1e-9
    delta = np.zeros(16, dtype=np.complex128)
    delta[0] = 1.0
    assert np.allclose(qft_vector(delta), 0.25, atol=1e-12)


def test_qft_vector_matches_naive_dft():
    rng = np.random.default_rng(11)
    v = rng.normal(size=13) + 1j * rng.normal(size=13)
    v /= np.linalg.norm(v)
    assert np.allclose(qft_vector(v), oracles.dft_plus(list(v)), atol=1e-10)


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution(np.array([0, 0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        Distribution(np.array([0, 1]), np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        Distribution(np.array([0, 1]), np.array([1.5, -0.5]))
    d = Distribution(np.array([3, 5]), np.array([0.25, 0.75]))
    assert d.prob_of(5) == 0.75
    with pytest.raises(KeyError):
        d.prob_of(4)


def test_states_are_immutable():
    st = uniform_product(3, 3)
    with pytest.raises(ValueError):
        st.amps[0, 0] = 0.0


@settings(max_examples=100, deadline=None)
@given(
    hst.lists(hst.sampled_from([0.0, 1e-12, 0.25, 1.0]), min_size=2, max_size=30)
    .filter(lambda w: 0.0 in w and any(w)),
    hst.integers(0, 2**64 - 1),
    hst.integers(0, 2**20),
)
def test_sample_cdf_skips_zero_mass_bins_property(weights, seed, trial):
    p = np.array(weights) / sum(weights)
    k = sample_outcome(p, trial_rng(seed, trial))
    assert k == sample_cdf(np.cumsum(p), trial_rng(seed, trial))
    assert 0 <= k < len(p) and p[k] > 0.0
