import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausshor.numtheory import NotSemiprimeError
from gausshor.states import (
    apply_quadratic_phase,
    conditional_a,
    marginal_b,
    qft_b,
    sample_outcome,
    uniform_product,
)
from gausshor import superposition
from gausshor.superposition import (
    _qubit_conditional_probs,
    conditional_after_peak,
    factor_mass_a,
    p_b_closed_reference,
    p_b_distribution,
    qubit_marginal,
    run_exact,
    run_qubit,
    sample_factor_driver,
    success_mass,
    useful_mass_closed_reference,
)
from gausshor.trials import trial_rng

import oracles


@pytest.fixture(scope="module")
def run91():
    return run_exact(91)


def test_run_exact_rejections():
    with pytest.raises(NotSemiprimeError):
        run_exact(9)  # prime power
    with pytest.raises(NotSemiprimeError):
        run_exact(105)
    with pytest.raises(NotSemiprimeError):
        run_exact(97)


def test_run_exact_normalization_and_entries(run91):
    assert np.sum(np.abs(run91.state.amps) ** 2) == pytest.approx(1.0, abs=1e-9)
    assert run91.state.amps[1, 0] == pytest.approx(
        oracles.shifted_sum_direct(0, 1, 91) / math.sqrt(91), abs=1e-9
    )


def test_p_b_values(run91):
    pb = p_b_distribution(run91)
    assert pb.probs[0] == pytest.approx(325 / 8281, abs=1e-9)
    assert pb.probs[14] == pytest.approx(156 / 8281, abs=1e-9)
    assert pb.probs[4] == pytest.approx(72 / 8281, abs=1e-9)


def test_p_b_zero_equals_purity(run91):
    from gausshor.states import purity_a

    assert p_b_distribution(run91).probs[0] == pytest.approx(
        purity_a(run91.state), abs=1e-9
    )


def test_shift_class_normalization_constants(run91):
    # summed |W_n0(l)|^2 over l for each shift class, times 1/N, gives the
    # marginal; the class sums match the exact normalization constants
    pb = p_b_distribution(run91).probs
    assert pb[0] * 91 == pytest.approx(float(Fraction(325, 91)), abs=1e-9)
    assert pb[7] * 91 == pytest.approx(float(Fraction(156, 91)), abs=1e-9)
    assert pb[13] * 91 == pytest.approx(float(Fraction(150, 91)), abs=1e-9)
    assert pb[4] * 91 == pytest.approx(float(Fraction(72, 91)), abs=1e-9)
    # and the three closed forms N/(4N-2p-2q+1), N/(2N-2p-q+1), N/(N-p-q+1)
    assert Fraction(91, 325) == Fraction(91, 4 * 91 - 2 * 7 - 2 * 13 + 1)
    assert Fraction(91, 156) == Fraction(91, 2 * 91 - 2 * 7 - 13 + 1)
    assert Fraction(91, 72) == Fraction(91, 91 - 7 - 13 + 1)


def test_success_mass(run91):
    sm = success_mass(run91)
    assert sm.total_useful == pytest.approx(3097 / 8281, abs=1e-9)
    assert sm.p_b_zero == pytest.approx(325 / 8281, abs=1e-9)
    assert sm.p_b_zero + sm.p_b_factor_multiple + sm.p_b_coprime == pytest.approx(
        1.0, abs=1e-9
    )
    # complement identity at another size
    run15 = run_exact(15)
    sm15 = success_mass(run15)
    coprime_each = p_b_distribution(run15).probs[1]
    assert sm15.total_useful + 8 * coprime_each == pytest.approx(1.0, abs=1e-9)


def test_factor_mass_examples(run91):
    assert factor_mass_a(run91, 0) == pytest.approx(162 / 325, abs=1e-9)
    assert factor_mass_a(run91, 14) == pytest.approx(84 / 156, abs=1e-9)
    assert factor_mass_a(run91, 4) == pytest.approx(0.0, abs=1e-12)


def test_factor_mass_closed_forms(run91):
    n, p = 91, 7
    expected0 = Fraction(2 * n - p - n // p, 2 * (2 * n - p - n // p) + 1)
    assert expected0 == Fraction(162, 325)
    assert factor_mass_a(run91, 0) == pytest.approx(float(expected0), abs=1e-9)
    expected_kp = Fraction(n - p, 2 * (n - p) - n // p + 1)
    assert expected_kp == Fraction(84, 156)
    assert factor_mass_a(run91, 14) == pytest.approx(float(expected_kp), abs=1e-9)


def test_conditional_zero_structure(run91):
    n = 91
    factor_mult = [l for l in range(1, n) if math.gcd(l, n) in (7, 13)]
    for n0 in range(1, n):
        if math.gcd(n0, n) == 1:
            cond = conditional_a(run91.state, n0)
            assert float(np.max(cond.probs[factor_mult])) < 1e-12


def test_p_b_closed_reference_documents_divergence(run91):
    s = run91.s
    assert p_b_closed_reference(s, 0) == Fraction(163, 8281)
    assert p_b_closed_reference(s, 7) == Fraction(84, 8281)
    assert p_b_closed_reference(s, 13) == Fraction(78, 8281)
    assert p_b_closed_reference(s, 4) == 0
    # the delta-comb shortcut undercounts the true marginal
    pb = p_b_distribution(run91)
    assert float(p_b_closed_reference(s, 0)) < pb.probs[0]
    total = sum(p_b_closed_reference(s, n0) for n0 in range(91))
    assert total < 1
    # and the companion total-mass expression overcounts the brute force
    ref = useful_mass_closed_reference(s)
    assert ref == Fraction(3266, 8281)
    assert abs(float(ref) - 0.3945) < 5e-4
    assert ref != Fraction(3097, 8281)


def test_run_qubit_guards():
    with pytest.raises(ValueError):
        run_qubit(21, 8)  # 441 >= 256
    with pytest.raises(ValueError):
        run_qubit(15, 21)  # beyond register cap
    with pytest.raises(NotSemiprimeError):
        run_qubit(9, 9)


def test_qubit_marginal_matches_dense_state():
    from gausshor.states import apply_quadratic_phase, marginal_b, qft_b, uniform_product

    dense = marginal_b(
        qft_b(apply_quadratic_phase(uniform_product(512, 512), 21))
    ).probs
    streamed = p_b_distribution(run_qubit(21, 9)).probs
    assert np.max(np.abs(dense - streamed)) < 1e-12


_SMALL_SEMIPRIMES = [15, 21]  # the odd N = p*q, p < q primes, up to 31


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(_SMALL_SEMIPRIMES))
def test_qubit_marginal_folded_matches_dense_property(n):
    q_bits = (n * n).bit_length()  # smallest Q with n**2 < 2**Q
    assert q_bits <= 10
    size = 1 << q_bits
    dense = marginal_b(
        qft_b(apply_quadratic_phase(uniform_product(size, size), n))
    ).probs
    folded = run_qubit(n, q_bits).pb_probs
    assert np.max(np.abs(dense - folded)) < 1e-12


@pytest.mark.parametrize("n", [15, 21])
def test_qubit_conditional_fold_matches_two_scale_oracle(n):
    q_bits = 9
    size = 1 << q_bits
    run = run_qubit(n, q_bits)
    peak = (2 * 3 * size + n) // (2 * n)  # nearest bin to 3 * 2**Q / N
    for n0 in (0, peak, peak + 5):
        col = _qubit_conditional_probs(run, n0)
        assert len(col) == size
        # rows l >= N come from the residue fold, not from their own sum
        for ell in range(2 * n):
            expected = abs(oracles.two_scale_direct(n0, ell, n, size)) ** 2 / size
            assert abs(col[ell] - expected) < 1e-12


def test_qubit_marginal_peaks():
    run = run_qubit(21, 9)
    pb = p_b_distribution(run).probs
    size = 512
    peaks = sorted({round(j * size / 21) for j in range(21)})
    mass = float(np.sum(pb[peaks]))
    assert mass >= 0.40  # claimed lower bound; actual sits near 0.79
    # the distribution is sharply peaked near multiples of 2**Q/N: every
    # top bin sits within one bin of a multiple (off-center peaks push
    # weight into a neighbor)
    for b in np.argsort(pb)[-21:]:
        assert min(abs(int(b) - j * size / 21) for j in range(21)) <= 1.0


def test_qubit_peak_mass_lower_bound_all_pairs():
    for n, q_bits in ((15, 9), (21, 9), (33, 11), (35, 11)):
        pb = p_b_distribution(run_qubit(n, q_bits)).probs
        size = 1 << q_bits
        peaks = sorted({round(j * size / n) for j in range(n)})
        assert float(np.sum(pb[peaks])) >= 0.40


def test_conditional_after_peak_matches_exact(run91):
    run = run_qubit(21, 9)
    exact = run_exact(21)
    size = 512
    gcds = np.gcd(np.arange(size), 21)
    mask = (gcds == 3) | (gcds == 7)
    for j in (0, 3, 7, 14):
        n_peak = round(j * size / 21)
        cond = conditional_after_peak(run, n_peak)
        qubit_mass = float(np.sum(cond.probs[mask]))
        assert abs(qubit_mass - factor_mass_a(exact, j)) <= 0.02


def test_conditional_after_peak_structure():
    run = run_qubit(21, 9)
    d0 = conditional_after_peak(run, 0)
    size = 512
    m3 = np.arange(size) % 3 == 0
    m7 = np.arange(size) % 7 == 0
    other = ~(m3 | m7)
    assert d0.probs[m3].mean() > 4 * d0.probs[other].mean()
    assert d0.probs[m7].mean() > 8 * d0.probs[other].mean()
    # shift j=7 shares only the factor 7: multiples of 3 are suppressed
    d7 = conditional_after_peak(run, 171)
    assert float(np.sum(d7.probs[m3 & ~m7])) < 1e-3
    with pytest.raises(ValueError):
        conditional_after_peak(run, 12)


def test_ell_zero_row_is_delta():
    # with no quadratic phase the B row Fourier-transforms to a delta at 0
    row = np.fft.ifft(np.ones(512, dtype=np.complex128))
    assert abs(row[0] - 1) < 1e-12 and np.max(np.abs(row[1:])) < 1e-12


def test_sample_factor_driver_exact(run91):
    res = sample_factor_driver(91, "exact", 100, 7)
    assert res.succeeded and res.factor in (7, 13)
    res2 = sample_factor_driver(91, "exact", 100, 7)
    assert res == res2
    with pytest.raises(NotSemiprimeError):
        sample_factor_driver(14, "exact", 10, 1)
    res = sample_factor_driver(91, "exact", 0, 1)
    assert not res.succeeded and res.trials_run == 0


def test_sample_factor_driver_qubit():
    res = sample_factor_driver(15, "qubit", 100, 3, q_bits=9)
    assert res.succeeded and res.factor in (3, 5)
    with pytest.raises(ValueError):
        sample_factor_driver(15, "qubit", 10, 1)  # q_bits missing
    with pytest.raises(ValueError):
        sample_factor_driver(15, "bogus", 10, 1)


@pytest.mark.parametrize("seed", [0, 1, 4])
def test_sample_factor_driver_qubit_at_91(seed):
    # seeds 0 and 4 measure n0 = 0 and so sample A from the conditional column
    res = sample_factor_driver(91, "qubit", 50, seed, q_bits=14)
    assert res.succeeded and res.factor in (7, 13)
    assert 1 <= res.trials_run <= res.max_trials == 50
    assert len(res.records) == res.trials_run
    assert all(r.factor in (None, 7, 13) for r in res.records)


def test_driver_useful_outcome_frequency(run91):
    pb = p_b_distribution(run91).probs
    useful = 0
    trials = 10_000
    for t in range(trials):
        n0 = sample_outcome(pb, trial_rng(0, t))
        if n0 == 0 or math.gcd(n0, 91) in (7, 13):
            useful += 1
    assert abs(useful / trials - 3097 / 8281) <= 0.015


def test_pb_brute_force_oracle_cross_check():
    # library marginal against the independent cmath oracle
    pb = p_b_distribution(run_exact(35)).probs
    brute = oracles.pb_brute(35)
    assert np.max(np.abs(pb - np.array(brute))) < 1e-9


@pytest.mark.parametrize("n", [15, 21, 91, 221])
def test_run_exact_one_pass_matches_composition(n):
    composed = qft_b(apply_quadratic_phase(uniform_product(n, n), n)).amps
    assert np.array_equal(run_exact(n).state.amps, composed)


def test_qubit_run_builds_marginal_on_demand(monkeypatch):
    def refuse(n, q_bits):
        raise AssertionError("marginal built")

    monkeypatch.setattr(superposition, "qubit_marginal", refuse)
    run = run_qubit(21, 9)
    assert conditional_after_peak(run, 171).probs.shape == (512,)
    monkeypatch.undo()
    assert np.array_equal(run.pb_probs, qubit_marginal(21, 9))
    assert run.pb_probs is run.pb_probs  # built once, then kept


@pytest.mark.parametrize(
    "seed, factor, records",
    [
        (1, 3, [(122, 433, None), (0, 504, None), (122, 184, None), (293, None, 3)]),
        (11, 7, [(0, 350, 7)]),
        (12, 3, [(244, 229, None), (390, 461, None), (0, 394, None),
                 (268, 461, None), (439, None, 3)]),
    ],
)
def test_sample_factor_driver_qubit_records_pinned(seed, factor, records):
    # recorded before the qubit marginal became lazy; a prepared run gives the same
    res = sample_factor_driver(21, "qubit", 40, seed, q_bits=9)
    assert res.factor == factor
    assert [(r.outcome_b, r.outcome_a, r.factor) for r in res.records] == records
    assert sample_factor_driver(21, "qubit", 40, seed, q_bits=9, run=run_qubit(21, 9)) == res


def test_sample_factor_driver_reuses_prepared_run(run91):
    assert sample_factor_driver(91, "exact", 100, 7, run=run91) == sample_factor_driver(
        91, "exact", 100, 7
    )
    with pytest.raises(ValueError):
        sample_factor_driver(15, "exact", 10, 1, run=run91)
    with pytest.raises(ValueError):
        sample_factor_driver(21, "qubit", 10, 1, q_bits=10, run=run_qubit(21, 9))
