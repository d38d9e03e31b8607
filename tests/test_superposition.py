import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausshor.numtheory import NotSemiprimeError, factor_semiprime, nontrivial_divisor
from gausshor.shor_gauss import peak_bin
from gausshor.states import (
    BipartiteState,
    StateIntegrityError,
    ZeroMarginalError,
    abs_sq,
    apply_quadratic_phase,
    conditional_a,
    marginal_b,
    purity_a,
    purity_closed,
    qft_b,
    quadratic_phase_grid,
    sample_cdf,
    sample_outcome,
    uniform_product,
)
from gausshor import superposition
from gausshor.superposition import (
    _column,
    conditional_after_peak,
    exact_conditional,
    factor_mass_a,
    p_b_closed_reference,
    p_b_distribution,
    peak_index,
    qubit_marginal,
    run_exact,
    run_qubit,
    sample_factor_driver,
    success_mass,
    success_probability,
    useful_mass_closed_reference,
)
from gausshor.trials import DriverResult, TrialRecord, trial_rng

import oracles


@pytest.fixture(scope="module")
def run91():
    return run_exact(91)


def dense_amps(run) -> np.ndarray:
    """The N x N amplitude grid of an exact run, rebuilt from its two factor grids."""
    gp, gq = run.grids
    p, q = run.s.p, run.s.q
    idx = np.arange(run.n)
    return gp[np.ix_(idx % p, idx % p)] * gq[np.ix_(idx % q, idx % q)]


def test_run_exact_rejections():
    with pytest.raises(NotSemiprimeError):
        run_exact(9)  # prime power
    with pytest.raises(NotSemiprimeError):
        run_exact(105)
    with pytest.raises(NotSemiprimeError):
        run_exact(97)


def test_run_exact_normalization_and_entries(run91):
    amps = dense_amps(run91)
    assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-9)
    assert amps[1, 0] == pytest.approx(
        oracles.shifted_sum_direct(0, 1, 91) / math.sqrt(91), abs=1e-9
    )


def test_p_b_values(run91):
    pb = p_b_distribution(run91)
    assert pb.probs[0] == pytest.approx(325 / 8281, abs=1e-9)
    assert pb.probs[14] == pytest.approx(156 / 8281, abs=1e-9)
    assert pb.probs[4] == pytest.approx(72 / 8281, abs=1e-9)


def test_p_b_zero_equals_purity(run91):
    assert p_b_distribution(run91).probs[0] == pytest.approx(
        purity_a(BipartiteState(91, 91, dense_amps(run91))), abs=1e-9
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
            cond = exact_conditional(run91, n0)
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
        col = _column(run, n0)
        assert len(col) == size
        # rows l >= N come from the residue fold, not from their own sum
        for ell in range(2 * n):
            expected = abs(oracles.two_scale_direct(n0, ell, n, size)) ** 2 / size
            assert abs(col[ell] - expected) < 1e-12


@pytest.mark.parametrize("j", [90, 45])  # N - 1 and N // 2
def test_qubit_conditional_phase_reduced_exactly(j):
    """At Q = 14 an unreduced phase index m * n0 loses about 1e-13 of the column's peak."""
    n, q_bits = 91, 14
    size = 1 << q_bits
    n0 = (2 * j * size + n) // (2 * n)  # nearest bin to j * 2**Q / N
    col = _column(run_qubit(n, q_bits), n0)
    expected = np.array(
        [abs(oracles.two_scale_direct(n0, ell, n, size)) ** 2 / size for ell in range(n)]
    )
    assert np.max(np.abs(col[:n] - expected)) <= 1e-13 * np.max(expected)


def test_qubit_conditional_residue_sums_match_index_grid():
    """The two-scale column against oracles.qubit_column_direct, an exactly reduced fsum over m.

    Each column is held to 1e-14 of its own peak, except at bins 1, 7 and
    2**Q - 1: there the sums cancel to a peak about 5e-8 of the bin-0
    column's 1/2**Q, and the bound is 1e-14 of 1/2**Q.  The name is kept
    from the phase-index-grid formula this check first compared against.
    """
    n, q_bits = 91, 14
    size = 1 << q_bits
    run = run_qubit(n, q_bits)
    peaks = [round(j * size / n) for j in range(n)]
    for n0 in peaks + [1, 7, 1801, 5000, size - 1]:
        expected = np.resize(oracles.qubit_column_direct(n, q_bits, n0), size)
        scale = 1 / size if n0 in (1, 7, size - 1) else np.max(expected)
        assert np.max(np.abs(_column(run, n0) - expected)) <= 1e-14 * scale, n0


def test_qubit_conditional_matches_two_scale_oracle_at_221():
    n, q_bits = 221, 16  # 13 * 17
    size = 1 << q_bits
    run = run_qubit(n, q_bits)
    for j in (1, 13, n - 1):
        n0 = round(j * size / n)
        col = _column(run, n0)
        ells = (0, 1, 13, 17, n - 1)
        expected = np.array(
            [abs(oracles.two_scale_direct(n0, ell, n, size)) ** 2 / size for ell in ells]
        )
        assert np.max(np.abs(col[list(ells)] - expected)) <= 1e-13 * np.max(col), j


@pytest.mark.parametrize("n, q_bits, n0", [(91, 14, 8102), (899, 20, 116638)])
def test_qubit_conditional_peak_allocation_below_three_register_vectors(n, q_bits, n0):
    """No N x 2**Q buffer: the column allocates its output and O(N) more, below 3 complex register vectors."""
    run = run_qubit(n, q_bits)
    tracemalloc.start()
    try:
        _column(run, n0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 16 * (1 << q_bits)


def _folded_marginal(n, q_bits):
    """The B marginal summed residue row by residue row: count_r |inverse FFT of row r|^2 / 2**Q."""
    size = 1 << q_bits
    msq = np.arange(size, dtype=np.int64) ** 2 % n
    acc = np.zeros(size)
    for r in range(n):
        row = np.fft.ifft(np.exp(2j * np.pi * (msq * r % n) / n))
        acc += ((size - 1 - r) // n + 1) * (row.real**2 + row.imag**2)
    return acc / size


# (N, Q) from the smallest register with N**2 < 2**Q to two bits past it
_MARGINAL_PAIRS = [
    (n, q) for n in (15, 21, 33, 35) for q in range((n * n).bit_length(), (n * n).bit_length() + 3)
]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(_MARGINAL_PAIRS))
def test_qubit_marginal_matches_folded_sum_and_comb_oracle(pair):
    n, q_bits = pair
    size = 1 << q_bits
    pb = qubit_marginal(n, q_bits)
    assert np.max(np.abs(pb - _folded_marginal(n, q_bits))) <= 1e-15
    assert abs(math.fsum(pb) - 1.0) <= 1e-15
    comb = sorted({(2 * j * size + n) // (2 * n) for j in range(n)})
    assert abs(math.fsum(pb[comb]) - oracles.qubit_comb_mass_direct(n, q_bits)) <= 1e-12


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


@pytest.mark.parametrize("n, q_bits", [(21, 9), (91, 14)])
def test_conditional_after_peak_accepts_exactly_the_peak_bins(n, q_bits):
    size = 1 << q_bits
    run = run_qubit(n, q_bits)
    peaks = {peak_bin(j, n, q_bits) for j in range(n)}
    for n_peak in range(size):
        if n_peak in peaks:
            assert conditional_after_peak(run, n_peak).probs.shape == (size,)
        else:
            with pytest.raises(ValueError, match="not within half a bin"):
                conditional_after_peak(run, n_peak)


def test_zero_column_raises_zero_marginal(monkeypatch, run91):
    monkeypatch.setattr(superposition, "_column", lambda run, n0: np.zeros(run.n))
    with pytest.raises(ZeroMarginalError):
        conditional_after_peak(run_qubit(21, 9), 0)
    with pytest.raises(ZeroMarginalError):
        exact_conditional(run91, 0)


def test_runs_reject_operations_of_the_other_kind(run91):
    qubit = run_qubit(21, 9)
    with pytest.raises(ValueError):
        success_mass(qubit)
    with pytest.raises(ValueError):
        factor_mass_a(qubit, 3)
    with pytest.raises(ValueError):
        conditional_after_peak(run91, 0)
    with pytest.raises(ValueError):
        superposition.purity(qubit)


@pytest.mark.parametrize("q_bits", [9, 14])
def test_peak_index_rounds_half_to_even(q_bits):
    # the bin 2**(Q-1) sits at j = 10.5 for N = 21 and maps to 10, not 11
    size = 1 << q_bits
    assert peak_index(size // 2, 21, size) == 10
    assert peak_index(size // 2 + 1, 21, size) == 11
    assert [peak_index(n0, 91, 91) for n0 in range(91)] == list(range(91))  # exact: j = n0


def test_ell_zero_row_is_delta():
    # with no quadratic phase the B row Fourier-transforms to a delta at 0
    row = np.fft.ifft(np.ones(512, dtype=np.complex128))
    assert abs(row[0] - 1) < 1e-12 and np.max(np.abs(row[1:])) < 1e-12


def test_sample_factor_driver_exact(run91):
    res = sample_factor_driver(run91, 100, 7)
    assert res.succeeded and res.factor in (7, 13)
    res2 = sample_factor_driver(run91, 100, 7)
    assert res == res2
    with pytest.raises(NotSemiprimeError):
        sample_factor_driver(run_exact(14), 10, 1)
    res = sample_factor_driver(run91, 0, 1)
    assert not res.succeeded and res.trials_run == 0


def test_sample_factor_driver_qubit():
    res = sample_factor_driver(run_qubit(15, 9), 100, 3)
    assert res.succeeded and res.factor in (3, 5)


@pytest.mark.parametrize("seed", [0, 1, 4])
def test_sample_factor_driver_qubit_at_91(seed):
    # seeds 0 and 4 measure n0 = 0 and so sample A from the conditional column
    res = sample_factor_driver(run_qubit(91, 14), 50, seed)
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


# p and q cover 1 and 3 mod 4, which decide whether -1 is a square mod N
CRT_NS = (15, 21, 33, 65, 91, 221, 899)


@pytest.mark.parametrize("n", CRT_NS)
def test_run_exact_orbit_build_matches_composition(n):
    """run_exact's CRT build agrees with the composed pipeline over the whole grid.

    The name is kept from the row-orbit build this check first covered.
    """
    composed = qft_b(apply_quadratic_phase(uniform_product(n, n), n)).amps
    assert np.max(np.abs(dense_amps(run_exact(n)) - composed)) <= 1e-15


@pytest.mark.parametrize("n", [15, 21, 33, 35])
def test_run_exact_matches_direct_sums(n):
    direct = np.array(
        [[oracles.shifted_sum_direct(n0, ell, n) for n0 in range(n)] for ell in range(n)]
    )
    assert np.max(np.abs(dense_amps(run_exact(n)) - direct / math.sqrt(n))) <= 1e-14


def _grid_with_rows(f: int, rows: np.ndarray) -> np.ndarray:
    """What _factor_grid builds when row r carries the phase of l = rows[r] instead of r * N/f."""
    grid = quadratic_phase_grid(complex(1.0 / f), rows, f, f)
    return np.fft.ifft(grid, axis=1) * math.sqrt(f)


FACTOR_GRID_MUTANTS = {
    "cofactor l*f": lambda n, f: _grid_with_rows(f, np.arange(f) * f),
    "cofactor 1": lambda n, f: _grid_with_rows(f, np.arange(f)),
    "cofactor inverse": lambda n, f: _grid_with_rows(f, np.arange(f) * pow(n // f, -1, f)),
}


@pytest.mark.parametrize("n", [15, 91, 221])
@pytest.mark.parametrize("mutant", [*FACTOR_GRID_MUTANTS, "columns k mod p"])
def test_run_exact_spot_checks_catch_a_mutant_factor_grid(monkeypatch, n, mutant):
    """A factor grid at the wrong cofactor, or with too few columns, fails run_exact's checks.

    The cofactor mutants keep the norm and fail their grid's (1, 0) or
    (1, 1) eval_W spot check; the column mutant fails its grid's norm check.
    """
    factor_grid = superposition._factor_grid
    p = factor_semiprime(n).p
    if mutant == "columns k mod p":
        # a q x p grid in place of the q x q one, as if column k were read at k mod p
        monkeypatch.setattr(superposition, "_factor_grid", lambda n, f: factor_grid(n, f)[:, :p])
    else:
        monkeypatch.setattr(superposition, "_factor_grid", FACTOR_GRID_MUTANTS[mutant])
    with pytest.raises(StateIntegrityError):
        run_exact(n)


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
    # recorded before the qubit marginal became lazy; a rerun on the same run,
    # whose marginal is then built, gives the same
    run = run_qubit(21, 9)
    res = sample_factor_driver(run, 40, seed)
    assert res.factor == factor
    assert [(r.outcome_b, r.outcome_a, r.factor) for r in res.records] == records
    assert sample_factor_driver(run, 40, seed) == res


# recorded on the one-FFT-per-row exact build, seeds 0-29 with a budget of 100:
# "n0:ell" per trial ("-" when the measured n0 revealed the factor itself),
# then the factor found
EXACT_DRIVER_RECORDS = {
    21: [
        "0:0 15:- -> 3",
        "5:19 0:19 5:8 12:- -> 3",
        "9:- -> 3",
        "18:- -> 3",
        "0:5 19:10 15:- -> 3",
        "14:- -> 7",
        "13:5 9:- -> 3",
        "17:5 18:- -> 3",
        "20:10 12:- -> 3",
        "3:- -> 3",
        "15:- -> 3",
        "0:12 -> 3",
        "10:10 16:19 0:14 -> 7",
        "19:5 3:- -> 3",
        "15:- -> 3",
        "16:16 12:- -> 3",
        "9:- -> 3",
        "5:10 11:13 9:- -> 3",
        "15:- -> 3",
        "3:- -> 3",
        "17:17 7:- -> 7",
        "15:- -> 3",
        "10:8 3:- -> 3",
        "15:- -> 3",
        "0:12 -> 3",
        "10:13 0:0 9:- -> 3",
        "9:- -> 3",
        "7:- -> 7",
        "8:20 18:- -> 3",
        "6:- -> 3",
    ],
    91: [
        "0:0 72:69 73:40 42:- -> 7",
        "26:- -> 13",
        "42:- -> 7",
        "84:- -> 7",
        "0:21 -> 7",
        "65:- -> 13",
        "61:24 42:- -> 7",
        "78:- -> 13",
        "90:41 56:- -> 7",
        "17:73 7:- -> 7",
        "71:20 65:- -> 13",
        "9:62 41:34 76:20 28:- -> 7",
        "49:- -> 7",
        "85:23 17:59 20:51 33:73 1:12 2:44 29:17 18:41 49:- -> 7",
        "71:74 86:80 15:20 6:27 54:11 58:83 45:74 74:76 87:1 57:44 49:- -> 7",
        "76:66 57:74 16:74 56:- -> 7",
        "43:34 42:- -> 7",
        "26:- -> 13",
        "71:50 62:3 20:2 38:11 67:88 0:0 40:53 47:1 14:- -> 7",
        "21:- -> 7",
        "78:- -> 13",
        "68:62 84:- -> 7",
        "50:37 18:61 17:48 83:51 42:- -> 7",
        "73:27 8:58 36:68 40:74 82:82 84:- -> 7",
        "0:52 -> 13",
        "49:- -> 7",
        "46:50 87:6 69:16 59:33 0:78 -> 13",
        "35:- -> 7",
        "39:- -> 13",
        "30:67 26:- -> 13",
    ],
    221: [
        "0:0 178:166 179:97 103:108 92:142 128:124 113:168 128:198 186:129 175:113 210:23 42:59 130:- -> 13",
        "65:- -> 13",
        "106:72 119:- -> 17",
        "205:18 162:188 169:- -> 13",
        "0:51 -> 17",
        "160:131 156:- -> 13",
        "150:58 104:- -> 13",
        "191:64 194:81 79:88 104:- -> 13",
        "219:98 138:132 130:- -> 13",
        "45:176 20:201 67:43 119:- -> 17",
        "174:49 159:129 121:161 70:132 204:- -> 17",
        "26:- -> 13",
        "119:- -> 17",
        "208:- -> 13",
        "175:179 210:192 41:50 16:66 134:28 143:- -> 13",
        "186:160 142:178 43:179 137:47 180:206 145:158 108:216 11:35 85:- -> 17",
        "107:84 107:146 24:193 21:67 99:167 71:110 98:139 167:151 103:49 141:111 51:- -> 17",
        "67:93 130:- -> 13",
        "175:122 152:6 51:- -> 17",
        "53:199 207:88 195:- -> 13",
        "191:174 91:- -> 13",
        "169:- -> 13",
        "123:89 47:149 44:118 204:- -> 17",
        "179:64 23:140 90:165 101:179 202:198 206:186 88:56 195:- -> 13",
        "0:136 -> 17",
        "121:133 0:0 117:- -> 13",
        "115:121 213:16 169:- -> 13",
        "87:80 195:- -> 13",
        "99:220 195:- -> 13",
        "78:- -> 13",
    ],
}


@pytest.mark.parametrize("n", sorted(EXACT_DRIVER_RECORDS))
def test_sample_factor_driver_exact_records_pinned(n):
    run = run_exact(n)
    for seed, pinned in enumerate(EXACT_DRIVER_RECORDS[n]):
        res = sample_factor_driver(run, 100, seed)
        trials = " ".join(
            f"{r.outcome_b}:{'-' if r.outcome_a is None else r.outcome_a}" for r in res.records
        )
        assert f"{trials} -> {res.factor}" == pinned, f"seed {seed}"
        assert res.succeeded and all(r.factor is None for r in res.records[:-1])
        assert res.records[-1].factor == res.factor


def test_sample_factor_driver_reuses_prepared_run(run91):
    assert sample_factor_driver(run91, 100, 7) == sample_factor_driver(run_exact(91), 100, 7)


def _normalised_exact_driver(run, max_trials, seed):
    """The exact-mode driver with every A sample drawn from the normalised conditional."""
    n = run.n
    pb_cdf = np.cumsum(p_b_distribution(run).probs)
    records = []
    for t in range(max_trials):
        rng = trial_rng(seed, t)
        n0 = sample_cdf(pb_cdf, rng)
        rec = TrialRecord(t, n0, factor=nontrivial_divisor(n0, n))
        if rec.factor is None:
            ell = sample_outcome(exact_conditional(run, n0).probs, rng)
            rec = TrialRecord(t, n0, outcome_a=ell, factor=nontrivial_divisor(ell, n))
        records.append(rec)
        if rec.factor is not None:
            return DriverResult(n, True, rec.factor, t + 1, max_trials, seed, tuple(records))
    return DriverResult(n, False, None, max_trials, max_trials, seed, tuple(records))


@pytest.mark.parametrize("n", [91, 1147])
def test_exact_driver_samples_the_normalised_conditional(n):
    run = run_exact(n)
    for seed in range(200):
        expected = _normalised_exact_driver(run, 100, seed)
        assert sample_factor_driver(run, 100, seed) == expected, seed


@pytest.mark.parametrize("n, expected", [(21, Fraction(88, 147)), (91, Fraction(2934, 8281)),
                                         (221, Fraction(11564, 48841))])
def test_success_probability_closed_form(n, expected):
    s = factor_semiprime(n)
    assert success_probability(s) == expected
    # a trial succeeds on a factor-multiple B outcome, or else on its A sample
    run = run_exact(n)
    total = math.fsum(
        float(run.pb_probs[k]) * (1.0 if math.gcd(k, n) in (s.p, s.q) else factor_mass_a(run, k))
        for k in range(n)
    )
    assert abs(total - float(expected)) <= 1e-12


# the success law of the exact driver, gated on its outcomes and not on how a
# draw is made; the seeds and sample sizes were fixed before the first run
SUCCESS_LAW_NS = (91, 221, 1147)


@pytest.mark.parametrize("n", SUCCESS_LAW_NS)
def test_exact_driver_budget_one_success_frequency(n):
    """Budget-1 runs over seeds 0..2999 succeed at P* within 4.5 sigma."""
    run, seeds = run_exact(n), range(3000)
    p = float(success_probability(run.s))
    freq = sum(sample_factor_driver(run, 1, seed).succeeded for seed in seeds) / len(seeds)
    assert abs(freq - p) <= 4.5 * math.sqrt(p * (1 - p) / len(seeds))


@pytest.mark.parametrize("n", SUCCESS_LAW_NS)
def test_exact_driver_mean_trials_to_success(n):
    """Trials to success are geometric: over seeds 0..999 their mean is 1/P* within 4.5 sigma."""
    run, seeds = run_exact(n), range(1000)
    p = float(success_probability(run.s))
    results = [sample_factor_driver(run, 10**6, seed) for seed in seeds]  # no budget binds
    assert all(r.succeeded for r in results)
    mean = sum(r.trials_run for r in results) / len(seeds)
    assert abs(mean - 1 / p) <= 4.5 * math.sqrt((1 - p) / p**2 / len(seeds))


# the qubit driver's per-trial success law, from a direct scratch sum over every bin's column
QUBIT_SUCCESS_LAWS = {(21, 9): 0.597124, (35, 11): 0.481350}


def qubit_success_law(run) -> float:
    """Per-trial success chance of the qubit driver, from the two-scale marginal and columns.

    A bin whose peak index shares a factor with N succeeds at once; any
    other bin b succeeds when its A sample, drawn from column b, is a
    nonzero multiple of p or q.
    """
    n, size = run.n, 1 << run.q_bits
    gcds = np.gcd(np.arange(size), n)
    factor_rows = (gcds > 1) & (gcds < n)
    terms = []
    for b, pb in enumerate(run.pb_probs):
        if nontrivial_divisor(peak_index(b, n, size), n) is None:
            col = _column(run, b)
            pb *= np.sum(col[factor_rows]) / np.sum(col)
        terms.append(pb)
    return math.fsum(terms)


@pytest.mark.parametrize("n, q_bits", QUBIT_SUCCESS_LAWS)
def test_qubit_driver_success_law(n, q_bits):
    law = qubit_success_law(run_qubit(n, q_bits))
    assert abs(law - QUBIT_SUCCESS_LAWS[n, q_bits]) <= 5e-7


@pytest.mark.parametrize("n, q_bits", QUBIT_SUCCESS_LAWS)
def test_qubit_driver_budget_one_success_frequency(n, q_bits):
    """Budget-1 runs over seeds 0..2999 succeed at the law within 4.5 sigma."""
    run, seeds = run_qubit(n, q_bits), range(3000)
    p = QUBIT_SUCCESS_LAWS[n, q_bits]
    freq = sum(sample_factor_driver(run, 1, seed).succeeded for seed in seeds) / len(seeds)
    assert abs(freq - p) <= 4.5 * math.sqrt(p * (1 - p) / len(seeds))


@pytest.mark.parametrize("n, q_bits", QUBIT_SUCCESS_LAWS)
def test_qubit_driver_mean_trials_to_success(n, q_bits):
    """Trials to success are geometric: over seeds 0..999 their mean is 1/law within 4.5 sigma."""
    run, seeds = run_qubit(n, q_bits), range(1000)
    p = QUBIT_SUCCESS_LAWS[n, q_bits]
    results = [sample_factor_driver(run, 10**6, seed) for seed in seeds]  # no budget binds
    assert all(r.succeeded for r in results)
    mean = sum(r.trials_run for r in results) / len(seeds)
    assert abs(mean - 1 / p) <= 4.5 * math.sqrt((1 - p) / p**2 / len(seeds))


# the moduli of the benchmark's sweep
SWEEP_NS = (15, 21, 35, 91, 221, 899, 1147, 1763)


@pytest.mark.parametrize("n", SWEEP_NS)
def test_purity_one_gram_row_matches_full_gram_and_closed_form(n):
    run = run_exact(n)
    measured = superposition.purity(run)
    assert abs(measured - purity_a(BipartiteState(n, n, dense_amps(run)))) <= 1e-15
    assert abs(measured - float(purity_closed(run.s))) <= 1e-15
    if n <= 91:
        assert abs(measured - oracles.purity_brute(n)) <= 1e-15


@pytest.mark.parametrize("k", [2, 7, 45, 89])
def test_purity_rejects_a_permuted_row(run91, k):
    """A-register row k is row k mod p of gp times row k mod q of gq.

    Permuting either factor row keeps that grid's norm but breaks the
    circulance of its Gram matrix.  The permutation is one random f-cycle,
    so no entry stays in place, not even row 0's single nonzero one.
    """
    for which, grid in enumerate(run91.grids):
        f = len(grid)
        order = np.random.default_rng(k).permutation(f)
        cycle = np.empty(f, dtype=np.int64)
        cycle[order] = np.roll(order, -1)
        rows = grid.copy()
        rows[k % f] = rows[k % f, cycle]
        grids = (rows, run91.grids[1]) if which == 0 else (run91.grids[0], rows)
        mutant = superposition.SuperpositionRun(s=run91.s, grids=grids)
        with pytest.raises(StateIntegrityError, match=f"grid {f} Gram row"):
            superposition.purity(mutant)


@pytest.mark.parametrize("scaled", ["p", "q"])
def test_run_exact_rejects_a_scaled_factor_grid(monkeypatch, scaled):
    factor_grid = superposition._factor_grid
    f_scaled = getattr(factor_semiprime(91), scaled)
    monkeypatch.setattr(
        superposition,
        "_factor_grid",
        lambda n, f: factor_grid(n, f) * (1.001 if f == f_scaled else 1.0),
    )
    with pytest.raises(StateIntegrityError, match="squared norm"):
        run_exact(91)


@pytest.mark.parametrize("n", [15, 21, 35, 91, 221])
def test_exact_readers_match_the_dense_rebuild(n):
    """pb and every conditional column read from the grids agree with the dense grid."""
    run = run_exact(n)
    dense = BipartiteState(n, n, dense_amps(run))
    assert np.max(np.abs(run.pb_probs - marginal_b(dense).probs)) <= 1e-15
    for n0 in range(n):
        if marginal_b(dense).probs[n0] > 1e-12:
            assert np.array_equal(exact_conditional(run, n0).probs, conditional_a(dense, n0).probs)


@pytest.mark.parametrize("n", SWEEP_NS)
def test_factored_pb_and_success_mass_match_exact_rationals(n):
    """pb[0] = (2p-1)(2q-1)/N**2, gcd p: (2p-1)(q-1)/N**2, gcd q: (p-1)(2q-1)/N**2, else (p-1)(q-1)/N**2."""
    run = run_exact(n)
    p, q = run.s.p, run.s.q
    k = np.arange(n)
    num = np.where(k % p == 0, 2 * p - 1, p - 1) * np.where(k % q == 0, 2 * q - 1, q - 1)
    assert np.max(np.abs(run.pb_probs - num / (n * n))) <= 1e-15
    zero = Fraction((2 * p - 1) * (2 * q - 1), n * n)
    factor = Fraction((q - 1) ** 2 * (2 * p - 1) + (p - 1) ** 2 * (2 * q - 1), n * n)
    sm = success_mass(run)
    assert abs(sm.p_b_zero - float(zero)) <= 1e-15
    assert abs(sm.p_b_factor_multiple - float(factor)) <= 1e-15
    assert abs(sm.p_b_coprime - float(1 - zero - factor)) <= 1e-15
    assert abs(sm.total_useful - float(zero + factor)) <= 1e-15


def test_exact_run_allocates_no_n_by_n_grid():
    n = 1763  # one N x N complex grid would take 16 * N**2 bytes, about 47 MiB
    tracemalloc.start()
    try:
        run = run_exact(n)
        assert run.pb_probs.shape == (n,)
        superposition.purity(run)
        exact_conditional(run, 1468)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


@pytest.mark.parametrize("n", [91, 1147, 3063])
def test_pb_probs_keep_the_full_grid_column_sum_bits(n):
    # 3063 = 3 * 1021: the q grid spans 8 row blocks
    run = run_exact(n)
    k = np.arange(n)
    pb_p, pb_q = (np.sum(abs_sq(g), axis=0) for g in run.grids)
    assert run.pb_probs.tobytes() == (pb_p[k % run.s.p] * pb_q[k % run.s.q]).tobytes()


def test_pb_probs_peak_allocation_below_a_quarter_of_the_q_grid():
    run = run_exact(3063)  # the 1021 x 1021 q grid holds about 16 MiB
    tracemalloc.start()
    try:
        assert run.pb_probs.shape == (3063,)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < run.grids[1].nbytes / 4


def test_exact_conditional_rejections(run91):
    with pytest.raises(ValueError, match="outside B register of size 91"):
        exact_conditional(run91, 91)
    with pytest.raises(ValueError, match="outside B register"):
        exact_conditional(run91, -1)
    with pytest.raises(ValueError, match="exact-dimension run"):
        exact_conditional(run_qubit(21, 9), 0)
