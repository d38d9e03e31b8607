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
    apply_quadratic_phase,
    conditional_a,
    marginal_b,
    purity_a,
    purity_closed,
    qft_b,
    quadratic_phase_grid,
    sample_outcome,
    uniform_product,
)
from gausshor import superposition
from gausshor.superposition import (
    _column,
    conditional_after_peak,
    exact_conditional,
    factor_mass_a,
    p_b_distribution,
    peak_index,
    qubit_marginal,
    run_exact,
    run_qubit,
    sample_factor_driver,
    success_mass,
    success_probability,
)
from gausshor.trials import trial_rng

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
    grid = quadratic_phase_grid(rows, f, f) * complex(1.0 / f)
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


# recorded on the factored draws (one residue per factor law, joined by the
# CRT), seeds 0-29 with a budget of 100: "n0:ell" per trial ("-" when the
# measured n0 revealed the factor itself), then the factor found
EXACT_DRIVER_RECORDS = {
    21: [
        "0:15 -> 3",
        "12:- -> 3",
        "15:- -> 3",
        "14:- -> 7",
        "9:- -> 3",
        "10:10 16:20 11:16 16:20 9:- -> 3",
        "7:- -> 7",
        "8:10 8:2 9:- -> 3",
        "2:17 10:19 19:20 15:- -> 3",
        "12:- -> 3",
        "14:- -> 7",
        "18:- -> 3",
        "9:- -> 3",
        "14:- -> 7",
        "5:17 5:1 0:8 15:- -> 3",
        "11:17 19:19 12:- -> 3",
        "15:- -> 3",
        "9:- -> 3",
        "17:10 7:- -> 7",
        "6:- -> 3",
        "5:16 0:5 0:0 11:10 13:8 4:5 0:14 -> 7",
        "4:2 14:- -> 7",
        "16:19 18:- -> 3",
        "8:13 3:- -> 3",
        "18:- -> 3",
        "10:20 0:11 6:- -> 3",
        "3:- -> 3",
        "15:- -> 3",
        "6:- -> 3",
        "18:- -> 3",
    ],
    91: [
        "28:- -> 7",
        "36:1 77:- -> 7",
        "16:20 10:64 53:88 12:45 30:32 65:- -> 13",
        "13:- -> 13",
        "56:- -> 7",
        "46:58 4:12 61:3 4:12 56:- -> 7",
        "67:43 65:- -> 13",
        "68:31 69:4 43:48 9:43 52:- -> 13",
        "83:83 46:23 10:89 28:- -> 7",
        "49:- -> 7",
        "54:38 46:53 87:73 85:75 83:34 23:44 33:43 57:74 71:53 35:- -> 7",
        "21:- -> 7",
        "31:2 89:9 35:- -> 7",
        "41:86 21:- -> 7",
        "75:18 76:80 28:- -> 7",
        "61:6 88:10 49:- -> 7",
        "30:36 86:25 63:- -> 7",
        "43:16 59:47 86:47 87:58 8:37 67:31 76:16 69:31 42:- -> 7",
        "19:58 39:- -> 13",
        "63:- -> 7",
        "61:3 65:- -> 13",
        "47:68 27:41 37:5 88:81 28:- -> 7",
        "17:22 21:- -> 7",
        "68:24 7:- -> 7",
        "21:- -> 7",
        "59:11 28:- -> 7",
        "45:79 13:- -> 13",
        "16:73 48:58 38:25 43:3 32:9 14:- -> 7",
        "51:57 55:50 65:- -> 13",
        "22:53 15:23 16:67 23:20 56:- -> 7",
    ],
    221: [
        "156:- -> 13",
        "133:171 169:- -> 13",
        "174:180 201:66 138:98 152:110 57:59 17:- -> 17",
        "51:- -> 17",
        "91:- -> 13",
        "9:42 74:49 62:123 74:152 91:- -> 13",
        "190:209 187:- -> 17",
        "89:58 141:176 108:11 148:40 136:- -> 17",
        "194:193 111:81 98:100 157:83 34:- -> 17",
        "183:31 117:- -> 13",
        "88:135 9:189 97:45 94:218 76:11 82:160 179:158 159:46 93:137 131:98 187:- -> 17",
        "130:- -> 13",
        "58:172 49:198 182:- -> 13",
        "207:147 27:149 93:152 30:197 52:- -> 13",
        "166:176 116:19 105:77 208:- -> 13",
        "62:76 47:201 183:15 189:192 49:73 164:63 135:174 52:- -> 13",
        "5:183 44:33 65:- -> 13",
        "159:4 111:10 44:10 46:212 197:134 139:57 116:4 193:58 39:- -> 13",
        "127:42 34:- -> 17",
        "15:19 142:134 154:27 183:141 17:- -> 17",
        "115:71 69:116 119:- -> 17",
        "113:191 155:155 82:23 98:21 156:- -> 13",
        "6:79 28:70 144:118 128:186 161:28 151:133 171:60 184:216 60:179 211:139 108:164 90:86 71:92 65:- -> 13",
        "140:201 78:- -> 13",
        "130:- -> 13",
        "162:151 156:- -> 13",
        "110:69 51:- -> 17",
        "56:44 11:42 33:203 56:174 60:29 1:95 114:76 13:- -> 13",
        "135:92 89:15 69:28 2:193 198:197 65:- -> 13",
        "29:86 3:81 123:189 30:77 40:200 165:150 136:- -> 17",
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


def _class_law_replay(n, max_trials, seed):
    """The exact driver's (n0, ell, factor) records, replayed from the class oracle's factor laws.

    Each outcome is one inverse-CDF draw per factor, p first, from the
    oracle's law for that factor, the residues joined by the CRT; no
    package numerics are read.  Trials stop at the first outcome sharing
    a proper divisor with N.
    """
    p = next(d for d in range(3, n, 2) if n % d == 0)
    q = n // p

    def draw(laws, rng):
        residues = []
        for law in laws:
            cdf = np.cumsum([float(w) for w in law])
            residues.append(int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right")))
        r_p, r_q = residues
        return (r_p * q * pow(q, -1, p) + r_q * p * pow(p, -1, q)) % n

    def divisor(x):
        g = math.gcd(x, n)
        return g if 1 < g < n else None

    b_laws = (oracles.factor_b_law(p), oracles.factor_b_law(q))
    records = []
    for t in range(max_trials):
        rng = trial_rng(seed, t)
        n0 = draw(b_laws, rng)
        ell, factor = None, divisor(n0)
        if factor is None:
            ell = draw((oracles.factor_a_law(p, n0), oracles.factor_a_law(q, n0)), rng)
            factor = divisor(ell)
        records.append((n0, ell, factor))
        if factor is not None:
            break
    return records


@pytest.mark.parametrize("n", [91, 1147])
def test_exact_driver_samples_the_normalised_conditional(n):
    """Seeds 0-199: the driver's records are those of the factored draw from the class laws."""
    run = run_exact(n)
    for seed in range(200):
        res = sample_factor_driver(run, 100, seed)
        records = [(r.outcome_b, r.outcome_a, r.factor) for r in res.records]
        assert records == _class_law_replay(n, 100, seed), seed


def test_exact_driver_allocates_nothing_of_length_n():
    """At N = 988027 one length-N float array takes 7.5 MiB; the driver and success_mass stay below 4 MiB."""
    run = run_exact(988027)
    tracemalloc.start()
    try:
        res = sample_factor_driver(run, 1000, 1)
        success_mass(run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.succeeded
    assert peak < 4 * 2**20


def test_second_qubit_driver_call_rebuilds_no_cdf():
    """A prepared run keeps its cumulative B law: a second call draws from it, not from the marginal."""
    run = run_qubit(21, 9)
    first = sample_factor_driver(run, 40, 12)
    cdfs = run.b_cdfs
    # a CDF rebuilt from either of these would draw other outcomes
    run.pb_probs = np.full(512, np.nan)
    run.factor_laws = ((512, run.pb_probs),)
    assert sample_factor_driver(run, 40, 12) == first
    assert run.b_cdfs is cdfs


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


# the qubit law tends to the exact driver's P* as the register grows; the
# (N, Q) grid and c = 0.1 were fixed before the first run
@pytest.mark.parametrize("n, q_bits", [(21, 9), (21, 11), (35, 11)])
def test_qubit_success_law_approaches_the_exact_law(n, q_bits):
    """|P - P*| <= 0.1 N / 2**Q, P computed from the two-scale marginal and columns."""
    gap = qubit_success_law(run_qubit(n, q_bits)) - float(oracles.exact_success_law(n))
    assert abs(gap) <= 0.1 * n / 2**q_bits


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


# the sweep's moduli, the lopsided 12279 = 3 * 4093 and the balanced 988027 = 991 * 997
CLASS_NS = (*SWEEP_NS, 12279, 988027)


@pytest.mark.parametrize("n", CLASS_NS)
def test_factored_pb_and_success_mass_match_exact_rationals(n):
    """pb[0] = (2p-1)(2q-1)/N**2, gcd p: (2p-1)(q-1)/N**2, gcd q: (p-1)(2q-1)/N**2, else (p-1)(q-1)/N**2.

    These are the class oracle's factor laws multiplied out; pb is held to
    2e-15 relative, every success mass to 1e-15 absolute.
    """
    run = run_exact(n)
    p, q = run.s.p, run.s.q
    k = np.arange(n)
    num = np.where(k % p == 0, 2 * p - 1, p - 1) * np.where(k % q == 0, 2 * q - 1, q - 1)
    exact = num / (n * n)
    assert np.max(np.abs(run.pb_probs - exact) / exact) <= 2e-15
    zero = Fraction((2 * p - 1) * (2 * q - 1), n * n)
    factor = Fraction((q - 1) ** 2 * (2 * p - 1) + (p - 1) ** 2 * (2 * q - 1), n * n)
    sm = success_mass(run)
    assert abs(sm.p_b_zero - float(zero)) <= 1e-15
    assert abs(sm.p_b_factor_multiple - float(factor)) <= 1e-15
    assert abs(sm.p_b_coprime - float(1 - zero - factor)) <= 1e-15
    assert abs(sm.total_useful - float(zero + factor)) <= 1e-15


@pytest.mark.parametrize("n", [91, 221])
def test_class_oracle_sums_to_the_class_pb(n):
    """Summed over l, the class weights w_p w_q give the product of the oracle's factor laws."""
    p = next(d for d in range(3, n, 2) if n % d == 0)
    q = n // p
    law_p, law_q = oracles.factor_b_law(p), oracles.factor_b_law(q)
    for k in range(n):
        total = sum(oracles.class_weight(p, ell, k) * oracles.class_weight(q, ell, k) for ell in range(n))
        assert total == law_p[k % p] * law_q[k % q]
        assert total == Fraction((p - 1 + p * (k % p == 0)) * (q - 1 + q * (k % q == 0)), n * n)


@pytest.mark.parametrize("n", [91, 1147, 12279, 988027])
def test_exact_conditional_matches_the_class_oracle(n):
    """n0 = 0, a multiple of p, a multiple of q and a unit, each within 1e-14 of its column's largest value."""
    run = run_exact(n)
    p, q = run.s.p, run.s.q
    for n0 in (0, 2 * p, q, n - 1):
        expected = oracles.class_conditional(n, n0)
        got = exact_conditional(run, n0).probs
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(expected), n0


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
