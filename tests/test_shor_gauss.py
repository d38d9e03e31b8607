import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausshor.kernels import eval_F_closed
from gausshor.numtheory import count_upper, factor_semiprime
from gausshor.shor_gauss import (
    BranchKind,
    UnitSpectrum,
    _branch_table,
    _unit_spectrum,
    analyze_peaks,
    b_labels,
    branch_probs,
    factor_driver,
    min_register_bits,
    peak_bin,
    peak_mass_bounds,
    peak_positions,
    post_state,
    qft_distribution,
    recover_divisor,
    run_trial,
)
from gausshor.states import AmplitudeCapError, qft_vector, sample_outcome
from gausshor.trials import DriverResult, TrialRecord, trial_rng

import oracles

S91 = factor_semiprime(91)
S15 = factor_semiprime(15)


def test_min_register_bits():
    assert min_register_bits(91) == 14
    assert min_register_bits(15) == 8
    assert (1 << min_register_bits(91)) > 91 * 91
    assert (1 << (min_register_bits(91) - 1)) <= 91 * 91


def test_register_guard():
    branch_probs(S91, 14)
    with pytest.raises(ValueError, match="not uniquely decodable"):
        branch_probs(S91, 11)
    branch_probs(S91, 11, allow_small_register=True)  # figure-scale override
    with pytest.raises(ValueError, match="register size must be >= 1 bit, got 0"):
        post_state(S91, 0, 7, allow_small_register=True)


def test_branch_probs_examples_and_sum():
    bp = branch_probs(S91, 11, allow_small_register=True)
    by_label = {b.label: b.probability for b in bp}
    assert by_label[91] == Fraction(23, 2048)
    assert by_label[7] == Fraction(293 - 23, 2048)
    assert by_label[13] == Fraction(158 - 23, 2048)
    assert by_label[1] == Fraction(1620, 2048)
    assert sum(by_label.values()) == 1
    kinds = {b.label: b.kind for b in bp}
    assert kinds[91] is BranchKind.CASE_N
    assert kinds[7] is BranchKind.CASE_FACTOR
    assert kinds[1] is BranchKind.CASE_UNIT


def test_branch_probs_match_direct_counts():
    for n, q_bits, allow in ((15, 9, False), (35, 11, False), (91, 11, True), (91, 14, False)):
        s = factor_semiprime(n)
        counts = oracles.branch_masses_direct(n, q_bits)
        assert sorted(counts) == sorted(b_labels(s))
        got = {b.label: b.probability for b in branch_probs(s, q_bits, allow)}
        assert got == {g: Fraction(c, 1 << q_bits) for g, c in counts.items()}, (n, q_bits)


def test_post_state_supports():
    size = 1 << 14
    vec_n = post_state(S91, 14, 91)
    assert vec_n.dtype == np.float64  # real: the spectrum is one rfft
    support = np.nonzero(np.abs(vec_n) > 0)[0]
    assert list(support) == list(range(0, size, 91))
    assert np.allclose(np.abs(vec_n[support]), count_upper(size, 91) ** -0.5)

    vec_p = post_state(S91, 14, 7)
    assert np.all(np.abs(vec_p[::91]) == 0)  # multiples of N drop out
    support = np.nonzero(np.abs(vec_p) > 0)[0]
    assert all(l % 7 == 0 and l % 91 for l in support)

    vec_1 = post_state(S91, 14, 1)
    support = set(np.nonzero(np.abs(vec_1) > 0)[0].tolist())
    expected = {l for l in range(size) if l % 7 and l % 13}
    assert support == expected
    norm_const = (size - count_upper(size, 7) - count_upper(size, 13) + count_upper(size, 91)) ** -0.5
    assert np.allclose(np.abs(vec_1[sorted(support)]), norm_const)

    with pytest.raises(ValueError):
        post_state(S91, 14, 5)


@pytest.mark.parametrize(
    "n, q_bits, allow", [(15, 8, False), (35, 11, False), (91, 14, False), (91, 11, True)]
)
def test_post_state_matches_gcd_oracle(n, q_bits, allow):
    s = factor_semiprime(n)
    for label in b_labels(s):
        vec = post_state(s, q_bits, label, allow_small_register=allow)
        expected = oracles.comb_post_state_direct(n, q_bits, label)
        assert vec.tolist() == [complex(a) for a in expected], label


def test_qft_of_factor_post_state_matches_comb_sums():
    # the transformed factor comb equals the difference of two geometric
    # comb sums at every bin
    q_bits, size = 11, 2048
    m_p, m_n = count_upper(size, 7), count_upper(size, 91)
    vec = qft_vector(post_state(S91, q_bits, 7, allow_small_register=True))
    norm = 1 / math.sqrt(m_p - m_n)
    for m in range(size):
        expected = (
            norm
            / math.sqrt(size)
            * (eval_F_closed(7 * m / size, m_p) - eval_F_closed(91 * m / size, m_n))
        )
        assert vec[m] == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("n, q_bits", [(15, 3), (35, 11), (91, 14), (437, 18), (899, 20)])
def test_qft_distribution_matches_complex_ifft_and_mirrors(n, q_bits):
    # the real-FFT spectrum agrees with the +i-kernel complex transform of the
    # normalized comb, and P(m) = P(2**Q - m) holds bit for bit
    s = factor_semiprime(n)
    size = 1 << q_bits
    signal = np.gcd(np.arange(size), n)  # gcd(0, N) = N
    for label in b_labels(s):
        comb = (signal == label).astype(np.complex128)
        vec = np.fft.ifft(comb / math.sqrt(np.sum(comb.real))) * math.sqrt(size)
        probs = qft_distribution(s, q_bits, label, allow_small_register=True).probs
        assert np.max(np.abs(probs - (vec.real**2 + vec.imag**2))) <= 1e-15, label
        assert probs[1:].tobytes() == probs[1:][::-1].tobytes(), label


@pytest.mark.parametrize("n, q_bits", [(15, 8), (35, 11), (91, 14), (899, 20)])
def test_branch_spectra_match_the_closed_form_oracle(n, q_bits):
    # all four labels' spectra against their Dirichlet-kernel closed forms
    s = factor_semiprime(n)
    for label in b_labels(s):
        probs = qft_distribution(s, q_bits, label).probs
        closed = oracles.branch_spectrum_closed(n, q_bits, label)
        assert np.max(np.abs(closed - probs)) <= 1e-15, label


def test_unit_spectrum_peak_allocation_below_two_and_a_half_register_vectors():
    """A real comb and one half-length complex spectrum: no complex copy of the register."""
    q_bits = 16
    tracemalloc.start()
    try:
        qft_distribution(S91, q_bits, 1)
        spectrum_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spectrum_peak < 2.5 * 8 * (1 << q_bits)


def test_factor_driver_allocates_no_register_vector():
    """The driver draws from closed forms: at (899, 20) its peak stays under 1 MiB."""
    _branch_table.cache_clear()
    _unit_spectrum.cache_clear()
    tracemalloc.start()
    try:
        for seed in range(5):  # seeds 1 and 2 draw a unit bin other than DC
            factor_driver(899, 20, 8, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "n, q_bits, allow", [(15, 8, False), (35, 11, False), (91, 14, False), (91, 11, True)]
)
def test_unit_spectrum_closed_form_matches_qft_distribution(n, q_bits, allow):
    s = factor_semiprime(n)
    spec = UnitSpectrum(s, q_bits)
    probs = qft_distribution(s, q_bits, 1, allow_small_register=allow).probs
    got = np.array([spec.probability(m) for m in range(1 << q_bits)])
    assert np.max(np.abs(got - probs)) <= 1e-15
    assert spec.probability(0) == float(branch_probs(s, q_bits, allow)[3].probability)


def test_unit_spectrum_closed_form_matches_qft_distribution_at_peaks_899_20():
    # every bin within 3 of a bin nearest j * 2**20 / 899, plus every 257th bin
    s, q_bits = factor_semiprime(899), 20
    spec = UnitSpectrum(s, q_bits)
    probs = qft_distribution(s, q_bits, 1).probs
    near = {(b + k) % (1 << q_bits) for b in peak_positions(899, q_bits) for k in range(-3, 4)}
    bins = sorted(near | set(range(0, 1 << q_bits, 257)))
    got = np.array([spec.probability(m) for m in bins])
    assert np.max(np.abs(got - probs[bins])) <= 1e-15


def test_unit_envelope_bounds_the_spectrum_at_every_bin():
    for n in (15, 21, 35, 91):
        s = factor_semiprime(n)
        for q_bits in (*range(1, 13), min_register_bits(n)):
            spec = UnitSpectrum(s, q_bits)
            for m in range(1, 1 << q_bits):
                power, envelope = spec.weigh(m)
                assert power <= envelope, (n, q_bits, m)


def _chi_square_limit(dof: int) -> float:
    """Upper 1e-4 quantile of chi-square with dof degrees of freedom (Wilson-Hilferty)."""
    z, h = 3.719, 2 / (9 * dof)
    return dof * (1 - h + z * math.sqrt(h)) ** 3


def _chi_square(counts: np.ndarray, probs: np.ndarray) -> float:
    expected = probs * counts.sum()
    return float(np.sum((counts - expected) ** 2 / expected))


# the sampler's draws against its law; seeds, sizes and the 1e-4 threshold
# were fixed before the first run
def test_unit_draws_chi_square_by_probability_groups_35_11():
    """20,000 draws on seed 0: the DC bin, then bins by falling probability in groups of >= 0.005 mass."""
    s, q_bits = factor_semiprime(35), 11
    spec = UnitSpectrum(s, q_bits)
    probs = qft_distribution(s, q_bits, 1).probs
    order = np.argsort(-probs[1:], kind="stable") + 1
    group = np.zeros(len(probs), dtype=int)
    mass, g = 0.0, 1
    for m in order:
        if mass >= 0.005:
            mass, g = 0.0, g + 1
        group[m] = g
        mass += probs[m]
    if mass < 0.005:  # the last group is pooled with the one before it
        group[group == g] = g = g - 1
    draws = np.array([spec.draw(trial_rng(0, t)) for t in range(20000)])
    counts = np.bincount(group[draws], minlength=g + 1)
    expected = np.bincount(group, weights=probs, minlength=g + 1)
    assert _chi_square(counts, expected) <= _chi_square_limit(g)


def test_unit_draws_chi_square_by_peak_windows_899_20():
    """The bins other than DC drawn in 60,000 draws on seed 1, grouped by their nearest peak.

    A bin m's nearest modulus-comb point is j = round(m N / 2**Q); the group is
    the class gcd(j, N) with the offset from j's nearest bin (-3 or less, -2 ..
    2, 3 or more).  Groups expecting fewer than 10 draws are pooled.
    """
    s, q_bits = factor_semiprime(899), 20
    size = 1 << q_bits
    spec = UnitSpectrum(s, q_bits)
    probs = qft_distribution(s, q_bits, 1).probs.copy()
    probs[0] = 0.0
    m = np.arange(size, dtype=np.int64)
    j = (2 * m * 899 + size) // (2 * size)
    offset = np.clip(m - (2 * j * size + 899) // (2 * 899), -3, 3) + 3
    group = np.gcd(j % 899, 899) * 7 + offset
    draws = [b for t in range(60000) if (b := spec.draw(trial_rng(1, t)))]
    expected = np.bincount(group, weights=probs) / probs.sum() * len(draws)
    pooled = np.where(expected[group] < 10, 0, group)
    counts = np.bincount(pooled[draws], minlength=len(expected))
    expected = np.bincount(pooled, weights=probs, minlength=len(expected))
    kept = expected > 0
    assert _chi_square(counts[kept], expected[kept] / expected.sum()) <= _chi_square_limit(
        int(kept.sum()) - 1
    )


def test_post_state_rejects_an_empty_support():
    # 2**1 holds only l = 0 and 1: no proper multiple of 3
    with pytest.raises(ValueError, match=r"no l < 2\*\*1 has divisor signal 3"):
        post_state(S15, 1, 3, allow_small_register=True)


def test_peak_positions_wrap_mod_register_and_skip_dc():
    # at 2**Q <= period / 2 the nearest bins reach 2**Q (= bin 0) and bin 0
    # itself; both are the DC bin, which analyze_peaks reports apart
    assert peak_bin(1, 5, 1) == 0 and peak_bin(4, 5, 1) == 2
    assert peak_positions(5, 1) == (1,) and peak_positions(15, 1) == (1,)
    dist = qft_distribution(S15, 1, 1, allow_small_register=True)
    assert dist.probs.tolist() == [0.5, 0.5]
    for period in (3, 5):
        rep = analyze_peaks(dist, period, 1, modulus=15)
        assert rep.positions == (1,) and rep.mass == rep.dc_mass == 0.5
        assert rep.max_off_structure == 0.0


def test_peak_positions_rounding():
    # half-up at exact .5 offsets, deduplicated, strictly increasing
    assert peak_bin(1, 4, 1) == 1 and peak_bin(3, 4, 1) == 2  # 0.5 and 1.5 round up
    assert peak_positions(7, 11) == (293, 585, 878, 1170, 1463, 1755)
    assert peak_positions(2, 3) == (4,)  # 8/2 exact
    pos = peak_positions(91, 11)
    assert len(pos) == len(set(pos)) and list(pos) == sorted(pos)


def test_analyze_peaks_fig4_structure():
    dist = qft_distribution(S91, 11, 7, allow_small_register=True)
    rep = analyze_peaks(dist, 7, 11, modulus=91)
    assert rep.positions == (293, 585, 878, 1170, 1463, 1755)
    assert rep.mass > 0.5
    assert rep.dc_mass == pytest.approx(float(Fraction(270, 2048)), abs=1e-9)
    assert rep.max_on_peak / rep.max_off_structure > 100


def test_peak_mass_bounds_values():
    b = peak_mass_bounds(S91, 11)
    assert b.factor_peak_total[7] == Fraction(2, 5) * Fraction(84, 91)
    assert float(b.factor_peak_total[7]) == pytest.approx(0.369230769, abs=1e-8)
    assert float(b.factor_modulus_total[7]) == pytest.approx(0.4 * 7 / 91, abs=1e-12)
    assert float(b.unit_factor_total) == pytest.approx(
        0.4 * (91 * 13 + 91 * 7 + 13 + 7 - 4 * 91) / (91 * 72), abs=1e-12
    )
    assert b.unit_peak_total[7] == Fraction(2, 5) * 7 * 12**2 / (91 * 72)
    assert b.unit_peak_total[13] == Fraction(2, 5) * 13 * 6**2 / (91 * 72)
    # a unit per-bin bound is (7/11 (2M/f - K_f) - K_N - f M / (2M - N))**2 / (M S),
    # with M = 2048, K_7 = 293, K_13 = 158, K_N = 23 and S = 1620 coprime points
    assert b.unit_peak_per_bin[7] == (
        Fraction(7, 11) * (Fraction(4096, 7) - 293) - 23 - Fraction(7 * 2048, 4005)
    ) ** 2 / (2048 * 1620)
    assert b.unit_peak_per_bin[13] == (
        Fraction(7, 11) * (Fraction(4096, 13) - 158) - 23 - Fraction(13 * 2048, 4005)
    ) ** 2 / (2048 * 1620)


# the (N, Q) grid every peak-mass bound is checked on; it holds the README's
# driver register (91, 14), where the old modulus-bin estimates failed, and
# (221, 9) and (437, 9), where the old unit per-bin estimate failed
BOUND_GRID = sorted(
    {(n, q) for n in (15, 21, 35, 91, 221, 437)
     for q in (9, 11, *(min_register_bits(n) + k for k in (0, 1)))}
)


def test_factor_branch_masses_beat_bounds():
    for n, q_bits in BOUND_GRID:
        s = factor_semiprime(n)
        bounds = peak_mass_bounds(s, q_bits)
        for f in (s.p, s.q):
            dist = qft_distribution(s, q_bits, f, allow_small_register=True)
            rep = analyze_peaks(dist, f, q_bits, modulus=n)
            assert rep.mass >= float(bounds.factor_peak_total[f]), (n, q_bits, f)
            per_bin = float(bounds.factor_peak_per_bin[f])
            assert all(dist.probs[pos] >= per_bin for pos in rep.positions), (n, q_bits, f)
            modulus_only = [x for x in peak_positions(n, q_bits) if x not in set(rep.positions)]
            on_modulus = dist.probs[modulus_only]
            assert np.sum(on_modulus) >= float(bounds.factor_modulus_total[f]), (n, q_bits, f)
            assert np.min(on_modulus) >= float(bounds.factor_modulus_per_bin[f]), (n, q_bits, f)


def test_unit_branch_masses_beat_bounds():
    for n, q_bits in BOUND_GRID:
        s = factor_semiprime(n)
        bounds = peak_mass_bounds(s, q_bits)
        dist = qft_distribution(s, q_bits, 1, allow_small_register=True)
        on_factor = set()
        for f in (s.p, s.q):
            rep = analyze_peaks(dist, f, q_bits, modulus=n)
            assert rep.mass >= float(bounds.unit_peak_total[f]), (n, q_bits, f)
            per_bin = float(bounds.unit_peak_per_bin[f])
            assert all(dist.probs[pos] >= per_bin for pos in rep.positions), (n, q_bits, f)
            on_factor |= set(rep.positions)
        assert np.sum(dist.probs[sorted(on_factor)]) >= float(bounds.unit_factor_total)
        modulus_only = [x for x in peak_positions(n, q_bits) if x not in on_factor]
        assert np.min(dist.probs[modulus_only]) >= float(bounds.unit_modulus_per_bin), (n, q_bits)


def test_modulus_bin_bounds_vanish_without_room_for_the_comb():
    # 2**7 <= 221: no modulus-comb bin is bounded away from 0
    bounds = peak_mass_bounds(factor_semiprime(221), 7)
    assert bounds.unit_modulus_per_bin == 0
    assert set(bounds.factor_modulus_per_bin.values()) == {0}


def test_recover_divisor_examples():
    cand = recover_divisor(878, 11, 91)
    assert cand.denominator == 7 and cand.gcd_with_n == 7
    cand = recover_divisor(1024, 11, 91)
    assert cand.denominator == 2 and cand.gcd_with_n == 1
    with pytest.raises(ValueError):
        recover_divisor(0, 11, 91)
    with pytest.raises(ValueError):
        recover_divisor(2048, 11, 91)


def test_recover_divisor_uniqueness_exhaustive():
    for n in (15, 21, 35, 91):
        s = factor_semiprime(n)
        q_bits = math.ceil(2 * math.log2(n)) + 1
        size = 1 << q_bits
        for f in (s.p, s.q):
            for j in range(1, f):
                if math.gcd(j, f) != 1:
                    continue
                m = (2 * j * size + f) // (2 * f)
                cand = recover_divisor(m, q_bits, n)
                assert cand.gcd_with_n == f, (n, f, j)


def _odd_semiprimes(limit: int) -> list[tuple[int, int, int]]:
    """(p*q, p, q) for odd primes p < q with p*q <= limit, by trial division."""
    odd = range(3, limit // 3 + 1, 2)
    primes = [k for k in odd if all(k % d for d in range(3, math.isqrt(k) + 1, 2))]
    return [(p * q, p, q) for i, p in enumerate(primes) for q in primes[i + 1:] if p * q <= limit]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_odd_semiprimes(400)), st.data())
def test_recover_divisor_reads_every_peak_at_the_threshold(npq, data):
    # at 2**Q > N**2 the nearest bin of j/r decodes to r / gcd(j, r)
    # (Shor 1997, SIAM J. Comput. 26:1484), for r a factor or N itself
    n, p, q = npq
    r = data.draw(st.sampled_from((p, q, n)), label="r")
    j = data.draw(st.integers(1, r - 1), label="j")
    q_bits = min_register_bits(n) + data.draw(st.integers(0, 1), label="extra bit")
    assert recover_divisor(peak_bin(j, r, q_bits), q_bits, n).denominator == r // math.gcd(j, r)


def _closest_convergent_denominator(m: int, size: int, n: int) -> int:
    """Denominator of the convergent of m/size nearest to it among those with denominator <= n.

    Every convergent is scored by |m/size - h/k| through exact cross
    multiplication; the first of equally near ones wins.
    """
    quotients = []
    num, den = m, size
    while den:
        quotients.append(num // den)
        num, den = den, num % den
    best_err, best_k = None, None
    h_prev, h, k_prev, k = 0, 1, 1, 0
    for a in quotients:
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        err = abs(m * k - h * size)  # |m/size - h/k| * size * k
        if k <= n and (best_k is None or err * best_k < best_err * k):
            best_err, best_k = err, k
    return best_k


def test_recover_divisor_matches_closest_convergent_exhaustive():
    cases = 0
    for q_bits in range(1, 13):
        size = 1 << q_bits
        for n in (1, 2, 3, 5, 15, 21, 35, 91, 221, 899, 5000):
            for m in range(1, size):
                expected = _closest_convergent_denominator(m, size, n)
                assert recover_divisor(m, q_bits, n).denominator == expected, (m, q_bits, n)
                cases += 1
    assert cases == 89958
    with pytest.raises(ValueError):
        recover_divisor(5, 4, 0)


def test_recover_divisor_misreads_below_the_threshold():
    # one bit short of 2**Q > 15**2, the first peak of period 15 reads as 1/14
    assert min_register_bits(15) - 1 == 7 and peak_bin(1, 15, 7) == 9
    assert recover_divisor(9, 7, 15).denominator == 14


def test_empirical_branch_frequencies():
    for n in (15, 21, 91):
        s = factor_semiprime(n)
        q_bits = min_register_bits(n)
        bp = branch_probs(s, q_bits)
        probs = np.array([float(b.probability) for b in bp])
        counts = np.zeros(4, dtype=int)
        trials = 100_000
        for t in range(trials):
            counts[sample_outcome(probs, trial_rng(0, t))] += 1
        for k in range(4):
            sigma = math.sqrt(probs[k] * (1 - probs[k]) / trials)
            assert abs(counts[k] / trials - probs[k]) <= 3 * sigma, (n, k)


def test_run_trial_branches():
    seen = set()
    for t in range(200):
        rec = run_trial(S91, 14, trial_rng(4, t), t)
        seen.add(rec.outcome_b)
        if rec.outcome_b in (7, 13):
            assert rec.factor == rec.outcome_b
        if rec.outcome_b == 91:
            assert rec.factor is None
    assert {7, 1} <= seen


def test_factor_driver_examples():
    res = factor_driver(91, 14, 200, 1)
    assert res.succeeded and res.factor in (7, 13) and res.trials_run <= 200
    assert res.records[-1].factor == res.factor
    res = factor_driver(15, 8, 200, 1)
    assert res.succeeded and res.factor in (3, 5)
    res = factor_driver(91, 14, 0, 1)
    assert not res.succeeded and res.trials_run == 0 and res.factor is None


def test_factor_driver_deterministic():
    a = factor_driver(91, 14, 200, 42)
    b = factor_driver(91, 14, 200, 42)
    assert a == b


def test_unit_branch_reconstruction_rarely_helps():
    # the coprime comb's spectrum is DC-dominated: most unit trials sample
    # bin 0 and retry, matching the known unsuitability of this branch
    records = factor_driver(91, 14, 200, 123).records
    unit = [r for r in records if r.outcome_b == 1]
    assert unit, "expected unit-branch trials"
    assert sum(1 for r in unit if r.factor is not None) <= len(unit) // 2


def _uncached_driver(n, q_bits, max_trials, seed):
    """factor_driver with the branch drawn by sample_outcome on fresh probabilities and a fresh UnitSpectrum."""
    s = factor_semiprime(n)
    branches = branch_probs(s, q_bits)
    branch_p = np.array([float(b.probability) for b in branches])
    records = []
    for t in range(max_trials):
        rng = trial_rng(seed, t)
        label = branches[sample_outcome(branch_p, rng)].label
        rec = TrialRecord(t, label)
        if label in (s.p, s.q):
            rec = TrialRecord(t, label, factor=label)
        elif label == 1:
            m = UnitSpectrum(s, q_bits).draw(rng)
            rec = TrialRecord(t, label, outcome_a=m)
            if m:
                cand = recover_divisor(m, q_bits, n)
                g = cand.gcd_with_n
                rec = TrialRecord(t, label, m, cand.denominator, g if 1 < g < n else None)
        records.append(rec)
        if rec.factor is not None:
            return DriverResult(n, True, rec.factor, t + 1, max_trials, seed, tuple(records))
    return DriverResult(n, False, None, max_trials, max_trials, seed, tuple(records))


@pytest.mark.parametrize("n, q_bits", [(35, 11), (91, 14)])
def test_cached_tables_change_no_record(n, q_bits):
    for seed in range(20):
        _branch_table.cache_clear()
        _unit_spectrum.cache_clear()
        cold = factor_driver(n, q_bits, 30, seed)
        warm = factor_driver(n, q_bits, 30, seed)
        assert cold == warm == _uncached_driver(n, q_bits, 30, seed), seed


# recorded on the numpy-Philox trial streams; TrialRecord fields in order:
# index, B label, A bin, candidate denominator, factor
T = TrialRecord
BRANCH_DRIVER_RECORDS = [
    DriverResult(35, True, 5, 2, 25, 0, (T(0, 35), T(1, 1, 1229, 5, 5))),
    DriverResult(35, True, 7, 1, 25, 1, (T(0, 7, factor=7),)),
    DriverResult(35, True, 7, 2, 25, 2, (T(0, 1, 0), T(1, 1, 1755, 7, 7))),
    DriverResult(35, True, 7, 2, 25, 3, (T(0, 1, 0), T(1, 1, 585, 7, 7))),
    DriverResult(
        35, True, 7, 5, 25, 4, (T(0, 35), T(1, 1, 0), T(2, 1, 0), T(3, 1, 0), T(4, 7, factor=7))
    ),
    DriverResult(35, True, 5, 3, 25, 5, (T(0, 1, 0), T(1, 1, 0), T(2, 1, 819, 5, 5))),
    DriverResult(35, True, 7, 3, 25, 2**63 + 5, (T(0, 1, 0), T(1, 1, 0), T(2, 7, factor=7))),
    DriverResult(899, True, 29, 1, 8, 0, (T(0, 29, factor=29),)),
    DriverResult(899, True, 31, 2, 8, 1, (T(0, 1, 0), T(1, 1, 879451, 31, 31))),
    DriverResult(
        899, True, 31, 4, 8, 2, (T(0, 1, 0), T(1, 1, 0), T(2, 1, 0), T(3, 1, 913276, 31, 31))
    ),
    DriverResult(899, False, None, 8, 8, 3, tuple(T(t, 1, 0) for t in range(8))),
    DriverResult(
        899, True, 31, 6, 8, 4,
        (T(0, 899), T(1, 1, 0), T(2, 1, 0), T(3, 1, 0), T(4, 1, 0), T(5, 31, factor=31)),
    ),
]


@pytest.mark.parametrize(
    "pinned", BRANCH_DRIVER_RECORDS, ids=lambda r: f"{r.n}-seed{r.seed}"
)
def test_factor_driver_records_pinned(pinned):
    q_bits = {35: 11, 899: 20}[pinned.n]
    assert factor_driver(pinned.n, q_bits, pinned.max_trials, pinned.seed) == pinned


def test_cached_tables_are_read_only():
    factor_driver(91, 14, 30, 0)
    branches, cdf = _branch_table(S91, 14)
    assert isinstance(branches, tuple) and not cdf.flags.writeable
    with pytest.raises(ValueError):
        factor_driver(91, 5, 0, 1)  # 2**5 <= 91**2, even with no trial to run


def test_repeat_driver_call_reuses_the_register_tables():
    # each call validates its own Semiprime; equal ones hash alike, so the
    # second call finds both (N, Q) tables that the first one built
    first = factor_driver(35, 11, 4, 0)
    assert first.records[-1].outcome_a  # a unit-branch draw used the spectrum
    caches = (_branch_table, _unit_spectrum)
    before = [cache.cache_info() for cache in caches]
    assert factor_driver(35, 11, 4, 0) == first
    after = [cache.cache_info() for cache in caches]
    assert [info.misses for info in after] == [info.misses for info in before]
    assert all(a.hits > b.hits for a, b in zip(after, before))


def test_lower_cap_applies_to_warm_tables(monkeypatch):
    s = factor_semiprime(35)
    factor_driver(35, 11, 30, 0)  # builds the (35, 11) tables
    monkeypatch.setenv("GAUSSHOR_MEM_CAP", "1000")
    with pytest.raises(AmplitudeCapError):
        run_trial(s, 11, trial_rng(0, 0))
    with pytest.raises(AmplitudeCapError):
        factor_driver(35, 11, 0, 0)


def _branch_success_probability(n: int, q_bits: int) -> float:
    """P that one driver trial reports a factor.

    A factor label succeeds at once; a unit label succeeds when its Fourier
    bin m >= 1 reads as a denominator that shares a factor with N.
    """
    s = factor_semiprime(n)
    branches = branch_probs(s, q_bits)
    factor = sum(b.probability for b in branches if b.kind is BranchKind.CASE_FACTOR)
    unit = next(b.probability for b in branches if b.kind is BranchKind.CASE_UNIT)
    spectrum = qft_distribution(s, q_bits, 1).probs
    useful = math.fsum(
        spectrum[m] for m in range(1, 1 << q_bits)
        if math.gcd(recover_divisor(m, q_bits, n).denominator, n) not in (1, n)
    )
    return float(factor) + float(unit) * useful


# the success law of the branch driver, gated on its outcomes and not on how a
# draw is made; the seeds and sample sizes were fixed before the first run
BRANCH_SUCCESS_LAW_SIZES = [(35, 11), (91, 14)]


@pytest.mark.parametrize("n, q_bits", BRANCH_SUCCESS_LAW_SIZES)
def test_factor_driver_budget_one_success_frequency(n, q_bits):
    """Budget-1 runs over seeds 0..2999 succeed at P within 4.5 sigma."""
    p, seeds = _branch_success_probability(n, q_bits), range(3000)
    freq = sum(factor_driver(n, q_bits, 1, seed).succeeded for seed in seeds) / len(seeds)
    assert abs(freq - p) <= 4.5 * math.sqrt(p * (1 - p) / len(seeds))


# the branch law tends to the exact driver's P* as the register grows; the
# (N, Q) grid and c = 0.25 were fixed before the first run
@pytest.mark.parametrize("n, q_bits", [(35, 11), (35, 13), (35, 15), (91, 14), (91, 16)])
def test_branch_success_law_approaches_the_exact_law(n, q_bits):
    """|P - P*| <= 0.25 N / 2**Q, P computed from the branch masses and the unit spectrum."""
    gap = _branch_success_probability(n, q_bits) - float(oracles.exact_success_law(n))
    assert abs(gap) <= 0.25 * n / 2**q_bits


@pytest.mark.parametrize("n, q_bits", BRANCH_SUCCESS_LAW_SIZES)
def test_factor_driver_mean_trials_to_success(n, q_bits):
    """Trials to success are geometric: over seeds 0..999 their mean is 1/P within 4.5 sigma."""
    p, seeds = _branch_success_probability(n, q_bits), range(1000)
    results = [factor_driver(n, q_bits, 10**6, seed) for seed in seeds]  # no budget binds
    assert all(r.succeeded for r in results)
    mean = sum(r.trials_run for r in results) / len(seeds)
    assert abs(mean - 1 / p) <= 4.5 * math.sqrt((1 - p) / p**2 / len(seeds))
