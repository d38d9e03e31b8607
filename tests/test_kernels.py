import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausshor.kernels import (
    closed_W_sq,
    eval_F,
    eval_F_closed,
    eval_G,
    eval_truncated,
    eval_W,
    eval_W_tilde,
    g_of,
)
from gausshor.numtheory import factor_semiprime, gcd_conv

import oracles

S91 = factor_semiprime(91)


def test_eval_G_examples():
    assert abs(eval_G(0, 35)) ** 2 == pytest.approx(1225, abs=1e-9)
    assert abs(eval_G(1, 35)) ** 2 == pytest.approx(35, abs=1e-9)
    assert abs(eval_G(7, 35)) ** 2 == pytest.approx(245, abs=1e-9)


def test_eval_G_against_independent_sum():
    for n in (9, 15, 21, 35):
        for ell in range(n):
            assert eval_G(ell, n) == pytest.approx(
                oracles.gauss_sum_direct(ell, n), abs=1e-10
            )


def test_gauss_identity_small():
    for n in (9, 15, 21, 25, 33, 35, 49, 51):
        for ell in range(n):
            assert abs(eval_G(ell, n)) ** 2 == pytest.approx(
                n * gcd_conv(ell, n), abs=1e-6 * n * n
            )


def test_g_of_examples():
    assert g_of(7, 35) == 7
    assert g_of(35, 35) == 35
    assert g_of(8, 35) == 1


def test_g_of_rejects_even_modulus():
    with pytest.raises(ValueError):
        g_of(3, 34)


def test_eval_W_examples():
    assert abs(eval_W(0, 1, 91)) ** 2 == pytest.approx(1 / 91, abs=1e-12)
    assert abs(eval_W(4, 7, 91)) ** 2 == pytest.approx(0.0, abs=1e-12)
    assert abs(eval_W(14, 7, 91)) ** 2 == pytest.approx(7 / 91, abs=1e-12)


def test_closed_W_sq_examples():
    assert closed_W_sq(0, 0, S91) == 1
    assert closed_W_sq(3, 0, S91) == 0
    assert closed_W_sq(14, 7, S91) == Fraction(7, 91)


PRIME_POOL = (3, 5, 7, 11, 13)

# the odd semiprimes p*q, p < q primes, up to 221
_SEMIPRIMES = (15, 21, 33, 35, 39, 51, 55, 57, 65, 69, 77, 85, 87, 91, 93, 95, 111,
               115, 119, 123, 129, 133, 141, 143, 145, 155, 159, 161, 177, 183, 185,
               187, 201, 203, 205, 209, 213, 215, 217, 219, 221)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_SEMIPRIMES), st.data())
def test_closed_W_sq_matches_direct_sum_property(n, data):
    s = factor_semiprime(n)
    n0 = data.draw(st.integers(0, n - 1))
    # multiples of p, q and N are where the case table branches
    ell = data.draw(st.integers(0, 3 * n) | st.sampled_from([0, s.p, s.q, n, 2 * s.p * s.q]))
    assert abs(abs(eval_W(n0, ell, n)) ** 2 - float(closed_W_sq(n0, ell, s))) <= 1e-12


def test_closed_form_and_shift_normalization_full_pair_grid():
    # one pass over every semiprime from the prime pool checks both the
    # case-table closed form and that each l column carries unit mass
    # when summed over the shift
    for i, p in enumerate(PRIME_POOL):
        for q in PRIME_POOL[i + 1 :]:
            s = factor_semiprime(p * q)
            n = s.n
            for ell in range(n):
                column = 0.0
                for n0 in range(n):
                    w_sq = abs(eval_W(n0, ell, n)) ** 2
                    assert abs(w_sq - float(closed_W_sq(n0, ell, s))) <= 1e-9
                    column += w_sq
                assert column == pytest.approx(1.0, abs=1e-9)


def test_factor_structure_zeroes():
    # l = k*p with gcd(k, q) = 1: the sum vanishes unless p divides the shift
    for p, q in ((3, 5), (5, 7), (7, 13)):
        n = p * q
        for k in range(1, q):
            if math.gcd(k, q) != 1:
                continue
            for n0 in range(n):
                val = abs(eval_W(n0, k * p, n))
                if n0 % p:
                    assert val < 1e-12
                else:
                    assert val == pytest.approx(math.sqrt(p / n), abs=1e-9)


def test_eval_W_tilde_reduces_to_eval_W():
    for n0, ell in ((0, 0), (5, 4), (20, 13), (1, 7)):
        assert eval_W_tilde(n0, ell, 21, 21) == pytest.approx(
            eval_W(n0, ell, 21), abs=1e-12
        )


def test_eval_W_tilde_trivial_and_brute():
    assert abs(eval_W_tilde(0, 0, 21, 512)) == pytest.approx(1.0, abs=1e-12)
    assert abs(eval_W_tilde(24, 1, 21, 512)) ** 2 == pytest.approx(
        abs(oracles.two_scale_direct(24, 1, 21, 512)) ** 2, abs=1e-12
    )


def test_eval_W_tilde_matches_fft_row():
    # one FFT of the quadratic-phase vector yields the whole shift row
    n, size, ell = 21, 512, 5
    phase = np.exp(2j * np.pi * ((np.arange(size) ** 2 % n) * ell % n) / n)
    row = np.fft.ifft(phase)
    for n0 in (0, 1, 24, 100, 511):
        assert eval_W_tilde(n0, ell, n, size) == pytest.approx(row[n0], abs=1e-12)


def test_eval_F_examples():
    assert eval_F(0.0, 293) == pytest.approx(293, abs=1e-9)
    assert abs(eval_F(0.5, 2)) == pytest.approx(0.0, abs=1e-12)
    peak = abs(eval_F(1 + 0.5 / 293, 293))
    assert peak == pytest.approx(1 / math.sin(math.pi / (2 * 293)), rel=1e-12)
    assert peak >= (2 / math.pi) * 293


def test_eval_F_direct_vs_closed_random_rationals():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        m_terms = int(rng.integers(1, 600))
        num = int(rng.integers(0, 4096))
        den = int(rng.integers(1, 4096))
        alpha = num / den
        assert eval_F(alpha, m_terms) == pytest.approx(
            eval_F_closed(alpha, m_terms), abs=1e-9 * m_terms
        )


def test_eval_F_closed_integral_alpha():
    for m_terms in (1, 2, 293, 1024):
        assert eval_F_closed(3.0, m_terms) == complex(m_terms)
        assert eval_F_closed(0.0, m_terms) == complex(m_terms)


def test_peak_lower_bound_grid():
    # |F(j + delta/M; M)| >= (2/pi) M across the sub-bin offset range
    for m_terms in range(2, 1025):
        for delta in (-0.5, -0.25, 0.0, 0.25, 0.5):
            val = abs(eval_F_closed(1 + delta / m_terms, m_terms))
            assert val >= (2 / math.pi) * m_terms - 1e-9 * m_terms
    # direct-summation spot checks on a subsample
    for m_terms in (2, 3, 5, 17, 64, 293, 1024):
        for delta in (-0.5, -0.25, 0.0, 0.25, 0.5):
            val = abs(eval_F(1 + delta / m_terms, m_terms))
            assert val >= (2 / math.pi) * m_terms - 1e-9 * m_terms


def test_eval_truncated_examples():
    assert eval_truncated(1, 91, 5) == pytest.approx(1.0, abs=1e-12)
    assert eval_truncated(7, 91, 5) == pytest.approx(1.0, abs=1e-12)
    val = abs(eval_truncated(4, 91, 5))
    assert val == pytest.approx(abs(oracles.truncated_sum_direct(4, 91, 5)), abs=1e-12)
    assert val < 1.0


def test_eval_truncated_rejects_zero():
    with pytest.raises(ValueError):
        eval_truncated(0, 91, 5)


def test_kernel_outputs_finite():
    vals = [
        eval_G(17, 91),
        eval_W(3, 5, 91),
        eval_W_tilde(3, 5, 21, 64),
        eval_F(0.123, 64),
        eval_truncated(6, 35, 12),
    ]
    for v in vals:
        assert math.isfinite(v.real) and math.isfinite(v.imag)
