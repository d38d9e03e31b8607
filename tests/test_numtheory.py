import math

import pytest
from hypothesis import given, strategies as st

from gausshor.numtheory import (
    NotSemiprimeError,
    Semiprime,
    count_upper,
    factor_semiprime,
    gcd_conv,
)


def test_gcd_conv_examples():
    assert gcd_conv(0, 35) == 35
    assert gcd_conv(30, 105) == 15
    assert gcd_conv(1, 91) == 1


def test_gcd_conv_rejects_zero_modulus():
    with pytest.raises(ValueError):
        gcd_conv(5, 0)


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
def test_gcd_conv_matches_euclid(a, n):
    assert gcd_conv(a % n, n) == math.gcd(a % n, n)
    assert gcd_conv(0, n) == n


def test_count_upper_examples():
    assert count_upper(2048, 7) == 293
    assert count_upper(2048, 91) == 23
    assert count_upper(8, 2) == 5  # exact ratio maps to ratio + 1


def test_count_upper_counts_multiples_in_register():
    # for power-of-two numerators and odd denominators > 1 the ratio is
    # never integral, so the strict upper count equals the number of
    # multiples inside [0, 2**q)
    for q in range(1, 17):
        size = 1 << q
        for n in range(3, 256, 2):
            assert count_upper(size, n) == (size - 1) // n + 1


def test_count_upper_rejects_bad_args():
    with pytest.raises(ValueError):
        count_upper(8, 0)
    with pytest.raises(ValueError):
        count_upper(0, 3)


def test_factor_semiprime_examples():
    s = factor_semiprime(91)
    assert (s.n, s.p, s.q) == (91, 7, 13)
    s = factor_semiprime(35)
    assert (s.p, s.q) == (5, 7)


@pytest.mark.parametrize(
    "n,reason",
    [
        (105, "too-many-factors"),
        (97, "prime"),
        (49, "prime-power"),
        (27, "prime-power"),
        (20, "even"),
        (10**6 + 1, "out-of-range"),
    ],
)
def test_factor_semiprime_rejections(n, reason):
    with pytest.raises(NotSemiprimeError) as exc:
        factor_semiprime(n)
    assert exc.value.reason == reason


def test_three_factor_case_reports_factorization():
    with pytest.raises(NotSemiprimeError) as exc:
        factor_semiprime(105)
    assert exc.value.factors == (3, 5, 7)


def test_factor_semiprime_round_trip():
    primes = [p for p in range(3, 3400, 2) if all(p % f for f in range(3, int(p**0.5) + 1, 2))]
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            if p * q > 10**4:
                break
            s = factor_semiprime(p * q)
            assert (s.p, s.q) == (p, q)


def test_semiprime_invariants():
    with pytest.raises(ValueError):
        Semiprime(35, 7, 5)  # p > q
    with pytest.raises(ValueError):
        Semiprime(45, 5, 9)  # 9 not prime
    with pytest.raises(ValueError):
        Semiprime(25, 5, 5)  # repeated factor
