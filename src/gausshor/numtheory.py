"""Exact integer arithmetic shared by every oracle in the package.

Everything here is pure integer math: a gcd with the convention
gcd(0, n) = n, validation of odd semiprimes by trial division, and the
strict upper count [x] = floor(x) + 1 used to count comb points inside a
register of given size.
"""

from __future__ import annotations

import math
from collections import namedtuple

FACTOR_CAP = 10**6


class NotSemiprimeError(ValueError):
    """Raised when a number is not a product of two distinct odd primes.

    ``reason`` is one of ``"even"``, ``"prime"``, ``"prime-power"``,
    ``"too-many-factors"``, ``"out-of-range"``.  For the too-many-factors
    case the full prime factorization found is attached so callers can
    report it.
    """

    def __init__(self, n: int, reason: str, factors: tuple[int, ...] = ()):
        self.n = n
        self.reason = reason
        self.factors = factors
        detail = f" (= {' * '.join(map(str, factors))})" if factors else ""
        super().__init__(f"{n} is not an odd semiprime: {reason}{detail}")


class Semiprime(namedtuple("Semiprime", "n p q")):
    """An odd composite n = p * q with two distinct odd prime factors, p < q.

    Compared and hashed by value, so equal semiprimes share cache entries.
    """

    __slots__ = ()

    def __new__(cls, n: int, p: int, q: int):
        if p * q != n:
            raise ValueError(f"{p} * {q} != {n}")
        if not (3 <= p < q):
            raise ValueError(f"need 3 <= p < q, got p={p}, q={q}")
        for f in (p, q):
            if _trial_factorization(f) != [f]:
                raise ValueError(f"{f} is not prime")
        return super().__new__(cls, n, p, q)


def gcd_conv(a: int, n: int) -> int:
    """Greatest common divisor with the convention gcd_conv(0, n) = n.

    Plain Euclid already satisfies gcd(0, n) = n; the function exists to
    pin that convention down in one audited place.  n must be positive.
    """
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    if a < 0:
        raise ValueError(f"argument must be >= 0, got {a}")
    return math.gcd(a, n)


def nontrivial_divisor(value: int, n: int) -> int | None:
    """gcd(value mod n, n) when it is a proper divisor, 1 < g < n; otherwise None."""
    g = gcd_conv(value % n, n)
    return g if 1 < g < n else None


def count_upper(numerator: int, denominator: int) -> int:
    """Smallest integer strictly greater than numerator/denominator.

    Implemented as floor + 1, so an exact ratio maps to ratio + 1.  For a
    power-of-two numerator and odd denominator > 1 the ratio is never
    integral and this equals the ceiling; it then counts the multiples of
    ``denominator`` in [0, numerator).
    """
    if denominator < 1:
        raise ValueError(f"denominator must be >= 1, got {denominator}")
    if numerator < 1:
        raise ValueError(f"numerator must be >= 1, got {numerator}")
    return numerator // denominator + 1


def _trial_factorization(n: int) -> list[int]:
    """Prime factors of n with multiplicity, ascending. Trial division."""
    out = []
    rem = n
    while rem % 2 == 0:
        out.append(2)
        rem //= 2
    f = 3
    while f * f <= rem:
        while rem % f == 0:
            out.append(f)
            rem //= f
        f += 2
    if rem > 1:
        out.append(rem)
    return out


def factor_semiprime(n: int) -> Semiprime:
    """Validate and split an odd semiprime by trial division.

    Ground truth for oracles and tests only: the simulated algorithms must
    never consult this on their decision path.  Numbers that are even,
    outside 3 .. FACTOR_CAP, prime, a prime power, or carry three or more
    prime factors are rejected with distinct reasons.
    """
    if n % 2 == 0:
        raise NotSemiprimeError(n, "even")
    if n < 3 or n > FACTOR_CAP:
        raise NotSemiprimeError(n, "out-of-range")
    factors = _trial_factorization(n)
    if len(factors) == 1:
        raise NotSemiprimeError(n, "prime")
    if len(set(factors)) == 1:
        raise NotSemiprimeError(n, "prime-power", tuple(factors))
    if len(factors) > 2:
        raise NotSemiprimeError(n, "too-many-factors", tuple(factors))
    return Semiprime(n, factors[0], factors[1])
