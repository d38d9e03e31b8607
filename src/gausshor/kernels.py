"""Direct and closed-form evaluation of the Gauss-type sums.

Five families of sums are computed here:

  standard Gauss sum      G(l, N)        = sum_m exp[2*pi*i * m^2 * l / N],
                                           m = 0 .. N-1
  divisor signal          g(l, N)        = |G(l, N)|^2 / N  = gcd(l, N) for odd N
  shifted Gauss sum       W_n(l; N)      = (1/N) sum_m exp[2*pi*i * (m^2*l + m*n) / N]
  two-scale shifted sum   W~_n(l; N, M)  = (1/M) sum_m exp[2*pi*i * (m^2*l/N + m*n/M)],
                                           m = 0 .. M-1
  geometric comb sum      F(alpha; M)    = sum_k exp[2*pi*i * k * alpha], k = 0 .. M-1
  truncated quadratic sum A(l; N, M)     = (1/(M+1)) sum_{m=0..M} exp[2*pi*i * m^2 * N / l]

Direct sums reduce every phase index with exact integer arithmetic before
exponentiation and add the terms with one exactly rounded sum (math.fsum),
so analytic zeros come out at the 1e-13 level and are cleanly separated
from genuinely small values like 1/N.  Closed forms are exact rationals
wherever the inputs admit them.

Every comb value in the package, F at a dyadic alpha and the comb sums of
the branch spectra and the qubit variant, is one folded Dirichlet kernel
(comb_kernel): its sine arguments pi * r / size are reduced in integers to
[-pi/2, pi/2] (sin_pi), so it keeps its relative precision at the zeros
and peaks of the comb.  Both take an int or an int64 array.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .numtheory import Semiprime, gcd_conv

TWO_PI = 2.0 * math.pi


def _fsum(terms: list[complex]) -> complex:
    """Exactly rounded sum of complex terms: math.fsum of each component."""
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))


def _check_odd_modulus(n: int, ell: int) -> None:
    if n < 3 or n % 2 == 0:
        raise ValueError(f"modulus must be odd and >= 3, got {n}")
    if ell < 0:
        raise ValueError(f"trial factor must be >= 0, got {ell}")


@lru_cache(maxsize=512)
def _unit_roots(n: int) -> tuple[complex, ...]:
    """exp(2*pi*i*r/n) for r = 0 .. n-1."""
    return tuple(cmath.exp(2j * math.pi * r / n) for r in range(n))


def eval_G(ell: int, n: int) -> complex:
    """Standard quadratic Gauss sum over one full period.

    For odd n the squared modulus equals n * gcd(ell, n); the sum is still
    evaluated term by term so that identity stays a testable claim.
    """
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    if ell < 0:
        raise ValueError(f"trial factor must be >= 0, got {ell}")
    roots = _unit_roots(n)
    return _fsum([roots[(m * m * ell) % n] for m in range(n)])


def g_of(ell: int, n: int) -> int:
    """Divisor signal |G(ell, n)|^2 / n, via its gcd closed form.

    Only defined here for odd n >= 3: the identity with the gcd is an
    odd-modulus result, and even moduli are deliberately rejected.
    """
    _check_odd_modulus(n, ell)
    return gcd_conv(ell % n, n)


def eval_W(n_shift: int, ell: int, n: int) -> complex:
    """Shifted Gauss sum: quadratic phase plus a linear phase, both mod n.

    Returns (1/n) * sum_m exp[2*pi*i*(m^2*ell + m*n_shift)/n] by direct
    summation over m = 0 .. n-1.
    """
    _check_odd_modulus(n, ell)
    roots = _unit_roots(n)
    return _fsum([roots[(m * m * ell + m * n_shift) % n] for m in range(n)]) / n


def closed_W_sq(n_shift: int, ell: int, s: Semiprime) -> Fraction:
    """Exact |W_n(l)|^2 for a semiprime modulus, as a rational.

    Case table, with d = gcd(l, N) (where gcd(0, N) = N) and
    f in {p, q} a prime factor:

        d = 1                         ->  1/N
        d = f and f divides n_shift   ->  f/N
        d = f and f does not          ->  0
        d = N and n_shift = 0         ->  1     (pure linear phase, all terms unity)
        d = N and n_shift != 0        ->  0     (full geometric sum cancels)

    The d = N row is forced by direct evaluation: at l = 0 (mod N) the sum
    degenerates to (1/N) sum_m exp[2*pi*i*m*n_shift/N].
    """
    n = s.n
    if not (0 <= ell and 0 <= n_shift < n):
        raise ValueError("need 0 <= n_shift < n and ell >= 0")
    d = gcd_conv(ell % n, n)
    if d == n:
        return Fraction(1) if n_shift % n == 0 else Fraction(0)
    if d == 1:
        return Fraction(1, n)
    # d is one of the prime factors
    if n_shift % d == 0:
        return Fraction(d, n)
    return Fraction(0)


def eval_W_tilde(n_shift: int, ell: int, n: int, m_terms: int) -> complex:
    """Two-scale shifted sum: quadratic phase mod n, linear phase mod m_terms.

    (1/M) sum_{m=0}^{M-1} exp[2*pi*i*(m^2*ell/n + m*n_shift/M)], evaluated
    exactly by direct summation; phase indices are reduced modulo
    lcm(n, M) in integer arithmetic.  With M = n this reduces to eval_W.
    """
    _check_odd_modulus(n, ell)
    if m_terms < 1:
        raise ValueError(f"term count must be >= 1, got {m_terms}")
    lcm = math.lcm(n, m_terms)
    qmul, lmul = lcm // n, lcm // m_terms
    return _fsum([
        cmath.exp((TWO_PI * ((m * m * ell * qmul + m * n_shift * lmul) % lcm) / lcm) * 1j)
        for m in range(m_terms)
    ]) / m_terms


def eval_F(alpha: float, m_terms: int) -> complex:
    """Geometric comb sum sum_{k=0}^{M-1} exp[2*pi*i*k*alpha] by direct summation."""
    if m_terms < 1:
        raise ValueError(f"term count must be >= 1, got {m_terms}")
    return _fsum([cmath.exp((TWO_PI * ((k * alpha) % 1.0)) * 1j) for k in range(m_terms)])


def sin_pi(r, size: int):
    """sin(pi r / size) of an integer r, folded in integers to an argument in [-pi/2, pi/2].

    r moves by h half turns to r - h * size in [-size/2, size/2), h the
    nearest integer to r / size, and the sine takes the sign (-1)**h.  At a
    zero of the sine at a nonzero multiple of pi, the unfolded argument
    would carry the rounding of pi and lose the sine's relative precision.
    An int64 array r gives the array of sines (np.sin); an int, math.sin's.
    """
    h = (2 * r + size) // (2 * size)
    r = (r - h * size) * (1 - h % 2 * 2)
    sin = np.sin if isinstance(r, np.ndarray) else math.sin
    return sin(math.pi * r / size)


def half_turn(r, size: int):
    """exp(i pi r / size) of an integer r (or int64 array), size even, from two folded sines."""
    return sin_pi(r + size // 2, size) + 1j * sin_pi(r, size)


def comb_kernel(count: int, j, size: int):
    """The comb sum sum_{k < count} exp(2 pi i k j / size) of an integer j (or int64 array), size even.

    The Dirichlet form exp(i pi (count - 1) j / size) sin(pi count j / size)
    / sin(pi j / size), every sine folded by sin_pi.  At j = 0 mod size
    both sines are exactly 0 and the sum is count, taken as
    (0 + count) / (0 + 1), so an array j needs no branch.
    """
    turn = (count - 1) * j
    den = sin_pi(j, size)
    zero = den == 0
    kernel = (sin_pi(count * j, size) + count * zero) / (den + zero)
    # half_turn(turn, size), inlined: UnitSpectrum.weigh makes three kernel calls per proposal
    return kernel * (sin_pi(turn + size // 2, size) + 1j * sin_pi(turn, size))


def eval_F_closed(alpha: float, m_terms: int) -> complex:
    """Closed form of the geometric comb sum, from its exact dyadic value alpha = j / 2**e.

    The sum is comb_kernel(M, j, 2**e), so M * alpha and (M - 1) * alpha
    are reduced exactly; only an exactly integral alpha is the branch that
    returns M.  Past a 2**960 denominator (|alpha| < 2**-907), where the
    argument pi * r / 2**e leaves the float range, the sine ratio is M to
    double precision for M < 2**800 and only the phase is kept.
    """
    if m_terms < 1:
        raise ValueError(f"term count must be >= 1, got {m_terms}")
    j, size = Fraction(alpha).as_integer_ratio()
    if size == 1:
        return complex(m_terms)
    if size > 1 << 960:
        return m_terms * cmath.exp(1j * math.pi * (m_terms - 1) * alpha)
    return comb_kernel(m_terms, j, size)


def eval_truncated(ell: int, n: int, m_terms: int) -> complex:
    """Truncated quadratic sum (1/(M+1)) sum_{m=0}^{M} exp[2*pi*i*m^2*n/ell].

    The trial factor sits in the denominator of the phase, so ell = 0 is
    rejected.  Equals 1 exactly whenever ell divides n.
    """
    if ell < 1:
        raise ValueError(f"trial factor must be >= 1, got {ell}")
    if n < 1 or m_terms < 0:
        raise ValueError("need n >= 1 and m_terms >= 0")
    terms = [cmath.exp((TWO_PI * ((m * m * n) % ell) / ell) * 1j) for m in range(m_terms + 1)]
    return _fsum(terms) / (m_terms + 1)
