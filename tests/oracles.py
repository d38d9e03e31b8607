"""Independent brute-force oracles for the test suite.

Everything here is deliberately written against the raw definitions with
plain cmath loops and no shared code with the package numerics: no root
tables, no FFT, and plain sums, except that comb_sum_exact and
qubit_column_direct, whose sums fall far below the size of their terms,
add with math.fsum.  Phase integers are reduced exactly before
exponentiation so analytic zeros survive.  The one closed
form evaluated over whole registers, branch_spectrum_closed, does the same
integer reduction elementwise in numpy, so that 2**20 bins take a second.
"""

import cmath
import math

import numpy as np

TAU = 2.0 * math.pi


def gauss_sum_direct(ell: int, n: int) -> complex:
    return sum(cmath.exp(1j * TAU * ((m * m * ell) % n) / n) for m in range(n))


def shifted_sum_direct(n0: int, ell: int, n: int) -> complex:
    total = sum(
        cmath.exp(1j * TAU * ((m * m * ell + m * n0) % n) / n) for m in range(n)
    )
    return total / n


def two_scale_direct(n0: int, ell: int, n: int, m_terms: int) -> complex:
    lcm = math.lcm(n, m_terms)
    total = sum(
        cmath.exp(1j * TAU * ((m * m * ell * (lcm // n) + m * n0 * (lcm // m_terms)) % lcm) / lcm)
        for m in range(m_terms)
    )
    return total / m_terms


def comb_sum_direct(alpha: float, m_terms: int) -> complex:
    return sum(cmath.exp(1j * TAU * k * alpha) for k in range(m_terms))


def comb_sum_exact(alpha: float, m_terms: int) -> complex:
    """sum_{k < M} exp(2*pi*i*k*alpha) at alpha's exact dyadic value num / den.

    Each k * num is reduced mod den in integers to the nearest residue, so
    every phase lies in [-pi, pi], and the terms are added by math.fsum.
    """
    num, den = alpha.as_integer_ratio()
    terms = []
    for k in range(m_terms):
        r = (k * num) % den
        terms.append(cmath.exp(1j * TAU * (r - den if 2 * r > den else r) / den))
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))


def truncated_sum_direct(ell: int, n: int, m_terms: int) -> complex:
    total = sum(
        cmath.exp(1j * TAU * ((m * m * n) % ell) / ell) for m in range(m_terms + 1)
    )
    return total / (m_terms + 1)


def dft_plus(vec) -> list[complex]:
    """Naive O(D^2) transform with the +i kernel and 1/sqrt(D) prefactor."""
    d = len(vec)
    root = 1.0 / math.sqrt(d)
    return [
        root * sum(vec[l] * cmath.exp(1j * TAU * m * l / d) for l in range(d))
        for m in range(d)
    ]


def pb_brute(n: int) -> list[float]:
    """B marginal of the exact superposition run, straight from the sums."""
    return [
        sum(abs(shifted_sum_direct(n0, ell, n)) ** 2 for ell in range(n)) / n
        for n0 in range(n)
    ]


def purity_brute(n: int) -> float:
    return sum(abs(gauss_sum_direct(ell, n)) ** 2 for ell in range(n)) / n**3


def qubit_comb_mass_direct(n: int, q_bits: int) -> float:
    """B mass of the power-of-two-register run on the nearest-bin comb of 2**Q/N.

    P_B(n0) = (1/M) sum_l |(1/M) sum_{m<M} exp[2*pi*i*(m^2 l / N + m n0 / M)]|^2
    with M = 2**Q.  The phase depends on l and on m^2 only through their
    residues mod N, so the l-sum folds into N classes of (M - 1 - r)//N + 1
    rows each, and the m-sum into N classes s, each carrying the closed
    geometric comb sum_{k < c_s} exp[2*pi*i*k*N*n0/M] over its c_s terms.
    The comb is the nearest bin (2*j*M + N)//(2*N) of each j*M/N, j < N.
    """
    size = 1 << q_bits
    lcm = n * size
    counts = [(size - 1 - r) // n + 1 for r in range(n)]
    bins = {(2 * j * size + n) // (2 * n) for j in range(n)}
    total = 0.0
    for n0 in bins:
        step = (n * n0) % size
        combs = []
        for c in counts:
            if step == 0:
                combs.append(complex(c))
            else:
                half_turns = ((c - 1) * step) % (2 * size)
                ratio = (
                    math.sin(math.pi * ((c * step) % (2 * size)) / size)
                    / math.sin(math.pi * step / size)
                )
                combs.append(cmath.exp(1j * math.pi * half_turns / size) * ratio)
        for ell in range(n):
            amp = sum(
                combs[s] * cmath.exp(1j * TAU * ((s * s * ell * size + s * n0 * n) % lcm) / lcm)
                for s in range(n)
            )
            total += counts[ell] * abs(amp / size) ** 2
    return total / size


def _root(r: int, size: int) -> complex:
    """exp(2*pi*i*r/size): q quarter turns, q nearest 4r/size, times a rest within an eighth of a turn."""
    q = (8 * r + size) // (2 * size)
    z = cmath.exp(1j * (math.pi / 2) * (4 * r - q * size) / size)
    for _ in range(q % 4):
        z = complex(-z.imag, z.real)  # exactly i * z
    return z


def qubit_column_direct(n: int, q_bits: int, n0: int) -> list[float]:
    """|A_r(n0)|^2 / M for the residues r < N, with M = 2**Q and
    A_r(n0) = (1/M) sum_{m<M} exp[2*pi*i*(m^2 r / N + m n0 / M)].

    The sum over m is taken class by class, m = t (mod N): the quadratic
    phase depends on t only, so each class adds its linear phases
    exp(2*pi*i*m*n0/M) with one math.fsum, and each residue adds its N
    class sums times exp(2*pi*i*t^2*r/N) with another.  Every phase is
    _root's, reduced in integers to within an eighth of a turn.
    """
    size = 1 << q_bits
    classes = []
    for t in range(n):
        terms = [_root(m * n0, size) for m in range(t, size, n)]
        classes.append(complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms)))
    col = []
    for r in range(n):
        terms = [_root(t * t * r, n) * classes[t] for t in range(n)]
        amp = complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms)) / size
        col.append(abs(amp) ** 2 / size)
    return col


def comb_post_state_direct(n: int, q_bits: int, label: int) -> list[float]:
    """A amplitudes left after reading divisor signal `label` = gcd(l, N) off B.

    Support is every l < 2**Q with math.gcd(l, N) == label (gcd(0, N) = N),
    each at amplitude 1/sqrt(support size).
    """
    size = 1 << q_bits
    support = [ell for ell in range(size) if math.gcd(ell, n) == label]
    amp = 1 / math.sqrt(len(support))
    vec = [0.0] * size
    for ell in support:
        vec[ell] = amp
    return vec


def branch_masses_direct(n: int, q_bits: int) -> dict[int, int]:
    """How many l < 2**Q read each divisor signal math.gcd(l, N) off B (gcd(0, N) = N)."""
    counts: dict[int, int] = {}
    for ell in range(1 << q_bits):
        g = math.gcd(ell, n)
        counts[g] = counts.get(g, 0) + 1
    return counts


def _sin_pi_folded(r, size: int):
    """sin(pi r / size) of integers r, folded exactly to arguments in [-pi/2, pi/2]."""
    r = r % (2 * size)
    r = np.where(r > size, r - 2 * size, r)
    r = np.where(2 * r > size, size - r, r)
    r = np.where(2 * r < -size, -size - r, r)
    return np.sin(np.pi * r / size)


def branch_spectrum_closed(n: int, q_bits: int, label: int) -> np.ndarray:
    """|QFT|^2 of the A register after B read `label`, at every bin, from Dirichlet kernels.

    The label's comb on [0, 2**Q) is a signed sum of the d-combs 1_d (d | l):
    1 - 1_p - 1_q + 1_N for label 1, 1_f - 1_N for a factor f, 1_N for N.
    The d-comb has K = (2**Q - 1)//d + 1 points and its +i-kernel sum at bin m
    is exp(i pi (K - 1) j / 2**Q) sin(pi K j / 2**Q) / sin(pi j / 2**Q), with
    j = d m mod 2**Q (K at j = 0).  The squared modulus of the signed sum,
    over 2**Q times the comb's point count, is the bin's probability.
    """
    p = next(d for d in range(3, n, 2) if n % d == 0)
    terms = {1: {1: 1, p: -1, n // p: -1, n: 1}, n: {n: 1}}.get(label, {label: 1, n: -1})
    size = 1 << q_bits
    m = np.arange(size, dtype=np.int64)
    amp = np.zeros(size, dtype=complex)
    points = 0
    for d, coeff in terms.items():
        count = (size - 1) // d + 1
        points += coeff * count
        j = d * m % size
        nonzero = np.where(j == 0, 1, j)
        kernel = np.where(
            j == 0, count, _sin_pi_folded(count * nonzero, size) / _sin_pi_folded(nonzero, size)
        )
        turn = (count - 1) * j
        phase = _sin_pi_folded(turn + size // 2, size) + 1j * _sin_pi_folded(turn, size)
        amp += coeff * kernel * phase
    return (amp.real**2 + amp.imag**2) / (size * points)
