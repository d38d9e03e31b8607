"""Independent brute-force oracles for the test suite.

Everything here is deliberately written against the raw definitions with
plain cmath loops and no shared code with the package numerics: no root
tables, no compensated accumulation, no FFT.  Phase integers are reduced
exactly before exponentiation so analytic zeros survive.
"""

import cmath
import math

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
