"""Factoring by measuring the divisor signal of an entangled register pair.

The joint state puts register A in a uniform superposition of 2**Q trial
factors and stores in B the divisor signal g(l, N) = gcd(l, N), which for
a semiprime N = p*q only ever takes the four values {1, p, q, N}.  B is
therefore held as a four-label register.  Measuring B leaves A in a comb
state whose support is

    label N : multiples of N,
    label p : multiples of p that are not multiples of N (likewise q),
    label 1 : everything coprime to N,

and the Fourier transform of a comb concentrates near multiples of
2**Q / period.  Rational reconstruction of those peak positions by
continued fractions recovers the period, uniquely so once 2**Q > N**2.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .kernels import comb_kernel
from .numtheory import Semiprime, count_upper, factor_semiprime, gcd_conv, nontrivial_divisor
from .states import Distribution, abs_sq, check_amplitude_cap, sample_cdf
from .trials import DriverResult, TrialRecord, TrialStream, drive


class BranchKind(Enum):
    CASE_N = "n"
    CASE_FACTOR = "factor"
    CASE_UNIT = "unit"


class BranchOutcome(NamedTuple):
    """One of the possible B measurement values with its exact probability."""

    kind: BranchKind
    label: int
    probability: Fraction


class PeakReport(NamedTuple):
    """Where a Fourier comb put its mass relative to a candidate period.

    positions are the bins nearest j * 2**Q / period for j = 1 .. period-1
    (the j = 0 DC bin is reported separately); mass is their total
    probability.  max_off_structure is the tallest bin at a modulus-comb
    position that does not coincide with a period position.
    """

    period: int
    positions: tuple[int, ...]
    mass: float
    dc_mass: float
    max_on_peak: float
    max_off_structure: float


class DivisorCandidate(NamedTuple):
    """Continued-fraction readout of a measured Fourier bin."""

    denominator: int
    gcd_with_n: int


class PeakMassBounds(NamedTuple):
    """Analytic lower bounds on peak masses, as exact rationals.

    ``factor_*`` entries describe the state after measuring a factor label
    f (keyed by f); ``unit_*`` entries describe the state after measuring
    label 1.  ``*_per_bin`` bounds hold for each single peak bin,
    ``*_total`` for the mass summed over a full family of peaks.
    """

    factor_peak_per_bin: dict[int, Fraction]
    factor_peak_total: dict[int, Fraction]
    factor_modulus_per_bin: dict[int, Fraction]
    factor_modulus_total: dict[int, Fraction]
    unit_peak_per_bin: dict[int, Fraction]
    unit_peak_total: dict[int, Fraction]
    unit_modulus_per_bin: Fraction
    unit_factor_total: Fraction


def min_register_bits(n: int) -> int:
    """Smallest Q with 2**Q > n**2, the unique-reconstruction threshold."""
    return (n * n).bit_length()


def _check_register(s: Semiprime, q_bits: int, allow_small_register: bool) -> None:
    if q_bits < 1:
        raise ValueError(f"register size must be >= 1 bit, got {q_bits}")
    if not allow_small_register and (1 << q_bits) <= s.n * s.n:
        raise ValueError(
            f"2**{q_bits} <= {s.n}**2: peak positions are not uniquely "
            "decodable; pass allow_small_register to run anyway"
        )


def b_labels(s: Semiprime) -> tuple[int, int, int, int]:
    """Divisor-signal values in register order: (1, p, q, N)."""
    return (1, s.p, s.q, s.n)


def branch_probs(
    s: Semiprime, q_bits: int, allow_small_register: bool = False
) -> list[BranchOutcome]:
    """Exact measurement probabilities of the four B labels, from comb counts.

    With M_x = count_upper(2**Q, x) the counts are M_N multiples of N,
    M_p - M_N proper multiples of p, M_q - M_N of q, and the coprime rest.
    The four probabilities sum to exactly 1.
    """
    _check_register(s, q_bits, allow_small_register)
    size = 1 << q_bits
    m_n = count_upper(size, s.n)
    m_p = count_upper(size, s.p)
    m_q = count_upper(size, s.q)
    return [
        BranchOutcome(BranchKind.CASE_N, s.n, Fraction(m_n, size)),
        BranchOutcome(BranchKind.CASE_FACTOR, s.p, Fraction(m_p - m_n, size)),
        BranchOutcome(BranchKind.CASE_FACTOR, s.q, Fraction(m_q - m_n, size)),
        BranchOutcome(
            BranchKind.CASE_UNIT, 1, Fraction(size - m_p - m_q + m_n, size)
        ),
    ]


def post_state(
    s: Semiprime, q_bits: int, label: int, allow_small_register: bool = False
) -> np.ndarray:
    """Normalized real A vector after B was measured with the given label.

    label must be one of (1, p, q, N).  Support: multiples of N for label N;
    multiples of f except multiples of N for a factor label f; everything
    coprime to N for label 1.  An empty support (a register too small to
    hold any of its points) raises ValueError.
    """
    _check_register(s, q_bits, allow_small_register)
    if label not in b_labels(s):
        raise ValueError(f"label {label} is not one of {b_labels(s)}")
    size = 1 << q_bits
    check_amplitude_cap(size)
    if label == 1:
        comb = np.ones(size)
        comb[:: s.p] = comb[:: s.q] = 0.0
    else:
        comb = np.zeros(size)
        comb[::label] = 1.0
        comb[:: s.n] = label == s.n  # a factor comb drops the multiples of N
    support = int(np.sum(comb))
    if support == 0:
        raise ValueError(f"no l < 2**{q_bits} has divisor signal {label}")
    comb /= math.sqrt(support)
    return comb


def qft_distribution(
    s: Semiprime, q_bits: int, label: int, allow_small_register: bool = False
) -> Distribution:
    """|QFT(post state)|^2 over the 2**Q output bins, from one real FFT.

    The comb is real, so its +i-kernel spectrum at bin m is the conjugate of
    rfft's at m and |QFT|^2 is mirror-symmetric, P(m) = P(2**Q - m): bins
    0 .. 2**Q/2 are |rfft|^2 / 2**Q and bins 1 .. 2**Q/2 - 1 are mirrored
    into the upper half.  The comb and its spectrum are temporaries, freed
    as soon as they are used, so at most two register vectors are alive.
    """
    half = abs_sq(np.fft.rfft(post_state(s, q_bits, label, allow_small_register)))
    half /= 1 << q_bits
    return Distribution(np.concatenate((half, half[-2:0:-1])))


def peak_bin(j: int, period: int, q_bits: int) -> int:
    """The bin nearest j * 2**Q / period; an exact half-integer rounds up."""
    return (2 * j * (1 << q_bits) + period) // (2 * period)


def peak_positions(period: int, q_bits: int) -> tuple[int, ...]:
    """Bins nearest j * 2**Q / period for j = 1 .. period-1, reduced mod 2**Q.

    Exact half-integer offsets round half-up; duplicates collapse.  Bin 0
    is excluded (callers report it as the DC bin); it and bin 2**Q, which
    wraps to it, only arise when 2**Q <= period / 2.
    """
    size = 1 << q_bits
    bins = {peak_bin(j, period, q_bits) % size for j in range(1, period)}
    bins.discard(0)
    return tuple(sorted(bins))


def analyze_peaks(dist: Distribution, period: int, q_bits: int, modulus: int) -> PeakReport:
    """Measure how much probability sits on the comb of a candidate period.

    ``modulus`` (usually the number under test) fixes the reference comb
    for the off-structure comparison: the tallest bin at a modulus-comb
    position that is not also a period position.
    """
    size = 1 << q_bits
    if len(dist.probs) != size:
        raise ValueError(f"distribution has {len(dist.probs)} bins, expected {size}")
    positions = peak_positions(period, q_bits)
    on = dist.probs[list(positions)]
    mass = float(np.sum(on))
    max_on = float(np.max(on)) if len(on) else 0.0
    on_bins = set(positions)
    off_bins = [b for b in peak_positions(modulus, q_bits) if b not in on_bins]
    max_off = float(np.max(dist.probs[off_bins])) if off_bins else 0.0
    return PeakReport(
        period=period,
        positions=positions,
        mass=mass,
        dc_mass=float(dist.probs[0]),
        max_on_peak=max_on,
        max_off_structure=max_off,
    )


def _comb_amplitude_floor(
    s: Semiprime, q_bits: int, period: int, cofactors: tuple[int, ...], nested: int = 0
) -> Fraction:
    """Lower bound on |X_P - sum_d X_d| at a P-comb bin that no d-comb shares, P = period.

    X_d is the comb sum over the multiples of d below 2**Q = M; each d here
    has its cofactor c = N/d in cofactors.  At the bin m nearest a M / P,
    t = P m - a M has |t| <= P/2, so with K = (M - 1)//P + 1 points,
    |X_P| = |sin(pi K t / M) / sin(pi t / M)| >= (2/pi)(2M/P - K) by
    sin(pi x) >= 2 min(x, 1 - x) on [0, 1].  As no d-comb shares the bin,
    d a M / P is a nonzero multiple of M / c mod M, so d m lies at least
    M/c - d/2 = (2M - N)/(2c) from a multiple of M and |X_d| <= c M / (2M - N).
    A comb that does share the bin is subtracted whole, as nested, its point
    count.  2/pi > 7/11; the floor is 0 unless 2**Q > N.
    """
    size, n = 1 << q_bits, s.n
    if size <= n:
        return Fraction(0)
    comb = Fraction(2 * size, period) - count_upper(size, period)
    leak = Fraction(sum(cofactors) * size, 2 * size - n)
    return max(Fraction(0), Fraction(7, 11) * comb - nested - leak)


def peak_mass_bounds(s: Semiprime, q_bits: int) -> PeakMassBounds:
    """Analytic lower bounds on the post-Fourier peak masses.

    The bounds on factor-comb peaks and on totals carry the 2/pi > 0.4
    comb-peak estimate.  For the state after a factor measurement f
    (cofactor c = N/f):

        per factor-comb bin:   0.4 (N - f) / (N f),   total 0.4 (N - f) / N
        modulus-comb total:    0.4 f / N

    and after a unit measurement, with u = N - p - q + 1 coprime points:

        p-comb total 0.4 p (q-1)^2 / (N u), q-comb total 0.4 q (p-1)^2 / (N u),
        factor combs total 0.4 (N q + N p + q + p - 4 N) / (N u).

    A single bin is bounded with its finite-K and interference terms
    (_comb_amplitude_floor).  After a factor measurement, a modulus-comb bin
    off the f-comb has A**2 / (2**Q (K_f - K_N)), with A the floor against
    X_f.  After a unit one, with S the coprime comb's point count, an f-comb
    bin has A**2 / (2**Q S), with A the floor of X_f against the other
    prime's comb and the nested N-comb, and a modulus-comb bin off both
    factor combs has A**2 / (2**Q S), with A the floor against X_p and X_q.
    All three are 0 when 2**Q <= N.
    """
    n, p, q = s.n, s.p, s.q
    c = Fraction(2, 5)
    size = 1 << q_bits
    unit_count = n - p - q + 1
    counts = {d: count_upper(size, d) for d in (p, q, n)}
    coprime = size - counts[p] - counts[q] + counts[n]
    return PeakMassBounds(
        factor_peak_per_bin={f: c * (n - f) / (n * f) for f in (p, q)},
        factor_peak_total={f: c * (n - f) / n for f in (p, q)},
        factor_modulus_per_bin={
            f: _comb_amplitude_floor(s, q_bits, n, (n // f,)) ** 2
            / (size * (counts[f] - counts[n]))
            for f in (p, q)
        },
        factor_modulus_total={f: c * f / n for f in (p, q)},
        unit_peak_per_bin={
            f: _comb_amplitude_floor(s, q_bits, f, (f,), counts[n]) ** 2 / (size * coprime)
            for f in (p, q)
        },
        unit_peak_total={
            p: c * p * (q - 1) ** 2 / (n * unit_count),
            q: c * q * (p - 1) ** 2 / (n * unit_count),
        },
        unit_modulus_per_bin=_comb_amplitude_floor(s, q_bits, n, (q, p)) ** 2 / (size * coprime),
        unit_factor_total=c * (n * q + n * p + q + p - 4 * n) / (n * unit_count),
    )


def recover_divisor(m: int, q_bits: int, n: int) -> DivisorCandidate:
    """Decode a measured Fourier bin into a divisor candidate.

    Runs the continued-fraction expansion of m / 2**Q and keeps the last
    convergent with denominator <= n; successive convergents lie strictly
    closer to m / 2**Q, so it is also the closest one.  The caller
    inspects gcd(denominator, n): a value strictly between 1 and n is a
    factor, anything else means retry.  m = 0 (the DC bin) carries no
    period information and is rejected.
    """
    size = 1 << q_bits
    if not (0 < m < size):
        raise ValueError(f"bin index must be in (0, {size}), got {m}")
    if n < 1:
        raise ValueError(f"no convergent of {m}/{size} has denominator <= {n}")
    d = 1  # denominator of the first convergent, 0/1
    num, den = m, size
    k_prev, k = 1, 0  # convergent denominators
    while den != 0:
        a = num // den
        num, den = den, num - a * den
        k_prev, k = k, a * k + k_prev
        if k > n:
            break
        d = k
    return DivisorCandidate(denominator=d, gcd_with_n=gcd_conv(d, n))


@lru_cache(maxsize=4)
def _branch_table(s: Semiprime, q_bits: int) -> tuple[tuple[BranchOutcome, ...], np.ndarray]:
    """The four branches of a validated (N, Q) and the read-only CDF of their masses."""
    branches = tuple(branch_probs(s, q_bits, allow_small_register=True))
    cdf = np.cumsum([float(b.probability) for b in branches])
    cdf.setflags(write=False)
    return branches, cdf


# 1 - 4/pi**2: the supremum of 1/sin(x)**2 - 1/x**2 over (0, pi/2], where it increases
_SIN_EXCESS = 1.0 - 4.0 / math.pi**2


class _Comb(NamedTuple):
    """One comb sum X_d(m) = sum_{k < count} exp(2 pi i k j / 2**Q), j = d m mod 2**Q.

    Its envelope e(a) >= |X_d|^2 depends on the folded offset a = min(j, 2**Q - j):
    count**2 on the core a <= core, and past it the Pareto term
    scale / (a**2 - 1/4) plus the flat _SIN_EXCESS, since
    |X_d| <= 1/sin(pi a / 2**Q) and 1/sin(x)**2 <= 1/x**2 + _SIN_EXCESS.
    The masses are those of a = 1 .. 2**Q/2; weight is sqrt of the mass over
    both signs of the offset.
    """

    d: int
    sign: int  # +1 for N, -1 for p and q
    count: int
    inverse: int  # d**-1 mod 2**Q
    core: int
    height: float  # count**2
    scale: float  # 2**(2Q) / pi**2
    core_mass: float
    tail_mass: float
    mass: float
    weight: float

    @classmethod
    def build(cls, d: int, sign: int, size: int) -> _Comb:
        half = size // 2
        count = count_upper(size, d)
        height = float(count * count)
        # the core ends about where count**2 meets the tail, which keeps the mass least
        core = min(half, int(size / (math.pi * math.sqrt(height - _SIN_EXCESS))))
        scale = size * size / math.pi**2
        core_mass = core * height
        tail_mass = scale * (1 / (core + 0.5) - 1 / (half + 0.5))
        mass = core_mass + tail_mass + _SIN_EXCESS * (half - core)
        return cls(d, sign, count, pow(d, -1, size), core, height, scale,
                   core_mass, tail_mass, mass, math.sqrt(2 * mass))

    def offset(self, v: float, half: int) -> int:
        """The offset a in 1 .. half whose envelope mass, summed from a = 1, first exceeds v."""
        if v < self.core_mass:
            return min(self.core, 1 + int(v / self.height))
        v -= self.core_mass
        if v < self.tail_mass:  # invert scale * (1/(core + 1/2) - 1/(a + 1/2))
            y = 1 / (self.core + 0.5) - v / self.scale
            return min(half, max(self.core + 1, int(1 / y + 0.5)))
        return min(half, self.core + 1 + int((v - self.tail_mass) / _SIN_EXCESS))


class UnitSpectrum:
    """The unit branch's Fourier law in closed form, drawn from with O(1) memory.

    The coprime comb 1 - 1_p - 1_q + 1_N on [0, 2**Q) has S points, and its
    QFT at bin m is F(m) / sqrt(2**Q S) with F(0) = S and, for m != 0,
    F(m) = X_N(m) - X_p(m) - X_q(m), where X_d sums the K_d = (2**Q - 1)//d + 1
    terms of the d-comb: with j = d m mod 2**Q,

        X_d(m) = exp(i pi (K_d - 1) j / 2**Q) sin(pi K_d j / 2**Q) / sin(pi j / 2**Q).

    So P(0) = S / 2**Q exactly.  A bin m != 0 is drawn by rejection: by
    weighted Cauchy-Schwarz, |F|**2 <= W sum_d e_d / w_d with w_d the weight
    of comb d's envelope and W their sum.  A proposal picks comb d with
    probability w_d / W, a signed offset +-a from e_d, and m = +-a d**-1 mod
    2**Q; it is accepted with probability |F(m)|**2 over that bound.  The
    offset 2**Q/2 is reached from both signs, so its envelope counts twice.
    About W**2 / (S (2**Q - S)) proposals are made per draw: 5.1 at
    (35, 11), 3.4 at (899, 20).
    """

    def __init__(self, s: Semiprime, q_bits: int):
        self.size = size = 1 << q_bits
        signed = ((s.n, 1), (s.p, -1), (s.q, -1))
        self.combs = tuple(_Comb.build(d, sign, size) for d, sign in signed)
        self.coprime = size + sum(c.sign * c.count for c in self.combs)
        self.total = sum(c.weight for c in self.combs)

    def weigh(self, m: int) -> tuple[float, float]:
        """|F(m)|**2 and the envelope that bounds it, for a bin 0 < m < 2**Q."""
        size, half = self.size, self.size // 2
        f, envelope = 0j, 0.0
        for c in self.combs:
            j = c.d * m % size
            a = min(j, size - j)
            e = c.height if a <= c.core else c.scale / (a * a - 0.25) + _SIN_EXCESS
            envelope += (2 * e if a == half else e) / c.weight
            f += c.sign * comb_kernel(c.count, j, size)
        return f.real * f.real + f.imag * f.imag, self.total * envelope

    def probability(self, m: int) -> float:
        """P(m) of the unit branch's spectrum, 0 <= m < 2**Q."""
        if m == 0:
            return self.coprime / self.size
        return self.weigh(m)[0] / (self.size * self.coprime)

    def draw(self, rng: TrialStream) -> int:
        """One bin of the spectrum: one uniform for the DC bin, two per proposal after it."""
        size = self.size
        if rng.random() * size < self.coprime:
            return 0
        while True:
            u = rng.random() * self.total
            for c in self.combs:
                if u < c.weight:
                    break
                u -= c.weight
            v, inverse = u / c.weight * 2 * c.mass, c.inverse
            if v >= c.mass:
                v, inverse = v - c.mass, -inverse
            m = c.offset(v, size // 2) * inverse % size
            power, envelope = self.weigh(m)
            if rng.random() * envelope < power:
                return m


@lru_cache(maxsize=4)
def _unit_spectrum(s: Semiprime, q_bits: int) -> UnitSpectrum:
    """The UnitSpectrum of a validated (N, Q), shared by every trial in the process."""
    return UnitSpectrum(s, q_bits)


def run_trial(
    s: Semiprime,
    q_bits: int,
    rng: TrialStream,
    trial_index: int = 0,
    allow_small_register: bool = False,
) -> TrialRecord:
    """One measurement round.

    Measure B.  A factor label is itself the answer; label N is a retry.
    Label 1 samples one bin of the coprime comb's Fourier spectrum and
    attempts rational reconstruction (rarely useful, but exercised).

    The bin is drawn from the spectrum's closed form (UnitSpectrum), so no
    trial allocates a register vector.  The branch CDF and the UnitSpectrum
    constants are built once per (N, Q) per process and shared by every
    later trial; the register and cap are checked first, so the register
    stays bounded as if the state were simulated.
    """
    _check_register(s, q_bits, allow_small_register)
    check_amplitude_cap(1 << q_bits)
    branches, branch_cdf = _branch_table(s, q_bits)
    branch = branches[sample_cdf(branch_cdf, rng)]
    if branch.kind is BranchKind.CASE_FACTOR:
        return TrialRecord(trial_index, branch.label, factor=branch.label)
    if branch.kind is BranchKind.CASE_N:
        return TrialRecord(trial_index, branch.label)
    # unit branch: QFT, sample, reconstruct
    m = _unit_spectrum(s, q_bits).draw(rng)
    if m == 0:
        return TrialRecord(trial_index, branch.label, outcome_a=0)
    cand = recover_divisor(m, q_bits, s.n)
    return TrialRecord(
        trial_index,
        branch.label,
        outcome_a=m,
        candidate=cand.denominator,
        factor=nontrivial_divisor(cand.denominator, s.n),
    )


def factor_driver(
    n: int,
    q_bits: int,
    max_trials: int,
    seed: int,
    allow_small_register: bool = False,
) -> DriverResult:
    """Repeat trials until some trial reports a factor or the budget runs out.

    Checks the register and cap even for max_trials = 0; trials share the
    per-process (N, Q) tables of run_trial, so a repeat call builds none.
    No call allocates anything of the register's size.
    """
    s = factor_semiprime(n)
    _check_register(s, q_bits, allow_small_register)
    check_amplitude_cap(1 << q_bits)
    return drive(
        n,
        max_trials,
        seed,
        lambda t, rng: run_trial(s, q_bits, rng, t, allow_small_register),
    )
