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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .numtheory import Semiprime, count_upper, factor_semiprime, gcd_conv, nontrivial_divisor
from .states import Distribution, abs_sq, check_amplitude_cap, sample_cdf
from .trials import DriverResult, TrialRecord, TrialStream, drive


class BranchKind(Enum):
    CASE_N = "n"
    CASE_FACTOR = "factor"
    CASE_UNIT = "unit"


@dataclass(frozen=True)
class BranchOutcome:
    """One of the possible B measurement values with its exact probability."""

    kind: BranchKind
    label: int
    probability: Fraction


@dataclass(frozen=True)
class PeakReport:
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


@dataclass(frozen=True)
class DivisorCandidate:
    """Continued-fraction readout of a measured Fourier bin."""

    denominator: int
    gcd_with_n: int


@dataclass(frozen=True)
class PeakMassBounds:
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


def peak_mass_bounds(s: Semiprime, q_bits: int) -> PeakMassBounds:
    """Analytic lower bounds on the post-Fourier peak masses.

    All bounds carry the 2/pi > 0.4 comb-peak estimate.  For the state
    after a factor measurement f (cofactor c = N/f):

        per factor-comb bin:   0.4 (N - f) / (N f),   total 0.4 (N - f) / N
        per modulus-comb bin:  0.4 f / (N (N - f)),   total 0.4 f / N

    and after a unit measurement, with u = N - p - q + 1 coprime points:

        per p-comb bin 0.4 (q-1)^2 / (N u), per q-comb bin 0.4 (p-1)^2 / (N u),
        per modulus bin 0.4 / (N u),
        factor combs total 0.4 (N q + N p + q + p - 4 N) / (N u).
    """
    n, p, q = s.n, s.p, s.q
    c = Fraction(2, 5)
    unit_count = n - p - q + 1
    return PeakMassBounds(
        factor_peak_per_bin={f: c * (n - f) / (n * f) for f in (p, q)},
        factor_peak_total={f: c * (n - f) / n for f in (p, q)},
        factor_modulus_per_bin={f: c * f / (n * (n - f)) for f in (p, q)},
        factor_modulus_total={f: c * f / n for f in (p, q)},
        unit_peak_per_bin={
            p: c * (q - 1) ** 2 / (n * unit_count),
            q: c * (p - 1) ** 2 / (n * unit_count),
        },
        unit_peak_total={
            p: c * p * (q - 1) ** 2 / (n * unit_count),
            q: c * q * (p - 1) ** 2 / (n * unit_count),
        },
        unit_modulus_per_bin=c / Fraction(n * unit_count),
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


@lru_cache(maxsize=4)
def _unit_cdf(s: Semiprime, q_bits: int) -> np.ndarray:
    """Read-only CDF of the unit branch's spectrum |QFT(coprime comb)|^2.

    Callers check the register and the amplitude cap before each lookup;
    at most four tables of 2**Q floats stay alive, 8 MiB each at Q = 20.
    """
    cdf = np.cumsum(qft_distribution(s, q_bits, 1, allow_small_register=True).probs)
    cdf.setflags(write=False)
    return cdf


def run_trial(
    s: Semiprime,
    q_bits: int,
    rng: TrialStream,
    trial_index: int = 0,
    allow_small_register: bool = False,
) -> TrialRecord:
    """One measurement round.

    Measure B.  A factor label is itself the answer; label N is a retry.
    Label 1 Fourier-transforms the coprime comb, samples one bin, and
    attempts rational reconstruction (rarely useful, but exercised).

    The branch CDF and the unit-spectrum CDF are built once per (N, Q) per
    process and shared by every later trial; the register and cap are
    checked first.
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
    m = sample_cdf(_unit_cdf(s, q_bits), rng)
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
