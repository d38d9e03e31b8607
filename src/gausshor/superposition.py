"""Factoring by interfering shifted Gauss sums in the amplitudes.

Two uniform registers of size N are entangled by the quadratic-phase
unitary and the B register is Fourier transformed, leaving the joint
amplitudes proportional to the shifted Gauss sums W_n(l).  Measuring B
then hands A a distribution over trial factors whose enhanced points (or
exact zeros) mark the divisors of N.

The exact run materializes the N x N grid in one pass.  The qubit variant
works on two registers of size 2**Q > N**2 instead; its grid is never
materialized, and a qubit run carries no B marginal until one is asked
for, so a report on the conditional column alone never builds it.  Its
amplitudes depend on the A index l only through the residue l mod N, so
the marginal takes N residue rows, each one FFT of a quadratic-phase
vector, and weights each by the number of register rows that share its
residue.  Residues are processed in fixed blocks, in ascending order, so
results do not depend on how the work is scheduled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .kernels import eval_W
from .numtheory import Semiprime, factor_semiprime, gcd_conv, nontrivial_divisor
from .states import (
    BipartiteState,
    Distribution,
    StateIntegrityError,
    abs_sq,
    check_amplitude_cap,
    conditional_a,
    marginal_b,
    phase_roots,
    quadratic_phase_grid,
    row_blocks,
    sample_cdf,
    sample_outcome,
)
from .trials import DriverResult, TrialRecord, drive

MAX_QUBIT_BITS = 20
_BLOCK_ENTRIES = 1 << 20  # residue rows per block are sized against this


@dataclass(frozen=True)
class SuperpositionRun:
    """One prepared instance of the algorithm.

    mode "exact" carries the full N x N post-Fourier state; mode "qubit"
    carries only the validated (N, Q) of the 2**Q register pair.  Neither
    holds a B marginal until pb_probs is first read.
    """

    s: Semiprime
    mode: str
    q_bits: int | None = None
    state: BipartiteState | None = None

    @property
    def n(self) -> int:
        return self.s.n

    @functools.cached_property
    def pb_probs(self) -> np.ndarray:
        """B marginal, built on first use: brute force, or the residue-folded qubit marginal."""
        if self.mode == "exact":
            return marginal_b(self.state).probs
        return qubit_marginal(self.n, self.q_bits)


@dataclass(frozen=True)
class SuccessMass:
    """How the B marginal splits into useful and useless outcomes.

    Useful outcomes are n0 = 0 and multiples of a factor: exactly the
    cases whose conditional A distribution keeps mass on factor multiples.
    """

    p_b_zero: float
    p_b_factor_multiple: float
    p_b_coprime: float

    @property
    def total_useful(self) -> float:
        return self.p_b_zero + self.p_b_factor_multiple


def _check_exact(run: SuperpositionRun) -> BipartiteState:
    if run.mode != "exact" or run.state is None:
        raise ValueError("operation requires an exact-dimension run")
    return run.state


def run_exact(n: int) -> SuperpositionRun:
    """Prepare the exact N x N state: uniform product, quadratic phase, Fourier on B.

    One pass, with the bits of qft_b(apply_quadratic_phase(uniform_product(n,
    n), n)): the phases are gathered a block of rows at a time, at
    amplitude 1/N, into one grid, which is Fourier transformed along B and
    scaled by sqrt(N) in place, and the norm is checked once.  A handful
    of amplitudes are spot-checked against directly summed shifted Gauss
    sums before the run is handed out.
    """
    s = factor_semiprime(n)
    check_amplitude_cap(n * n)
    amps = quadratic_phase_grid(complex(1.0 / n), n, n, n)
    np.fft.ifft(amps, axis=1, out=amps)
    root_n = math.sqrt(n)
    amps *= root_n
    state = BipartiteState(n, n, amps)
    for ell, shift in ((0, 0), (1, 0), (1, 1), (s.p, 2 * s.p), (s.q, 1), (n - 1, n - 1)):
        expected = eval_W(shift, ell, n) / root_n
        if abs(state.amps[ell, shift] - expected) > 1e-9:
            raise StateIntegrityError(
                f"amplitude ({ell}, {shift}) disagrees with direct summation"
            )
    return SuperpositionRun(s=s, mode="exact", state=state)


def p_b_distribution(run: SuperpositionRun) -> Distribution:
    """Marginal of the B register: exact brute force, or the residue-folded qubit marginal."""
    return Distribution(np.arange(len(run.pb_probs)), run.pb_probs)


def _factor_residues(s: Semiprime) -> np.ndarray:
    """Mask of the residues 0 .. N-1 that are nonzero multiples of p or q."""
    gcds = np.gcd(np.arange(s.n), s.n)
    return (gcds == s.p) | (gcds == s.q)


def success_mass(run: SuperpositionRun) -> SuccessMass:
    """Split the exact B marginal by the divisor class of the outcome."""
    _check_exact(run)
    probs = run.pb_probs
    factor_mask = _factor_residues(run.s)
    coprime_mask = ~factor_mask
    coprime_mask[0] = False  # residue 0 is the multiple of N
    zero = float(probs[0])
    factor = float(np.sum(probs[factor_mask]))
    coprime = float(np.sum(probs[coprime_mask]))
    return SuccessMass(zero, factor, coprime)


def factor_mass_a(run: SuperpositionRun, n0: int) -> float:
    """Probability that the conditional A sample is a nonzero multiple of p or q."""
    cond = conditional_a(_check_exact(run), n0)
    return float(np.sum(cond.probs[_factor_residues(run.s)]))


def run_qubit(n: int, q_bits: int) -> SuperpositionRun:
    """Prepare the power-of-two variant; its B marginal is built on first use.

    Requires N**2 < 2**Q (so the Fourier peaks of the N-comb are uniquely
    placed), Q <= 20 and a register of 2**Q amplitudes within the cap.
    """
    s = factor_semiprime(n)
    if q_bits > MAX_QUBIT_BITS:
        raise ValueError(f"register size 2**{q_bits} beyond register cap 2**{MAX_QUBIT_BITS}")
    if n * n >= 1 << q_bits:
        raise ValueError(f"need n**2 < 2**q_bits, got {n}**2 >= 2**{q_bits}")
    check_amplitude_cap(1 << q_bits)
    return SuperpositionRun(s=s, mode="qubit", q_bits=q_bits)


def qubit_marginal(n: int, q_bits: int) -> np.ndarray:
    """B marginal of the power-of-two variant, folded over residues.

    The B amplitudes (1/M) sum_m exp[2*pi*i*(m^2 l / N + m n / M)] of row l
    are one inverse FFT and depend on l only through r = l mod N, so each
    residue row is transformed once and its squared moduli weighted by the
    (M - 1 - r)//N + 1 register rows with residue r.
    """
    size = 1 << q_bits
    msq = (np.arange(size, dtype=np.int64) ** 2) % n
    roots = phase_roots(n)
    counts = ((size - 1 - np.arange(n)) // n + 1).astype(np.float64)
    acc = np.zeros(size)
    for r in row_blocks(n, size, _BLOCK_ENTRIES):
        rows = np.fft.ifft(roots[(r[:, None] * msq[None, :]) % n], axis=1)
        acc += counts[r] @ abs_sq(rows)
    return acc / size


def _qubit_conditional_probs(run: SuperpositionRun, n0: int) -> np.ndarray:
    """Unnormalized |amplitude(l, n0)|^2 column of a qubit run.

    Computed for the N residues l mod N, then repeated across the register.
    """
    assert run.mode == "qubit" and run.q_bits is not None
    n = run.s.n
    size = 1 << run.q_bits
    if not (0 <= n0 < size):
        raise ValueError(f"outcome {n0} outside register of size {size}")
    msq = (np.arange(size, dtype=np.int64) ** 2) % n
    roots = phase_roots(n)
    linear = np.exp(2j * np.pi * np.arange(size) * n0 / size) / size
    folded = np.empty(n)
    for r in row_blocks(n, size, _BLOCK_ENTRIES):
        folded[r] = abs_sq(roots[(r[:, None] * msq[None, :]) % n] @ linear)
    return folded[np.arange(size) % n] / size


def peak_index(n_bin: int, n: int, size: int) -> int:
    """The j whose peak j * size / n lies nearest the bin; a tie rounds half to even."""
    return round(n_bin * n / size)


def conditional_after_peak(run: SuperpositionRun, n_peak: int) -> Distribution:
    """A-register distribution of a qubit run after measuring a marginal peak.

    n_peak must lie within half a bin of some multiple j * 2**Q / N; the
    resulting distribution over l mirrors the exact-dimension conditional
    at outcome j, up to the two-scale remainder distortion.
    """
    if run.mode != "qubit" or run.q_bits is None:
        raise ValueError("operation requires a qubit-register run")
    size = 1 << run.q_bits
    n = run.s.n
    j = peak_index(n_peak, n, size)
    if abs(n_peak - j * size / n) > 0.5 + 1e-12:
        raise ValueError(
            f"outcome {n_peak} is not within half a bin of any multiple of 2**Q/N"
        )
    weights = _qubit_conditional_probs(run, n_peak)
    total = float(np.sum(weights))
    if total <= 1e-12:
        raise ValueError(f"outcome {n_peak} has (near-)zero marginal probability")
    return Distribution(np.arange(size), weights / total)


def p_b_closed_reference(s: Semiprime, n0: int) -> Fraction:
    """Delta-comb closed form of the B marginal; reference only, known low.

    This shortcut keeps only the enhanced contributions

        n0 = 0:            (1/N) * [(N - p - q + 1)/N + 1]
        gcd(n0, N) = p:    (1/N) * (p/N) * (q - 1)
        gcd(n0, N) = q:    (1/N) * (q/N) * (p - 1)
        otherwise:         0

    and drops the rest of each column, so its values undercount the
    brute-force marginal (163/8281 instead of 325/8281 at n0 = 0 for
    N = 91) and do not sum to 1.  Every computation path in this package
    uses the brute-force marginal; this function exists so the
    discrepancy stays visible and tested.
    """
    n, p, q = s.n, s.p, s.q
    d = gcd_conv(n0 % n, n)
    if d == n:
        return Fraction(n - p - q + 1, n * n) + Fraction(1, n)
    if d == p:
        return Fraction(p * (q - 1), n * n)
    if d == q:
        return Fraction(q * (p - 1), n * n)
    return Fraction(0)


def useful_mass_closed_reference(s: Semiprime) -> Fraction:
    """Closed-form estimate of the total useful mass; reference only, known off.

    2/(N p) + 2/p + 2p/N^2 + 2p/N - p^2/N^2 - 4/N - 1/N^2, the companion
    expression to p_b_closed_reference.  It gives 3266/8281 (about 0.394)
    for N = 91 where brute force gives 3097/8281 (about 0.374), and does
    not even agree with summing p_b_closed_reference over the useful
    outcomes (1639/8281).  Kept for documentation; never on a computation
    path.
    """
    n, p = s.n, s.p
    return (
        Fraction(2, n * p)
        + Fraction(2, p)
        + Fraction(2 * p, n * n)
        + Fraction(2 * p, n)
        - Fraction(p * p, n * n)
        - Fraction(4, n)
        - Fraction(1, n * n)
    )


def sample_factor_driver(run: SuperpositionRun, max_trials: int, seed: int) -> DriverResult:
    """Measure-B-then-maybe-A trials on a prepared run, until one finds a nontrivial gcd.

    Exact mode: a measured n0 sharing a divisor with N reveals it at once;
    otherwise one A sample is taken from the conditional and its gcd
    tested.  Qubit mode first maps the measured bin to the index j of the
    nearest peak j*2**Q/N and tests gcd(j, N), since the marginal
    concentrates there.  The run's marginal is built once, on first use.
    """
    n = run.n
    pb_cdf = np.cumsum(run.pb_probs)

    def trial(t: int, rng: np.random.Generator) -> TrialRecord:
        n0 = sample_cdf(pb_cdf, rng)
        # exact mode: size N, so j = n0
        factor = nontrivial_divisor(peak_index(n0, n, len(pb_cdf)), n)
        ell = None
        if factor is None:
            if run.mode == "exact":
                cond = conditional_a(run.state, n0).probs
            else:
                cond = _qubit_conditional_probs(run, n0)
            ell = sample_outcome(cond, rng)
            factor = nontrivial_divisor(ell, n)
        return TrialRecord(t, n0, outcome_a=ell, factor=factor)

    return drive(n, max_trials, seed, trial)
