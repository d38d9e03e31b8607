"""Factoring by interfering shifted Gauss sums in the amplitudes.

Two uniform registers of size N are entangled by the quadratic-phase
unitary and the B register is Fourier transformed, leaving the joint
amplitudes proportional to the shifted Gauss sums W_n(l).  Measuring B
then hands A a distribution over trial factors whose enhanced points (or
exact zeros) mark the divisors of N.

An exact run keeps only the p x p and q x q factor grids of the Chinese
remainder split W_k(l; pq) = W_k(l q; p) W_k(l p; q) (run_exact); its B
marginal, conditional columns and purity are read from the two grids, and
no N x N grid is formed.  The qubit variant works on two registers of size
2**Q > N**2; its amplitudes depend on l only through l mod N and on m
only through m^2 mod N and a linear phase, so the m-sum splits as
m = t + k N into N residue terms times one geometric comb
(kernels.comb_kernel) shared by all of them.  Its conditional column is
then one length-N inverse FFT (_column, for both kinds), and its marginal
three length-2**Q transforms of O(N**2) pair sums (qubit_marginal), with
no N x 2**Q work.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .kernels import comb_kernel, eval_W, half_turn
from .numtheory import Semiprime, factor_semiprime, gcd_conv, nontrivial_divisor
from .states import (
    Distribution,
    StateIntegrityError,
    abs_sq,
    abs_sq_column_sums,
    check_amplitude_cap,
    check_unit_norm,
    conditional,
    phase_roots,
    quadratic_phase_grid,
    row_blocks,
    sample_cdf,
    sample_outcome,
)
from .trials import DriverResult, TrialRecord, TrialStream, drive

MAX_QUBIT_BITS = 20
_QUBIT_BLOCK = 1 << 16  # (t, t') pairs, or register bins, per block of qubit_marginal
# f x f Gram entries are <= 1/f; exact grids are circulant to 1e-16, a permuted row is ~f**-1.5 off
_CIRCULANCE_TOL = 1e-12


class SuperpositionRun:
    """One prepared instance of the algorithm.

    An exact run carries the read-only p x p and q x q factor grids of its
    state; a qubit run carries only the validated Q of its 2**Q register
    pair.  Neither holds a B marginal until pb_probs is first read.
    """

    def __init__(
        self,
        s: Semiprime,
        q_bits: int | None = None,
        grids: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        self.s = s
        self.q_bits = q_bits
        self.grids = grids

    @property
    def n(self) -> int:
        return self.s.n

    @functools.cached_property
    def pb_probs(self) -> np.ndarray:
        """B marginal on first use: the product of the grids' column sums, or the qubit fold."""
        if self.grids is None:
            return qubit_marginal(self.n, self.q_bits)
        k = np.arange(self.n)
        pb_p, pb_q = (abs_sq_column_sums(g) for g in self.grids)
        return pb_p[k % self.s.p] * pb_q[k % self.s.q]


class SuccessMass(NamedTuple):
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


def _check_exact(run: SuperpositionRun) -> tuple[np.ndarray, np.ndarray]:
    if run.grids is None:
        raise ValueError("operation requires an exact-dimension run")
    return run.grids


def _factor_grid(n: int, f: int) -> np.ndarray:
    """The f x f grid W_k(r * (N/f); f) / sqrt(f) over residues r = l mod f and k mod f.

    Built with the ops of the composed pipeline at modulus f: phases at
    amplitude 1/f, an inverse FFT along B, a sqrt(f) scale.
    """
    grid = quadratic_phase_grid(complex(1.0 / f), np.arange(f) * (n // f), f, f)
    np.fft.ifft(grid, axis=1, out=grid)
    grid *= math.sqrt(f)
    return grid


def run_exact(n: int) -> SuperpositionRun:
    """Prepare the exact state (uniform product, quadratic phase, Fourier on B) as two factor grids.

    Writing m = a*q + b*p (a < p, b < q) splits the shifted Gauss sum by
    the Chinese remainder theorem, W_k(l; N) = W_k(l*q; p) * W_k(l*p; q),
    each factor at its own 1/f: amplitude (l, k) is entry (l mod p, k mod p)
    of a p x p grid times entry (l mod q, k mod q) of a q x q one
    (_factor_grid), and the cap guards their p**2 + q**2 entries.  Each
    grid's norm is checked, and its entries (0, 0), (1, 0), (1, 1) and
    (f-1, f-1) against eval_W at modulus f, O(f) each; the recombined
    amplitude (N-2, N-1) against a vectorized direct sum at modulus N.
    """
    s = factor_semiprime(n)
    check_amplitude_cap(s.p * s.p + s.q * s.q)
    run = SuperpositionRun(s=s, grids=(_factor_grid(n, s.p), _factor_grid(n, s.q)))
    checks = []  # (where, amplitude, direct sum)
    for g in run.grids:
        f = len(g)
        check_unit_norm(g)
        g.setflags(write=False)
        for r, k in ((0, 0), (1, 0), (1, 1), (f - 1, f - 1)):
            direct = eval_W(k, r * (n // f), f) / math.sqrt(f)
            checks.append((f"({r}, {k}) mod {f}", g[r, k], direct))
    ell, k, m = n - 2, n - 1, np.arange(n, dtype=np.int64)
    direct = np.sum(phase_roots(n)[(m * m % n * ell + m * k) % n]) / (n * math.sqrt(n))
    checks.append((f"({ell}, {k}) mod {n}", _amplitudes(run, ell, k), direct))
    for where, got, expected in checks:
        if abs(got - expected) > 1e-9:
            raise StateIntegrityError(f"amplitude {where} disagrees with direct summation")
    return run


def p_b_distribution(run: SuperpositionRun) -> Distribution:
    """Marginal of the B register: factored from the exact grids, or residue-folded (qubit)."""
    return Distribution(run.pb_probs)


def _factor_residues(s: Semiprime) -> np.ndarray:
    """Mask of the residues 0 .. N-1 that are nonzero multiples of p or q."""
    gcds = np.gcd(np.arange(s.n), s.n)
    return (gcds == s.p) | (gcds == s.q)


def success_mass(run: SuperpositionRun) -> SuccessMass:
    """Split the exact B marginal by the divisor class of the outcome."""
    _check_exact(run)
    probs, factor_mask = run.pb_probs, _factor_residues(run.s)
    coprime_mask = ~factor_mask
    coprime_mask[0] = False  # residue 0 is the multiple of N
    zero = float(probs[0])
    factor = float(np.sum(probs[factor_mask]))
    coprime = float(np.sum(probs[coprime_mask]))
    return SuccessMass(zero, factor, coprime)


def _amplitudes(run: SuperpositionRun, ell, n0: int):
    """The (l, n0) amplitudes for l in ell: gp[l mod p, n0 mod p] * gq[l mod q, n0 mod q]."""
    gp, gq = _check_exact(run)
    p, q = run.s.p, run.s.q
    return gp[ell % p, n0 % p] * gq[ell % q, n0 % q]


def exact_conditional(run: SuperpositionRun, n0: int) -> Distribution:
    """A-register distribution of an exact run given the B outcome n0, from one O(N) column."""
    _check_exact(run)
    if not (0 <= n0 < run.n):
        raise ValueError(f"outcome {n0} outside B register of size {run.n}")
    return conditional(_column(run, n0), n0)


def factor_mass_a(run: SuperpositionRun, n0: int) -> float:
    """Probability that the conditional A sample is a nonzero multiple of p or q."""
    cond = exact_conditional(run, n0)
    return float(np.sum(cond.probs[_factor_residues(run.s)]))


def success_probability(s: Semiprime) -> Fraction:
    """Exact chance that one exact-mode driver trial finds a factor.

    P* = [(q-1)^2 (2p-1) + (p-1)^2 (2q-1) + p(q-1) + q(p-1)] / N^2.  A B
    outcome that is a nonzero multiple of p or q reveals the factor at
    once (the first two terms).  After a coprime outcome the A conditional
    is uniform on the units of Z_N, so the A sample never helps; after
    n0 = 0 it finds a factor when it lands on a nonzero multiple of p or
    q (the last two terms).
    """
    n, p, q = s.n, s.p, s.q
    hits = (q - 1) ** 2 * (2 * p - 1) + (p - 1) ** 2 * (2 * q - 1) + p * (q - 1) + q * (p - 1)
    return Fraction(hits, n * n)


def purity(run: SuperpositionRun) -> float:
    """Purity Tr(rho_A^2) of an exact run: the product of its factor grids' purities.

    A grid's rows are those of a phase grid after a unitary Fourier step,
    so its Gram matrix G[r, r'] = <row_r, row_r'> is circulant in r' - r
    mod f and its purity is f * sum_r |G[0, r]|^2, from g = a @ conj(a[0]).
    Gram rows 1, f//3 and f-1 must equal g rolled by r; each reads every
    row of the grid, so a corrupted row raises StateIntegrityError.
    """
    total = 1.0
    for a in _check_exact(run):
        f = len(a)
        g = a @ np.conj(a[0])
        for r in (1, f // 3, f - 1):
            residual = float(np.max(np.abs(a @ np.conj(a[r]) - np.roll(g, r))))
            if residual > _CIRCULANCE_TOL:
                raise StateIntegrityError(f"grid {f} Gram row {r} off circulance by {residual!r}")
        total *= f * float(np.sum(abs_sq(g)))
    return total


def run_qubit(n: int, q_bits: int) -> SuperpositionRun:
    """Prepare the power-of-two variant; its B marginal is built on first use.

    Requires N**2 < 2**Q (so the Fourier peaks of the N-comb are uniquely
    placed), Q <= 20 and a register of 2**Q amplitudes within the cap.
    """
    s = factor_semiprime(n)
    if q_bits < 1:
        raise ValueError(f"register size must be >= 1 bit, got {q_bits}")
    if q_bits > MAX_QUBIT_BITS:
        raise ValueError(f"register size 2**{q_bits} beyond register cap 2**{MAX_QUBIT_BITS}")
    if n * n >= 1 << q_bits:
        raise ValueError(f"need n**2 < 2**q_bits, got {n}**2 >= 2**{q_bits}")
    check_amplitude_cap(1 << q_bits)
    return SuperpositionRun(s=s, q_bits=q_bits)


def _pair_sums(c_dft: np.ndarray, n: int, rows: int, cols: int) -> np.ndarray:
    """h(d) = sum of C((t^2 - t'^2) mod N) over t < rows, t' < cols with t - t' = d, at index d + cols - 1.

    The pairs are gathered in blocks of rows of about _QUBIT_BLOCK
    and each block's diagonals are summed by np.bincount.
    """
    sq = np.arange(max(rows, cols), dtype=np.int64) ** 2 % n
    length = rows + cols - 1
    h = np.zeros(length, dtype=np.complex128)
    for t in row_blocks(rows, cols, _QUBIT_BLOCK):
        diag = (t[:, None] + (cols - 1 - np.arange(cols))).ravel()
        w = c_dft[(sq[t, None] - sq[:cols]) % n].ravel()
        h += np.bincount(diag, w.real, length) + 1j * np.bincount(diag, w.imag, length)
    return h


def qubit_marginal(n: int, q_bits: int) -> np.ndarray:
    """B marginal of the power-of-two variant, from the split m = t + k N, in O(N**2 + 2**Q Q).

    With M = 2**Q = K N + rem, the amplitude of a row with residue r at bin
    k is (1/M) sum_{t < N} exp(2 pi i (t^2 r / N + t k / M)) S_{K_t}(k),
    K_t = K + [t < rem], where S_K(k) = comb_kernel(K, N k mod M) is the
    comb over the k-sum and S_{K+1} = S_K + w**K, w = exp(2 pi i N k / M).
    Weighting the r-rows by their counts c_r = K + [r < rem] turns
    sum_r c_r |amplitude|^2 into

        P(k) = [|S_K|^2 X + 2 Re(conj(S_K) w**K Y) + Z] / M**3,

    where X, Y and Z are sum_d h(d) exp(2 pi i d k / M) over the pair
    sums h of _pair_sums for t, t' < N; t < rem, t' < N; and t, t' < rem,
    each weighted by C, the DFT of c_r (itself K N [s = 0] plus a comb over
    r < rem).  X and Z have Hermitian h, so each is one real hfft of its
    d >= 0 half; Y is one complex inverse FFT.  The bins are combined in
    blocks of _QUBIT_BLOCK, so no length-M temporary is formed beyond X, Y
    and the output.
    """
    size = 1 << q_bits
    reps, rem = divmod(size, n)
    c_dft = comb_kernel(rem, 2 * np.arange(n, dtype=np.int64), 2 * n)
    c_dft[0] += reps * n
    x = np.fft.hfft(np.conj(_pair_sums(c_dft, n, n, n)[n - 1 :]), size)
    out = np.fft.hfft(np.conj(_pair_sums(c_dft, n, rem, rem)[rem - 1 :]), size)
    h = _pair_sums(c_dft, n, rem, n)
    y = np.zeros(size, dtype=np.complex128)
    y[:rem] = h[n - 1 :]
    y[size - n + 1 :] = h[: n - 1]
    np.fft.ifft(y, out=y)  # Y / M
    for k in row_blocks(size, 1, _QUBIT_BLOCK):
        j = n * k % size
        s_k = comb_kernel(reps, j, size)
        turn = np.conj(s_k) * half_turn(2 * reps * j, size)
        out[k] += abs_sq(s_k) * x[k] + 2 * size * (turn * y[k]).real
    out *= 1.0 / size**3
    return out


def _column(run: SuperpositionRun, n0: int) -> np.ndarray:
    """Unnormalized |amplitude(l, n0)|^2 column of an exact (from the grids) or qubit run.

    Qubit: with m = t + k N, M = 2**Q = K N + rem, the amplitude of residue r = l mod N
    is (1/M) sum_{t < N} exp(2 pi i t^2 r / N) y_t, where
    y_t = exp(2 pi i t n0 / M) S_{K_t}(n0) and S_K, S_{K+1} are two scalar
    comb_kernel values at N n0 mod M.  The y_t are summed into classes
    t^2 mod N by one np.bincount and the N residues are one length-N
    inverse FFT of them: O(N log N), every phase reduced in integers, then
    repeated across the register into the one length-2**Q output.
    """
    n = run.s.n
    if run.grids is not None:
        return abs_sq(_amplitudes(run, np.arange(n), n0))
    size = 1 << run.q_bits
    reps, rem = divmod(size, n)
    t = np.arange(n, dtype=np.int64)
    y = half_turn(2 * t * n0, size)
    j = n * n0 % size
    y[:rem] *= comb_kernel(reps + 1, j, size)
    y[rem:] *= comb_kernel(reps, j, size)
    tsq = t * t % n
    z = np.bincount(tsq, y.real, n) + 1j * np.bincount(tsq, y.imag, n)
    return np.resize(abs_sq(np.fft.ifft(z) * (n / size)) / size, size)


def peak_index(n_bin: int, n: int, size: int) -> int:
    """The j whose peak j * size / n lies nearest the bin; a tie rounds half to even."""
    return round(n_bin * n / size)


def conditional_after_peak(run: SuperpositionRun, n_peak: int) -> Distribution:
    """A-register distribution of a qubit run after measuring a marginal peak.

    n_peak must lie in the register and within half a bin of some multiple
    j * 2**Q / N; the resulting distribution over l mirrors the
    exact-dimension conditional at outcome j, up to the two-scale
    remainder distortion.  It is the two-scale column of _column, O(N log N)
    from two scalar comb values, normalised; the marginal is not built.
    """
    if run.q_bits is None:
        raise ValueError("operation requires a qubit-register run")
    size = 1 << run.q_bits
    if not (0 <= n_peak < size):
        raise ValueError(f"outcome {n_peak} outside B register of size {size}")
    n = run.s.n
    j = peak_index(n_peak, n, size)
    # |n_peak - j * size / n| > 1/2 in integers; for odd N it is never exactly 1/2
    if 2 * abs(n_peak * n - j * size) > n:
        raise ValueError(
            f"outcome {n_peak} is not within half a bin of any multiple of 2**Q/N"
        )
    return conditional(_column(run, n_peak), n_peak)


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

    Exact mode: a measured n0 sharing a divisor with N reveals it at once.
    Qubit mode maps the measured bin to the index j of the nearest peak
    j*2**Q/N and tests gcd(j, N).  Otherwise one A sample is drawn from
    the unnormalised column the conditional report prints (sample_cdf
    scales by its mass), and its gcd tested.  The run's marginal is built
    once, on first use.
    """
    n = run.n
    pb_cdf = np.cumsum(run.pb_probs)

    def trial(t: int, rng: TrialStream) -> TrialRecord:
        n0 = sample_cdf(pb_cdf, rng)
        # exact mode: size N, so j = n0
        factor = nontrivial_divisor(peak_index(n0, n, len(pb_cdf)), n)
        ell = None
        if factor is None:
            ell = sample_outcome(_column(run, n0), rng)
            factor = nontrivial_divisor(ell, n)
        return TrialRecord(t, n0, outcome_a=ell, factor=factor)

    return drive(n, max_trials, seed, trial)
