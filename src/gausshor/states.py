"""Bipartite statevector mechanics.

A state lives on A x B as a dense row-major complex grid, amplitude(l, m)
at row l, column m.  All operations are pure: they validate, build a new
array, and hand back a fresh immutable state.  The Fourier kernel is fixed
to the +i convention,

    U |l>  =  (1/sqrt(D)) sum_m exp[+2*pi*i*m*l/D] |m>,

and its inverse (used only by tests) to -i.

States are checked to unit norm within 1e-9 after every constructor and
unitary; a violation raises rather than renormalizing silently.  Dense
storage is guarded by an amplitude-count cap (default 2**24 entries,
overridable through the GAUSSHOR_MEM_CAP environment variable).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numtheory import Semiprime

NORM_TOL = 1e-9
DEFAULT_AMPLITUDE_CAP = 1 << 24
_MEM_CAP_ENV = "GAUSSHOR_MEM_CAP"
_GRAM_BLOCK_ENTRIES = 1 << 17


class AmplitudeCapError(ValueError):
    """Requested state would exceed the configured amplitude-count cap."""


class StateIntegrityError(ValueError):
    """State failed its unit-norm check."""


class ZeroMarginalError(ValueError):
    """Attempt to condition on an outcome of (numerically) zero probability."""


def amplitude_cap() -> int:
    """Current cap on dense amplitude counts; env override wins.

    An override that is not a positive integer raises AmplitudeCapError.
    """
    raw = os.environ.get(_MEM_CAP_ENV)
    if raw is None:
        return DEFAULT_AMPLITUDE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0  # not an integer: rejected below
    if cap < 1:
        raise AmplitudeCapError(f"{_MEM_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


def check_amplitude_cap(n_amplitudes: int) -> None:
    """Reject dense allocations beyond the configured amplitude budget."""
    cap = amplitude_cap()
    if n_amplitudes > cap:
        raise AmplitudeCapError(
            f"state with {n_amplitudes} amplitudes exceeds cap {cap}"
        )


def abs_sq(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise |z|^2 with one temporary; the same bits as z.real**2 + z.imag**2.

    With out given, the moduli are written there instead of a new array.
    """
    sq = np.square(z.real, out=out)
    sq += z.imag**2
    return sq


def phase_roots(n: int) -> np.ndarray:
    """exp(2*pi*i*r/n) for r = 0 .. n-1, the table every quadratic phase is gathered from."""
    return np.exp(2j * np.pi * np.arange(n) / n)


def row_blocks(n_rows: int, row_len: int, entries: int):
    """Fixed partition of range(n_rows) into ascending int64 blocks of about entries cells."""
    step = max(1, entries // row_len)
    for start in range(0, n_rows, step):
        yield np.arange(start, min(start + step, n_rows), dtype=np.int64)


def quadratic_phase_grid(factor, dim_a: int, dim_b: int, n: int) -> np.ndarray:
    """New (dim_a, dim_b) grid factor * exp[2*pi*i*m^2*l/n], built in blocks of A rows.

    factor is a scalar or a full grid.  Phase indices are reduced mod n in
    integer arithmetic before the table lookup; an index block holds about
    2**16 entries, so no dim_a x dim_b index grid is built.
    """
    if n < 1:
        raise ValueError(f"phase modulus must be >= 1, got {n}")
    roots = phase_roots(n)
    msq = (np.arange(dim_b, dtype=np.int64) ** 2) % n
    factor = np.broadcast_to(factor, (dim_a, dim_b))
    grid = np.empty((dim_a, dim_b), dtype=np.complex128)
    for rows in row_blocks(dim_a, dim_b, 1 << 16):
        block = slice(rows[0], rows[-1] + 1)
        np.multiply(factor[block], roots[(rows[:, None] * msq) % n], out=grid[block])
    return grid


@dataclass(frozen=True)
class BipartiteState:
    """Immutable statevector on A x B; amps has shape (dim_a, dim_b)."""

    dim_a: int
    dim_b: int
    amps: np.ndarray

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("dimensions must be >= 1")
        if self.amps.shape != (self.dim_a, self.dim_b):
            raise ValueError(
                f"amplitude grid {self.amps.shape} != ({self.dim_a}, {self.dim_b})"
            )
        flat = self.amps.reshape(-1)
        norm_sq = float(np.vdot(flat, flat).real)
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise StateIntegrityError(f"squared norm {norm_sq!r} deviates from 1")
        self.amps.setflags(write=False)


@dataclass(frozen=True)
class Distribution:
    """Labeled probability vector; labels distinct, mass 1 within 1e-9."""

    labels: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        if self.labels.shape != self.probs.shape or self.labels.ndim != 1:
            raise ValueError("labels and probs must be matching 1-d arrays")
        if len(np.unique(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")
        if np.any(self.probs < 0.0):
            raise ValueError("negative probability")
        total = float(np.sum(self.probs))
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        self.labels.setflags(write=False)
        self.probs.setflags(write=False)

    def prob_of(self, label: int) -> float:
        hits = np.nonzero(self.labels == label)[0]
        if len(hits) == 0:
            raise KeyError(f"label {label} not present")
        return float(self.probs[hits[0]])


@dataclass(frozen=True)
class CollapseResult:
    """Measured B label plus the renormalized A vector left behind."""

    outcome: int
    state_a: np.ndarray


def uniform_product(dim_a: int, dim_b: int) -> BipartiteState:
    """Product state with every amplitude equal to 1/sqrt(dim_a*dim_b)."""
    if dim_a < 1 or dim_b < 1:
        raise ValueError("dimensions must be >= 1")
    check_amplitude_cap(dim_a * dim_b)
    amps = np.full((dim_a, dim_b), 1.0 / math.sqrt(dim_a * dim_b), dtype=np.complex128)
    return BipartiteState(dim_a, dim_b, amps)


def apply_quadratic_phase(state: BipartiteState, n: int) -> BipartiteState:
    """Multiply amplitude(l, m) by exp[2*pi*i*m^2*l/n].

    Diagonal, hence norm-preserving; n sets the phase period and is
    independent of either register dimension.
    """
    amps = quadratic_phase_grid(state.amps, state.dim_a, state.dim_b, n)
    return BipartiteState(state.dim_a, state.dim_b, amps)


def qft_vector(vec: np.ndarray) -> np.ndarray:
    """Fourier transform with the +i kernel, out[m] = (1/sqrt(D)) sum_l v[l] e^{+2*pi*i*m*l/D}."""
    d = len(vec)
    if d < 1:
        raise ValueError("vector must be non-empty")
    return np.fft.ifft(vec) * math.sqrt(d)


def qft_vector_inverse(vec: np.ndarray) -> np.ndarray:
    """Inverse of qft_vector (-i kernel); fixed here for round-trip tests."""
    d = len(vec)
    if d < 1:
        raise ValueError("vector must be non-empty")
    return np.fft.fft(vec) / math.sqrt(d)


def qft_b(state: BipartiteState) -> BipartiteState:
    """Apply the +i Fourier kernel to the B register of every A row."""
    amps = np.fft.ifft(state.amps, axis=1) * math.sqrt(state.dim_b)
    return BipartiteState(state.dim_a, state.dim_b, amps)


def marginal_b(state: BipartiteState) -> Distribution:
    """Probability of each B label: column sums of |amplitude|^2."""
    probs = np.sum(abs_sq(state.amps), axis=0)
    return Distribution(np.arange(state.dim_b), probs)


def conditional_a(state: BipartiteState, n0: int) -> Distribution:
    """Distribution of the A register given a B measurement with outcome n0."""
    if not (0 <= n0 < state.dim_b):
        raise ValueError(f"outcome {n0} outside B register of size {state.dim_b}")
    weights = abs_sq(state.amps[:, n0])
    mass = float(np.sum(weights))
    if mass <= 1e-12:
        raise ZeroMarginalError(f"outcome {n0} has marginal probability {mass!r}")
    return Distribution(np.arange(state.dim_a), weights / mass)


def collapse_b(state: BipartiteState, n0: int) -> CollapseResult:
    """Project onto a fixed B outcome and renormalize the A vector."""
    if not (0 <= n0 < state.dim_b):
        raise ValueError(f"outcome {n0} outside B register of size {state.dim_b}")
    col = state.amps[:, n0]
    norm = math.sqrt(float(np.sum(abs_sq(col))))
    if norm <= 1e-12:
        raise ZeroMarginalError(f"outcome {n0} has (near-)zero amplitude")
    return CollapseResult(n0, col / norm)


def sample_cdf(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw from a cumulative mass vector; zero-mass bins are unreachable."""
    u = rng.random() * cdf[-1]
    return int(np.searchsorted(cdf, u, side="right"))


def sample_outcome(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw from a probability vector, via sample_cdf."""
    return sample_cdf(np.cumsum(probs), rng)


def measure_b(state: BipartiteState, rng: np.random.Generator) -> CollapseResult:
    """Sample a B outcome by inverse-CDF on the exact marginal, then collapse."""
    outcome = sample_outcome(marginal_b(state).probs, rng)
    return collapse_b(state, outcome)


def purity_a(state: BipartiteState) -> float:
    """Purity Tr(rho_A^2) of the reduced state of A.

    Computed as sum_{l,l'} |<row_l, row_l'>|^2 over B-amplitude rows.  For a
    pure joint state both reduced purities coincide, so the Gram matrix is
    taken on the smaller side.  Only the Gram matrix's upper half is formed,
    in blocks of rows of about 2**17 entries: conj(block) against every row
    from the block's first one on, so no conjugate copy of the whole grid is
    made.  The squared moduli go into one float64 d x d array, each strip
    mirrored below the diagonal (|conj z|^2 has the bits of |z|^2), and the
    array is summed in the order of the full Gram matrix, with its bits.
    """
    a = state.amps if state.dim_a <= state.dim_b else state.amps.T
    d = a.shape[0]
    sq = np.empty((d, d))
    for rows in row_blocks(d, d, _GRAM_BLOCK_ENTRIES):
        start, stop = rows[0], rows[-1] + 1
        strip = abs_sq(np.conj(a[start:stop]) @ a[start:].T, out=sq[start:stop, start:])
        sq[stop:, start:stop] = strip[:, stop - start:].T
    return float(np.sum(sq))


def purity_closed(s: Semiprime) -> Fraction:
    """Exact purity of the quadratic-phase-entangled uniform state, (4N - 2p - 2q + 1)/N^2."""
    return Fraction(4 * s.n - 2 * s.p - 2 * s.q + 1, s.n * s.n)
