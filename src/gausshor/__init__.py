"""Gauss-sum factoring simulator and oracle library.

Exact number theory (numtheory), direct and closed-form Gauss-type sums
(kernels), bipartite statevector mechanics (states), the divisor-signal
branch algorithm (shor_gauss), the amplitude-superposition algorithm
(superposition), and a deterministic CLI (cli).
"""

from .kernels import (
    closed_W_sq,
    eval_F,
    eval_F_closed,
    eval_G,
    eval_truncated,
    eval_W,
    eval_W_tilde,
    g_of,
)
from .numtheory import (
    NotSemiprimeError,
    Semiprime,
    count_upper,
    factor_semiprime,
    gcd_conv,
)
from .shor_gauss import (
    BranchKind,
    BranchOutcome,
    DivisorCandidate,
    PeakMassBounds,
    PeakReport,
    analyze_peaks,
    b_labels,
    branch_probs,
    factor_driver,
    min_register_bits,
    peak_mass_bounds,
    peak_positions,
    post_state,
    qft_distribution,
    recover_divisor,
    run_trial,
)
from .states import (
    AmplitudeCapError,
    BipartiteState,
    Distribution,
    StateIntegrityError,
    ZeroMarginalError,
    amplitude_cap,
    apply_quadratic_phase,
    conditional_a,
    marginal_b,
    purity_a,
    purity_closed,
    qft_b,
    qft_vector,
    sample_outcome,
    uniform_product,
)
from .superposition import (
    SuccessMass,
    SuperpositionRun,
    conditional_after_peak,
    exact_conditional,
    factor_mass_a,
    p_b_closed_reference,
    p_b_distribution,
    run_exact,
    run_qubit,
    sample_factor_driver,
    success_mass,
    success_probability,
    useful_mass_closed_reference,
)
from .trials import DriverResult, TrialRecord, trial_rng

__version__ = "0.1.0"
