"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
each criterion asserts at its stated tolerance.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from gausshor.kernels import closed_W_sq, eval_G, eval_W
from gausshor.numtheory import NotSemiprimeError, factor_semiprime, gcd_conv
from gausshor.shor_gauss import (
    analyze_peaks,
    branch_probs,
    factor_driver,
    min_register_bits,
    peak_mass_bounds,
    peak_positions,
    qft_distribution,
    recover_divisor,
)
from gausshor.states import (
    apply_quadratic_phase,
    purity_a,
    purity_closed,
    qft_b,
    sample_outcome,
    uniform_product,
)
from gausshor.superposition import (
    p_b_closed_reference,
    p_b_distribution,
    run_exact,
    run_qubit,
    sample_factor_driver,
    success_mass,
)
from gausshor.trials import trial_rng

import oracles

SEMIPRIME_SET = (15, 21, 33, 35, 55, 77, 91)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\nacceptance criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d}: {detail}"


def _odd_composites(limit: int):
    for n in range(9, limit + 1, 2):
        if any(n % f == 0 for f in range(3, int(n**0.5) + 1, 2)):
            yield n


def _semiprimes(limit: int):
    for n in range(15, limit + 1, 2):
        try:
            yield factor_semiprime(n)
        except NotSemiprimeError:
            pass


def test_criterion_01_gauss_sum_identity():
    evaluations = 0
    worst = 0.0
    for n in _odd_composites(225):
        for ell in range(n):
            dev = abs(abs(eval_G(ell, n)) ** 2 - n * gcd_conv(ell, n))
            worst = max(worst, dev / (n * n))
            assert dev <= 1e-6 * n * n, (n, ell)
            evaluations += 1
    _verdict(1, True, f"{evaluations} evaluations, worst dev {worst:.2e} of 1e-6 * N^2")


def test_criterion_02_shifted_sum_closed_form():
    pairs = 0
    for n in SEMIPRIME_SET:
        s = factor_semiprime(n)
        for n0 in range(n):
            for ell in range(n):
                direct = abs(eval_W(n0, ell, n)) ** 2
                exact = float(closed_W_sq(n0, ell, s))
                assert abs(direct - exact) <= 1e-9, (n, n0, ell)
                pairs += 1
    sig_enh = abs(eval_W(14, 7, 91)) ** 2
    assert abs(sig_enh - 7 / 91) <= 1e-9
    for k in range(1, 13):
        assert abs(eval_W(4, 7 * k, 91)) ** 2 <= 1e-9
    _verdict(2, True, f"{pairs} (n0, l) pairs over {SEMIPRIME_SET}; figure signatures hold")


def test_criterion_03_purity():
    checked = 0
    for s in _semiprimes(255):
        st1 = apply_quadratic_phase(uniform_product(s.n, s.n), s.n)
        mu = purity_a(st1)
        assert abs(mu - float(purity_closed(s))) <= 1e-9, s
        assert abs(purity_a(qft_b(st1)) - mu) <= 1e-9, s
        checked += 1
    assert purity_closed(factor_semiprime(91)) == Fraction(325, 8281)
    mu91 = purity_a(apply_quadratic_phase(uniform_product(91, 91), 91))
    assert abs(mu91 - 325 / 8281) <= 1e-9
    assert abs(mu91 - oracles.purity_brute(91)) <= 1e-9
    _verdict(3, True, f"{checked} semiprimes <= 255; mu(91) = 325/8281; QFT-invariant")


def test_criterion_04_factor_branch_peaks():
    s = factor_semiprime(91)
    dist = qft_distribution(s, 11, 7, allow_small_register=True)
    rep = analyze_peaks(dist, 7, 11, modulus=91)
    expected_positions = tuple(round(j * 2048 / 7) for j in range(1, 7))
    assert rep.positions == expected_positions
    bound = float(Fraction(2, 5) * Fraction(91 - 7, 91))
    ok_mass = rep.mass >= bound
    ratio = rep.max_on_peak / rep.max_off_structure
    ok_ratio = rep.max_on_peak >= 100 * rep.max_off_structure
    _verdict(
        4,
        ok_mass and ok_ratio,
        f"mass {rep.mass:.4f} >= {bound:.4f}; peak ratio {ratio:.1f} >= 100",
    )


def test_criterion_05_unit_branch_analysis():
    s = factor_semiprime(91)
    dist = qft_distribution(s, 11, 1, allow_small_register=True)
    bounds = peak_mass_bounds(s, 11)
    rep_p = analyze_peaks(dist, 7, 11, modulus=91)
    rep_q = analyze_peaks(dist, 13, 11, modulus=91)
    ok_p = all(
        dist.probs[pos] >= float(bounds.unit_peak_per_bin[7]) for pos in rep_p.positions
    )
    ok_q = all(
        dist.probs[pos] >= float(bounds.unit_peak_per_bin[13]) for pos in rep_q.positions
    )
    total = rep_p.mass + rep_q.mass
    ok_total = total < 0.15
    _verdict(
        5,
        ok_p and ok_q and ok_total,
        f"all bins beat their bounds; useful mass {total:.4f} < 0.15 "
        "(unsuitable for period finding at this scale)",
    )


def test_criterion_06_branch_statistics():
    s = factor_semiprime(91)
    bp = branch_probs(s, 14)
    probs = np.array([float(b.probability) for b in bp])
    trials = 100_000
    counts = np.zeros(4, dtype=int)
    for t in range(trials):
        counts[sample_outcome(probs, trial_rng(0, t))] += 1
    zmax = 0.0
    for k in range(4):
        sigma = math.sqrt(probs[k] * (1 - probs[k]) / trials)
        z = abs(counts[k] / trials - probs[k]) / sigma
        zmax = max(zmax, z)
        assert z <= 3.0, (bp[k].label, z)
    unit_exact = {b.label: b.probability for b in branch_probs(s, 11, True)}[1]
    assert unit_exact == Fraction(1620, 2048)
    gap = abs(float(unit_exact - Fraction(72, 91)))
    assert gap < 0.001
    _verdict(
        6,
        True,
        f"{trials} seeded trials, max |z| = {zmax:.2f} <= 3; "
        f"exact unit 1620/2048 vs 72/91 differ by {gap:.1e} < 0.001",
    )


def test_criterion_07_superposition_marginal():
    run = run_exact(91)
    pb = p_b_distribution(run).probs
    brute = oracles.pb_brute(91)
    exact = {
        91: Fraction(325, 8281),  # n0 = 0 (gcd convention gives N)
        7: Fraction(156, 8281),
        13: Fraction(150, 8281),
        1: Fraction(72, 8281),
    }
    for n0 in range(91):
        g = gcd_conv(n0, 91)
        assert abs(pb[n0] - float(exact[g])) <= 1e-9, n0
        assert abs(pb[n0] - brute[n0]) <= 1e-9, n0
    useful = success_mass(run).total_useful
    assert abs(useful - float(Fraction(3097, 8281))) <= 1e-9
    s = run.s
    print(
        "\n  note: delta-comb closed form diverges from brute force: "
        f"it gives {p_b_closed_reference(s, 0)} at n0=0 and "
        f"{p_b_closed_reference(s, 7)} on gcd=7 outcomes, vs brute-force "
        "325/8281 and 156/8281; brute force is authoritative"
    )
    _verdict(
        7,
        True,
        f"marginal matches class rationals and the independent oracle; "
        f"useful mass {useful:.4f} = 3097/8281",
    )


def test_criterion_08_conditional_masses():
    from gausshor.superposition import exact_conditional, factor_mass_a

    run = run_exact(91)
    m0 = factor_mass_a(run, 0)
    m14 = factor_mass_a(run, 14)
    assert abs(m0 - float(Fraction(162, 325))) <= 1e-9
    assert abs(m14 - float(Fraction(84, 156))) <= 1e-9
    # closed forms reproduce those rationals exactly
    n, p = 91, 7
    assert Fraction(2 * n - p - n // p, 2 * (2 * n - p - n // p) + 1) == Fraction(162, 325)
    assert Fraction(n - p, 2 * (n - p) - n // p + 1) == Fraction(84, 156)
    factor_mult = [l for l in range(1, 91) if gcd_conv(l, 91) in (7, 13)]
    worst = 0.0
    for n0 in range(1, 91):
        if gcd_conv(n0, 91) == 1:
            cond = exact_conditional(run, n0)
            worst = max(worst, float(np.max(cond.probs[factor_mult])))
    assert worst < 1e-12
    _verdict(
        8,
        True,
        f"masses 162/325 and 84/156 to 1e-9; coprime conditionals put "
        f"at most {worst:.1e} < 1e-12 on factor multiples",
    )


def test_criterion_09_qubit_variant_peak_mass():
    # The qubit variant concentrates its B mass on the nearest-bin comb of
    # 2**Q / N.  The analytic lower bound is Shor's per-peak 4/pi^2, a
    # worst-case sub-bin offset (delta = 1/2) estimate, so the actual mass
    # (about 0.78 for every tested (N, Q)) sits well above it.  Neither the
    # paper nor the README gives an upper bound; the two-sided check is
    # exact agreement, to 1e-12, with the independent residue-folded sum
    # in oracles.qubit_comb_mass_direct.
    floor = 4 / math.pi**2
    masses = {}
    worst = 0.0
    for n, q_bits in ((21, 9), (15, 9), (33, 11), (35, 11)):
        pb = p_b_distribution(run_qubit(n, q_bits)).probs
        size = 1 << q_bits
        bins = sorted({round(j * size / n) for j in range(n)})
        mass = float(np.sum(pb[bins]))
        masses[(n, q_bits)] = mass
        worst = max(worst, abs(mass - oracles.qubit_comb_mass_direct(n, q_bits)))
    detail = ", ".join(f"N={n},Q={q}: {m:.4f}" for (n, q), m in masses.items())
    ok = all(m >= floor for m in masses.values()) and worst <= 1e-12
    _verdict(
        9,
        ok,
        f"comb mass >= 4/pi^2 = {floor:.4f} and within 1e-12 of the oracle "
        f"(max deviation {worst:.1e}): {detail}",
    )


def test_criterion_10_end_to_end_factoring():
    total_trials = 0
    for n in (15, 21, 35, 91):
        s = factor_semiprime(n)
        q_bits = min_register_bits(n)
        for seed in range(1, 11):
            res = factor_driver(n, q_bits, 200, seed)
            assert res.succeeded and res.factor in (s.p, s.q), (n, seed)
            res2 = sample_factor_driver(run_exact(n), 100, seed)
            assert res2.succeeded and res2.factor in (s.p, s.q), (n, seed)
            total_trials += res.trials_run + res2.trials_run
    _verdict(
        10,
        True,
        f"both drivers factored {{15, 21, 35, 91}} for seeds 1..10 "
        f"({total_trials} trials in total)",
    )


def test_criterion_11_rational_reconstruction():
    checked = 0
    for n in SEMIPRIME_SET:
        s = factor_semiprime(n)
        q_bits = min_register_bits(n)
        for f in (s.p, s.q):
            positions = peak_positions(f, q_bits)
            for j, m in enumerate(positions, start=1):
                if math.gcd(j, f) != 1:
                    continue
                cand = recover_divisor(m, q_bits, n)
                assert cand.gcd_with_n == f, (n, f, j)
                checked += 1
    _verdict(11, True, f"{checked} exact peak positions all decode to their factor")


def test_criterion_12_cli_determinism(tmp_path):
    from gausshor.cli import main

    battery = [
        ["gauss-table", "--n", "35", "--kind", "g"],
        ["gauss-table", "--n", "91", "--kind", "w", "--n0", "4", "--format", "json"],
        ["shor-gauss", "--n", "91", "--q", "11", "--branch", "factor7",
         "--allow-small-register"],
        ["shor-gauss", "--n", "91", "--q", "14", "--trials", "100", "--seed", "1"],
        ["superposition", "--n", "91", "--mode", "exact", "--trials", "100",
         "--seed", "7", "--n0", "14"],
        ["superposition", "--n", "21", "--mode", "qubit", "--q", "9",
         "--report", "pb", "--format", "json"],
        ["purity", "--n", "91"],
        ["sweep", "--n", "15,21,35,91"],
    ]
    for i, args in enumerate(battery):
        first = tmp_path / f"first_{i}"
        second = tmp_path / f"second_{i}"
        assert main([*args, "--output", str(first)]) in (0, 1)
        assert main([*args, "--output", str(second)]) in (0, 1)
        assert first.read_bytes() == second.read_bytes(), args
    _verdict(12, True, f"{len(battery)} command pairs produced byte-identical files")
