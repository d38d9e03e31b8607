"""Output oracles for the benchmark, independent of the package's numerics.

Every reference value comes from exact closed forms evaluated with
``fractions.Fraction`` and ``math.gcd`` on the factors listed in
``workloads.SEMIPRIMES``; nothing here imports gausshor.  A check either
passes, adding its error to the running maximum, or appends a one-line
failure.  Errors are absolute for references of modulus at most 1 and
relative above that.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from workloads import SEMIPRIMES

TOL_VALUE = 1e-12  # tables and distribution rows against closed forms
TOL_PURITY = 1e-12  # purity against (4N - 2p - 2q + 1)/N^2
TOL_MASS = 1e-9  # emitted distributions sum to 1
DISTRIBUTIONS = ("distribution", "pb", "conditional")


@dataclass
class Section:
    name: str
    attrs: dict
    header: list
    rows: list  # lists of strings, as emitted


@dataclass
class Verdict:
    failures: list = field(default_factory=list)
    err_max: float = 0.0
    trials_run: int | None = None  # from the driver record, when there is one

    def close(self, what: str, value: float, ref, tol: float) -> None:
        ref = float(ref)
        err = abs(value - ref) / max(1.0, abs(ref))
        self.err_max = max(self.err_max, err)
        if not err <= tol:
            self.failures.append(f"{what}: {value!r} vs {ref!r} (err {err:.3g} > {tol:g})")

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def parse_csv(text: str) -> list[Section]:
    sections: list[Section] = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("# section="):
            name, *pairs = line[len("# section="):].split(" ")
            attrs = dict(pair.split("=", 1) for pair in pairs)
            sec = Section(name, attrs, lines[i + 1].split(","), [])
            sections.append(sec)
            i += 2
            continue
        if not line.startswith("#"):
            sections[-1].rows.append(line.split(","))
        i += 1
    return sections


def _json_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def parse_json(text: str) -> list[Section]:
    doc = json.loads(text, parse_float=str, parse_int=str)
    sections = []
    for sec in doc["sections"]:
        rows = sec["rows"]
        header = list(rows[0]) if rows else []
        sections.append(
            Section(
                sec["name"],
                sec.get("attrs", {}),
                header,
                [[_json_cell(v) for v in row.values()] for row in rows],
            )
        )
    return sections


def options(argv: list[str]) -> dict[str, str]:
    """--key value pairs of a CLI argument list (the subcommand is under 'command')."""
    opts = {"command": argv[0]}
    for key, value in zip(argv[1::2], argv[2::2]):
        opts[key.lstrip("-")] = value
    return opts


# --- closed forms -----------------------------------------------------------


def w_sq(shift: int, ell: int, n: int) -> Fraction:
    """|W_shift(ell; N)|^2 from the gcd case table of a semiprime modulus."""
    d = math.gcd(ell % n, n)
    if d == n:
        return Fraction(1 if shift % n == 0 else 0)
    if d == 1:
        return Fraction(1, n)
    return Fraction(d, n) if shift % d == 0 else Fraction(0)


def pb_exact(n0: int, n: int) -> Fraction:
    """Exact-run B marginal: (1/N) sum_l |W_n0(l)|^2, summed class by class."""
    p, q = SEMIPRIMES[n]
    total = Fraction((p - 1) * (q - 1), n)  # units, 1/N each
    if n0 % p == 0:
        total += Fraction((q - 1) * p, n)  # nonzero multiples of p
    if n0 % q == 0:
        total += Fraction((p - 1) * q, n)
    if n0 == 0:
        total += 1  # l = 0
    return total / n


def purity(n: int) -> Fraction:
    p, q = SEMIPRIMES[n]
    return Fraction(4 * n - 2 * p - 2 * q + 1, n * n)


def over(fr: Fraction, den: int) -> str:
    """A fraction as the CLI prints it over a display denominator."""
    if den % fr.denominator:
        return f"{fr.numerator}/{fr.denominator}"
    return f"{fr.numerator * (den // fr.denominator)}/{den}"


def success_masses(n: int) -> tuple[Fraction, Fraction, Fraction]:
    p, q = SEMIPRIMES[n]
    factor = coprime = Fraction(0)
    for n0 in range(1, n):
        g = math.gcd(n0, n)
        if g in (p, q):
            factor += pb_exact(n0, n)
        elif g == 1:
            coprime += pb_exact(n0, n)
    return pb_exact(0, n), factor, coprime


def branch_exact(n: int, q_bits: int) -> dict[int, Fraction]:
    """Exact B-label probabilities from comb counts floor(2**Q / x) + 1."""
    p, q = SEMIPRIMES[n]
    size = 1 << q_bits
    m_n, m_p, m_q = (size // x + 1 for x in (n, p, q))
    return {
        n: Fraction(m_n, size),
        p: Fraction(m_p - m_n, size),
        q: Fraction(m_q - m_n, size),
        1: Fraction(size - m_p - m_q + m_n, size),
    }


# --- per-section checks -----------------------------------------------------


def _fields(sec: Section) -> dict[str, str]:
    return {row[0]: row[1] for row in sec.rows}


def _check_factor(v: Verdict, text: str, n: int, where: str) -> None:
    if text in ("", "none"):
        return
    f = int(text)
    v.require(1 < f < n and n % f == 0, f"{where}: reported factor {f} does not divide {n}")


def _check_table(v: Verdict, sec: Section, n: int, opts: dict) -> None:
    kind = sec.attrs["kind"]
    shift = int(opts.get("n0", 0))
    for label, value, _ in sec.rows:
        ell, val = int(label), float(value)
        if kind == "standard":
            v.close(f"standard l={ell}", val, n * math.gcd(ell, n), TOL_VALUE)
        elif kind == "w":
            v.close(f"w n0={shift} l={ell}", val, w_sq(shift, ell, n), TOL_VALUE)
        elif kind == "truncated" and n % ell == 0:
            v.close(f"truncated l={ell}", val, 1, TOL_VALUE)
        elif kind == "g":
            v.close(f"g l={ell}", val, math.gcd(ell, n), 0.0)


def _check_exact_superposition(v: Verdict, sec: Section, n: int) -> None:
    if sec.name == "pb":
        for label, prob, _ in sec.rows:
            v.close(f"pb n0={label}", float(prob), pb_exact(int(label), n), TOL_VALUE)
    elif sec.name == "conditional":
        n0 = int(sec.attrs["n0"])
        mass = pb_exact(n0, n)
        for label, prob, _ in sec.rows:
            ref = w_sq(n0, int(label), n) / n / mass
            v.close(f"conditional n0={n0} l={label}", float(prob), ref, TOL_VALUE)
    elif sec.name == "success_mass":
        zero, factor, coprime = success_masses(n)
        got = _fields(sec)
        for key, ref in (("p_b_zero", zero), ("p_b_factor_multiple", factor),
                         ("p_b_coprime", coprime), ("total_useful", zero + factor)):
            v.close(f"success_mass {key}", float(got[key]), ref, TOL_VALUE)


def _check_purity_fields(v: Verdict, got: dict, n: int) -> None:
    v.close(f"purity n={n}", float(got["measured"]), purity(n), TOL_PURITY)
    v.require(got["closed"] == over(purity(n), n * n), f"purity n={n}: closed {got['closed']}")


def _check_driver(v: Verdict, sections: list[Section], stdout: str, n: int) -> int | None:
    """Check reported factors; return the exit code the driver record implies."""
    expected = None
    for sec in sections:
        if sec.name == "driver":
            got = _fields(sec)
            _check_factor(v, got["factor"], n, "driver")
            expected = 0 if got["succeeded"] == "true" else 1
            v.trials_run = int(got["trials_run"])
        elif sec.name == "trials":
            for row in sec.rows:
                _check_factor(v, row[4], n, f"trial {row[0]}")
    for token in stdout.split():
        if token.startswith("factor="):
            _check_factor(v, token[len("factor="):], n, "summary line")
    return expected


def check_command(argv: list[str], rc, payload: str, stdout: str) -> Verdict:
    """Verify one command's output; ``payload`` is what it wrote as CSV or JSON."""
    v = Verdict()
    opts = options(argv)
    try:
        sections = (parse_json if opts.get("format") == "json" else parse_csv)(payload)
    except (ValueError, KeyError, IndexError) as exc:
        v.failures.append(f"unparseable output: {exc!r}")
        return v
    v.require(bool(sections), "no sections emitted")
    command = opts["command"]
    n = None if command == "sweep" else int(opts["n"])
    for sec in sections:
        if sec.name in DISTRIBUTIONS:
            probs = [float(row[1]) for row in sec.rows]
            v.require(all(p >= 0.0 for p in probs), f"{sec.name}: negative probability")
            v.close(f"{sec.name} mass", math.fsum(probs), 1, TOL_MASS)
        if sec.name == "table":
            _check_table(v, sec, n, opts)
        elif sec.name == "purity":
            _check_purity_fields(v, _fields(sec), n)
        elif sec.name == "sweep":
            for row in sec.rows:
                m = int(row[0])
                _check_purity_fields(v, {"measured": row[3], "closed": row[4]}, m)
                v.close(f"sweep useful_mass n={m}", float(row[5]), sum(success_masses(m)[:2]), TOL_VALUE)
        elif sec.name == "branch_probs":
            q_bits = int(opts.get("q", (n * n).bit_length()))
            exact = branch_exact(n, q_bits)
            for label, prob, note in sec.rows:
                ref = exact[int(label)]
                shown = Fraction(note.split("exact=")[1])
                v.require(shown == ref, f"branch {label}: exact={shown} vs {ref}")
                v.require(float(prob) == float(ref), f"branch {label}: {prob} vs {float(ref)!r}")
        elif command == "superposition" and opts.get("mode", "exact") == "exact":
            _check_exact_superposition(v, sec, n)
    expected_rc = _check_driver(v, sections, stdout, n) if n is not None else None
    expected_rc = 0 if expected_rc is None else expected_rc
    v.require(rc == expected_rc, f"exit code {rc}, driver record implies {expected_rc}")
    return v
