"""Command-line front end: table and distribution emission plus the drivers.

Subcommands: gauss-table, shor-gauss, superposition, purity, sweep.  Output
is CSV (schema comment header) or JSON carrying identical numeric content;
floats are rendered with 17 significant digits in both, so files re-parse
to the same doubles and repeated runs with one seed are byte-identical.

Exit codes: 0 success, 1 driver exhausted its trial budget, 2 invalid input.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import shor_gauss, superposition
from .kernels import eval_G, eval_truncated, eval_W, g_of
from .numtheory import NotSemiprimeError, Semiprime, factor_semiprime, gcd_conv
from .states import AmplitudeCapError, Distribution, purity_a, purity_closed

SCHEMA_VERSION = 1


class InputError(Exception):
    """Invalid input; maps to exit code 2 with a one-line diagnostic."""


def _over_denominator(fr: Fraction, den: int) -> str:
    """Render an exact fraction over a fixed display denominator."""
    if den % fr.denominator:
        return f"{fr.numerator}/{fr.denominator}"
    return f"{fr.numerator * (den // fr.denominator)}/{den}"


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    command: str
    n: str | None = None
    q: int | None = None
    trials: int = 0
    seed: int = 0
    branch: str | None = None
    n0: int | None = None
    mode: str | None = None
    kind: str | None = None
    terms: int | None = None
    ell: int | None = None
    report: str = "all"
    format: str = "csv"
    output: str | None = None
    allow_small_register: bool = False

    def echo_items(self) -> list[tuple[str, str]]:
        items = []
        for key in sorted(self.__dataclass_fields__):
            if key == "output":  # path is not content; keep files comparable
                continue
            val = getattr(self, key)
            if val is None:
                continue
            items.append((key, str(val).lower() if isinstance(val, bool) else str(val)))
        return items


_INT_KEYS = ("q", "trials", "seed", "n0", "terms", "ell")
_STR_KEYS = ("n", "branch", "mode", "kind", "report", "format", "output")


def _parse_config_file(path: str) -> dict[str, str]:
    """key = value lines, # comments; later keys win."""
    out: dict[str, str] = {}
    try:
        text = open(path, encoding="utf-8").read()
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InputError(f"{path}:{lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        out[key.strip().replace("-", "_")] = value.strip().strip("\"'")
    return out


def _to_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"--{key} expects an integer, got {raw!r}") from None


def _to_bool(key: str, raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise InputError(f"{key} expects a boolean, got {raw!r}")


def merge_config(ns: argparse.Namespace) -> RunConfig:
    """Resolve flags over config-file values over defaults."""
    file_vals = _parse_config_file(ns.config) if getattr(ns, "config", None) else {}
    cfg = RunConfig(command=ns.command)
    for key in _INT_KEYS + _STR_KEYS + ("allow_small_register",):
        cli_val = getattr(ns, key, None)
        if cli_val is None and key in file_vals:
            raw = file_vals[key]
            if key == "allow_small_register":
                cli_val = _to_bool(key, raw)
            elif key in _INT_KEYS:
                cli_val = _to_int(key, raw)
            else:
                cli_val = raw
        if cli_val is not None:
            setattr(cfg, key, cli_val)
    if cfg.format not in ("csv", "json"):
        raise InputError(f"--format must be csv or json, got {cfg.format!r}")
    return cfg


def _require_n(cfg: RunConfig) -> int:
    if cfg.n is None:
        raise InputError("--n is required")
    return _to_int("n", cfg.n)


def _reduce_even(n: int) -> int:
    """Strip factors of two with a notice; factoring only ever targets odd n."""
    if n <= 0:
        raise InputError(f"--n must be positive, got {n}")
    reduced, halvings = n, 0
    while reduced % 2 == 0:
        reduced //= 2
        halvings += 1
    if halvings:
        if reduced == 1:
            raise InputError(f"n={n} is a power of two; nothing odd left to factor")
        print(
            f"note: n={n} is even; halved {halvings} time(s), proceeding with n={reduced}",
            file=sys.stderr,
        )
    return reduced


# ---------------------------------------------------------------------------
# output rendering


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if v is None:
        return ""
    return str(v)


@dataclass
class Section:
    name: str
    attrs: list[tuple[str, str]] = field(default_factory=list)
    header: tuple[str, ...] = ()
    rows: list[tuple] = field(default_factory=list)


def render_csv(cfg: RunConfig, sections: list[Section]) -> str:
    lines = [f"# schema={SCHEMA_VERSION}"]
    lines.append("# config " + " ".join(f"{k}={v}" for k, v in cfg.echo_items()))
    for sec in sections:
        attrs = "".join(f" {k}={v}" for k, v in sec.attrs)
        lines.append(f"# section={sec.name}{attrs}")
        lines.append(",".join(sec.header))
        for row in sec.rows:
            lines.append(",".join(_fmt_value(v) for v in row))
    return "\n".join(lines) + "\n"


_JSON_SPECIAL = re.compile(r'["\\\x00-\x1f]')


def _json_escape(s: str) -> str:
    if not _JSON_SPECIAL.search(s):
        return '"' + s + '"'
    out = []
    for ch in s:
        if ch in ('"', "\\"):
            out.append("\\" + ch)
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return '"' + "".join(out) + '"'


def _json_value(v) -> str:
    # floats go through the same .17g path as CSV so both formats carry
    # identical numeric content
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, Fraction):
        return _json_escape(f"{v.numerator}/{v.denominator}")
    if v is None:
        return "null"
    return _json_escape(str(v))


def render_json(cfg: RunConfig, sections: list[Section]) -> str:
    parts = [f'"schema": {SCHEMA_VERSION}']
    cfg_body = ", ".join(
        f"{_json_escape(k)}: {_json_escape(v)}" for k, v in cfg.echo_items()
    )
    parts.append(f'"config": {{{cfg_body}}}')
    sec_texts = []
    for sec in sections:
        attrs = ", ".join(
            f"{_json_escape(k)}: {_json_escape(v)}" for k, v in sec.attrs
        )
        rows = ", ".join(
            "{"
            + ", ".join(
                f"{_json_escape(col)}: {_json_value(val)}"
                for col, val in zip(sec.header, row)
            )
            + "}"
            for row in sec.rows
        )
        body = f'"name": {_json_escape(sec.name)}'
        if attrs:
            body += f', "attrs": {{{attrs}}}'
        body += f', "rows": [{rows}]'
        sec_texts.append("{" + body + "}")
    parts.append(f'"sections": [{", ".join(sec_texts)}]')
    return "{" + ", ".join(parts) + "}\n"


def emit(cfg: RunConfig, sections: list[Section]) -> None:
    text = (
        render_csv(cfg, sections)
        if cfg.format == "csv"
        else render_json(cfg, sections)
    )
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# annotations shared by table emitters


def _divisor_annotation(ell: int, n: int) -> str:
    g = gcd_conv(ell % n, n)
    if g == n:
        return "multiple-of-N"
    if g > 1:
        return "factor-multiple"
    return ""


def _distribution_section(
    name: str,
    dist: Distribution,
    annotate,
    attrs: list[tuple[str, str]] | None = None,
) -> Section:
    sec = Section(name, attrs or [], ("label", "probability", "annotation"))
    for label, prob in zip(dist.labels.tolist(), dist.probs.tolist()):
        if prob > 0.0:
            sec.rows.append((label, prob, annotate(label)))
    return sec


# ---------------------------------------------------------------------------
# subcommands


def cmd_gauss_table(cfg: RunConfig) -> int:
    n = _reduce_even(_require_n(cfg))
    kind = cfg.kind or "g"
    if kind not in ("standard", "w", "truncated", "g"):
        raise InputError(f"--kind must be one of standard|w|truncated|g, got {kind!r}")
    if kind == "truncated":
        ells = range(1, n + 1) if cfg.ell is None else [cfg.ell]
        terms = cfg.terms if cfg.terms is not None else 5
    elif kind == "w":
        ells = range(0, n) if cfg.ell is None else [cfg.ell]
    else:
        ells = range(1, n + 1) if cfg.ell is None else [cfg.ell]
    sec = Section("table", [("kind", kind)], ("label", "value", "annotation"))
    try:
        for ell in ells:
            if kind == "g":
                value = float(g_of(ell, n))
            elif kind == "standard":
                value = abs(eval_G(ell, n)) ** 2
            elif kind == "w":
                value = abs(eval_W(cfg.n0 or 0, ell, n)) ** 2
            else:
                value = abs(eval_truncated(ell, n, terms))
            sec.rows.append((ell, value, _divisor_annotation(ell, n)))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    emit(cfg, [sec])
    return 0


def _parse_branch(spec: str, s: Semiprime) -> int:
    lowered = spec.lower()
    if lowered in ("n", "case-n"):
        return s.n
    if lowered in ("unit", "1", "case-unit"):
        return 1
    if lowered.startswith("factor"):
        try:
            f = int(lowered.removeprefix("factor").lstrip("-"))
        except ValueError:
            raise InputError(f"cannot parse branch {spec!r}") from None
        if f in (s.p, s.q):
            return f
        raise InputError(f"{f} is not a prime factor of {s.n}")
    raise InputError(f"cannot parse branch {spec!r}")


def _annotate_bins(s: Semiprime, q_bits: int, periods: list[int]):
    notes: dict[int, str] = {}
    for period in (s.n, *periods):  # period peaks override modulus peaks
        size = 1 << q_bits
        for j in range(1, period):
            pos = (2 * j * size + period) // (2 * period)
            notes[pos] = f"peak period={period} j={j}"
    return lambda label: notes.get(label, "")


def _driver_sections(result) -> list[Section]:
    summary = Section(
        "driver",
        header=("field", "value"),
        rows=[
            ("n", result.n),
            ("succeeded", result.succeeded),
            ("factor", result.factor),
            ("trials_run", result.trials_run),
            ("max_trials", result.max_trials),
            ("seed", result.seed),
        ],
    )
    trials = Section(
        "trials", header=("trial", "outcome_b", "outcome_a", "candidate", "factor")
    )
    for rec in result.records:
        trials.rows.append(
            (rec.index, rec.outcome_b, rec.outcome_a, rec.candidate, rec.factor)
        )
    return [summary, trials]


def _driver_summary_line(cfg: RunConfig, result) -> int:
    if cfg.output:
        print(
            f"factor={result.factor if result.succeeded else 'none'} "
            f"trials={result.trials_run} seed={result.seed}"
        )
    return 0 if result.succeeded else 1


def cmd_shor_gauss(cfg: RunConfig) -> int:
    n = _reduce_even(_require_n(cfg))
    try:
        s = factor_semiprime(n)
    except NotSemiprimeError as exc:
        raise InputError(str(exc)) from exc
    q_bits = cfg.q if cfg.q is not None else shor_gauss.min_register_bits(n)
    allow = cfg.allow_small_register
    try:
        branches = shor_gauss.branch_probs(s, q_bits, allow)
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    sections = [
        Section(
            "branch_probs",
            header=("label", "probability", "annotation"),
            rows=[
                (
                    b.label,
                    float(b.probability),
                    f"case-{b.kind.value} exact={_over_denominator(b.probability, 1 << q_bits)}",
                )
                for b in branches
            ],
        )
    ]
    if cfg.branch:
        label = _parse_branch(cfg.branch, s)
        try:
            dist = shor_gauss.qft_distribution(s, q_bits, label, allow)
        except AmplitudeCapError as exc:
            raise InputError(str(exc)) from exc
        periods = {s.n: [s.n], s.p: [s.p], s.q: [s.q], 1: [s.p, s.q]}[label]
        sections.append(
            _distribution_section(
                "distribution",
                dist,
                _annotate_bins(s, q_bits, periods),
                [("branch", str(label))],
            )
        )
        for period in periods:
            rep = shor_gauss.analyze_peaks(dist, period, q_bits, modulus=s.n)
            sections.append(
                Section(
                    "peak_report",
                    [("period", str(period))],
                    ("field", "value"),
                    [
                        ("period", rep.period),
                        ("positions", " ".join(map(str, rep.positions))),
                        ("mass", rep.mass),
                        ("dc_mass", rep.dc_mass),
                        ("max_on_peak", rep.max_on_peak),
                        ("max_off_structure", rep.max_off_structure),
                    ],
                )
            )
    result = None
    if cfg.trials > 0:
        try:
            result = shor_gauss.factor_driver(
                n, q_bits, cfg.trials, cfg.seed, allow_small_register=allow
            )
        except AmplitudeCapError as exc:
            raise InputError(str(exc)) from exc
        sections.extend(_driver_sections(result))
    emit(cfg, sections)
    return _driver_summary_line(cfg, result) if result is not None else 0


def cmd_superposition(cfg: RunConfig) -> int:
    n = _reduce_even(_require_n(cfg))
    mode = cfg.mode or "exact"
    if mode not in ("exact", "qubit"):
        raise InputError(f"--mode must be exact or qubit, got {mode!r}")
    report = cfg.report
    if report not in ("all", "pb", "conditional", "purity", "success"):
        raise InputError(f"unknown --report {report!r}")
    if mode == "qubit" and report in ("purity", "success"):
        raise InputError(f"--report {report} needs --mode exact")
    if report == "conditional" and cfg.n0 is None:
        raise InputError("--report conditional needs --n0")
    try:
        if mode == "exact":
            run = superposition.run_exact(n)
        else:
            if cfg.q is None:
                raise InputError("--mode qubit needs --q")
            run = superposition.run_qubit(n, cfg.q)
    except (NotSemiprimeError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    s = run.s

    sections = []
    if report in ("all", "pb"):
        dist = superposition.p_b_distribution(run)
        if mode == "exact":
            def annotate(label, _s=s):
                g = gcd_conv(label % _s.n, _s.n)
                if label == 0:
                    return "useful n0=0"
                if g in (_s.p, _s.q):
                    return f"useful gcd={g}"
                return ""
        else:
            size = 1 << run.q_bits
            peaks = {
                (2 * j * size + s.n) // (2 * s.n): j for j in range(1, s.n)
            }
            peaks[0] = 0
            annotate = lambda label: (
                f"peak j={peaks[label]}" if label in peaks else ""
            )
        sections.append(_distribution_section("pb", dist, annotate))
    if cfg.n0 is not None and report in ("all", "conditional"):
        try:
            if mode == "exact":
                from .states import conditional_a

                cond = conditional_a(run.state, cfg.n0)
            else:
                cond = superposition.conditional_after_peak(run, cfg.n0)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        sections.append(
            _distribution_section(
                "conditional",
                cond,
                lambda label: _divisor_annotation(label, s.n),
                [("n0", str(cfg.n0))],
            )
        )
    if mode == "exact" and report in ("all", "success"):
        sm = superposition.success_mass(run)
        sections.append(
            Section(
                "success_mass",
                header=("field", "value"),
                rows=[
                    ("p_b_zero", sm.p_b_zero),
                    ("p_b_factor_multiple", sm.p_b_factor_multiple),
                    ("p_b_coprime", sm.p_b_coprime),
                    ("total_useful", sm.total_useful),
                ],
            )
        )
    purity_line = None
    if mode == "exact" and report in ("all", "purity"):
        measured = purity_a(run.state)
        closed = purity_closed(s)
        sections.append(
            Section(
                "purity",
                header=("field", "value"),
                rows=[
                    ("measured", measured),
                    ("closed", _over_denominator(closed, n * n)),
                    ("closed_float", float(closed)),
                ],
            )
        )
        purity_line = f"purity={format(measured, '.17g')} closed={_over_denominator(closed, n * n)}"
    result = None
    if cfg.trials > 0:
        result = superposition.sample_factor_driver(
            n, mode, cfg.trials, cfg.seed, q_bits=cfg.q
        )
        sections.extend(_driver_sections(result))
    emit(cfg, sections)
    if purity_line and cfg.output:
        print(purity_line)
    return _driver_summary_line(cfg, result) if result is not None else 0


def cmd_purity(cfg: RunConfig) -> int:
    n = _reduce_even(_require_n(cfg))
    try:
        run = superposition.run_exact(n)
    except (NotSemiprimeError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    measured = purity_a(run.state)
    closed = purity_closed(run.s)
    emit(
        cfg,
        [
            Section(
                "purity",
                header=("field", "value"),
                rows=[
                    ("n", n),
                    ("measured", measured),
                    ("closed", _over_denominator(closed, n * n)),
                    ("closed_float", float(closed)),
                ],
            )
        ],
    )
    if cfg.output:
        print(f"purity={format(measured, '.17g')} closed={_over_denominator(closed, n * n)}")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.n is None:
        raise InputError("--n is required (comma-separated list)")
    try:
        values = [int(part) for part in cfg.n.split(",") if part.strip()]
    except ValueError:
        raise InputError(f"--n expects a comma-separated integer list, got {cfg.n!r}") from None
    if not values:
        raise InputError("--n list is empty")
    sec = Section(
        "sweep",
        header=("n", "p", "q", "purity", "purity_closed", "useful_mass"),
    )
    for raw in values:
        n = _reduce_even(raw)
        try:
            run = superposition.run_exact(n)
        except (NotSemiprimeError, ValueError) as exc:
            raise InputError(str(exc)) from exc
        sec.rows.append(
            (
                n,
                run.s.p,
                run.s.q,
                purity_a(run.state),
                _over_denominator(purity_closed(run.s), n * n),
                superposition.success_mass(run).total_useful,
            )
        )
    emit(cfg, [sec])
    return 0


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausshor",
        description="Gauss-sum factoring simulator: tables, distributions, drivers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--n", help="number under test (sweep: comma-separated list)")
        p.add_argument("--seed", type=int, help="64-bit seed for all sampling")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--output", help="write to this path instead of stdout")
        p.add_argument("--config", help="key=value config file; flags override it")

    p = sub.add_parser("gauss-table", help="emit one sum family as a table")
    add_common(p)
    p.add_argument("--kind", choices=("standard", "w", "truncated", "g"))
    p.add_argument("--n0", type=int, help="linear-phase shift for --kind w")
    p.add_argument("--terms", type=int, help="term count for --kind truncated")
    p.add_argument("--ell", type=int, help="restrict the table to one trial factor")

    p = sub.add_parser("shor-gauss", help="divisor-signal branch algorithm")
    add_common(p)
    p.add_argument("--q", type=int, help="register size in bits")
    p.add_argument("--branch", help="n | unit | factor<f>: emit that branch's spectrum")
    p.add_argument("--trials", type=int, help="run the factoring driver this many trials")
    p.add_argument(
        "--allow-small-register",
        dest="allow_small_register",
        action="store_const",
        const=True,
        help="permit 2**Q <= N**2 (figure-scale demos)",
    )

    p = sub.add_parser("superposition", help="amplitude-encoded Gauss-sum algorithm")
    add_common(p)
    p.add_argument("--mode", choices=("exact", "qubit"))
    p.add_argument("--q", type=int, help="register size in bits (qubit mode)")
    p.add_argument("--n0", type=int, help="emit the conditional for this B outcome")
    p.add_argument("--report", choices=("all", "pb", "conditional", "purity", "success"))
    p.add_argument("--trials", type=int, help="run the factoring driver this many trials")

    p = sub.add_parser("purity", help="measured and closed-form purity for one n")
    add_common(p)

    p = sub.add_parser("sweep", help="batch purity/success table over semiprimes")
    add_common(p)
    return parser


_COMMANDS = {
    "gauss-table": cmd_gauss_table,
    "shor-gauss": cmd_shor_gauss,
    "superposition": cmd_superposition,
    "purity": cmd_purity,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        cfg = merge_config(ns)
        return _COMMANDS[ns.command](cfg)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
