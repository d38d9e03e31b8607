"""Command-line front end: table and distribution emission plus the drivers.

Subcommands: gauss-table, shor-gauss, superposition, purity, sweep.  Output
is CSV (schema comment header) or JSON carrying identical numeric content;
floats are rendered with 17 significant digits in both, so files re-parse
to the same doubles and repeated runs with one seed are byte-identical.
Both formats render each section column by column through one cell
formatter, which formats each distinct value of a column once.

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
from .numtheory import Semiprime, factor_semiprime
from .states import AmplitudeCapError, Distribution, conditional_a, purity_a, purity_closed

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


def _parse_config_file(path: str) -> dict[str, str]:
    """key = value lines, # comments; later keys win."""
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
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


def _from_text(key: str, raw: str):
    """A config-file value as the type of RunConfig's field key (its annotation text)."""
    kind = RunConfig.__dataclass_fields__[key].type
    if kind == "bool":
        return _to_bool(key, raw)
    return _to_int(key, raw) if kind.startswith("int") else raw


def merge_config(ns: argparse.Namespace) -> RunConfig:
    """Resolve flags over config-file values over defaults.

    Every RunConfig field but the command is a key, accepted by every
    subcommand; a config-file key outside that set is rejected.
    """
    keys = [key for key in RunConfig.__dataclass_fields__ if key != "command"]
    file_vals = _parse_config_file(ns.config) if getattr(ns, "config", None) else {}
    for key in file_vals:
        if key not in keys:
            raise InputError(f"{ns.config}: unknown key {key!r}")
    cfg = RunConfig(command=ns.command)
    for key in keys:
        value = getattr(ns, key, None)
        if value is None and key in file_vals:
            value = _from_text(key, file_vals[key])
        if value is not None:
            setattr(cfg, key, value)
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


@dataclass
class Section:
    """One table of the report; every row has one value per header column."""

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
        lines.extend(map(",".join, zip(*_columns(sec, json=False))))
    return "\n".join(lines) + "\n"


_JSON_SPECIAL = re.compile(r'["\\\x00-\x1f]')


def _escape_char(match: re.Match) -> str:
    ch = match.group()
    return "\\" + ch if ch in '"\\' else f"\\u{ord(ch):04x}"


def _json_escape(s: str) -> str:
    return '"' + _JSON_SPECIAL.sub(_escape_char, s) + '"'


def _format_cell(v, json: bool) -> str:
    # floats go through one .17g path in both formats, so CSV and JSON
    # carry identical numeric content
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return "null" if json else ""
    text = f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else str(v)
    return _json_escape(text) if json else text


def _format_column(values, json: bool, prefix: str = "") -> list[str]:
    """prefix + the text of each cell of one column, each distinct value formatted once.

    The memo is keyed on type and value, and zeros also on their text, so
    0.0 and -0.0, True and 1, and 1 and 1.0 each keep their own text.  A
    column of plain ints (register labels, all distinct) skips the memo.
    """
    if set(map(type, values)) == {int}:
        return [prefix + text for text in map(str, values)]
    memo: dict = {}
    out = []
    for v in values:
        key = (type(v), v, str(v) if v == 0 else None)
        text = memo.get(key)
        if text is None:
            text = memo[key] = prefix + _format_cell(v, json)
        out.append(text)
    return out


def _columns(sec: Section, json: bool) -> list[list[str]]:
    """The section's cells column by column; a JSON cell leads with its escaped key."""
    return [
        _format_column(col, json, f"{_json_escape(key)}: " if json else "")
        for key, col in zip(sec.header, zip(*sec.rows))
    ]


def _json_pairs(items) -> str:
    return ", ".join(f"{_json_escape(k)}: {_json_escape(v)}" for k, v in items)


def render_json(cfg: RunConfig, sections: list[Section]) -> str:
    sec_texts = []
    for sec in sections:
        attrs = f', "attrs": {{{_json_pairs(sec.attrs)}}}' if sec.attrs else ""
        rows = "}, {".join(map(", ".join, zip(*_columns(sec, json=True))))
        rows = "{" + rows + "}" if rows else ""
        sec_texts.append(f'{{"name": {_json_escape(sec.name)}{attrs}, "rows": [{rows}]}}')
    return (
        f'{{"schema": {SCHEMA_VERSION}, "config": {{{_json_pairs(cfg.echo_items())}}}, '
        f'"sections": [{", ".join(sec_texts)}]}}\n'
    )


def emit(cfg: RunConfig, sections: list[Section]) -> None:
    text = (render_csv if cfg.format == "csv" else render_json)(cfg, sections)
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# annotations shared by table emitters: an annotator maps a column of
# integer labels to one note per label


def _gcd_notes(n: int, notes: dict[int, str], default: str = ""):
    """Annotator: the note of gcd(label mod n, n) for each label, or default."""
    return lambda labels: [
        notes.get(g, default) for g in np.gcd(np.asarray(labels) % n, n).tolist()
    ]


def _divisor_notes(n: int):
    return _gcd_notes(n, {1: "", n: "multiple-of-N"}, "factor-multiple")


def _label_notes(notes: dict[int, str]):
    """Annotator: the note of each label, or none."""
    return lambda labels: [notes.get(label, "") for label in labels.tolist()]


def _distribution_section(
    name: str,
    dist: Distribution,
    annotate,
    attrs: list[tuple[str, str]] | None = None,
) -> Section:
    keep = dist.probs > 0.0
    labels = dist.labels[keep]
    rows = list(zip(labels.tolist(), dist.probs[keep].tolist(), annotate(labels)))
    return Section(name, attrs or [], ("label", "probability", "annotation"), rows)


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
    values = []
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
            values.append(value)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    rows = list(zip(ells, values, _divisor_notes(n)(ells)))
    emit(cfg, [Section("table", [("kind", kind)], ("label", "value", "annotation"), rows)])
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
        for j in range(1, period):
            notes[shor_gauss.peak_bin(j, period, q_bits)] = f"peak period={period} j={j}"
    return _label_notes(notes)


def _field_section(name: str, obj, fields: str, attrs=None) -> Section:
    """A field,value section holding the named attributes of obj."""
    rows = [(f, getattr(obj, f)) for f in fields.split()]
    return Section(name, attrs or [], ("field", "value"), rows)


def _driver_sections(result) -> list[Section]:
    header = ("trial", "outcome_b", "outcome_a", "candidate", "factor")
    trials = [(r.index, r.outcome_b, r.outcome_a, r.candidate, r.factor) for r in result.records]
    return [
        _field_section("driver", result, "n succeeded factor trials_run max_trials seed"),
        Section("trials", header=header, rows=trials),
    ]


def _driver_summary_line(cfg: RunConfig, result) -> int:
    if cfg.output:
        print(
            f"factor={result.factor if result.succeeded else 'none'} "
            f"trials={result.trials_run} seed={result.seed}"
        )
    return 0 if result.succeeded else 1


def _checked(build, *args):
    """build(*args), with a ValueError (input the library rejects) mapped to exit 2."""
    try:
        return build(*args)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def cmd_shor_gauss(cfg: RunConfig) -> int:
    n = _reduce_even(_require_n(cfg))
    s = _checked(factor_semiprime, n)
    q_bits = cfg.q if cfg.q is not None else shor_gauss.min_register_bits(n)
    allow = cfg.allow_small_register
    branches = _checked(shor_gauss.branch_probs, s, q_bits, allow)

    rows = [
        (b.label, float(b.probability),
         f"case-{b.kind.value} exact={_over_denominator(b.probability, 1 << q_bits)}")
        for b in branches
    ]
    sections = [Section("branch_probs", header=("label", "probability", "annotation"), rows=rows)]
    if cfg.branch:
        label = _parse_branch(cfg.branch, s)
        dist = shor_gauss.qft_distribution(s, q_bits, label, allow)
        periods = {s.n: [s.n], s.p: [s.p], s.q: [s.q], 1: [s.p, s.q]}[label]
        sections.append(
            _distribution_section(
                "distribution",
                dist,
                _annotate_bins(s, q_bits, periods),
                [("branch", str(label))],
            )
        )
        fields = "period positions mass dc_mass max_on_peak max_off_structure"
        for period in periods:
            rep = shor_gauss.analyze_peaks(dist, period, q_bits, modulus=s.n)
            sec = _field_section("peak_report", rep, fields, [("period", str(period))])
            sec.rows[1] = ("positions", " ".join(map(str, rep.positions)))  # one cell
            sections.append(sec)
    result = None
    if cfg.trials > 0:
        result = shor_gauss.factor_driver(
            n, q_bits, cfg.trials, cfg.seed, allow_small_register=allow
        )
        sections.extend(_driver_sections(result))
    emit(cfg, sections)
    return _driver_summary_line(cfg, result) if result is not None else 0


def _purity_report(run, *lead_rows) -> tuple[Section, str]:
    """The purity section of an exact run, and its one-line summary."""
    measured = purity_a(run.state)
    closed = purity_closed(run.s)
    closed_text = _over_denominator(closed, run.n * run.n)
    rows = [*lead_rows, ("measured", measured), ("closed", closed_text),
            ("closed_float", float(closed))]
    return (
        Section("purity", header=("field", "value"), rows=rows),
        f"purity={format(measured, '.17g')} closed={closed_text}",
    )


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
    if mode == "exact":
        run = _checked(superposition.run_exact, n)
    elif cfg.q is None:
        raise InputError("--mode qubit needs --q")
    else:
        run = _checked(superposition.run_qubit, n, cfg.q)
    s = run.s

    sections = []
    if report in ("all", "pb"):
        dist = superposition.p_b_distribution(run)
        if mode == "exact":  # labels are 0 .. N-1, so gcd N means label 0
            notes = {n: "useful n0=0", s.p: f"useful gcd={s.p}", s.q: f"useful gcd={s.q}"}
            annotate = _gcd_notes(n, notes)
        else:
            annotate = _label_notes(
                {shor_gauss.peak_bin(j, n, run.q_bits): f"peak j={j}" for j in range(n)}
            )
        sections.append(_distribution_section("pb", dist, annotate))
    if cfg.n0 is not None and report in ("all", "conditional"):
        if mode == "exact":
            cond = _checked(conditional_a, run.state, cfg.n0)
        else:
            cond = _checked(superposition.conditional_after_peak, run, cfg.n0)
        sections.append(
            _distribution_section(
                "conditional",
                cond,
                _divisor_notes(n),
                [("n0", str(cfg.n0))],
            )
        )
    if mode == "exact" and report in ("all", "success"):
        sm = superposition.success_mass(run)
        fields = "p_b_zero p_b_factor_multiple p_b_coprime total_useful"
        sections.append(_field_section("success_mass", sm, fields))
    purity_line = None
    if mode == "exact" and report in ("all", "purity"):
        purity_sec, purity_line = _purity_report(run)
        sections.append(purity_sec)
    result = None
    if cfg.trials > 0:
        result = superposition.sample_factor_driver(run, cfg.trials, cfg.seed)
        sections.extend(_driver_sections(result))
    emit(cfg, sections)
    if purity_line and cfg.output:
        print(purity_line)
    return _driver_summary_line(cfg, result) if result is not None else 0


def cmd_purity(cfg: RunConfig) -> int:
    n = _reduce_even(_require_n(cfg))
    run = _checked(superposition.run_exact, n)
    sec, line = _purity_report(run, ("n", n))
    emit(cfg, [sec])
    if cfg.output:
        print(line)
    return 0


def _sweep_row(raw: int) -> tuple:
    """One sweep row; its run is released on return, before the next one is built."""
    run = _checked(superposition.run_exact, _reduce_even(raw))
    n = run.n
    return (
        n,
        run.s.p,
        run.s.q,
        purity_a(run.state),
        _over_denominator(purity_closed(run.s), n * n),
        superposition.success_mass(run).total_useful,
    )


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
    sec.rows.extend(_sweep_row(raw) for raw in values)
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
    except (InputError, AmplitudeCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
