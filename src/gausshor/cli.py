"""Command-line front end: table and distribution emission plus the drivers.

Subcommands: gauss-table, shor-gauss, superposition, purity, sweep.  One
table, _USAGE, gives each subcommand's help line and the flags it takes,
each a RunConfig key given as ``--key value`` or ``--key=value``; the
command line is read against it, and --help is printed from it.  Output
is CSV (schema comment header) or JSON carrying identical numeric content;
floats are rendered with 17 significant digits in both, so files re-parse
to the same doubles and repeated runs with one seed are byte-identical.
A section holds its table as typed columns.  A report is rendered and
written in pages of at most 1,024 rows, a longer table in slices of its
columns, so no command holds the whole text of a long report.  emit
prepares each column once per report: a Coded annotation column, and a
float64 column of at most a page of distinct bit patterns (so -0.0 and
0.0 keep their own texts), become their distinct final cell texts and
one code per row.  Any other column, a spectrum, integer labels or a
short plain list, is formatted cell by cell on its page.  A distribution
section has one row per register label, in label order, zero-probability
labels included, so its rows do not depend on whether rounding leaves an
analytic zero at 0.0 or at 1e-35.

Exit codes: 0 success (and --help), 1 driver exhausted its trial budget,
2 invalid input, a rejected command line or an output file that cannot
be written.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

import numpy as np

from . import shor_gauss, superposition
from .kernels import eval_G, eval_truncated, eval_W, g_of
from .numtheory import Semiprime, factor_semiprime
from .states import AmplitudeCapError, Distribution, amplitude_cap, purity_closed

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


class RunConfig:
    """One command's settings.

    The annotated class attributes are the one table of keys: each key's
    annotation text is its type and its class value its default.  Every
    key but the command is a config-file key, and a flag where _USAGE
    lists it.
    """

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

    def __init__(self, command: str, **values):
        unknown = values.keys() - RunConfig.__annotations__
        if unknown:
            raise TypeError(f"RunConfig has no key {min(unknown)!r}")
        self.command = command
        vars(self).update(values)

    def echo_items(self) -> list[tuple[str, str]]:
        items = []
        for key in sorted(RunConfig.__annotations__):
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
    """A flag or config-file value as the type of RunConfig's key (its annotation text)."""
    kind = RunConfig.__annotations__[key]
    if kind == "bool":
        return _to_bool(key, raw)
    return _to_int(key, raw) if kind.startswith("int") else raw


def merge_config(command: str, flags: dict[str, str]) -> RunConfig:
    """Resolve flags ({key: raw text}) over config-file values over defaults.

    Every RunConfig key but the command is a key of the config file,
    whatever the subcommand; a config-file key outside that set is rejected.
    Every value is checked, but only the keys the subcommand has flags for apply.
    """
    keys = [key for key in RunConfig.__annotations__ if key != "command"]
    path = flags.get("config")
    file_vals = _parse_config_file(path) if path else {}
    for key in file_vals:
        if key not in keys:
            raise InputError(f"{path}: unknown key {key!r}")
    for key in ("config", "output"):  # an empty path names no file
        if {**file_vals, **flags}.get(key) == "":
            raise InputError(f"--{key} expects a path, got ''")
    cfg = RunConfig(command=command)
    for key in keys:
        value = flags.get(key, file_vals.get(key))
        if value is not None:
            value = _from_text(key, value)
            if key in _USAGE[command][1]:
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


class Coded:
    """A column of few distinct texts: row i's cell is texts[codes[i]]."""

    __slots__ = ("texts", "codes")

    def __init__(self, texts, codes: np.ndarray):
        self.texts = texts
        self.codes = codes

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows: slice) -> Coded:
        return type(self)(self.texts, self.codes[rows])


class _Cells(Coded):
    """A Coded column of final cell texts in an object array, prefixed and escaped by emit."""


class Section:
    """One table of the report, or the slice of it from row ``start`` on.

    The table is held column by column, one column per header name: a
    float64 or integer array, a Coded column, or a plain list of cells.
    A slice with start > 0 continues the table of the slice before it and
    has no heading.
    """

    __slots__ = ("name", "attrs", "header", "columns", "start")

    def __init__(self, name: str, attrs=(), header: tuple[str, ...] = (), columns=(), start=0):
        self.name = name
        self.attrs = attrs  # (key, value) pairs
        self.header = header
        self.columns = columns
        self.start = start

    @property
    def rows(self) -> range:
        """The indices of this slice's rows in its table."""
        return range(self.start, self.start + (len(self.columns[0]) if self.columns else 0))


def render_csv(cfg: RunConfig, sections: list[Section], head=True, tail=True) -> str:
    """CSV lines of the sections, after the schema and config lines if head.

    CSV has nothing to close; tail keeps the signature of render_json.
    """
    lines = []
    if head:
        lines.append(f"# schema={SCHEMA_VERSION}")
        lines.append("# config " + " ".join(f"{k}={v}" for k, v in cfg.echo_items()))
    for sec in sections:
        if not sec.start:
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


_float_text = "{:.17g}".format  # a double's text in both formats; it re-parses to the same bits


def _format_cell(v, json: bool) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return _float_text(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return "null" if json else ""
    text = f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else str(v)
    return _json_escape(text) if json else text


def _distinct(bits: np.ndarray):
    """The sorted distinct values of bits, or None where there are more than _PAGE_ROWS."""
    ordered = np.sort(bits)
    starts = ordered[1:] != ordered[:-1]  # where a new distinct value starts
    if np.count_nonzero(starts) < _PAGE_ROWS:
        return np.concatenate((ordered[:1], ordered[1:][starts]))
    return None


def _coded(col, json: bool, prefix: str):
    """The whole column as _Cells, each distinct text made once and led by prefix, or col itself.

    emit calls this once per column of a report.  A Coded column is always
    coded.  A float64 column is coded on its bits, so -0.0 and 0.0 keep
    their own texts, if it holds at most _PAGE_ROWS distinct doubles, which
    bounds its texts by one page; any other column is returned as it is,
    and each page formats its own cells.
    """
    if isinstance(col, Coded):
        texts = [prefix + _format_cell(t, json) for t in col.texts]
        return _Cells(np.array(texts, dtype=object), col.codes)
    if isinstance(col, np.ndarray) and col.dtype == np.float64:
        # sorted bits and a binary search: np.unique(return_inverse=True)
        # would hold six row-long arrays at once.  Two pages of more than a
        # page of distinct doubles settle a spectrum without sorting it all.
        bits = col.view(np.uint64)
        distinct = _distinct(bits[: 2 * _PAGE_ROWS])
        if distinct is not None and len(bits) > 2 * _PAGE_ROWS:
            distinct = _distinct(bits)
        if distinct is not None:
            texts = [prefix + t for t in map(_float_text, distinct.view(np.float64).tolist())]
            return _Cells(np.array(texts, dtype=object), np.searchsorted(distinct, bits))
    return col


def _format_column(col, json: bool, prefix: str = "") -> list[str]:
    """prefix + the text of each cell of one column of at most a page, by the column's kind.

    A column that emit prepared gathers its texts; any other is formatted
    cell by cell: a float64 array (a spectrum) by _float_text, an integer
    or object array (labels) by str, anything else by _format_cell.
    """
    if isinstance(col, _Cells):
        return col.texts[col.codes].tolist()
    if isinstance(col, Coded):
        return [prefix + _format_cell(col.texts[c], json) for c in col.codes.tolist()]
    if isinstance(col, np.ndarray):
        text = _float_text if col.dtype == np.float64 else str
        return [prefix + t for t in map(text, col.tolist())]
    return [prefix + _format_cell(v, json) for v in col]


def _leads(sec: Section, json: bool) -> list[str]:
    """What each column's cells lead with: in JSON the escaped key, in CSV nothing."""
    return [f"{_json_escape(key)}: " if json else "" for key in sec.header]


def _columns(sec: Section, json: bool) -> list[list[str]]:
    """The section's cells column by column."""
    return [_format_column(col, json, lead) for col, lead in zip(sec.columns, _leads(sec, json))]


def _json_pairs(items) -> str:
    return ", ".join(f"{_json_escape(k)}: {_json_escape(v)}" for k, v in items)


def render_json(cfg: RunConfig, sections: list[Section], head=True, tail=True) -> str:
    """JSON text of the sections; head opens the document and tail closes it.

    A table's rows close where the next table opens or at the tail, so a
    table sliced across calls stays open between them.
    """
    parts = []
    if head:
        config = _json_pairs(cfg.echo_items())
        parts.append(f'{{"schema": {SCHEMA_VERSION}, "config": {{{config}}}, "sections": [')
    for k, sec in enumerate(sections):
        rows = "}, {".join(map(", ".join, zip(*_columns(sec, json=True))))
        if sec.start:
            parts.append(", {" + rows + "}")
            continue
        attrs = f', "attrs": {{{_json_pairs(sec.attrs)}}}' if sec.attrs else ""
        rows = "{" + rows + "}" if rows else ""
        opened = "]}, " if k or not head else ""
        parts.append(f'{opened}{{"name": {_json_escape(sec.name)}{attrs}, "rows": [{rows}')
    if tail:
        parts.append("]}]}\n" if sections else "]}\n")
    return "".join(parts)


_PAGE_ROWS = 1024  # rows rendered per call, so a long table's text is never held whole


def _pages(sections: list[Section]) -> list[list[Section]]:
    """The report in pages of at most _PAGE_ROWS rows; a longer table spans pages in slices."""
    pages, room = [[]], _PAGE_ROWS
    for sec in sections:
        if len(sec.rows) > _PAGE_ROWS:
            slices = [
                Section(sec.name, sec.attrs, sec.header,
                        [col[i : i + _PAGE_ROWS] for col in sec.columns], i)
                for i in range(0, len(sec.rows), _PAGE_ROWS)
            ]
        else:
            slices = [sec]
        for piece in slices:
            if len(piece.rows) > room:
                pages.append([])
                room = _PAGE_ROWS
            pages[-1].append(piece)
            room -= len(piece.rows)
    return pages


def emit(cfg: RunConfig, sections: list[Section]) -> None:
    """Render the report into the output file or stdout, one page at a time."""
    json = cfg.format == "json"
    render = render_json if json else render_csv
    # prepare each column once per report: a page gathers the texts of a
    # prepared column and formats only the cells of a column left raw
    prepared = []
    for sec in sections:
        columns = [_coded(col, json, lead) for col, lead in zip(sec.columns, _leads(sec, json))]
        prepared.append(Section(sec.name, sec.attrs, sec.header, columns, sec.start))
    pages = _pages(prepared)
    texts = (render(cfg, page, i == 0, i == len(pages) - 1) for i, page in enumerate(pages))
    if cfg.output:
        try:
            with open(cfg.output, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(texts)
        except OSError as exc:
            raise InputError(f"cannot write output file {cfg.output}: {exc}") from exc
    else:
        sys.stdout.writelines(texts)


# ---------------------------------------------------------------------------
# annotations shared by table emitters: an annotator maps a column of
# integer labels to a Coded column of one note per label


_INT64_MAX = np.iinfo(np.int64).max


def _gcd_notes(n: int, notes: dict[int, str], default: str = ""):
    """Annotator: the note of gcd(label mod n, n) for each label, or default."""

    def annotate(labels) -> Coded:
        # one comparison per note, so the cost follows the labels and not n;
        # a label or an n past int64 goes through Python ints
        labels = np.asarray(labels, dtype=object if n > _INT64_MAX else None)
        gcds = np.gcd(labels % n, n)
        codes = np.zeros(len(gcds), dtype=np.intp)
        for code, g in enumerate(notes, 1):
            codes[gcds == g] = code
        return Coded((default, *notes.values()), codes)

    return annotate


def _divisor_notes(n: int):
    return _gcd_notes(n, {1: "", n: "multiple-of-N"}, "factor-multiple")


def _label_notes(notes: dict[int, str]):
    """Annotator of the labels 0, 1, ...: the note of each label, or none."""

    def annotate(labels) -> Coded:
        codes = np.zeros(len(labels), dtype=np.intp)
        codes[np.fromiter(notes, np.intp, len(notes))] = np.arange(1, len(notes) + 1)
        return Coded(("", *notes.values()), codes)

    return annotate


def _distribution_section(name: str, dist: Distribution, annotate, attrs=()) -> Section:
    """One row per register label: the label, its probability and its note."""
    labels = np.arange(len(dist.probs))
    header = ("label", "probability", "annotation")
    return Section(name, attrs, header, [labels, dist.probs, annotate(labels)])


# ---------------------------------------------------------------------------
# subcommands


def cmd_gauss_table(cfg: RunConfig) -> int:
    terms = cfg.terms if cfg.terms is not None else 5
    kinds = {
        "standard": lambda ell: abs(eval_G(ell, n)) ** 2,
        "w": lambda ell: abs(eval_W(cfg.n0 or 0, ell, n)) ** 2,
        "truncated": lambda ell: abs(eval_truncated(ell, n, terms)),
        "g": lambda ell: float(g_of(ell, n)),
    }
    kind = cfg.kind or "g"
    if kind not in kinds:
        raise InputError(f"--kind must be one of {'|'.join(kinds)}, got {kind!r}")
    n = _reduce_even(_require_n(cfg))
    value_of = kinds[kind]
    start = 0 if kind == "w" else 1
    if cfg.ell is None:
        cap = amplitude_cap()  # a full table holds n values, like a state of n amplitudes
        if n > cap:
            raise InputError(f"a table of {n} rows exceeds cap {cap}; pick one row with --ell")
        ells = range(start, n + start)
    else:
        ells = [cfg.ell]
    try:
        values = np.array([value_of(ell) for ell in ells])
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    columns = [np.asarray(ells), values, _divisor_notes(n)(ells)]
    emit(cfg, [Section("table", [("kind", kind)], ("label", "value", "annotation"), columns)])
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
            b = shor_gauss.peak_bin(j, period, q_bits)
            if b % (1 << q_bits):  # a bin that wraps to 0 mod 2**Q is the DC bin
                notes[b] = f"peak period={period} j={j}"
    return _label_notes(notes)


def _field_section(name: str, pairs, attrs=()) -> Section:
    """A field,value section, one row per (field, value) pair."""
    fields, values = zip(*pairs)
    return Section(name, attrs, ("field", "value"), [list(fields), list(values)])


def _driver_sections(result) -> list[Section]:
    header = ("trial", "outcome_b", "outcome_a", "candidate", "factor")
    fields = ("index", "outcome_b", "outcome_a", "candidate", "factor")
    trials = [[getattr(r, f) for r in result.records] for f in fields]
    return [
        _field_section("driver", zip(result._fields, result[:-1])),  # all but the records
        Section("trials", header=header, columns=trials),
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


def _check_trials(cfg: RunConfig) -> None:
    """A trial budget is a count: 0 runs no driver, a negative one is invalid input."""
    if cfg.trials < 0:
        raise InputError(f"--trials must be >= 0, got {cfg.trials}")


def cmd_shor_gauss(cfg: RunConfig) -> int:
    _check_trials(cfg)
    n = _reduce_even(_require_n(cfg))
    s = _checked(factor_semiprime, n)
    q_bits = cfg.q if cfg.q is not None else shor_gauss.min_register_bits(n)
    allow = cfg.allow_small_register
    branches = _checked(shor_gauss.branch_probs, s, q_bits, allow)

    columns = [
        [b.label for b in branches],
        [float(b.probability) for b in branches],
        [f"case-{b.kind.value} exact={_over_denominator(b.probability, 1 << q_bits)}"
         for b in branches],
    ]
    header = ("label", "probability", "annotation")
    sections = [Section("branch_probs", header=header, columns=columns)]
    if cfg.branch:
        label = _parse_branch(cfg.branch, s)
        dist = _checked(shor_gauss.qft_distribution, s, q_bits, label, allow)
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
            fields = {**rep._asdict(), "positions": " ".join(map(str, rep.positions))}
            attrs = [("period", str(period))]
            sections.append(_field_section("peak_report", fields.items(), attrs))
    result = None
    if cfg.trials > 0:
        result = shor_gauss.factor_driver(
            n, q_bits, cfg.trials, cfg.seed, allow_small_register=allow
        )
        sections.extend(_driver_sections(result))
    emit(cfg, sections)
    return _driver_summary_line(cfg, result) if result is not None else 0


def _purity_report(run, **lead) -> tuple[Section, str]:
    """The purity section of an exact run after the lead fields, and its one-line summary."""
    measured = superposition.purity(run)
    closed = purity_closed(run.s)
    closed_text = _over_denominator(closed, run.n * run.n)
    fields = {**lead, "measured": measured, "closed": closed_text, "closed_float": float(closed)}
    return (
        _field_section("purity", fields.items()),
        f"purity={_float_text(measured)} closed={closed_text}",
    )


def cmd_superposition(cfg: RunConfig) -> int:
    _check_trials(cfg)
    mode = cfg.mode or "exact"
    if mode not in ("exact", "qubit"):
        raise InputError(f"--mode must be exact or qubit, got {mode!r}")
    report = cfg.report
    if report not in ("all", "pb", "conditional", "purity", "success"):
        raise InputError(f"unknown --report {report!r}")
    n = _reduce_even(_require_n(cfg))
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
            cond = _checked(superposition.exact_conditional, run, cfg.n0)
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
        fields = [*sm._asdict().items(), ("total_useful", sm.total_useful)]
        sections.append(_field_section("success_mass", fields))
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
    sec, line = _purity_report(run, n=n)
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
        superposition.purity(run),
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
    header = ("n", "p", "q", "purity", "purity_closed", "useful_mass")
    columns = [list(col) for col in zip(*map(_sweep_row, values))]
    emit(cfg, [Section("sweep", header=header, columns=columns)])
    return 0


# ---------------------------------------------------------------------------
# entry point


# every subcommand's help line and flags, each flag a RunConfig key (or
# config) with its help line; the first four are common to all
_COMMON = {
    "n": "number under test (sweep: comma-separated list)",
    "format": "csv | json",
    "output": "write to this path instead of stdout",
    "config": "key = value config file; flags override it",
}
_USAGE = {
    "gauss-table": ("emit one sum family as a table", {
        **_COMMON,
        "kind": "standard | w | truncated | g",
        "n0": "linear-phase shift for --kind w",
        "terms": "term count for --kind truncated",
        "ell": "restrict the table to one trial factor",
    }),
    "shor-gauss": ("divisor-signal branch algorithm", {
        **_COMMON,
        "q": "register size in bits",
        "branch": "n | unit | factor<f>: emit that branch's spectrum",
        "trials": "run the factoring driver this many trials",
        "seed": "64-bit seed for all sampling",
        "allow_small_register": "permit 2**Q <= N**2 (figure-scale demos); takes no value",
    }),
    "superposition": ("amplitude-encoded Gauss-sum algorithm", {
        **_COMMON,
        "mode": "exact | qubit",
        "q": "register size in bits (qubit mode)",
        "n0": "emit the conditional for this B outcome",
        "report": "all | pb | conditional | purity | success",
        "trials": "run the factoring driver this many trials",
        "seed": "64-bit seed for all sampling",
    }),
    "purity": ("measured and closed-form purity for one n", _COMMON),
    "sweep": ("batch purity/success table over semiprimes", _COMMON),
}


def _help(command: str | None) -> str:
    """The command list, or one subcommand's flags, each with its help line."""
    if command is None:
        head = "usage: gausshor <command> [--key value ...]\n\n" \
            "Gauss-sum factoring simulator: tables, distributions, drivers\n\ncommands:"
        rows = [(name, text) for name, (text, _) in _USAGE.items()]
    else:
        text, flags = _USAGE[command]
        head = f"usage: gausshor {command} [--key value ...]\n\n{text}\n\nflags:"
        rows = [("--" + key.replace("_", "-"), line) for key, line in flags.items()]
    width = max(len(name) for name, _ in rows) + 2
    return head + "".join(f"\n  {name:<{width}}{line}" for name, line in rows)


def parse_args(argv: list[str]) -> tuple[str, dict[str, str]]:
    """The command of a command line and its flags as {key: raw text}.

    A flag is --key value or --key=value, its dashes read as underscores;
    a value may not start with --, and a switch (a bool key) takes none.
    """
    if not argv or argv[0] not in _USAGE:
        what = f"unknown command {argv[0]!r}" if argv else "no command given"
        raise InputError(f"{what}; choose one of {', '.join(_USAGE)}")
    command, tokens = argv[0], iter(argv[1:])
    flags = {}
    for token in tokens:
        if not token.startswith("--"):
            raise InputError(f"unexpected argument {token!r}")
        name, eq, value = token[2:].partition("=")
        key = name.replace("-", "_")
        if key not in _USAGE[command][1]:
            raise InputError(f"{command} takes no flag --{name}")
        if key != "config" and RunConfig.__annotations__[key] == "bool":
            if eq:
                raise InputError(f"--{name} takes no value")
            value = "true"
        elif not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise InputError(f"--{name} expects a value")
        flags[key] = value
    return command, flags


_COMMANDS = {
    "gauss-table": cmd_gauss_table,
    "shor-gauss": cmd_shor_gauss,
    "superposition": cmd_superposition,
    "purity": cmd_purity,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if "-h" in argv or "--help" in argv:
            print(_help(argv[0] if argv[0] in _USAGE else None))
            return 0
        cfg = merge_config(*parse_args(argv))
        return _COMMANDS[cfg.command](cfg)
    except (InputError, AmplitudeCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
