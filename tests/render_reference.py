"""Per-cell reference renderer for the CLI's CSV and JSON output.

Every cell is formatted on its own, with no memo and no column pass:
booleans as true/false; floats (numpy floats too) with 17 significant
digits; ints (numpy ints too) in decimal; fractions as a/b (a JSON
string); None as an empty CSV cell or JSON null; anything else by str()
(a JSON string).  JSON strings are escaped one character at a time.
Sections are plain (name, attrs, header, rows) tuples, and nothing from
the package is imported.
"""

from fractions import Fraction

import numpy as np


def json_string(s: str) -> str:
    out = []
    for ch in s:
        if ch in ('"', "\\"):
            out.append("\\" + ch)
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return '"' + "".join(out) + '"'


def csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if v is None:
        return ""
    return str(v)


def json_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, Fraction):
        return json_string(f"{v.numerator}/{v.denominator}")
    if v is None:
        return "null"
    return json_string(str(v))


def render_csv(config_items, sections) -> str:
    lines = ["# schema=1", "# config " + " ".join(f"{k}={v}" for k, v in config_items)]
    for name, attrs, header, rows in sections:
        lines.append(f"# section={name}" + "".join(f" {k}={v}" for k, v in attrs))
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(config_items, sections) -> str:
    config = ", ".join(f"{json_string(k)}: {json_string(v)}" for k, v in config_items)
    texts = []
    for name, attrs, header, rows in sections:
        body = f'"name": {json_string(name)}'
        if attrs:
            body += ', "attrs": {' + ", ".join(
                f"{json_string(k)}: {json_string(v)}" for k, v in attrs
            ) + "}"
        row_texts = [
            "{" + ", ".join(f"{json_string(k)}: {json_cell(v)}" for k, v in zip(header, row)) + "}"
            for row in rows
        ]
        body += ', "rows": [' + ", ".join(row_texts) + "]"
        texts.append("{" + body + "}")
    return '{"schema": 1, "config": {' + config + '}, "sections": [' + ", ".join(texts) + "]}\n"
