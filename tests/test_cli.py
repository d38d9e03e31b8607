import ast
import contextlib
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gausshor
from gausshor import cli, superposition
from gausshor.cli import (
    Coded,
    RunConfig,
    Section,
    _Cells,
    _coded,
    _distribution_section,
    _divisor_notes,
    _json_escape,
    _USAGE,
    _pages,
    emit,
    main,
    merge_config,
    parse_args,
    render_csv,
    render_json,
)

import render_reference


def run_main(*args, capsys=None):
    rc = main(list(args))  # a rejected command line returns 2 like any invalid input
    out, err = capsys.readouterr() if capsys else ("", "")
    return rc, out, err


def parse_csv_sections(text: str) -> dict:
    """Sections keyed by their '# section=' line, as lists of row dicts."""
    sections: dict[str, list[dict]] = {}
    header: list[str] = []
    current = None
    for line in text.splitlines():
        if line.startswith("# section="):
            current = line.removeprefix("# section=")
            sections[current] = []
            header = []
        elif line.startswith("#"):
            continue
        elif current is not None and not header:
            header = line.split(",")
        elif current is not None:
            sections[current].append(dict(zip(header, line.split(","))))
    return sections


def child_env() -> dict:
    """Environment in which `python -m gausshor` imports this very package."""
    env = dict(os.environ)
    root = str(Path(gausshor.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


@pytest.mark.skipif(
    shutil.which("gausshor") is None, reason="gausshor console script not installed"
)
def test_entry_points_exist():
    cp = subprocess.run(["gausshor", "--help"], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert "gauss-table" in cp.stdout


def test_module_entry_point():
    cp = subprocess.run(
        [sys.executable, "-m", "gausshor", "--help"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert cp.returncode == 0, cp.stderr
    assert "gauss-table" in cp.stdout


def test_tracer_names_resolve_in_the_package():
    """Every function bench/tracer.py wraps still exists, and its install wraps each one."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    code = (
        "import importlib, sys\n"
        f"sys.path.insert(0, {str(bench)!r})\n"
        "from tracer import WRAPPED, Tracer\n"
        "Tracer(0).install()\n"
        "for layer, fns in WRAPPED.items():\n"
        "    home = importlib.import_module(f'gausshor.{layer}')\n"
        "    for fn in fns:\n"
        "        print(layer, fn, hasattr(getattr(home, fn, None), '__wrapped__'))\n"
    )
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                        env=child_env())
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.splitlines()
    assert lines and all(line.endswith(" True") for line in lines), lines


def test_superposition_runs_leave_numpy_ma_unimported():
    # np.unique imports numpy.ma lazily, a costly import that no distribution needs
    probe = "import sys, numpy; print('numpy.ma' in sys.modules)"
    cp = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    if cp.stdout.strip() == "True":
        pytest.skip("import numpy alone loads numpy.ma")
    code = (
        "import contextlib, io, sys\n"
        "from gausshor.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(sys.argv[1:])\n"
        "print(rc, 'numpy.ma' in sys.modules)\n"
    )
    for args in (
        ["--mode", "qubit", "--n", "21", "--q", "9", "--report", "conditional", "--n0", "24"],
        ["--n", "35", "--trials", "5"],
    ):
        cp = subprocess.run(
            [sys.executable, "-c", code, "superposition", *args],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert cp.stdout == "0 False\n", (args, cp.stderr)


def test_no_class_is_built_by_dataclasses():
    # records are NamedTuples or plain classes, so importing the package
    # runs none of @dataclass's per-class code generation
    package = Path(gausshor.__file__).parent
    classes = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for a in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "dataclasses" not in imported, path.name
        if not path.stem.startswith("__"):  # not the package itself, nor __main__, which runs
            module = importlib.import_module(f"gausshor.{path.stem}")
            classes += [v for v in vars(module).values()
                        if isinstance(v, type) and v.__module__ == module.__name__]
    assert {"Semiprime", "Distribution", "_Comb", "RunConfig"} <= {c.__name__ for c in classes}
    for cls in classes:
        assert not hasattr(cls, "__dataclass_fields__"), cls.__qualname__


@pytest.mark.parametrize("module", ["numpy.random", "argparse", "locale"])
def test_sampling_runs_leave_module_unimported(module):
    # the trial streams are pure Python and the flags are read from one table,
    # so no sampling run pays numpy.random's import, argparse's or its locale's
    probe = f"import sys, numpy; print({module!r} in sys.modules)"
    cp = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    if cp.stdout.strip() == "True":
        pytest.skip(f"import numpy alone loads {module}")
    code = (
        "import contextlib, io, sys\n"
        "from gausshor.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(sys.argv[2:])\n"
        "print(rc, sys.argv[1] in sys.modules)\n"
    )
    for args in (
        ["shor-gauss", "--n", "35", "--q", "11", "--trials", "25", "--seed", "1"],
        ["superposition", "--mode", "exact", "--n", "91", "--report", "pb",
         "--trials", "100", "--seed", "1"],
    ):
        cp = subprocess.run(
            [sys.executable, "-c", code, module, *args],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert cp.stdout == "0 False\n", (args, cp.stderr)


_SUBCOMMANDS = ["gauss-table", "shor-gauss", "superposition", "purity", "sweep"]
_CHOOSE = "choose one of " + ", ".join(_SUBCOMMANDS)


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], f"no command given; {_CHOOSE}"),
        (["frob"], f"unknown command 'frob'; {_CHOOSE}"),
        (["shor-gauss", "--n", "35", "--bogus", "1"], "shor-gauss takes no flag --bogus"),
        (["purity", "--n", "91", "--trials", "3"], "purity takes no flag --trials"),
        (["shor-gauss", "--n"], "--n expects a value"),
        (["shor-gauss", "--n", "--q", "11"], "--n expects a value"),
        (["superposition", "35"], "unexpected argument '35'"),
        (["gauss-table", "--n", "35", "--allow-small-register"],
         "gauss-table takes no flag --allow-small-register"),
        (["shor-gauss", "--n", "35", "--allow-small-register=yes"],
         "--allow-small-register takes no value"),
        # only the two commands that draw take a seed
        (["gauss-table", "--n", "35", "--seed", "5"], "gauss-table takes no flag --seed"),
        (["purity", "--n", "91", "--seed", "5"], "purity takes no flag --seed"),
        (["sweep", "--n", "15,21", "--seed=5"], "sweep takes no flag --seed"),
    ],
    ids=["no-command", "unknown-command", "unknown-flag", "flag-of-another-command",
         "value-missing-at-end", "value-missing-before-flag", "positional", "switch-elsewhere",
         "switch-with-value", "seed-gauss-table", "seed-purity", "seed-sweep"],
)
def test_rejected_command_line_exits_2_with_one_line(capsys, argv, message):
    assert run_main(*argv, capsys=capsys) == (2, "", f"error: {message}\n")


def test_key_equals_value_reads_as_key_then_value(capsys):
    spaced = run_main("superposition", "--n", "91", "--n0", "-5", "--report", "conditional",
                      capsys=capsys)
    joined = run_main("superposition", "--n=91", "--n0=-5", "--report=conditional",
                      capsys=capsys)
    assert joined == spaced
    assert run_main("superposition", "--n", "35", "--trials", "3", capsys=capsys) == run_main(
        "superposition", "--n=35", "--trials=3", capsys=capsys
    )


@pytest.mark.parametrize("argv", [["--help"], *([cmd, "-h"] for cmd in _SUBCOMMANDS)],
                         ids=["commands", *_SUBCOMMANDS])
def test_help_lists_the_table(capsys, argv):
    rc, out, err = run_main(*argv, capsys=capsys)
    assert (rc, err) == (0, "")
    listed = [line.split()[0] for line in out.splitlines() if line.startswith("  ")]
    if argv[0] == "--help":
        assert listed == _SUBCOMMANDS
    else:
        assert listed == ["--" + key.replace("_", "-") for key in _USAGE[argv[0]][1]]


def test_gauss_table_g_rows_and_annotations(capsys):
    rc, out, _ = run_main("gauss-table", "--n", "35", "--kind", "g", capsys=capsys)
    assert rc == 0
    secs = parse_csv_sections(out)
    rows = secs["table kind=g"]
    assert len(rows) == 35
    by_label = {int(r["label"]): r for r in rows}
    assert by_label[5]["annotation"] == "factor-multiple"
    assert by_label[7]["annotation"] == "factor-multiple"
    assert by_label[35]["annotation"] == "multiple-of-N"
    assert by_label[35]["value"] == "35"
    assert by_label[8]["annotation"] == ""


def test_gauss_table_works_for_three_factor_numbers(capsys):
    rc, out, _ = run_main("gauss-table", "--n", "105", "--kind", "g", capsys=capsys)
    assert rc == 0
    rows = parse_csv_sections(out)["table kind=g"]
    by_label = {int(r["label"]): float(r["value"]) for r in rows}
    assert by_label[30] == 15  # shared divisor gcd(30, 105)


def test_gauss_table_w_zero_structure(capsys):
    rc, out, _ = run_main(
        "gauss-table", "--n", "91", "--kind", "w", "--n0", "4", capsys=capsys
    )
    assert rc == 0
    rows = parse_csv_sections(out)["table kind=w"]
    assert len(rows) == 91
    for r in rows:
        label = int(r["label"])
        if label and (label % 7 == 0 or label % 13 == 0):
            assert abs(float(r["value"])) < 1e-12, label


# annotating one label costs one gcd, whatever n is: n = 10**18 + 3 fits
# int64 and n = 10**40 + 3 (divisible by 7) does not
@pytest.mark.parametrize("n", [10**18 + 3, 10**40 + 3])
@pytest.mark.parametrize("kind", ["g", "truncated"])
@pytest.mark.parametrize(
    "ell_of", [lambda n: 7, lambda n: 21, lambda n: n, lambda n: 10**29],
    ids=["7", "21", "n", "1e29"],
)
def test_gauss_table_one_label_at_a_large_n(n, kind, ell_of, capsys):
    ell = ell_of(n)
    rc, out, err = run_main(
        "gauss-table", "--n", str(n), "--kind", kind, "--ell", str(ell), capsys=capsys
    )
    assert (rc, err) == (0, "")
    (row,) = parse_csv_sections(out)[f"table kind={kind}"]
    g = math.gcd(ell, n)
    note = "" if g == 1 else "multiple-of-N" if g == n else "factor-multiple"
    assert (int(row["label"]), row["annotation"]) == (ell, note)


def test_gauss_table_truncated_ell_zero_exits_2(capsys):
    rc, _, err = run_main(
        "gauss-table", "--n", "91", "--kind", "truncated", "--terms", "5",
        "--ell", "0", capsys=capsys,
    )
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize("kind", ["standard", "w", "g"])
def test_gauss_table_negative_ell_exits_2(kind, capsys):
    rc, out, err = run_main(
        "gauss-table", "--n", "35", "--kind", kind, "--ell", "-2", capsys=capsys
    )
    assert (rc, out, err) == (2, "", "error: trial factor must be >= 0, got -2\n")


def test_full_gauss_table_is_held_to_the_amplitude_cap(monkeypatch, capsys):
    # a table without --ell holds n values; one --ell row is built at any n
    monkeypatch.setenv("GAUSSHOR_MEM_CAP", "100")
    rc, out, err = run_main("gauss-table", "--n", "105", "--kind", "g", capsys=capsys)
    assert (rc, out) == (2, "")
    assert err == "error: a table of 105 rows exceeds cap 100; pick one row with --ell\n"
    assert run_main("gauss-table", "--n", "99", "--kind", "w", capsys=capsys)[0] == 0
    rc, out, err = run_main(
        "gauss-table", "--n", str(10**18 + 3), "--kind", "g", "--ell", "7", capsys=capsys
    )
    assert (rc, err) == (0, "")
    assert len(parse_csv_sections(out)["table kind=g"]) == 1


def test_shor_gauss_requires_register_condition(capsys):
    rc, _, err = run_main("shor-gauss", "--n", "91", "--q", "11", capsys=capsys)
    assert rc == 2
    assert "allow_small_register" in err


def test_shor_gauss_fig4_peaks(capsys):
    rc, out, _ = run_main(
        "shor-gauss", "--n", "91", "--q", "11", "--branch", "factor7",
        "--allow-small-register", capsys=capsys,
    )
    assert rc == 0
    secs = parse_csv_sections(out)
    rep = {r["field"]: r["value"] for r in secs["peak_report period=7"]}
    assert rep["positions"].split(" ")[:3] == ["293", "585", "878"]
    assert float(rep["mass"]) > 0.5
    bp = secs["branch_probs"]
    assert sum(float(r["probability"]) for r in bp) == pytest.approx(1.0, abs=1e-12)
    assert any("exact=23/2048" in r["annotation"] for r in bp)


def test_shor_gauss_tiny_register_branches(capsys):
    """An empty branch exits 2 with one line; bins past 2**Q wrap to the DC bin."""
    args = ("shor-gauss", "--n", "15", "--q", "1", "--allow-small-register", "--branch")
    rc, out, err = run_main(*args, "factor3", capsys=capsys)
    assert (rc, out, err) == (2, "", "error: no l < 2**1 has divisor signal 3\n")
    rc, out, err = run_main(*args, "unit", capsys=capsys)
    assert rc == 0 and err == ""
    secs = parse_csv_sections(out)
    for period in (3, 5):
        rep = {r["field"]: r["value"] for r in secs[f"peak_report period={period}"]}
        assert (rep["positions"], rep["mass"], rep["dc_mass"]) == ("1", "0.5", "0.5")
    notes = [r["annotation"] for r in secs["distribution branch=1"]]
    assert notes == ["", "peak period=5 j=3"]


def test_shor_gauss_driver_summary(tmp_path, capsys):
    out_file = tmp_path / "run.csv"
    rc, out, _ = run_main(
        "shor-gauss", "--n", "91", "--q", "14", "--trials", "200", "--seed", "1",
        "--output", str(out_file), capsys=capsys,
    )
    assert rc == 0
    token = out.strip().split()[0]
    assert token in ("factor=7", "factor=13")
    secs = parse_csv_sections(out_file.read_text())
    drv = {r["field"]: r["value"] for r in secs["driver"]}
    assert drv["succeeded"] == "true" and drv["seed"] == "1"
    assert "trials" in secs and len(secs["trials"]) == int(drv["trials_run"])


def test_shor_gauss_driver_exhaustion_exit_1(capsys):
    rc, out, _ = run_main(
        "shor-gauss", "--n", "91", "--q", "14", "--trials", "1", "--seed", "2",
        capsys=capsys,
    )
    assert rc == 1


def test_superposition_purity_report(capsys):
    rc, out, _ = run_main(
        "superposition", "--n", "91", "--mode", "exact", "--report", "purity",
        capsys=capsys,
    )
    assert rc == 0
    rows = {r["field"]: r["value"] for r in parse_csv_sections(out)["purity"]}
    assert rows["closed"] == "325/8281"
    assert float(rows["measured"]) == pytest.approx(325 / 8281, abs=1e-9)


def test_superposition_qubit_pb_peaks(capsys):
    rc, out, _ = run_main(
        "superposition", "--n", "21", "--mode", "qubit", "--q", "9",
        "--report", "pb", capsys=capsys,
    )
    assert rc == 0
    rows = parse_csv_sections(out)["pb"]
    probs = {int(r["label"]): float(r["probability"]) for r in rows}
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)
    top = sorted(probs, key=probs.get)[-5:]
    for label in top:
        assert min(abs(label - j * 512 / 21) for j in range(21)) <= 1.0
    annotated = {int(r["label"]) for r in rows if r["annotation"].startswith("peak")}
    assert 24 in annotated and 49 in annotated


def test_superposition_driver_and_conditional(tmp_path, capsys):
    out_file = tmp_path / "sup.csv"
    rc, out, _ = run_main(
        "superposition", "--n", "91", "--mode", "exact", "--trials", "1000",
        "--seed", "7", "--n0", "14", "--output", str(out_file), capsys=capsys,
    )
    assert rc == 0
    assert any(line.startswith("factor=") for line in out.splitlines())
    secs = parse_csv_sections(out_file.read_text())
    cond = secs["conditional n0=14"]
    mass = sum(float(r["probability"]) for r in cond)
    assert mass == pytest.approx(1.0, abs=1e-9)
    for r in cond:  # 13-multiples carry only numerical dust
        label = int(r["label"])
        if label and label % 13 == 0:
            assert float(r["probability"]) < 1e-12
    sm = {r["field"]: float(r["value"]) for r in secs["success_mass"]}
    assert sm["total_useful"] == pytest.approx(3097 / 8281, abs=1e-9)


def test_distribution_section_lists_every_label(capsys):
    # labels 0 and 10 have probability zero up to rounding; whether the build
    # leaves them 0.0 or 1e-34 must not decide whether they get a row
    rc, out, _ = run_main(
        "superposition", "--n", "15", "--n0", "3", "--report", "conditional", capsys=capsys
    )
    assert rc == 0
    cond = parse_csv_sections(out)["conditional n0=3"]
    assert [int(r["label"]) for r in cond] == list(range(15))


def test_superposition_mode_validation(capsys):
    rc, _, err = run_main(
        "superposition", "--n", "21", "--mode", "qubit", "--q", "9",
        "--report", "purity", capsys=capsys,
    )
    assert rc == 2
    rc, _, _ = run_main(
        "superposition", "--n", "21", "--mode", "qubit", capsys=capsys
    )
    assert rc == 2  # q missing
    rc, _, _ = run_main(
        "superposition", "--n", "91", "--report", "conditional", capsys=capsys
    )
    assert rc == 2  # n0 missing


@pytest.mark.parametrize(
    "args",
    [("superposition", "--n", "21"), ("shor-gauss", "--n", "35", "--q", "11")],
    ids=["superposition", "shor-gauss"],
)
def test_negative_trials_exit_2(tmp_path, capsys, args):
    rc, out, err = run_main(*args, "--trials", "-3", capsys=capsys)
    assert rc == 2 and out == ""
    assert err == "error: --trials must be >= 0, got -3\n"
    conf = tmp_path / "run.conf"
    conf.write_text("trials = -3\n")
    rc, out, err = run_main(*args, "--config", str(conf), capsys=capsys)
    assert rc == 2 and out == ""
    assert err == "error: --trials must be >= 0, got -3\n"


@pytest.mark.parametrize(
    "args, key, value, message",
    [
        (("shor-gauss", "--n", "35"), "q", "abc", "--q expects an integer, got 'abc'"),
        (("shor-gauss", "--n", "35"), "seed", "x", "--seed expects an integer, got 'x'"),
        # an even n: a rejected value is reported before any halving note
        (("superposition", "--n", "42"), "mode", "bogus",
         "--mode must be exact or qubit, got 'bogus'"),
        (("superposition", "--n", "42"), "report", "bogus", "unknown --report 'bogus'"),
        (("purity", "--n", "21"), "format", "xml", "--format must be csv or json, got 'xml'"),
        (("gauss-table", "--n", "42"), "kind", "zz",
         "--kind must be one of standard|w|truncated|g, got 'zz'"),
        # an empty path names no file: the report is not sent to stdout instead
        (("shor-gauss", "--n", "35", "--q", "11", "--trials", "2"), "output", "",
         "--output expects a path, got ''"),
    ],
    ids=["q", "seed", "mode", "report", "format", "kind", "empty-output"],
)
def test_bad_value_same_one_line_from_flag_and_config(tmp_path, capsys, args, key, value, message):
    rc, out, err = run_main(*args, f"--{key}", value, capsys=capsys)
    assert (rc, out, err) == (2, "", f"error: {message}\n")
    assert run_main(*args, f"--{key}={value}", capsys=capsys) == (rc, out, err)
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key} = {value}\n")
    rc, out, err = run_main(*args, "--config", str(conf), capsys=capsys)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_empty_config_path_exits_2(tmp_path, capsys):
    args = ("shor-gauss", "--n", "35", "--q", "11", "--trials", "2")
    for flag in (["--config", ""], ["--config="]):
        assert run_main(*args, *flag, capsys=capsys) == (
            2, "", "error: --config expects a path, got ''\n")
    conf = tmp_path / "run.conf"  # config is no key of a config file, empty or not
    conf.write_text("config =\n")
    assert run_main(*args, "--config", str(conf), capsys=capsys) == (
        2, "", f"error: {conf}: unknown key 'config'\n")


@pytest.mark.parametrize(
    "mode, n0, size",
    [
        (("--mode", "exact"), -1, 91),
        (("--mode", "qubit", "--q", "14"), -1, 16384),
        (("--mode", "qubit", "--q", "14"), 16384, 16384),
    ],
    ids=["exact", "qubit-negative", "qubit-past-end"],
)
def test_conditional_outcome_outside_register_exit_2(capsys, mode, n0, size):
    rc, out, err = run_main(
        "superposition", "--n", "91", *mode, "--report", "conditional", "--n0", str(n0),
        capsys=capsys,
    )
    assert rc == 2 and out == ""
    assert err == f"error: outcome {n0} outside B register of size {size}\n"


def test_purity_command(tmp_path, capsys):
    out_file = tmp_path / "p.csv"
    rc, out, _ = run_main("purity", "--n", "91", "--output", str(out_file), capsys=capsys)
    assert rc == 0
    assert out.strip().endswith("closed=325/8281")
    assert "purity=0.039246" in out


def test_sweep_command(capsys):
    rc, out, _ = run_main("sweep", "--n", "15,21,35,91", capsys=capsys)
    assert rc == 0
    rows = parse_csv_sections(out)["sweep"]
    assert [int(r["n"]) for r in rows] == [15, 21, 35, 91]
    assert rows[0]["purity_closed"] == "45/225"
    assert float(rows[3]["useful_mass"]) == pytest.approx(3097 / 8281, abs=1e-9)


def test_even_n_reduced_with_notice(capsys):
    rc, out, err = run_main("purity", "--n", "182", capsys=capsys)
    assert rc == 0
    assert "halved 1 time(s)" in err and "n=91" in err
    rows = {r["field"]: r["value"] for r in parse_csv_sections(out)["purity"]}
    assert rows["n"] == "91"
    rc, _, err = run_main("purity", "--n", "64", capsys=capsys)
    assert rc == 2  # power of two reduces to nothing


def test_invalid_inputs_exit_2(capsys):
    assert run_main("purity", "--n", "97", capsys=capsys)[0] == 2  # prime
    assert run_main("shor-gauss", "--n", "91", "--branch", "factor5",
                    "--q", "14", capsys=capsys)[0] == 2
    assert run_main("gauss-table", "--n", "35", "--kind", "w", "--format", "xml",
                    capsys=capsys)[0] == 2
    assert run_main("sweep", "--n", "abc", capsys=capsys)[0] == 2
    rc, out, err = run_main("superposition", "--mode", "qubit", "--n", "21", "--q", "-1",
                            capsys=capsys)
    assert (rc, out, err) == (2, "", "error: register size must be >= 1 bit, got -1\n")


def test_unwritable_output_exits_2(tmp_path, capsys):
    for path in (tmp_path / "missing" / "x.csv", tmp_path):
        rc, out, err = run_main("purity", "--n", "21", "--output", str(path), capsys=capsys)
        assert rc == 2 and out == ""
        assert err.startswith(f"error: cannot write output file {path}: ")
        assert err.count("\n") == 1 and err.endswith("\n")


def test_memory_cap_env_respected(monkeypatch, capsys):
    monkeypatch.setenv("GAUSSHOR_MEM_CAP", "100")
    rc, _, err = run_main("purity", "--n", "91", capsys=capsys)
    assert rc == 2
    assert "cap" in err


def test_exact_cap_guards_the_factor_grids(capsys):
    """The cap counts the p**2 + q**2 factor-grid entries, not N**2."""
    rc, out, err = run_main("purity", "--n", "4097", capsys=capsys)  # 17 * 241
    assert rc == 0 and err == ""
    rows = {r["field"]: r["value"] for r in parse_csv_sections(out)["purity"]}
    assert abs(float(rows["measured"]) - float(rows["closed_float"])) <= 1e-15
    rc, out, err = run_main("purity", "--n", "12297", capsys=capsys)  # 3 * 4099
    assert rc == 2 and out == ""
    assert err == "error: state with 16801810 amplitudes exceeds cap 16777216\n"


def test_shor_gauss_respects_amplitude_cap(monkeypatch, capsys):
    args = ("shor-gauss", "--n", "35", "--q", "11")
    assert run_main(*args, "--trials", "2", capsys=capsys)[0] == 0  # warms the tables
    monkeypatch.setenv("GAUSSHOR_MEM_CAP", "1000")
    for extra in (("--trials", "2"), ("--branch", "unit")):
        rc, out, err = run_main(*args, *extra, capsys=capsys)
        assert rc == 2 and out == ""
        assert err == "error: state with 2048 amplitudes exceeds cap 1000\n"
    rc, out, _ = run_main(*args, capsys=capsys)  # branch table only: nothing allocated
    assert rc == 0 and "# section=branch_probs" in out


@pytest.mark.parametrize("cap", ["abc", "0", "-5"])
@pytest.mark.parametrize(
    "args",
    [
        ("shor-gauss", "--n", "15", "--q", "8", "--branch", "unit"),
        ("shor-gauss", "--n", "15", "--q", "8", "--trials", "3"),
        ("purity", "--n", "15"),
    ],
    ids=["shor-gauss-branch", "shor-gauss-trials", "purity"],
)
def test_invalid_memory_cap_exits_2(monkeypatch, capsys, cap, args):
    monkeypatch.setenv("GAUSSHOR_MEM_CAP", cap)
    rc, out, err = run_main(*args, capsys=capsys)
    assert rc == 2 and out == ""
    assert err == f"error: GAUSSHOR_MEM_CAP must be a positive integer, got {cap!r}\n"


@pytest.mark.parametrize("cap", ["100", "abc", "0"])
@pytest.mark.parametrize("report", [("pb",), ("conditional", "--n0", "24")], ids=["pb", "conditional"])
def test_qubit_mode_respects_amplitude_cap(monkeypatch, capsys, cap, report):
    monkeypatch.setenv("GAUSSHOR_MEM_CAP", cap)
    args = ("superposition", "--n", "21", "--mode", "qubit", "--q", "9", "--report", *report)
    rc, out, err = run_main(*args, capsys=capsys)
    assert rc == 2 and out == ""
    if cap == "100":
        assert err == "error: state with 512 amplitudes exceeds cap 100\n"
    else:
        assert err == f"error: GAUSSHOR_MEM_CAP must be a positive integer, got {cap!r}\n"


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("n = 91\nq = 14\ntrials = 5\nseeed = 5\n")
    rc, out, err = run_main("shor-gauss", "--config", str(cfg), capsys=capsys)
    assert rc == 2 and out == ""
    assert err == f"error: {cfg}: unknown key 'seeed'\n"


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text(
        "# demo configuration\n"
        "n = 91\n"
        "q = 11\n"
        "branch = factor7\n"
        "allow-small-register = true\n"
        "format = csv\n"
    )
    rc, out, _ = run_main("shor-gauss", "--config", str(cfg), capsys=capsys)
    assert rc == 0
    assert "# section=peak_report period=7" in out
    # flags override the file: switch the branch to the cofactor
    rc, out2, _ = run_main(
        "shor-gauss", "--config", str(cfg), "--branch", "factor13", capsys=capsys
    )
    assert rc == 0
    assert "# section=peak_report period=13" in out2
    rc, _, err = run_main("shor-gauss", "--config", str(tmp_path / "nope.conf"),
                          capsys=capsys)
    assert rc == 2


def test_config_file_applies_only_the_keys_a_command_takes(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("seed = 5\ntrials = 3\n")
    plain = run_main("purity", "--n", "15", capsys=capsys)
    assert plain[0] == 0
    assert run_main("purity", "--n", "15", "--config", str(conf), capsys=capsys) == plain
    args = ("superposition", "--n", "91", "--mode", "exact", "--report", "success")
    from_file = run_main(*args, "--config", str(conf), capsys=capsys)
    assert from_file == run_main(*args, "--seed", "5", "--trials", "3", capsys=capsys)
    assert "seed=5" in from_file[1] and from_file != run_main(*args, capsys=capsys)


def test_csv_json_numeric_identity(tmp_path, capsys):
    base = ["superposition", "--n", "91", "--mode", "exact", "--report", "pb"]
    csv_file = tmp_path / "pb.csv"
    json_file = tmp_path / "pb.json"
    assert run_main(*base, "--format", "csv", "--output", str(csv_file), capsys=capsys)[0] == 0
    assert run_main(*base, "--format", "json", "--output", str(json_file), capsys=capsys)[0] == 0
    csv_rows = parse_csv_sections(csv_file.read_text())["pb"]
    doc = json.loads(json_file.read_text())
    assert doc["schema"] == 1
    json_rows = next(s for s in doc["sections"] if s["name"] == "pb")["rows"]
    assert len(csv_rows) == len(json_rows)
    for c, j in zip(csv_rows, json_rows):
        assert int(c["label"]) == j["label"]
        assert float(c["probability"]) == j["probability"]  # bit-identical doubles
        assert c["annotation"] == j["annotation"]
    total = sum(j["probability"] for j in json_rows)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_byte_identical_reruns(tmp_path, capsys):
    args_sets = [
        ["gauss-table", "--n", "91", "--kind", "w", "--n0", "4"],
        ["shor-gauss", "--n", "91", "--q", "14", "--trials", "50", "--seed", "5"],
        ["superposition", "--n", "91", "--mode", "exact", "--trials", "50",
         "--seed", "5", "--n0", "0"],
        ["superposition", "--n", "21", "--mode", "qubit", "--q", "9", "--report", "pb",
         "--format", "json"],
    ]
    for i, args in enumerate(args_sets):
        a = tmp_path / f"a{i}.out"
        b = tmp_path / f"b{i}.out"
        run_main(*args, "--output", str(a), capsys=capsys)
        run_main(*args, "--output", str(b), capsys=capsys)
        assert a.read_bytes() == b.read_bytes(), args


def test_subprocess_matches_in_process(tmp_path, capsys):
    args = ["gauss-table", "--n", "35", "--kind", "standard"]
    rc, out, _ = run_main(*args, capsys=capsys)
    cp = subprocess.run(
        [sys.executable, "-m", "gausshor", *args],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert cp.returncode == rc == 0
    assert cp.stdout == out


@pytest.mark.parametrize(
    "text, expected",
    [
        ("", '""'),
        ("pb", '"pb"'),
        ("n0=4 é\x7f", '"n0=4 é\x7f"'),
        ('say "hi"', r'"say \"hi\""'),
        ("a\\b", r'"a\\b"'),
        ("tab\there\n", r'"tab\u0009here\u000a"'),
    ],
)
def test_json_escape(text, expected):
    assert _json_escape(text) == expected
    assert json.loads(expected) == text


# one column mixes values that compare equal but print differently, so a
# formatter that shared texts by value alone would hand one the other's text
_MIXED = [
    0.0, -0.0, 0, False, 1, True, 1.0, np.float64(-0.0), np.float64(0.0), np.float32(0.5),
    np.int64(1), np.int64(0), np.bool_(True), Fraction(0), Fraction(3, 4), Fraction(-3),
    None, "", "0", 'say "hi"', "tab\there\n", "a\\b", "é", float("nan"), float("inf"),
    -1e-300, 0.1 + 0.2, 2**70, -7,
]


def _reference_sections():
    n = len(_MIXED)
    return [
        ("mixed", [("n0", 'a"b')], ("x", 'quote"key', "tab\tkey"),
         [(_MIXED[i % n], _MIXED[-1 - i % n], _MIXED[3 * i % n]) for i in range(2 * n)]),
        ("labels", [], ("label", "probability", "annotation"),
         [(i - 3, [0.25, -0.0, 1e-17][i % 3], ["", "factor-multiple"][i % 2]) for i in range(40)]),
        ("empty", [("k", "v")], ("field", "value"), []),
    ]


def _plain_section(name, attrs, header, rows) -> Section:
    """A Section of plain-list columns holding the reference rows."""
    return Section(name, list(attrs), header, [list(col) for col in zip(*rows)])


def test_renderers_match_per_cell_reference():
    cfg = RunConfig(command="superposition", n="91", mode='ex"act\t')
    sections = _reference_sections()
    ours = [_plain_section(*sec) for sec in sections]
    items = cfg.echo_items()
    assert render_csv(cfg, ours) == render_reference.render_csv(items, sections)
    assert render_json(cfg, ours) == render_reference.render_json(items, sections)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("page_rows", [1, 2, 3, 58, 97, 1024])
@pytest.mark.parametrize("count", [0, 1, 3])
def test_emit_pages_write_the_whole_document(monkeypatch, tmp_path, capsys, fmt, page_rows, count):
    # tables of 58, 40 and 0 rows: pages of 1, 2 and 3 rows cut both long
    # tables into slices (3 leaves a one-row slice), 58 rows fill a page with
    # the first table, 97 move the second to a new page and 1,024 hold all
    reference = _reference_sections()[:count]
    sections = [_plain_section(*sec) for sec in reference]
    monkeypatch.setattr("gausshor.cli._PAGE_ROWS", page_rows)
    render = render_csv if fmt == "csv" else render_json
    whole = render(RunConfig(command="superposition", format=fmt), sections)
    out = tmp_path / "report"
    emit(RunConfig(command="superposition", format=fmt, output=str(out)), sections)
    assert out.read_text(encoding="utf-8") == whole
    emit(RunConfig(command="superposition", format=fmt), sections)
    assert capsys.readouterr().out == whole
    pages = _pages(sections)
    assert all(sum(len(sec.rows) for sec in page) <= page_rows for page in pages)
    assert [row for page in pages for sec in page for row in zip(*sec.columns)] == [
        row for _, _, _, rows in reference for row in rows
    ]
    for page, following in zip(pages, pages[1:]):  # a page ends only when full
        assert sum(len(sec.rows) for sec in page) + len(following[0].rows) > page_rows


def test_emit_never_holds_a_long_report_whole(tmp_path):
    run = superposition.run_qubit(91, 14)
    cond = superposition.conditional_after_peak(run, 8102)
    sections = [_distribution_section("conditional", cond, _divisor_notes(91))]
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        emit(RunConfig(command="superposition", format="json", output=str(out)), sections)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sections[0].rows) == 2**14
    assert peak < out.stat().st_size / 2


# floats whose texts a value-keyed dedupe would confuse or a careless
# formatter would mangle: both zeros, NaN, infinities and subnormals
_EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.5e-310,
                2.2250738585072014e-308, 1e-17, 0.1 + 0.2, 1.0, -1.0, 1e300]
_ESCAPE_TEXT = st.text(st.sampled_from('ab "\\\x00\x01\t\n\x1f\x7fé'), max_size=6)


@st.composite
def _typed_table(draw):
    """(columns, rows): an int label, a float64 and a coded column, and the rows they hold."""
    size = draw(st.integers(0, 40))
    labels = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=size, max_size=size))
    pool = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(width=64))
    floats = draw(st.lists(pool, min_size=size, max_size=size))
    texts = tuple(draw(st.lists(_ESCAPE_TEXT, min_size=1, max_size=5)))
    codes = draw(st.lists(st.integers(0, len(texts) - 1), min_size=size, max_size=size))
    columns = [np.array(labels, dtype=np.int64), np.array(floats, dtype=np.float64),
               Coded(texts, np.array(codes, dtype=np.intp))]
    rows = [(label, x, texts[c]) for label, x, c in zip(labels, floats, codes)]
    return columns, rows


def _distinct_floats_table(count: int):
    """A typed table whose float64 column holds count distinct doubles, each twice.

    Both zeros are among them, so the coding must keep -0.0 apart from 0.0.
    The last value comes last, so with count one past the page size the
    first two pages hold only a page of distinct doubles and the rest of
    the column decides.
    """
    values = [0.0, -0.0] + [1 / k for k in range(3, count + 1)]
    floats = values[:-1] * 2 + values[-1:] * 2
    texts = ('"', "\\")
    columns = [np.arange(len(floats)), np.array(floats), Coded(texts, np.arange(len(floats)) % 2)]
    return columns, [(i, x, texts[i % 2]) for i, x in enumerate(floats)]


@pytest.mark.parametrize("page_rows", [1, 3, 1024])
@settings(max_examples=60, deadline=None)
@given(table=_typed_table(), shift=st.integers(0, 5))
@example(table=([np.arange(4), np.array([0.0, -0.0, -0.0, 0.0]),
                 Coded(('"', "\\", "\x00"), np.array([2, 1, 0, 1]))],
                [(0, 0.0, "\x00"), (1, -0.0, "\\"), (2, -0.0, '"'), (3, 0.0, "\\")]),
         shift=0)
# float columns of one page of distinct doubles (coded once per report) and
# of one more (coded page by page), at 3 and at 1,024 rows per page
@example(table=_distinct_floats_table(3), shift=1)
@example(table=_distinct_floats_table(4), shift=1)
@example(table=_distinct_floats_table(1024), shift=1)
@example(table=_distinct_floats_table(1025), shift=1)
def test_typed_columns_render_as_the_per_cell_reference(page_rows, table, shift):
    # a plain-list section of `shift` rows first moves where pages cut the typed one
    columns, rows = table
    lead = [(f"f{i}", -0.0 if i % 2 else 0.0) for i in range(shift)]
    reference = [("lead", [], ("field", "value"), lead),
                 ("typed", [("n0", '"7"')], ("label", "probability", 'note"\\'), rows)]
    sections = [_plain_section(*reference[0]), Section(*reference[1][:3], columns)]
    for fmt in ("csv", "json"):
        cfg = RunConfig(command="superposition", format=fmt)
        out = io.StringIO()
        with mock.patch("gausshor.cli._PAGE_ROWS", page_rows), contextlib.redirect_stdout(out):
            emit(cfg, sections)
        render = render_reference.render_csv if fmt == "csv" else render_reference.render_json
        assert out.getvalue() == render(cfg.echo_items(), reference), fmt
        # a renderer handed the columns unprepared, not through emit, formats each cell
        direct = render_csv if fmt == "csv" else render_json
        assert direct(cfg, sections) == out.getvalue(), fmt


def test_emit_sorts_a_long_float_column_only_in_its_probe(monkeypatch):
    # three pages of 3,072 distinct doubles: emit's two-page probe finds more
    # than a page of them and leaves the column raw, and no page sorts its slice
    floats = np.arange(3 * 1024) / 7.0
    reference = [("spectrum", [], ("probability",), [(x,) for x in floats.tolist()])]
    sorted_lengths = []

    def counted(bits, real=cli._distinct):
        sorted_lengths.append(len(bits))
        return real(bits)

    monkeypatch.setattr(cli, "_distinct", counted)
    for fmt in ("csv", "json"):
        cfg = RunConfig(command="shor-gauss", format=fmt)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            emit(cfg, [Section(*reference[0][:3], [floats])])
        render = render_reference.render_csv if fmt == "csv" else render_reference.render_json
        assert out.getvalue() == render(cfg.echo_items(), reference), fmt
    assert sorted_lengths == [2 * 1024, 2 * 1024]  # one probe per emit


@pytest.mark.parametrize("count, once", [(1024, True), (1025, False)])
def test_float_column_coded_once_per_report_up_to_a_page(count, once):
    # the rule bounds a report's float texts by one page; the bytes are the
    # same on both sides, so only this check sees where it cuts
    floats = _distinct_floats_table(count)[0][1]
    assert isinstance(_coded(floats, True, '"p": '), _Cells) is once


def _divisor_note(n: int, label: int) -> str:
    g = math.gcd(label, n)
    return "" if g == 1 else "multiple-of-N" if g == n else "factor-multiple"


def _distribution_rows(probs: np.ndarray, note) -> list[tuple]:
    return [(k, x, note(k)) for k, x in enumerate(probs.tolist())]


def _readme_qubit_sections():
    n, n0 = 91, 8102
    cond = superposition.conditional_after_peak(superposition.run_qubit(n, 14), n0)
    rows = _distribution_rows(cond.probs, lambda k: _divisor_note(n, k))
    return [("conditional", [("n0", str(n0))], ("label", "probability", "annotation"), rows)]


def _readme_exact_sections():
    n, p, q, n0 = 91, 7, 13, 14
    run = superposition.run_exact(n)
    pb_notes = {n: "useful n0=0", p: f"useful gcd={p}", q: f"useful gcd={q}"}
    header = ("label", "probability", "annotation")
    pb = _distribution_rows(run.pb_probs, lambda k: pb_notes.get(math.gcd(k, n), ""))
    cond = superposition.exact_conditional(run, n0)
    sm = superposition.success_mass(run)
    closed = 4 * n - 2 * p - 2 * q + 1  # the purity's numerator over N**2
    result = superposition.sample_factor_driver(run, 1000, 7)
    return [
        ("pb", [], header, pb),
        ("conditional", [("n0", str(n0))], header,
         _distribution_rows(cond.probs, lambda k: _divisor_note(n, k))),
        ("success_mass", [], ("field", "value"),
         [(f, getattr(sm, f)) for f in ("p_b_zero", "p_b_factor_multiple", "p_b_coprime",
                                        "total_useful")]),
        ("purity", [], ("field", "value"),
         [("measured", superposition.purity(run)), ("closed", f"{closed}/{n * n}"),
          ("closed_float", closed / (n * n))]),
        ("driver", [], ("field", "value"),
         [(f, getattr(result, f)) for f in ("n", "succeeded", "factor", "trials_run",
                                            "max_trials", "seed")]),
        ("trials", [], ("trial", "outcome_b", "outcome_a", "candidate", "factor"),
         [(r.index, r.outcome_b, r.outcome_a, r.candidate, r.factor) for r in result.records]),
    ]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("args, sections", [
    ("superposition --n 91 --mode qubit --q 14 --report conditional --n0 8102",
     _readme_qubit_sections),
    ("superposition --n 91 --mode exact --trials 1000 --seed 7 --n0 14", _readme_exact_sections),
], ids=["qubit-conditional", "exact-driver"])
def test_readme_reports_match_the_per_cell_reference(capsys, fmt, args, sections):
    argv = args.split() + ["--format", fmt]
    rc, out, _ = run_main(*argv, capsys=capsys)
    assert rc == 0
    items = merge_config(*parse_args(argv)).echo_items()
    render = render_reference.render_csv if fmt == "csv" else render_reference.render_json
    assert out == render(items, sections())


def test_qubit_conditional_report_never_builds_marginal(monkeypatch, capsys):
    def refuse(n, q_bits):
        raise AssertionError("marginal built")

    monkeypatch.setattr(superposition, "qubit_marginal", refuse)
    rc, out, _ = run_main(
        "superposition", "--n", "21", "--mode", "qubit", "--q", "9",
        "--report", "conditional", "--n0", "171", capsys=capsys,
    )
    assert rc == 0
    assert len(parse_csv_sections(out)["conditional n0=171"]) == 512


def test_qubit_pb_report_carries_folded_marginal(capsys):
    rc, out, _ = run_main(
        "superposition", "--n", "21", "--mode", "qubit", "--q", "9", "--report", "pb",
        capsys=capsys,
    )
    assert rc == 0
    probs = superposition.qubit_marginal(21, 9)
    rows = parse_csv_sections(out)["pb"]
    assert [int(r["label"]) for r in rows] == np.flatnonzero(probs > 0).tolist()
    for r in rows:
        assert r["probability"] == format(probs[int(r["label"])], ".17g")
