import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from fractions import Fraction

import numpy as np
import pytest

import gausshor
from gausshor import superposition
from gausshor.cli import RunConfig, Section, _json_escape, main, render_csv, render_json

import render_reference


def run_main(*args, capsys=None):
    try:
        rc = main(list(args))
    except SystemExit as exc:  # argparse's own rejections
        rc = exc.code
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


def test_gauss_table_truncated_ell_zero_exits_2(capsys):
    rc, _, err = run_main(
        "gauss-table", "--n", "91", "--kind", "truncated", "--terms", "5",
        "--ell", "0", capsys=capsys,
    )
    assert rc == 2
    assert "error:" in err


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


def test_memory_cap_env_respected(monkeypatch, capsys):
    monkeypatch.setenv("GAUSSHOR_MEM_CAP", "100")
    rc, _, err = run_main("purity", "--n", "91", capsys=capsys)
    assert rc == 2
    assert "cap" in err


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
# memo keyed on the value alone would hand one of them the other's text
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


def test_renderers_match_per_cell_reference():
    cfg = RunConfig(command="superposition", n="91", mode='ex"act\t')
    sections = _reference_sections()
    ours = [Section(name, list(attrs), header, list(rows))
            for name, attrs, header, rows in sections]
    items = cfg.echo_items()
    assert render_csv(cfg, ours) == render_reference.render_csv(items, sections)
    assert render_json(cfg, ours) == render_reference.render_json(items, sections)


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
