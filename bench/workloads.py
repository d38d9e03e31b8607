"""Command lists of the four benchmark workloads, generated from a seed.

Each workload is a fixed problem size; the seed only picks driver seeds,
``--n0`` bins, branches and output formats, so passes on different seeds
do the same amount of work and stay comparable.  A command is a dict with
``argv`` (CLI arguments after ``gausshor``) and ``to_file`` (True: the
command writes through ``--output``; False: it writes to stdout).
"""

from __future__ import annotations

import random

# every modulus the workloads use, with its factors, so the oracles never
# need the package's own factorization
SEMIPRIMES = {
    15: (3, 5),
    21: (3, 7),
    35: (5, 7),
    91: (7, 13),
    221: (13, 17),
    437: (19, 23),
    899: (29, 31),
    1147: (31, 37),
    1763: (41, 43),
}

SWEEP_NS = (15, 21, 35, 91, 221, 899, 1147, 1763)
QUBIT_N, QUBIT_Q = 91, 14
FIGURE_N, FIGURE_Q = 437, 18
TABLE_N = 1147

# driver workload: trial budgets cycle through these per command slot, so
# every seed runs the same mix of short budgets (often exhausted) and long ones
DRIVER_BIG = (899, 20, (1, 2, 4, 8), 48)  # n, q, budgets, commands
DRIVER_SMALL = (35, 11, (1, 2, 4, 25), 268)
DRIVER_EXACT = (91, 100, 4)  # n, trials, commands


def _cmd(argv: list, to_file: bool = False) -> dict:
    return {"argv": [str(a) for a in argv], "to_file": to_file}


def _exact(rng: random.Random) -> list[dict]:
    fmt = ("csv", "json")
    first = rng.randrange(2)
    return [
        _cmd(["sweep", "--n", ",".join(map(str, SWEEP_NS)), "--format", rng.choice(fmt)]),
        _cmd(
            ["superposition", "--mode", "exact", "--n", 1763, "--trials", 1000,
             "--seed", rng.randrange(2**32), "--n0", rng.randrange(1763),
             "--format", fmt[first]],
            to_file=True,
        ),
        _cmd(
            ["superposition", "--mode", "exact", "--n", 1147, "--trials", 1000,
             "--seed", rng.randrange(2**32), "--n0", rng.randrange(1147),
             "--format", fmt[1 - first]],
        ),
        _cmd(["purity", "--n", 1147, "--format", rng.choice(fmt)], to_file=True),
    ]


def peak_bin(n: int, q_bits: int, j: int) -> int:
    """Register bin nearest j * 2**Q / n (ties round up), as the CLI annotates it."""
    return (2 * j * (1 << q_bits) + n) // (2 * n)


def _qubit(rng: random.Random) -> list[dict]:
    j = rng.randrange(1, QUBIT_N)
    return [
        _cmd(
            ["superposition", "--mode", "qubit", "--n", QUBIT_N, "--q", QUBIT_Q,
             "--report", "conditional", "--n0", peak_bin(QUBIT_N, QUBIT_Q, j),
             "--format", rng.choice(("csv", "json"))],
            to_file=True,
        )
    ]


def _figures(rng: random.Random) -> list[dict]:
    p, q = SEMIPRIMES[FIGURE_N]
    # the label-N spectrum is mostly tiny probabilities whose longer float
    # strings cost the JSON renderer ~20 MiB more, so it is only drawn for
    # CSV, which keeps every seed's pass the same size
    json_branch = rng.choice(["unit", f"factor{p}", f"factor{q}"])
    csv_branch = rng.choice([b for b in ("n", "unit", f"factor{p}", f"factor{q}") if b != json_branch])
    spectrum = ["shor-gauss", "--n", FIGURE_N, "--q", FIGURE_Q, "--branch"]
    table = ["gauss-table", "--n", TABLE_N, "--kind"]
    fmt = ("csv", "json")
    return [
        _cmd(spectrum + [csv_branch, "--format", "csv"], to_file=True),
        _cmd(spectrum + [json_branch, "--format", "json"], to_file=True),
        _cmd(table + ["standard", "--format", rng.choice(fmt)]),
        _cmd(table + ["w", "--n0", rng.randrange(TABLE_N), "--format", rng.choice(fmt)]),
        _cmd(table + ["truncated", "--format", rng.choice(fmt)]),
    ]


def _driver(rng: random.Random) -> list[dict]:
    cmds = []
    for n, q, budgets, count in (DRIVER_BIG, DRIVER_SMALL):
        for slot in range(count):
            cmds.append(
                _cmd(
                    ["shor-gauss", "--n", n, "--q", q,
                     "--trials", budgets[slot % len(budgets)],
                     "--seed", rng.randrange(2**32),
                     "--format", rng.choice(("csv", "json"))],
                    to_file=rng.random() < 0.5,
                )
            )
    n, trials, count = DRIVER_EXACT
    for _ in range(count):
        cmds.append(
            _cmd(
                ["superposition", "--mode", "exact", "--n", n, "--report", "pb",
                 "--trials", trials, "--seed", rng.randrange(2**32),
                 "--format", rng.choice(("csv", "json"))],
                to_file=rng.random() < 0.5,
            )
        )
    rng.shuffle(cmds)
    return cmds


WORKLOADS = {
    "exact": _exact,
    "qubit": _qubit,
    "figures": _figures,
    "driver": _driver,
}


def build(workload: str, seed: int) -> list[dict]:
    """The workload's command list for one seed; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
