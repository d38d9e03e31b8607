"""Benchmark of the gausshor CLI: end-to-end and per-layer metrics per workload.

Usage (from the repository root):

    python3 bench/run.py --workload {exact,qubit,figures,driver} \
        --seed N --seconds S --trace {0,1}
    python3 bench/run.py --record-digests   # rewrite bench/digests.json (seed 0)

A run spawns fresh interpreters (``bench/passrun.py``), each of which imports
``gausshor`` and drives ``gausshor.cli.main`` over the workload's command
list once: one pass.  A plain run repeats cycles of one pass of the
checkout's ``src/`` and one of the pinned reference copy in
``bench/reference/``, run in lockstep command by command, plus import-only
interpreters of both, until the next cycle would end after ``--seconds`` of
measuring.  Times are reported as the median ratio of each sample to its
paired reference sample, times the reference's own time on a quiet host:
the two sides of a pair see the same host load, so the ratio does not drift
with the shared host's speed.  Outputs of the checkout are checked outside the timed region: the
first plain pass against the oracles in ``bench/oracles.py``, every later
pass (traced ones too) by digest against the first, and the first pass
against ``bench/digests.json`` when the seed is the default one.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain and traced passes of the checkout and reports the per-layer metrics:
calls and self time of each wrapped function, counts of work, and the
tracing overhead.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a detail object with
provenance and samples precedes it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracles
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference"  # pinned copy of the package the times are scaled by
DIGESTS = BENCH_DIR / "digests.json"
DEFAULT_SEED = 0
PROBE_PAIRS = 2  # import-only interpreter pairs (checkout, reference) per cycle
MIN_CYCLES = 2  # so every run has both orders of checkout and reference
PASS_TIMEOUT_S = 60
RUN_CAP_S = 100  # start no cycle after this much of a run has gone
BLAS_THREADS = "1"  # pinned below nproc so BLAS timings do not depend on load

# Wall time of one pass of the reference copy and of its import, median over
# runs on a quiet 2-vCPU Xeon VM (Python 3.11.7, numpy 2.4.6, OpenBLAS
# 0.3.31).  They only set the scale in which scaled times are reported.
REFERENCE_WALL_S = {"exact": 3.2, "qubit": 9.5, "figures": 4.6, "driver": 4.8}
REFERENCE_SETUP_S = 0.11


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    env.pop("GAUSSHOR_MEM_CAP", None)
    env.pop("PYTHONPATH", None)
    return env


def provenance() -> dict:
    import numpy as np

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
    }


class Pass:
    """What one interpreter measured, plus the digests of its outputs."""

    def __init__(self, pass_dir: Path, traced: bool, setup_s: float, result: dict):
        self.dir = pass_dir
        self.traced = traced
        self.setup_s = setup_s
        self.result = result
        self.records = result.get("commands", [])
        self.wall_s = sum(r["seconds"] for r in self.records)
        self.rss_mib = result["maxrss_kib"] / 1024.0
        self.digests: list[str] = []


class Child:
    """A started pass interpreter that runs one command per line it is sent."""

    def __init__(self, runner: "Runner", commands: list | None, traced: bool, src: Path):
        runner.count += 1
        self.dir = runner.run_dir / f"pass{runner.count}"
        self.dir.mkdir()
        self.traced = traced
        self.src = src
        spec = {"commands": commands, "trace": traced, "pass_id": runner.count,
                "pass_dir": str(self.dir)}
        spec_path = self.dir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        argv = [sys.executable, str(BENCH_DIR / "passrun.py"), str(spec_path), str(src)]
        self.stderr = open(self.dir / "stderr.txt", "wb")
        self.start = time.monotonic()
        self.proc = subprocess.Popen(argv, env=runner.env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.stderr, bufsize=0)

    def expect(self, word: bytes) -> None:
        ready, _, _ = select.select([self.proc.stdout], [], [], PASS_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        if line.strip() != word:
            raise BenchError(f"{self.dir.name} sent {line!r}, not {word!r}: {self.tail()}")

    def step(self) -> None:
        """Run the next command and wait until it is done."""
        try:
            self.proc.stdin.write(b"\n")
        except BrokenPipeError as exc:
            raise BenchError(f"{self.dir.name} ended early: {self.tail()}") from exc
        self.expect(b"done")

    def tail(self) -> str:
        self.stderr.flush()
        return (self.dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]

    def finish(self) -> Pass:
        try:
            rc = self.proc.wait(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{self.dir.name} did not exit") from exc
        result_path = self.dir / "result.json"
        if rc != 0 or not result_path.is_file():
            raise BenchError(f"{self.dir.name} exited {rc}: {self.tail()}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if Path(result["src_file"]).resolve().parent.parent != self.src.resolve():
            raise BenchError(f"gausshor was imported from {result['src_file']}, not {self.src}")
        return Pass(self.dir, self.traced, result["imported"] - self.start, result)

    def stop(self) -> None:
        """Kill the interpreter if it still runs, and wait for it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout, self.stderr):
            stream.close()


class Runner:
    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.env = child_env()
        self.count = 0

    def spawn(self, commands: list | None, traced: bool = False, src: Path = SRC) -> Pass:
        """One interpreter on its own: an import-only probe, or a whole pass."""
        return self.lockstep([(commands, traced, src)], first=0)[0]

    def lockstep(self, sides: list[tuple], first: int) -> list[Pass]:
        """Run interpreters side by side, one command at a time each.

        ``sides`` holds ``(commands, traced, src)`` per interpreter, all with
        the same number of commands.  They are started one after another, so
        their imports do not overlap.  Command i runs on every side before
        command i + 1 runs on any; side ``first`` leads on even i and the
        next side on odd i, so no side always follows the same one.
        """
        children: list[Child] = []
        try:
            for commands, traced, src in sides:
                children.append(Child(self, commands, traced, src))
                if commands is not None:
                    children[-1].expect(b"ready")
            steps = len(sides[0][0] or [])
            for i in range(steps):
                lead = (first + i) % len(children)
                for child in children[lead:] + children[:lead]:
                    child.step()
            for child in children:
                child.proc.stdin.close()
            return [child.finish() for child in children]
        finally:
            for child in children:
                child.stop()

    @staticmethod
    def drop(p: Pass) -> None:
        shutil.rmtree(p.dir)

    @staticmethod
    def outputs(p: Pass, commands: list, index: int) -> tuple[str, str]:
        """(payload, stdout) of command ``index`` in pass ``p``."""
        stdout = (p.dir / f"{index}.stdout").read_text(encoding="utf-8")
        if commands[index]["to_file"]:
            out = p.dir / f"{index}.out"
            payload = out.read_text(encoding="utf-8") if out.is_file() else ""
            return payload, stdout
        return stdout, ""


def digest(payload: str, stdout: str) -> str:
    h = hashlib.sha256(payload.encode())
    h.update(b"\0")
    h.update(stdout.encode())
    return h.hexdigest()[:16]


class Measurement:
    """Passes of one run, verified as they finish."""

    def __init__(self, workload: str, seed: int, runner: Runner):
        self.workload = workload
        self.seed = seed
        self.commands = workloads.build(workload, seed)
        self.runner = runner
        self.passes: list[Pass] = []
        self.reference_walls: list[float] = []  # reference pass paired with each plain pass
        self.setup_pairs: list[tuple[float, float]] = []  # (checkout, reference) import times
        self.first_digests: list[str] | None = None  # digests of the first plain pass
        self.bad: list[bool] = []  # oracle verdict per command index
        self.trials: list[int | None] = []
        self.failures: list[str] = []
        self.err_max = 0.0
        self.digest_mismatches = 0
        self.attempted = 0
        self.failed = 0

    def probe(self, src: Path) -> float:
        """Set-up time of an interpreter that only imports the package."""
        p = self.runner.spawn(None, src=src)
        self.runner.drop(p)
        return p.setup_s

    def cycle(self, reference_first: bool) -> None:
        """A plain pass and a reference pass in lockstep, then set-up probe pairs.

        Which side leads alternates from command to command and between
        cycles, so neither side always follows the other.
        """
        sides = [(self.commands, False, SRC), (self.commands, False, REFERENCE)]
        p, ref = self.runner.lockstep(sides, first=int(reference_first))
        self.runner.drop(ref)
        crashed = [r["stderr"] for r in ref.records if r["rc"] is None]
        if crashed:
            raise BenchError(f"a command crashed in the reference copy: {crashed[0]}")
        self.verify(p)
        self.reference_walls.append(ref.wall_s)
        self.setup_pairs.append((p.setup_s, ref.setup_s))
        for i in range(PROBE_PAIRS):
            order = (REFERENCE, SRC) if (i % 2 == 0) == reference_first else (SRC, REFERENCE)
            got = {src: self.probe(src) for src in order}
            self.setup_pairs.append((got[SRC], got[REFERENCE]))

    def run_pass(self, traced: bool) -> Pass:
        p = self.runner.spawn(self.commands, traced)
        self.verify(p)
        return p

    def verify(self, p: Pass) -> None:
        """Check a pass's outputs, keep the pass, and delete its files."""
        for i, cmd in enumerate(self.commands):
            payload, stdout = self.runner.outputs(p, self.commands, i)
            p.digests.append(digest(payload, stdout))
            rc = p.records[i]["rc"]
            if self.first_digests is None:
                verdict = oracles.check_command(cmd["argv"], rc, payload, stdout)
                self.err_max = max(self.err_max, verdict.err_max)
                self.bad.append(bool(verdict.failures))
                self.failures += [f"{' '.join(cmd['argv'])}: {f}" for f in verdict.failures[:3]]
                if rc is None:
                    self.failures.append(f"{' '.join(cmd['argv'])}: {p.records[i]['stderr']}")
                self.trials.append(verdict.trials_run)
                failed = bool(verdict.failures)
            else:
                first_rc = self.passes[0].records[i]["rc"]
                differs = p.digests[i] != self.first_digests[i] or rc != first_rc
                failed = self.bad[i] or differs
                if differs:
                    self.digest_mismatches += 1
                    self.failures.append(f"{' '.join(cmd['argv'])}: output differs between passes")
            self.attempted += 1
            self.failed += failed
        if self.first_digests is None:
            self.first_digests = p.digests
            self._compare_recorded()
        self.runner.drop(p)
        self.passes.append(p)

    def _compare_recorded(self) -> None:
        if self.seed != DEFAULT_SEED or not DIGESTS.is_file():
            return
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(self.workload)
        if recorded is None:
            return
        self.digest_mismatches += sum(a != b for a, b in zip(recorded, self.first_digests))
        self.digest_mismatches += abs(len(recorded) - len(self.first_digests))

    def run(self, seconds: float, trace: bool) -> None:
        """Repeat cycles until the next one would overrun ``seconds``.

        A plain run's cycle pairs a plain pass with a pass of the reference
        copy; a traced run's cycle is a plain pass and a traced one.
        """
        start = time.monotonic()
        for src in (SRC, REFERENCE):  # warm the file cache and byte-code; not kept
            self.probe(src)
        measured = longest = 0.0
        cycles = 0
        while True:
            t0 = time.monotonic()
            if trace:
                self.run_pass(False)
                self.run_pass(True)
            else:
                self.cycle(reference_first=cycles % 2 == 1)
            cycles += 1
            took = time.monotonic() - t0
            measured += took
            longest = max(longest, took)
            if cycles >= MIN_CYCLES and (
                measured + longest > seconds or time.monotonic() - start > RUN_CAP_S
            ):
                break

    # --- metrics ------------------------------------------------------------

    def plain(self) -> list[Pass]:
        return [p for p in self.passes if not p.traced]

    def end_to_end(self) -> dict:
        """Times as ratios to the paired reference samples, scaled by the reference's own."""
        plain = self.plain()
        wall = [p.wall_s / r for p, r in zip(plain, self.reference_walls)]
        setup = [s / r for s, r in self.setup_pairs]
        return {
            "setup_s": (REFERENCE_SETUP_S * statistics.median(setup), "s"),
            "wall_s": (REFERENCE_WALL_S[self.workload] * statistics.median(wall), "s"),
            "peak_rss_mb": (statistics.median(p.rss_mib for p in plain), "MiB"),
        }

    def trials_per_s(self) -> float:
        idx = [i for i, t in enumerate(self.trials) if t]
        if not idx:
            return 0.0
        total = sum(self.trials[i] for i in idx)
        return statistics.median(
            total / sum(p.records[i]["seconds"] for i in idx) for p in self.plain()
        )

    def per_layer(self) -> dict:
        traced = [p for p in self.passes if p.traced]
        names = tracer.span_names()
        per_pass = [tracer.self_times(p.result["spans"]) for p in traced]
        m: dict[str, tuple[float, str]] = {}
        self_s = {}
        for name in names:
            calls = statistics.median(c[name] for c, _ in per_pass)
            self_s[name] = statistics.median(s[name] for _, s in per_pass)
            m[f"{name}.calls"] = (calls, "count")
            m[f"{name}.self_s"] = (self_s[name], "s")
        counts = traced[0].result["counts"]

        def count(key: str) -> int:
            return counts.get(key, 0)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        kernel_s = sum(self_s[f"kernels.{f}"] for f in tracer.WRAPPED["kernels"])
        render_s = self_s["cli.render_csv"] + self_s["cli.render_json"]
        m.update({
            "kernels.terms": (count("kernels.terms"), "count"),
            "kernels.terms_per_s": (ratio(count("kernels.terms"), kernel_s), "1/s"),
            "states.amplitudes": (count("states.amplitudes"), "count"),
            "states.sample_outcome.bins": (count("states.sample_outcome.bins"), "count"),
            "superposition.qubit_rows": (count("superposition.qubit_rows"), "count"),
            "shor_gauss.unit_ffts": (count("shor_gauss.unit_ffts"), "count"),
            "shor_gauss.trials": (count("shor_gauss.trials"), "count"),
            "shor_gauss.useful_ratio": (
                ratio(count("shor_gauss.successes"), count("shor_gauss.trials")), "ratio"),
            "shor_gauss.recover_divisor.useful_ratio": (
                ratio(count("shor_gauss.recover_divisor.useful"),
                      m["shor_gauss.recover_divisor.calls"][0]), "ratio"),
            "superposition.trials": (count("superposition.trials"), "count"),
            "superposition.useful_ratio": (
                ratio(count("superposition.successes"), count("superposition.trials")), "ratio"),
            "cli.rows": (count("cli.rows"), "count"),
            "cli.bytes": (count("cli.bytes"), "B"),
            "cli.rows_per_s": (ratio(count("cli.rows"), render_s), "1/s"),
            "verify.ref_err_max": (self.err_max, "rel"),
            "verify.digest_mismatches": (self.digest_mismatches, "count"),
            "trials_per_s": (self.trials_per_s(), "1/s"),
            "ops_failed_ratio": (ratio(self.failed, self.attempted), "ratio"),
        })
        traced_wall = statistics.median(p.wall_s for p in traced)
        m["trace.wall_s"] = (traced_wall, "s")
        m["trace.overhead_s"] = (traced_wall - statistics.median(p.wall_s for p in self.plain()), "s")
        m["trace.unaccounted_s"] = (
            statistics.median(p.wall_s - sum(s.values()) for p, (_, s) in zip(traced, per_pass)),
            "s",
        )
        return m

    def detail(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "commands": len(self.commands),
            "provenance": provenance(),
            "passes": [
                {"traced": p.traced, "wall_s": p.wall_s, "setup_s": p.setup_s,
                 "rss_mib": p.rss_mib, "nonzero_exits": sum(r["rc"] != 0 for r in p.records)}
                for p in self.passes
            ],
            "reference_wall_s": self.reference_walls,
            "setup_pairs_s": self.setup_pairs,
            "digest_mismatches": self.digest_mismatches,
            "failures": self.failures[:20],
        }


def record_digests() -> None:
    table = {}
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=scratch_base()) as tmp:
            meas = Measurement(name, DEFAULT_SEED, Runner(Path(tmp)))
            meas.run_pass(False)
            if meas.failed:
                raise BenchError(f"{name}: outputs fail their oracles: {meas.failures[:3]}")
            table[name] = meas.first_digests
    body = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in table.items())
    DIGESTS.write_text("{\n" + body + "\n}\n", encoding="utf-8")


def scratch_base() -> Path:
    base = ROOT / ".bench_tmp"
    base.mkdir(exist_ok=True)
    return base


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "gausshor" / "cli.py").is_file():
        print(f"error: no gausshor sources under {SRC}", file=sys.stderr)
        return 2
    base = scratch_base()
    try:
        if args.record_digests:
            record_digests()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        with tempfile.TemporaryDirectory(dir=base) as tmp:
            meas = Measurement(args.workload, args.seed, Runner(Path(tmp)))
            meas.run(args.seconds, bool(args.trace))
            metrics = meas.per_layer() if args.trace else meas.end_to_end()
            print(json.dumps(meas.detail(), indent=1))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            base.rmdir()
        except OSError:
            pass
    result = {
        "correct": meas.failed == 0,
        "attempted": meas.attempted,
        "failed": meas.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
