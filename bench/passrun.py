"""One benchmark pass: a fresh interpreter that imports gausshor and runs a command list.

Usage: python3 bench/passrun.py SPEC_JSON SRC_DIR

SPEC_JSON names the pass directory and the commands; SRC_DIR is the source
tree that holds the ``gausshor`` package: the checkout's ``src/``, or the
benchmark's pinned reference copy ``bench/reference/``.  The interpreter stamps
``time.monotonic()`` (a system-wide clock on Linux) as soon as
``gausshor.cli`` is imported, so the parent can measure set-up from the
moment it spawned this process.  Each command runs through
``gausshor.cli.main`` in process, with stdout redirected to a file in the
pass directory; ``--output`` files go to the same directory.  Only the
``main`` call is timed.  The pass keeps step with the parent: it writes
``ready`` to its original stdout once imported, then reads one line from
stdin before each command and writes ``done`` after it, so the parent can
interleave the commands of two passes.  The pass writes ``result.json``, with its spans
when traced, into the pass directory once, at the end.
"""

import sys
import time

sys.path.insert(0, sys.argv[2])

import gausshor.cli  # noqa: E402  (set-up ends when the CLI is importable)

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def signal(word: str) -> None:
    sys.__stdout__.write(word + "\n")
    sys.__stdout__.flush()


def run_commands(commands: list, pass_dir: str) -> list:
    records = []
    signal("ready")
    for i, cmd in enumerate(commands):
        if not sys.stdin.readline():
            raise SystemExit("stdin closed before the pass ended")
        argv = list(cmd["argv"])
        if cmd["to_file"]:
            argv += ["--output", os.path.join(pass_dir, f"{i}.out")]
        err = io.StringIO()
        stdout_path = os.path.join(pass_dir, f"{i}.stdout")
        with open(stdout_path, "w", encoding="utf-8", newline="\n") as fh:
            with contextlib.redirect_stdout(fh), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    rc = gausshor.cli.main(argv)
                except SystemExit as exc:  # argparse rejects bad flags this way
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception:  # a crash is a failed command, not a failed pass
                    rc = None
                    traceback.print_exc(file=err)
                t1 = time.perf_counter()
        records.append({"rc": rc, "seconds": t1 - t0, "stderr": err.getvalue()[-2000:]})
        signal("done")
    return records


def peak_rss_kib() -> int:
    """Peak resident set of this process's own address space.

    ``VmHWM`` belongs to the address space made at exec.  ``ru_maxrss`` read
    about 24 MiB more in the first passes of a run than in later ones, for
    the same commands.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"imported": IMPORTED, "src_file": gausshor.cli.__file__}
    if spec["commands"] is not None:
        tr = None
        if spec["trace"]:
            from tracer import Tracer

            tr = Tracer(spec["pass_id"])
            tr.install()
        result["commands"] = run_commands(spec["commands"], spec["pass_dir"])
        if tr is not None:
            result["counts"] = dict(tr.counts)
            result["spans"] = tr.spans
    result["maxrss_kib"] = peak_rss_kib()
    with open(os.path.join(spec["pass_dir"], "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
