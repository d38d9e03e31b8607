"""Spans and counts around calls into gausshor's layers, installed from outside.

The tracer replaces each wrapped public function at every binding that
holds it: its home module, every module that imported the name, the
package namespace and module-level dispatch tables such as
``cli._COMMANDS``.  ``Distribution`` construction is traced by wrapping
the class's ``__init__``.  Each call records one span
``[name, start, end, parent index, pass id]`` in memory; the pass writes
them once, when it ends.  Counts of work are taken from the arguments and
results of the same calls.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

WRAPPED = {
    "numtheory": ("factor_semiprime",),
    "kernels": ("eval_G", "eval_W", "eval_truncated"),
    "states": (
        "uniform_product", "apply_quadratic_phase", "qft_b", "qft_vector",
        "marginal_b", "conditional_a", "purity_a", "sample_outcome",
    ),
    "superposition": (
        "run_exact", "run_qubit", "conditional_after_peak", "success_mass",
        "sample_factor_driver",
    ),
    "shor_gauss": (
        "branch_probs", "post_state", "qft_distribution", "analyze_peaks",
        "recover_divisor", "run_trial", "factor_driver",
    ),
    "trials": ("trial_rng",),
    "cli": (
        "main", "cmd_gauss_table", "cmd_shor_gauss", "cmd_superposition",
        "cmd_purity", "cmd_sweep", "render_csv", "render_json", "emit",
    ),
}
DISTRIBUTION = "states.Distribution"


def span_names() -> list[str]:
    """Every span name the tracer can record, in layer order."""
    names = [f"{layer}.{fn}" for layer, fns in WRAPPED.items() for fn in fns]
    names.insert(names.index("states.sample_outcome") + 1, DISTRIBUTION)
    return names


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# count hooks: (tracer, args, kwargs, result) -> None, run after the call returns


def _kernel_terms(index: int, name: str, extra: int = 0):
    def hook(tr, args, kwargs, result):
        tr.counts["kernels.terms"] += _arg(args, kwargs, index, name) + extra

    return hook


def _amplitudes(tr, args, kwargs, result):
    tr.counts["states.amplitudes"] += result.amps.size


def _sample_bins(tr, args, kwargs, result):
    tr.counts["states.sample_outcome.bins"] += len(_arg(args, kwargs, 0, "probs"))


def _qubit_rows_run(tr, args, kwargs, result):
    tr.counts["superposition.qubit_rows"] += 1 << _arg(args, kwargs, 1, "q_bits")


def _qubit_rows_conditional(tr, args, kwargs, result):
    tr.counts["superposition.qubit_rows"] += 1 << _arg(args, kwargs, 0, "run").q_bits


def _unit_fft(tr, args, kwargs, result):
    if "shor_gauss.factor_driver" in tr.open_names:
        tr.counts["shor_gauss.unit_ffts"] += 1


def _trial(tr, args, kwargs, result):
    tr.counts["shor_gauss.trials"] += 1
    tr.counts["shor_gauss.successes"] += result.factor is not None


def _recovered(tr, args, kwargs, result):
    n = _arg(args, kwargs, 2, "n")
    tr.counts["shor_gauss.recover_divisor.useful"] += 1 < result.gcd_with_n < n


def _superposition_driver(tr, args, kwargs, result):
    tr.counts["superposition.trials"] += result.trials_run
    tr.counts["superposition.successes"] += result.succeeded


def _rendered(tr, args, kwargs, result):
    tr.counts["cli.rows"] += sum(len(sec.rows) for sec in _arg(args, kwargs, 1, "sections"))
    tr.counts["cli.bytes"] += len(result) if result.isascii() else len(result.encode())


HOOKS = {
    "kernels.eval_G": _kernel_terms(1, "n"),
    "kernels.eval_W": _kernel_terms(2, "n"),
    "kernels.eval_truncated": _kernel_terms(2, "m_terms", extra=1),
    "states.uniform_product": _amplitudes,
    "states.apply_quadratic_phase": _amplitudes,
    "states.qft_b": _amplitudes,
    "states.qft_vector": _unit_fft,
    "states.sample_outcome": _sample_bins,
    "superposition.run_qubit": _qubit_rows_run,
    "superposition.conditional_after_peak": _qubit_rows_conditional,
    "superposition.sample_factor_driver": _superposition_driver,
    "shor_gauss.run_trial": _trial,
    "shor_gauss.recover_divisor": _recovered,
    "cli.render_csv": _rendered,
    "cli.render_json": _rendered,
}


class Tracer:
    """In-memory span recorder for one pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self.open_names: list[str] = []
        self._open: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn):
        spans, opened, open_names = self.spans, self._open, self.open_names
        hook = HOOKS.get(name)
        pass_id = self.pass_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, opened[-1] if opened else -1, pass_id]
            spans.append(span)
            opened.append(index)
            open_names.append(name)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                opened.pop()
                open_names.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at each binding that holds it."""
        package = importlib.import_module("gausshor")
        modules = [package] + [importlib.import_module(f"gausshor.{m}") for m in WRAPPED]
        for layer, fns in WRAPPED.items():
            home = importlib.import_module(f"gausshor.{layer}")
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self.wrap(f"{layer}.{fn}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                        elif isinstance(value, dict):  # dispatch tables such as cli._COMMANDS
                            for key, item in value.items():
                                if item is original:
                                    value[key] = wrapper
        dist = importlib.import_module("gausshor.states").Distribution
        dist.__init__ = self.wrap(DISTRIBUTION, dist.__init__)


def self_times(spans: list) -> tuple[Counter, Counter]:
    """Calls and self seconds per span name; self time excludes child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child[i]
    return calls, self_s
