"""Spans and counters recorded at the public boundaries of the varbounds
modules, installed from outside the library by rebinding names.

`install` replaces each traced function with a recording wrapper in every
`varbounds` module namespace that holds it (a name imported with
`from .kernel import make_gram_system` is a separate binding that must be
rebound too), plus three evaluator methods and numpy's `svd`/`eigh`/`eigvalsh`.
`uninstall` restores the original objects.  Wrappers pass arguments and
results through untouched, so traced and untraced runs compute the same
numbers.

Spans are aggregated in memory per name (calls, inclusive and self time) and
per (parent, child) edge.  A call to a name that already has an open span
(for example `log_density_batch` of an `as_generic` model calling the family's
own `log_density_batch`) is part of the outer span and is not counted again.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, span name).  Tiny combinatorics helpers (as_index,
# multi_indices_leq, multi_binomial, MultiIndex methods) and
# natural_space_contains are left out: they run millions of times per pass
# and wrapping them would make the trace measure the wrapper.
FUNCTIONS = [
    ("models", "log_density_batch", "models.log_density_batch"),
    ("models", "sample", "models.sample"),
    ("models", "mean_partial", "models.mean_partial"),
    ("models", "make_model", "models.make_model"),
    ("calculus", "moment", "calculus.moment"),
    ("calculus", "moment_table", "calculus.moment_table"),
    ("calculus", "reciprocal_series", "calculus.reciprocal_series"),
    ("calculus", "partial_derivative", "calculus.partial_derivative"),
    ("kernel", "kernel_expfam", "kernel.kernel_expfam"),
    ("kernel", "deriv_inner_products", "kernel.deriv_inner_products"),
    ("kernel", "make_gram_system", "kernel.make_gram_system"),
    ("kernel", "projected_sq_norm", "kernel.projected_sq_norm"),
    ("kernel", "gram", "kernel.gram"),
    ("kernel", "gram_system", "kernel.gram_system"),
    ("bounds", "fisher_info", "bounds.fisher_info"),
    ("bounds", "crb", "bounds.crb"),
    ("bounds", "constrained_crb", "bounds.constrained_crb"),
    ("bounds", "null_space_onb", "bounds.null_space_onb"),
    ("bounds", "bhattacharyya", "bounds.bhattacharyya"),
    ("bounds", "hcrb", "bounds.hcrb"),
    ("bounds", "barankin_approx", "bounds.barankin_approx"),
    ("bounds", "expfam_bound", "bounds.expfam_bound"),
    ("bounds", "expfam_crb", "bounds.expfam_crb"),
    ("bounds", "evaluate_bound", "bounds.evaluate_bound"),
    ("harness", "estimator_variance_mc", "harness.estimator_variance_mc"),
    ("harness", "validate_bounds", "harness.validate_bounds"),
    ("harness", "write_csv", "harness.write_csv"),
    ("harness", "semicontinuity_scan", "harness.semicontinuity_scan"),
    ("harness", "reduction_experiment", "harness.reduction_experiment"),
    ("cli", "load_config", "cli.load_config"),
    ("cli", "main", "cli.main"),
]

# (module, class, method, span name)
METHODS = [
    ("kernel", "ExpfamKernelEvaluator", "pairwise", "kernel.expfam_pairwise"),
    ("kernel", "MonteCarloKernelEvaluator", "pairwise", "kernel.mc_pairwise"),
    ("kernel", "MonteCarloKernelEvaluator", "__init__", "kernel.mc_evaluator"),
]

LINALG = ("svd", "eigh", "eigvalsh")
LINALG_SPAN = "kernel.linalg"


class Recorder:
    """Aggregated spans and counters of one traced run."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.edges: dict = defaultdict(lambda: [0, 0])
        self.counters: Counter = Counter()
        self.ld_keys: set = set()
        self._stack: list = []        # open spans: [name, start_ns, child_ns]
        self._open: Counter = Counter()

    def new_pass(self) -> None:
        """Distinct log-density points are counted within one pass."""
        self.counters["models.log_density_batch.distinct"] += len(self.ld_keys)
        self.ld_keys.clear()

    def call(self, name, fn, args, kwargs):
        if self._open[name]:
            return fn(*args, **kwargs)
        frame = [name, 0, 0]
        self._stack.append(frame)
        self._open[name] += 1
        frame[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter_ns() - frame[1]
            self._stack.pop()
            self._open[name] -= 1
            self.calls[name] += 1
            self.incl_ns[name] += dur
            self.self_ns[name] += dur - frame[2]
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                parent[2] += dur
            edge = self.edges[(parent[0] if parent else "", name)]
            edge[0] += 1
            edge[1] += dur
        hook = _HOOKS.get(name)
        if hook is not None:
            hook(self, args, kwargs, result)
        return result

    def in_span(self) -> bool:
        return bool(self._stack)


def _ld_hook(rec, args, kwargs, result):
    model, Y, x = args[:3]
    Y = np.asarray(Y)
    rec.counters["models.log_density_batch.rows"] += len(Y)
    flat = Y.reshape(-1)
    # content fingerprint of the observation batch: each pass rebuilds its
    # sample arrays, so addresses alone would not identify a repeated batch
    probe = (flat[0], flat[len(flat) // 2], flat[-1]) if len(flat) else ()
    rec.ld_keys.add((id(model), Y.shape, probe,
                     np.atleast_1d(np.asarray(x, dtype=float)).tobytes()))


def _sample_hook(rec, args, kwargs, result):
    rec.counters["models.sample.draws"] += len(result)


def _entries_hook(counter):
    def hook(rec, args, kwargs, result):
        rec.counters[counter] += int(np.asarray(result).size)
    return hook


def _barankin_hook(rec, args, kwargs, result):
    rec.counters["bounds.objective_evals"] += int(result.diagnostics["evaluations"])


#: Counters the hooks below accumulate (per-layer metrics of the same name).
COUNTERS = ("models.log_density_batch.rows", "models.sample.draws",
            "kernel.expfam_pairwise.entries", "kernel.mc_pairwise.entries",
            "bounds.objective_evals")

_HOOKS = {
    "models.log_density_batch": _ld_hook,
    "models.sample": _sample_hook,
    "kernel.expfam_pairwise": _entries_hook("kernel.expfam_pairwise.entries"),
    "kernel.mc_pairwise": _entries_hook("kernel.mc_pairwise.entries"),
    "bounds.barankin_approx": _barankin_hook,
}


def _wrap(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return rec.call(name, fn, args, kwargs)
    return traced


def _wrap_linalg(rec: Recorder, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.in_span():
            return fn(*args, **kwargs)
        return rec.call(LINALG_SPAN, fn, args, kwargs)
    return traced


def varbounds_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "varbounds" or n.startswith("varbounds."))]


def originals() -> list:
    """The library objects that `install` replaces."""
    out = [getattr(importlib.import_module(f"varbounds.{mod}"), attr)
           for mod, attr, _ in FUNCTIONS]
    for mod, cls, meth, _ in METHODS:
        out.append(getattr(importlib.import_module(f"varbounds.{mod}"), cls).__dict__[meth])
    return out


def install(rec: Recorder) -> list:
    """Rebind every traced name; returns the undo list for `uninstall`."""
    undo = []
    modules = varbounds_modules()
    for mod, attr, span in FUNCTIONS:
        orig = getattr(importlib.import_module(f"varbounds.{mod}"), attr)
        wrapper = _wrap(rec, span, orig)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    undo.append((m, key, orig))
                    setattr(m, key, wrapper)
    for mod, cls_name, meth, span in METHODS:
        cls = getattr(importlib.import_module(f"varbounds.{mod}"), cls_name)
        orig = cls.__dict__[meth]
        undo.append((cls, meth, orig))
        setattr(cls, meth, _wrap(rec, span, orig))
    for name in LINALG:
        orig = getattr(np.linalg, name)
        undo.append((np.linalg, name, orig))
        setattr(np.linalg, name, _wrap_linalg(rec, orig))
    return undo


def uninstall(undo: list) -> None:
    for owner, key, orig in reversed(undo):
        setattr(owner, key, orig)
