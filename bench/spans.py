"""Span tracing of ratnets from outside the package.

`Tracer.install()` replaces each traced public function with a wrapper on
every ratnets module (or class) that binds it, so a call made through
``from .network import forward_recursive`` in ``geometry`` is traced as well
as one made through ``ratnets.network``.  A wrapper records one span (name,
start, end, parent) while the tracer is active and calls straight through
otherwise.  Spans stay in memory, in flat arrays, until `layer_metrics`
turns them into per-layer self times and counts.

Scalar field operations are far too fine to wrap; their cost lands in the
self time of the `poly` span that issued them.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

from ratnets import factor, geometry, network, reconstruct, train
from ratnets.factor import NonConvergenceError
from ratnets.poly import HomPoly, NotDivisibleError
from ratnets.reconstruct import Stage
from ratnets.train import AllPointsSkippedError

# The traced run's per-layer self times must cover at least this share of
# the time spent inside timed item calls; the rest is wrapper entry/exit
# and the untraced glue of the item's outermost call.
COVERAGE_MIN = 0.95

# (span name, owner, attribute): owner is the defining module or class.
TRACED = [
    ("poly.mul", HomPoly, "mul"),
    ("poly.construct", HomPoly, "__post_init__"),
    ("poly.compose_linear", HomPoly, "compose_linear"),
    ("poly.exact_divide", HomPoly, "exact_divide"),
    ("network.forward_recursive", network, "forward_recursive"),
    ("geometry.jacobian_rank_mod_p", geometry, "jacobian_rank_mod_p"),
    ("geometry.gf_rank", geometry, "gf_rank"),
    ("factor.factor_multilinear", factor, "factor_multilinear"),
    ("factor.roots_univariate", factor, "roots_univariate"),
    ("factor.factor_binary_form", factor, "factor_binary_form"),
    ("reconstruct.reconstruct_shallow", reconstruct, "reconstruct_shallow"),
    ("reconstruct.reconstruct_binary", reconstruct, "reconstruct_binary"),
    ("reconstruct.projective_mismatch", reconstruct, "projective_mismatch"),
    ("train.forward_backward", train, "forward_backward"),
    ("train.adam_step", train, "adam_step"),
    ("train.run_experiment", train, "run_experiment"),
]

# Per-layer metrics reported by a traced run: name -> unit.  Every value is
# per pass over the workload's fixed item list.
LAYER_METRICS = {
    "poly.mul.calls": "count",
    "poly.mul.self_s": "s",
    "poly.mul.term_products": "count",
    "poly.construct.calls": "count",
    "poly.construct.self_s": "s",
    "poly.compose_linear.calls": "count",
    "poly.compose_linear.self_s": "s",
    "poly.exact_divide.calls": "count",
    "poly.exact_divide.self_s": "s",
    "poly.exact_divide.failures": "count",
    "network.forward_recursive.calls": "count",
    "network.forward_recursive.self_s": "s",
    "network.forward_recursive.out_terms": "count",
    "geometry.jacobian_rank_mod_p.self_s": "s",
    "geometry.gf_rank.calls": "count",
    "geometry.gf_rank.self_s": "s",
    "geometry.gf_rank.cells": "count",
    "geometry.extra_samples": "count",
    "factor.factor_multilinear.calls": "count",
    "factor.factor_multilinear.self_s": "s",
    "factor.factor_multilinear.failures": "count",
    "factor.roots_univariate.calls": "count",
    "factor.roots_univariate.self_s": "s",
    "factor.roots_univariate.nonconvergence": "count",
    "factor.attempts_per_call": "ratio",
    "factor.factor_binary_form.calls": "count",
    "factor.factor_binary_form.self_s": "s",
    "factor.factor_binary_form.failures": "count",
    "reconstruct.reconstruct_shallow.self_s": "s",
    "reconstruct.reconstruct_binary.self_s": "s",
    "reconstruct.projective_mismatch.calls": "count",
    "reconstruct.projective_mismatch.self_s": "s",
    **{f"reconstruct.stage.{s.value}": "count" for s in Stage},
    "train.forward_backward.calls": "count",
    "train.forward_backward.self_s": "s",
    "train.adam_step.calls": "count",
    "train.adam_step.self_s": "s",
    "train.run_experiment.self_s": "s",
    "train.skipped_points": "count",
    "train.all_skipped_epochs": "count",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}


class Tracer:
    """Flat in-memory span store plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self.nid = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.active = False
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.nid.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _inside(self, nid: int) -> bool:
        """Whether an open span with this name id encloses the current one."""
        return any(self.nid[i] == nid for i in self.stack)

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        before, after, error = _HOOKS.get(name, (None, None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(self, args)
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException as ex:
                self._close(idx)
                if error is not None:
                    error(self, ex)
                raise
            self._close(idx)
            if after is not None:
                after(self, out)
            return out

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function on every ratnets binding of it."""
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "ratnets" or k.startswith("ratnets."))]
        for name, owner, attr in TRACED:
            fn = vars(owner)[attr]
            wrapped = self.wrap(name, fn)
            if isinstance(owner, type):
                targets = [owner]
            else:
                targets = [m for m in mods if any(v is fn for v in vars(m).values())]
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is fn:
                        self._restore.append((target, key, value))
                        setattr(target, key, wrapped)

    def uninstall(self) -> None:
        for target, key, value in reversed(self._restore):
            setattr(target, key, value)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Name -> (calls, total self seconds).  Self time is a span's
        duration minus the durations of its direct children; calls run one
        at a time, so children never overlap."""
        n = len(self.start)
        if n == 0:
            return {}
        nid = np.asarray(self.nid, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        totals = np.bincount(nid, weights=self_t, minlength=k)
        return {name: (int(calls[i]), float(totals[i])) for i, name in enumerate(self.names)}


# -- counters kept at span boundaries -------------------------------------------


def _count_terms(tracer, args):
    a, b = args[0], args[1]
    tracer.counts["poly.mul.term_products"] += len(a.terms) * len(b.terms)


def _count_cells(tracer, args):
    rows = args[0]
    tracer.counts["geometry.gf_rank.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _count_roots_attempt(tracer, args):
    fm = tracer.names.index("factor.factor_multilinear")
    if tracer._inside(fm):
        tracer.counts["factor.roots_in_multilinear"] += 1


def _count_out_terms(tracer, out):
    tracer.counts["network.forward_recursive.out_terms"] += sum(
        len(p.terms) for p in out.all_polys())


def _count_factor_result(tracer, report):
    if not report.decomposable:
        tracer.counts["factor.factor_multilinear.failures"] += 1


def _count_stage(tracer, verdict):
    tracer.counts[f"reconstruct.stage.{verdict.stage_failed.value}"] += 1


def _count_skipped(tracer, out):
    tracer.counts["train.skipped_points"] += int(out[2])


def _on_error(counter, kinds):
    def hook(tracer, ex):
        if isinstance(ex, kinds):
            tracer.counts[counter] += 1
    return hook


# name -> (before(tracer, args), after(tracer, result), error(tracer, exc))
_HOOKS = {
    "poly.mul": (_count_terms, None, None),
    "poly.exact_divide": (None, None, _on_error("poly.exact_divide.failures", NotDivisibleError)),
    "network.forward_recursive": (None, _count_out_terms, None),
    "geometry.gf_rank": (_count_cells, None, None),
    "factor.factor_multilinear": (None, _count_factor_result,
                                  _on_error("factor.factor_multilinear.failures", Exception)),
    "factor.roots_univariate": (_count_roots_attempt, None,
                                _on_error("factor.roots_univariate.nonconvergence",
                                          NonConvergenceError)),
    "factor.factor_binary_form": (None, None,
                                  _on_error("factor.factor_binary_form.failures", Exception)),
    "reconstruct.reconstruct_shallow": (None, _count_stage, None),
    "reconstruct.reconstruct_binary": (None, _count_stage, None),
    "train.forward_backward": (None, _count_skipped,
                               _on_error("train.all_skipped_epochs", AllPointsSkippedError)),
}


def layer_metrics(tracer: Tracer, passes: int, traced_call_s: float,
                  overhead_frac: float) -> dict[str, float]:
    """Per-pass per-layer values for every name in LAYER_METRICS.

    traced_call_s is the time the harness measured inside traced item calls
    (traced wall time minus benchmark glue); overhead_frac is the traced
    over the untraced item time per pass, minus one.
    """
    st = tracer.self_times()
    counts = tracer.counts
    out: dict[str, float] = {}
    for name, (calls, self_s) in st.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    for key, value in counts.items():
        out[key] = value
    fm_calls = st.get("factor.factor_multilinear", (0, 0.0))[0]
    gf_calls = st.get("geometry.gf_rank", (0, 0.0))[0]
    jr_calls = st.get("geometry.jacobian_rank_mod_p", (0, 0.0))[0]
    out["geometry.extra_samples"] = gf_calls - 2 * jr_calls
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        if unit == "ratio":
            continue
        metrics[name] = out.get(name, 0) / passes
    metrics["factor.attempts_per_call"] = (
        counts["factor.roots_in_multilinear"] / fm_calls if fm_calls else 0.0)
    metrics["trace.overhead_frac"] = overhead_frac
    total_self = sum(s for _, s in st.values())
    metrics["trace.coverage"] = total_self / traced_call_s if traced_call_s else 0.0
    return metrics
