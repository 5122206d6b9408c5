"""Span tracing for the benchmark, installed from outside the program.

``install`` replaces module and class attributes of gradedsg with timing
wrappers.  Every wrapped call records one span: its name, its parent span,
and its start and end on ``time.perf_counter``.  Spans live in flat arrays
while the workload runs and are written out once, at the end.  A span's self
time is its duration minus the durations of its direct children.  Counts are
taken at the same boundaries as the spans.

A hook whose target is missing from the program (a later change removed or
renamed it) is skipped; the metrics that need it are then reported as
``None`` (printed ``n/a``) instead of failing the run.
"""

from __future__ import annotations

import inspect
import math
import time
from array import array

# Per-layer metric names in report order, with units; ``run.py`` reports
# exactly these under --trace 1.
CHECK_NAMES = ("verify-algebra", "derive-eom", "components", "verify-bt",
               "expand-bt", "closed-form", "redundancy", "currents",
               "conservation-audit", "kink", "bt-numeric", "fermions")

LAYER_METRICS: dict[str, str] = {
    "algebra.mul.calls": "count",
    "algebra.mul.term_pairs": "count",
    "algebra.mul.self_s": "s",
    "algebra.add.calls": "count",
    "algebra.add.terms_copied": "count",
    "algebra.add.self_s": "s",
    "algebra.d_x.calls": "count",
    "algebra.d_x.self_s": "s",
    "algebra.trig_of.calls": "count",
    "algebra.trig_of.self_s": "s",
    "algebra.substitute_jets.calls": "count",
    "algebra.substitute_jets.self_s": "s",
    "algebra.substitute.calls": "count",
    "algebra.substitute.self_s": "s",
    "algebra.to_text.calls": "count",
    "algebra.to_text.self_s": "s",
    "algebra.peak_terms": "count",
    "algebra.mul_keys.hits": "count",
    "algebra.mul_keys.misses": "count",
    "algebra.mul_keys.hit_ratio": "ratio",
    "algebra.mul_keys.fill": "ratio",
    "superspace.derivation.calls": "count",
    "superspace.derivation.self_s": "s",
    "superspace.superalgebra_checks.s": "s",
    "model.reduce_on_shell.calls": "count",
    "model.reduce_on_shell.s": "s",
    "model.rewrite.passes": "count",
    "backlund.conservation_audit.s": "s",
    "backlund.conservation_audit.amax8_s": "s",
    "backlund.conservation_audit.amax10_s": "s",
    "backlund.conservation_audit.amax12_s": "s",
    "backlund.verify_auto_bt.s": "s",
    "backlund.verify_current_conservation.s": "s",
    "backlund.verify_redundancy.s": "s",
    "backlund.export_body_system.s": "s",
    "backlund.rewrite.passes": "count",
    "numeric.solve_leapfrog.s": "s",
    "numeric.solve_leapfrog.steps": "count",
    "numeric.integrate_fermions.s": "s",
    "numeric.fermion.cells": "count",
    "numeric.integrate_bt_body.s": "s",
    "parser.parse_expr.calls": "count",
    "parser.parse_expr.s": "s",
    **{f"cli.check.{name}.s": "s" for name in CHECK_NAMES},
    "cli.golden.s": "s",
    "trace_overhead": "ratio",
}

# Counts that must repeat exactly between two traced runs of one input.
DETERMINISTIC = tuple(
    name for name in LAYER_METRICS
    if name.endswith(".calls") or name in (
        "algebra.mul.term_pairs", "algebra.add.terms_copied",
        "algebra.peak_terms", "algebra.mul_keys.misses",
        "model.rewrite.passes", "backlund.rewrite.passes",
        "numeric.solve_leapfrog.steps", "numeric.fermion.cells"))

# Spans that own a jet-rewriting fixed-point loop; ``substitute_jets`` calls
# are attributed to the nearest one of these above them.
_REWRITE_OWNERS = {"model.reduce_on_shell": "model",
                   "backlund.BTReducer.reduce": "backlund",
                   "backlund.export_body_system": "backlund"}


class Tracer:
    """In-memory span store with counters taken at span boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.peak_terms = 0
        self.missing: set[str] = set()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def bump(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def see_terms(self, result) -> None:
        n = len(getattr(result, "terms", ()))
        if n > self.peak_terms:
            self.peak_terms = n

    def wrap(self, name, fn, count=None, name_of=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``count(args, kwargs, result)`` runs inside the span; ``name_of``
        derives the span name from the arguments instead of ``name``.
        """
        perf = time.perf_counter
        stack, name_ids, parents = self._stack, self.name_id, self.parent
        starts, ends = self.start, self.end
        fixed_id = self._name_id(name)

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(self._name_id(name_of(args, kwargs))
                            if name_of else fixed_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(args, kwargs, result)
                return result
            finally:
                ends[idx] = perf()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, name, fn):
        """Span over a generator's whole iteration, opened at first ``next``.

        The consumer's work between yields falls inside the span; the
        benchmark's consumers only test the yielded residual for zero.
        """
        perf = time.perf_counter
        nid = self._name_id(name)

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf())
            try:
                yield from fn(*args, **kwargs)
            finally:
                self.end[idx] = perf()
                self._stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results --------------------------------------------------------------

    def save(self, path: str) -> None:
        import numpy as np
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=np.frombuffer(self.name_id, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            start=np.frombuffer(self.start),
                            end=np.frombuffer(self.end))

    def layer_metrics(self, mul_keys_delta) -> dict[str, object]:
        """Per-layer metrics (without ``trace_overhead``) from the spans."""
        import numpy as np
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=dur - child, minlength=k)
        # a span directly inside a span of the same name is not counted twice
        parent_nid = np.where(nested, nid[np.maximum(parent, 0)], -1)
        outer = parent_nid != nid
        total_s = np.bincount(nid[outer], weights=dur[outer], minlength=k)

        def by_name(arr, name, cast=float):
            if name in self.missing:
                return None
            i = self._ids.get(name)
            return cast(arr[i]) if i is not None else cast(0)

        def prefixed_total(prefix):
            if prefix in self.missing:
                return None
            return float(sum(total_s[i] for n, i in self._ids.items()
                             if n.startswith(prefix)))

        def count(key):
            return None if key in self.missing else self.counts.get(key, 0)

        passes = {"model": 0, "backlund": 0}
        owner_ids = {self._ids[n]: o for n, o in _REWRITE_OWNERS.items()
                     if n in self._ids}
        sj = self._ids.get("algebra.substitute_jets")
        if sj is not None:
            for i in np.flatnonzero(nid == sj):
                p = parent[i]
                while p >= 0 and nid[p] not in owner_ids:
                    p = parent[p]
                if p >= 0:
                    passes[owner_ids[nid[p]]] += 1

        out: dict[str, object] = {}
        for op in ("mul", "add", "d_x", "trig_of", "substitute_jets",
                   "substitute", "to_text"):
            out[f"algebra.{op}.calls"] = by_name(calls, f"algebra.{op}", int)
            out[f"algebra.{op}.self_s"] = by_name(self_s, f"algebra.{op}")
        out["algebra.mul.term_pairs"] = count("algebra.mul.term_pairs")
        out["algebra.add.terms_copied"] = count("algebra.add.terms_copied")
        out["algebra.peak_terms"] = self.peak_terms
        if mul_keys_delta is None:
            for key in ("hits", "misses", "hit_ratio", "fill"):
                out[f"algebra.mul_keys.{key}"] = None
        else:
            hits, misses, fill = mul_keys_delta
            out["algebra.mul_keys.hits"] = hits
            out["algebra.mul_keys.misses"] = misses
            out["algebra.mul_keys.hit_ratio"] = (
                hits / (hits + misses) if hits + misses else 0.0)
            out["algebra.mul_keys.fill"] = fill
        out["superspace.derivation.calls"] = by_name(calls, "superspace.derivation", int)
        out["superspace.derivation.self_s"] = by_name(self_s, "superspace.derivation")
        out["superspace.superalgebra_checks.s"] = by_name(
            total_s, "superspace.superalgebra_checks")
        out["model.reduce_on_shell.calls"] = by_name(calls, "model.reduce_on_shell", int)
        out["model.reduce_on_shell.s"] = by_name(total_s, "model.reduce_on_shell")
        out["model.rewrite.passes"] = (None if "algebra.substitute_jets" in self.missing
                                       else passes["model"])
        out["backlund.conservation_audit.s"] = prefixed_total(
            "backlund.conservation_audit")
        for amax in (8, 10, 12):
            out[f"backlund.conservation_audit.amax{amax}_s"] = (
                None if "backlund.conservation_audit" in self.missing else
                by_name(total_s, f"backlund.conservation_audit.amax{amax}"))
        for fn in ("verify_auto_bt", "verify_current_conservation",
                   "verify_redundancy", "export_body_system"):
            out[f"backlund.{fn}.s"] = by_name(total_s, f"backlund.{fn}")
        out["backlund.rewrite.passes"] = (None if "algebra.substitute_jets" in self.missing
                                          else passes["backlund"])
        for fn in ("solve_leapfrog", "integrate_fermions", "integrate_bt_body"):
            out[f"numeric.{fn}.s"] = by_name(total_s, f"numeric.{fn}")
        out["numeric.solve_leapfrog.steps"] = count("numeric.solve_leapfrog.steps")
        out["numeric.fermion.cells"] = count("numeric.fermion.cells")
        out["parser.parse_expr.calls"] = by_name(calls, "parser.parse_expr", int)
        out["parser.parse_expr.s"] = by_name(total_s, "parser.parse_expr")
        for name in CHECK_NAMES:
            out[f"cli.check.{name}.s"] = by_name(total_s, f"cli.check.{name}")
        out["cli.golden.s"] = by_name(total_s, "cli.golden")
        return out


# ---------------------------------------------------------------------------
# hooks

def _hook(tracer: Tracer, owner, attr: str, name: str, **kw) -> None:
    fn = owner.get(attr) if isinstance(owner, dict) else getattr(owner, attr, None)
    if fn is None:
        tracer.missing.add(name)
        return
    wrapped = (tracer.wrap_generator(name, fn) if inspect.isgeneratorfunction(fn)
               else tracer.wrap(name, fn, **kw))
    if isinstance(owner, dict):
        owner[attr] = wrapped
    else:
        setattr(owner, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported gradedsg with spans."""
    from gradedsg import algebra as al
    from gradedsg import backlund as bt
    from gradedsg import cli, model, numeric, parser
    from gradedsg import superspace as ss

    def mul_count(args, kwargs, result):
        a, b = args
        if hasattr(b, "terms"):
            tracer.bump("algebra.mul.term_pairs", len(a.terms) * len(b.terms))
        tracer.see_terms(result)

    def add_count(args, kwargs, result):
        tracer.bump("algebra.add.terms_copied", len(args[0].terms))
        tracer.see_terms(result)

    def result_terms(args, kwargs, result):
        tracer.see_terms(result)

    leapfrog = getattr(numeric, "solve_leapfrog", None)
    fermions = getattr(numeric, "integrate_fermions", None)

    def leapfrog_steps(args, kwargs, result):
        bound = inspect.signature(leapfrog).bind(*args, **kwargs)
        s0, T = bound.arguments["s0"], bound.arguments["T"]
        dt = bound.arguments.get("dt") or s0.h / 2
        tracer.bump("numeric.solve_leapfrog.steps", int(round(T / dt)))

    def fermion_cells(args, kwargs, result):
        bound = inspect.signature(fermions).bind(*args, **kwargs)
        richardson = bound.arguments.get("richardson", True)
        nm, np_ = len(result.xm), len(result.xp)
        cells = nm * np_
        if richardson:
            cells += (2 * nm - 1) * (2 * np_ - 1)
        tracer.bump("numeric.fermion.cells", cells)

    expr_cls = al.GradedExpr
    if getattr(expr_cls, "__radd__", None) is getattr(expr_cls, "__add__", None):
        _hook(tracer, expr_cls, "__radd__", "algebra.add", count=add_count)
    _hook(tracer, expr_cls, "__add__", "algebra.add", count=add_count)
    _hook(tracer, expr_cls, "__mul__", "algebra.mul", count=mul_count)
    for fn in ("d_x", "trig_of", "substitute_jets", "substitute"):
        _hook(tracer, al, fn, f"algebra.{fn}", count=result_terms)
    _hook(tracer, al, "to_text", "algebra.to_text")

    _hook(tracer, ss, "apply", "superspace.derivation")
    _hook(tracer, ss.Derivation, "__call__", "superspace.derivation")
    _hook(tracer, ss, "superalgebra_checks", "superspace.superalgebra_checks")

    _hook(tracer, model, "reduce_on_shell", "model.reduce_on_shell")
    _hook(tracer, bt, "conservation_audit", "backlund.conservation_audit",
          name_of=lambda a, k: ("backlund.conservation_audit.amax"
                                f"{(a[0] if a else k['sys']).ctx.amax}"))
    for fn in ("verify_auto_bt", "verify_current_conservation",
               "verify_redundancy", "export_body_system"):
        _hook(tracer, bt, fn, f"backlund.{fn}")
    if hasattr(bt, "BTReducer"):
        _hook(tracer, bt.BTReducer, "reduce", "backlund.BTReducer.reduce")

    _hook(tracer, numeric, "solve_leapfrog", "numeric.solve_leapfrog",
          count=leapfrog_steps)
    _hook(tracer, numeric, "integrate_fermions", "numeric.integrate_fermions",
          count=fermion_cells)
    if leapfrog is None:
        tracer.missing.add("numeric.solve_leapfrog.steps")
    if fermions is None:
        tracer.missing.add("numeric.fermion.cells")
    _hook(tracer, numeric, "integrate_bt_body", "numeric.integrate_bt_body")

    _hook(tracer, parser, "parse_expr", "parser.parse_expr")
    checks = getattr(cli, "CHECKS", {})
    for name in CHECK_NAMES:
        _hook(tracer, checks, name, f"cli.check.{name}")
    _hook(tracer, cli, "_golden_diff", "cli.golden")


def mul_keys_info():
    """(hits, misses, currsize, maxsize) of the product-key cache, or None."""
    from gradedsg import algebra as al
    cached = getattr(al, "_mul_keys_cached", None)
    info = getattr(cached, "cache_info", None)
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses, ci.currsize, ci.maxsize


def mul_keys_delta(before, after):
    if before is None or after is None:
        return None
    fill = after[2] / after[3] if after[3] else math.nan
    return after[0] - before[0], after[1] - before[1], fill
