"""In-memory span tracer that wraps nhsiegel's public functions from outside.

``install(tracer)`` replaces each function named in ``LAYERS`` by a wrapper
that records a span (name, start, end, parent) and returns the original
result.  The wrapper is installed under every name that points at the
original in any loaded ``nhsiegel`` module, which covers the names other
modules bound with ``from .x import y``.  Classes are traced through their
``__init__``.  Spans stay in memory; ``summarize`` turns them into per-name
call counts, self times and, for the per-call table rows, durations.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# Public functions traced per module.  Names are ``<module>.<function>``.
LAYERS = {
    "linalg": ("eigenvalues_sym", "eigh_sym", "sqrt_posdef", "inverse", "solve_gauss", "det", "monomial"),
    "symplectic": ("SiegelPoint", "SymplecticMatrix", "act", "automorphy_factor", "from_point", "reduce_to_fundamental"),
    "reps": ("rep_matrix", "apply", "inner", "norm"),
    "forms": ("evaluate", "phi", "tail_bound", "check_invariance", "slash"),
    "growth": ("sturm_rhs", "corollary_rhs", "lift", "estimate_constant", "verify_growth_bound", "verify_moderate_growth"),
    "sampling": ("random_siegel_point", "random_compact"),
    "formio": ("load_form_package", "save_form_package"),
    "cli": ("main",),
}

# ``slash`` itself only builds an evaluator; the evaluator calls are the work.
SLASH_EVAL = "forms.slash_eval"

# Span names whose full durations are kept, for the per-call table.
PER_CALL = (
    "linalg.eigenvalues_sym",
    "symplectic.SiegelPoint",
    "forms.evaluate",
    "forms.phi",
    "symplectic.reduce_to_fundamental",
)

EIGEN = ("linalg.eigh_sym", "linalg.eigenvalues_sym")


def span_names() -> list[str]:
    names = []
    for layer, funcs in LAYERS.items():
        for fn in funcs:
            names.append(SLASH_EVAL if f"{layer}.{fn}" == "forms.slash" else f"{layer}.{fn}")
    return names


class Tracer:
    """Collects spans of one process; one thread, so spans nest."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.identity_reductions = 0

    def wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if observe is not None:
                observe(result)
            return result

        return traced


def install(tracer: Tracer):
    """Wrap every function in LAYERS; returns a function that undoes it."""
    homes = {layer: importlib.import_module(f"nhsiegel.{layer}") for layer in LAYERS}
    mods = [m for name, m in list(sys.modules.items()) if name == "nhsiegel" or name.startswith("nhsiegel.")]
    undo = []

    def rebind(orig, wrapped):
        for m in mods:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, attr, wrapped)
                    undo.append((m, attr, orig))

    def count_identity(result):
        gamma = result[0].mat
        if np.array_equal(gamma, np.eye(len(gamma))):
            tracer.identity_reductions += 1

    for layer, funcs in LAYERS.items():
        for fn in funcs:
            orig = getattr(homes[layer], fn)
            name = f"{layer}.{fn}"
            if isinstance(orig, type):
                init = orig.__init__
                orig.__init__ = tracer.wrap(name, init)
                undo.append((orig, "__init__", init))
            elif name == "forms.slash":
                rebind(orig, _traced_slash(tracer, orig))
            elif name == "symplectic.reduce_to_fundamental":
                rebind(orig, tracer.wrap(name, orig, observe=count_identity))
            else:
                rebind(orig, tracer.wrap(name, orig))

    def uninstall():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return uninstall


def _traced_slash(tracer: Tracer, slash):
    def traced_slash(f, g):
        ev = slash(f, g)
        return type(ev)(ev.rep, ev.n, tracer.wrap(SLASH_EVAL, ev.func))

    return traced_slash


def coverage(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def summarize(spans) -> dict:
    """Per-name calls and self seconds; durations (s) for PER_CALL names;
    and the number of outermost eigensolves."""
    children = defaultdict(list)
    for name, s, e, parent in spans:
        if parent >= 0:
            children[parent].append((s, e))
    out: dict = {}
    eigensolves = 0
    for idx, (name, s, e, parent) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
        rec["calls"] += 1
        rec["self_s"] += (e - s) - coverage(children.get(idx, ()), s, e)
        if name in PER_CALL:
            rec["durations"].append(e - s)
        if name in EIGEN and (parent < 0 or spans[parent][0] not in EIGEN):
            eigensolves += 1
    return {"spans": out, "eigensolves": eigensolves}


def merge(into: dict, part: dict) -> dict:
    """Add one process summary (with ``identity_reductions``) into another."""
    for name, rec in part["spans"].items():
        dst = into["spans"].setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
        dst["calls"] += rec["calls"]
        dst["self_s"] += rec["self_s"]
        dst["durations"].extend(rec["durations"])
    into["eigensolves"] += part["eigensolves"]
    into["identity_reductions"] += part["identity_reductions"]
    return into


def empty_summary() -> dict:
    return {"spans": {}, "eigensolves": 0, "identity_reductions": 0}


def finish(tracer: Tracer) -> dict:
    summary = summarize(tracer.spans)
    summary["identity_reductions"] = tracer.identity_reductions
    return summary
