"""Span tracing of the towb layers, installed from outside the package.

The tracer wraps public functions and methods of the ``towb`` modules.
Modules bind names at import (``from .grid import pushforward``), so each
function wrapper replaces *every* module-level binding of the original
object, not only the one in its home module.  Methods are wrapped on the
class, which reaches every call site.  Handlers in ``towb.cli._HANDLERS`` are
wrapped in the dict that dispatches them.

Spans are kept in memory as ``[id, parent, name, t0, t1, attrs]`` records
with the parent taken from a stack (the workload is single-threaded), and
written out as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _fingerprint(op, lam, tol=1e-12, max_iter=2000, seed=0):
    """Everything a harmonic solve depends on; equal keys mean the solve
    repeats earlier work."""
    sys_ = op.system
    return (tuple((b.slope, b.offset, b.mod_one) for b in sys_.branches),
            sys_.probs, repr(sys_.weight), op.n_grid,
            lam.cell_masses.tobytes(), lam.atoms, tol, max_iter, seed)


def _solve_attrs(op, lam, *args, **kwargs):
    return {"key": _fingerprint(op, lam, *args, **kwargs)}


# (home module, attribute, span name, attrs(*args, **kwargs) or None)
FUNCTIONS = [
    ("towb.config", "load_config", "config.load", None),
    ("towb.grid", "pushforward", "grid.pushforward",
     lambda mu, branch: {"cells": mu.n_cells}),
    ("towb.grid", "integrate", "grid.integrate", None),
    ("towb.grid", "integrate_over", "grid.integrate_over", None),
    ("towb.transfer", "identity_suite", "transfer.identity_suite", None),
    ("towb.harmonic", "solve_harmonic", "harmonic.solve", _solve_attrs),
    ("towb.sigspace", "defect", "sigspace.defect", None),
    ("towb.sigspace", "hutchinson_iterate", "sigspace.hutchinson", None),
    ("towb.sigspace", "defect_search", "sigspace.search", None),
    ("towb.solenoid", "sample_paths", "solenoid.sample_paths",
     lambda pm, bases, depth, rng: {"steps": _size(bases) * depth}),
    ("towb.solenoid", "cylinder_mass", "solenoid.cylinder_mass",
     lambda pm, x, spec: {"words": pm.op.system.n_branches ** spec.depth}),
    ("towb.solenoid", "expectation", "solenoid.expectation", None),
    ("towb.solenoid", "markov_deviation", "solenoid.markov", None),
    ("towb.solenoid", "harmonic_from_measure",
     "solenoid.harmonic_from_measure", None),
]

# (home module, class, method, span name, attrs(self, *args) or None)
METHODS = [
    ("towb.grid", "GridFunction", "__call__", "grid.interp",
     lambda self, x: {"points": _size(x)}),
    ("towb.trig", "TrigPoly", "__call__", "trig.eval",
     lambda self, x: {"terms": _size(x) * self.freqs.size}),
    ("towb.trig", "TrigPoly", "antiderivative_values", "trig.antideriv", None),
    ("towb.system", "WeightExpr", "__call__", "system.weight_eval", None),
    ("towb.transfer", "TransferOperator", "apply", "transfer.apply", None),
    ("towb.transfer", "TransferOperator", "push_measure",
     "transfer.push_measure", None),
]


def rebind(orig, replacement) -> list[tuple]:
    """Point every module-level binding of ``orig`` in the towb package at
    ``replacement``; returns what :func:`unbind` needs to undo it."""
    undo = []
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key == "towb" or key.startswith("towb.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, name, replacement)
                undo.append((mod, name, orig))
    return undo


def unbind(undo: list[tuple]) -> None:
    for target, key, orig in reversed(undo):
        if isinstance(target, dict):
            target[key] = orig
        else:
            setattr(target, key, orig)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0,
                   attrs(*args, **kwargs) if attrs else None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if name == "harmonic.solve":
                rec[5]["iterations"] = out.iterations
            return out

        return wrapper

    def install(self) -> None:
        for home, attr, name, attrs in FUNCTIONS:
            orig = getattr(sys.modules[home], attr)
            self._restore += rebind(orig, self._wrap(name, orig, attrs))
        for home, cls_name, meth, name, attrs in METHODS:
            cls = getattr(sys.modules[home], cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(name, orig, attrs))
            self._restore.append((cls, meth, orig))
        handlers = sys.modules["towb.cli"]._HANDLERS
        for cmd, orig in list(handlers.items()):
            handlers[cmd] = self._wrap("cli.handler", orig, None)
            self._restore.append((handlers, cmd, orig))

    def uninstall(self) -> None:
        unbind(self._restore)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, attrs in self.spans:
                extra = {k: v for k, v in (attrs or {}).items() if k != "key"}
                fh.write(json.dumps([sid, parent, name, t0, t1, extra]) + "\n")


def layer_metrics(spans: list[list], pass_s: float,
                  dominant: tuple[str, ...]) -> dict[str, float]:
    """Per-layer totals over the spans of one traced pass.

    Times sum only the outermost span of each name, so a layer that calls
    itself is not counted twice.  ``dominant`` lists the name prefixes of
    the workload's own layer; ``trace.dominant_share`` is the share of the
    pass they cover.
    """
    if not spans:
        return {}
    ancestors: dict[int, frozenset] = {}    # span id -> names above it
    by_name: dict[int, str] = {}
    children: dict[int, float] = defaultdict(float)
    n, secs, counts = Counter(), defaultdict(float), Counter()
    per_n = defaultdict(float)
    seen_solves: set = set()
    reused = 0
    covered = dom = 0.0
    for sid, parent, name, t0, t1, attrs in spans:
        above = frozenset()
        if parent in ancestors:
            above = ancestors[parent] | {by_name[parent]}
            children[parent] += t1 - t0
        ancestors[sid] = above
        by_name[sid] = name
        dur = t1 - t0
        n[name] += 1
        if name not in above:
            secs[name] += dur
        if name != "cli.handler" and above <= {"cli.handler"}:
            covered += dur
        if name.startswith(dominant) and not any(
                a.startswith(dominant) for a in above):
            dom += dur
        if attrs:
            for key in ("cells", "points", "terms", "steps", "words",
                        "iterations"):
                if key in attrs:
                    counts[(name, key)] += attrs[key]
            if name == "grid.pushforward":
                per_n[attrs["cells"]] += dur
            if name == "harmonic.solve":
                reused += attrs["key"] in seen_solves
                seen_solves.add(attrs["key"])
    handler_self = sum(s[4] - s[3] - children[s[0]] for s in spans
                       if s[2] == "cli.handler")
    out = {
        "config.load_s": secs["config.load"],
        "grid.pushforward_n": n["grid.pushforward"],
        "grid.pushforward_s": secs["grid.pushforward"],
        "grid.pushforward_cells": counts[("grid.pushforward", "cells")],
        "grid.integrate_over_n": n["grid.integrate_over"],
        "grid.integrate_over_s": secs["grid.integrate_over"],
        "grid.integrate_s": secs["grid.integrate"],
        "grid.interp_n": n["grid.interp"],
        "grid.interp_points": counts[("grid.interp", "points")],
        "grid.interp_s": secs["grid.interp"],
        "trig.eval_n": n["trig.eval"],
        "trig.eval_s": secs["trig.eval"],
        "trig.eval_terms": counts[("trig.eval", "terms")],
        "trig.antideriv_n": n["trig.antideriv"],
        "trig.antideriv_s": secs["trig.antideriv"],
        "system.weight_eval_n": n["system.weight_eval"],
        "system.weight_eval_s": secs["system.weight_eval"],
        "transfer.apply_n": n["transfer.apply"],
        "transfer.apply_s": secs["transfer.apply"],
        "transfer.push_measure_n": n["transfer.push_measure"],
        "transfer.push_measure_s": secs["transfer.push_measure"],
        "transfer.identity_suite_s": secs["transfer.identity_suite"],
        "harmonic.solve_n": n["harmonic.solve"],
        "harmonic.solve_s": secs["harmonic.solve"],
        "harmonic.iterations": counts[("harmonic.solve", "iterations")],
        "harmonic.solve_reuse": (reused / n["harmonic.solve"]
                                 if n["harmonic.solve"] else 0.0),
        "sigspace.defect_s": secs["sigspace.defect"],
        "sigspace.hutchinson_s": secs["sigspace.hutchinson"],
        "sigspace.search_s": secs["sigspace.search"],
        "solenoid.sample_paths_s": secs["solenoid.sample_paths"],
        "solenoid.path_steps": counts[("solenoid.sample_paths", "steps")],
        "solenoid.cylinder_mass_n": n["solenoid.cylinder_mass"],
        "solenoid.cylinder_mass_s": secs["solenoid.cylinder_mass"],
        "solenoid.words": counts[("solenoid.cylinder_mass", "words")],
        "solenoid.expectation_s": secs["solenoid.expectation"],
        "cli.handler_self_s": handler_self,
        "trace.coverage": covered / pass_s,
        "trace.dominant_share": dom / pass_s,
    }
    for cells in (243, 1024, 4096):
        out[f"grid.pushforward_s.n{cells}"] = per_n[cells]
    return out
