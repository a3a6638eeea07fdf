"""Output checks behind ``failed``: each command's exit code and certified
values against a stored reference or an independent oracle.

An expectation is a dict::

    {"exit": 0, "fails": 0,
     "values": {"rho": {"ref": 1.0, "atol": 1e-9},
                "tv_to_uniform": {"ref": 0.868..., "exact": true},
                "membership": {"ref": false}},
     "fail_residuals": {"ref": [0.831...], "rtol": 1e-6}}

``fails`` is the number of FAIL checks in the report and ``fail_residuals``
their residuals, sorted; check names are never compared, so renaming a check
does not read as a failure.  A float passes when
``|got - ref| <= atol + rtol * |ref|``; ``exact`` and booleans demand
equality.  Fixture commands are compared with ``references.json``, recorded
at the commit that introduced the benchmark.  Seeded inputs are compared
with the oracles below, which enumerate branch words directly with the
analytic weights and the harmonic function ``h = 1``: ``R 1 = 1`` holds
exactly for sys_a, sys_b (``(W(x/2) + W((x+1)/2))/2 = 1``) and sys_d.
"""

from __future__ import annotations

import numpy as np

# Oracle tolerances: the program's h equals 1 to ~1e-12 (solver tol 1e-12)
# and its weight is an exp-sum rather than a cosine.
ORACLE_RTOL = 1e-9
ORACLE_ATOL = 1e-12
EIGENVALUE_ATOL = 1e-9

_ONES = np.ones_like
SYSTEMS = {
    "sys_a": (((0.5, 0.0), (0.5, 0.5)), (0.5, 0.5), _ONES),
    "sys_b": (((0.5, 0.0), (0.5, 0.5)), (0.5, 0.5),
              lambda y: 1.0 + np.cos(2.0 * np.pi * y)),
    "sys_d": (((1 / 3, 0.0), (1 / 3, 2 / 3)), (0.5, 0.5), _ONES),
}


def _close(got, spec) -> bool:
    ref = spec["ref"]
    if isinstance(ref, bool) or spec.get("exact"):
        return got == ref
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return False
    tol = spec.get("atol", 0.0) + spec.get("rtol", 0.0) * abs(ref)
    return abs(got - ref) <= tol


def against_expected(code: int | str, report: dict | None,
                     exp: dict) -> list[str]:
    """Problems found in one command's outcome; empty when it is correct."""
    problems = []
    if code != exp["exit"]:
        problems.append(f"exit code {code}, expected {exp['exit']}")
    if report is None:
        return problems or ["no report written"]
    fails = sorted(c.get("residual") or 0.0 for c in report["checks"]
                   if c["status"] == "FAIL")
    if len(fails) != exp["fails"]:
        problems.append(f"{len(fails)} FAIL checks, expected {exp['fails']}")
    elif "fail_residuals" in exp:
        spec = exp["fail_residuals"]
        for got, ref in zip(fails, spec["ref"]):
            if not _close(got, {**spec, "ref": ref}):
                problems.append(f"FAIL residual {got!r}, expected {ref!r}")
    for key, spec in exp.get("values", {}).items():
        got = report["results"].get(key)
        if not _close(got, spec):
            problems.append(f"{key} = {got!r}, expected {spec}")
    return problems


def unit_eigenvalue(key: str) -> dict:
    """The sys_b eigenvalue is 1 for any solver seed, since ``R 1 = 1``."""
    return {"exit": 0, "fails": 0,
            "values": {key: {"ref": 1.0, "atol": EIGENVALUE_ATOL}}}


def _oracle(ref: float) -> dict:
    return {"ref": ref, "rtol": ORACLE_RTOL, "atol": ORACLE_ATOL}


def _parse_sets(text: str) -> list:
    sets = []
    for part in text.split(";"):
        if part == "all":
            sets.append(None)
            continue
        pairs = []
        for piece in part.split("u"):
            lo, hi = piece[1:-1].split(",")
            pairs.append((float(lo), float(hi)))
        sets.append(pairs)
    return sets


def cylinder_words(system: str, x: float, sets: list) -> float:
    """``sum over words of prod p_i W(y_j) [y_j in A_j]``, with ``h = 1``."""
    branches, probs, weight = SYSTEMS[system]
    ys, ws = np.array([x]), np.array([1.0])
    for pairs in sets:
        pts = [a * ys + b for a, b in branches]
        ws = np.concatenate([ws * p * weight(y) for y, p in zip(pts, probs)])
        ys = np.concatenate(pts)
        if pairs is not None:
            inside = np.zeros(ys.shape, dtype=bool)
            for lo, hi in pairs:
                inside |= (ys >= lo) & (ys < hi)
            ws = ws * inside
    return float(ws.sum())


def query_oracle(spec: dict) -> dict:
    """Expected outcome of one seeded exact query."""
    kind, system, x = spec["kind"], spec["system"], spec["x"]
    exp = {"exit": 0, "fails": 0, "values": {}}
    if kind == "cylinder":
        mass = cylinder_words(system, x, _parse_sets(spec["sets"]))
        exp["values"] = {"mass": _oracle(mass),
                         "normalized_mass": _oracle(mass),
                         "total_mass_at_base": _oracle(1.0)}
    elif kind == "markov":
        a, b = _parse_sets(spec["set_a"])[0], _parse_sets(spec["set_b"])[0]
        n = spec["n"]
        m1 = cylinder_words(system, x, [a, b])
        mn = cylinder_words(system, x, [None] * (n - 1) + [a, b])
        exp["values"] = {
            "m_1": _oracle(m1), f"m_{n}": _oracle(mn),
            "difference": {"ref": mn - m1, "atol": ORACLE_ATOL
                           + ORACLE_RTOL * max(abs(m1), abs(mn))}}
    return exp


def atoms_measure_oracle(positions, masses, cells: int, steps: int) -> dict:
    """Expected ``measure`` outcome for an atomic start on the doubling
    system: after ``steps`` branch averages every atom ``x`` has become
    atoms at ``(x + k) / 2^steps`` carrying ``2^-steps`` of its mass."""
    pos, mass = np.asarray(positions), np.asarray(masses)
    for _ in range(steps):
        pos = np.concatenate([0.5 * pos, 0.5 * pos + 0.5])
        mass = np.concatenate([0.5 * mass, 0.5 * mass])
    coarse = np.zeros(cells)
    np.add.at(coarse, np.minimum((pos * cells).astype(int), cells - 1), mass)
    tv = 0.5 * float(np.abs(coarse - 1.0 / cells).sum())
    return {"exit": 0, "fails": 0,
            "values": {"total_mass": {"ref": float(np.sum(masses)),
                                      "atol": ORACLE_ATOL},
                       "tv_to_uniform": {"ref": tv, "atol": ORACLE_ATOL}}}


def perturb(refs: dict, key: str) -> None:
    """Negative control: shift the first numeric reference of ``key`` so
    that a correct program must now be reported as failing."""
    entry = refs[key]
    if "fail_residuals" in entry:
        entry["fail_residuals"]["ref"][0] *= 1.001
        return
    for spec in entry["values"].values():
        if not isinstance(spec["ref"], bool):
            spec["ref"] = spec["ref"] * 1.001 + 1e-3
            return
    entry["exit"] += 1
