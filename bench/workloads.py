"""The three benchmark workloads and the inputs they generate from a seed.

Each workload is a list of CLI invocations (one pass).  Fixture commands run
on the configs shipped in ``src/towb/fixtures``; the seeded parts (the
N=4096 atom config, the exact-query stream, the solver seeds of ``verify``
and ``harmonic``) are drawn from the workload seed and written as plain
files, so the program only ever sees configs and arguments.

Each command carries the expected outcome its output is checked against
(see ``checks.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

ATOMS_N4096 = 6
MEASURE_STEPS = 8

# Name prefixes of the spans making up each workload's own layer.
DOMINANT = {
    "certify": ("grid.pushforward",),
    "verify": ("trig.", "grid.integrate_over"),
    "paths": ("solenoid.", "harmonic."),
}


# The stored reference the negative control perturbs, per workload.
CONTROL_KEY = {
    "certify": "defect sys_c",
    "verify": "verify sys_d",
    "paths": "sample sys_b",
}


@dataclass
class Command:
    metric: str      # subcommand name the wall time is summed under
    argv: list[str]
    expect: dict     # outcome the output is checked against (checks.py)


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _random_set(rng: np.random.Generator) -> str:
    pieces = []
    for _ in range(int(rng.integers(1, 3))):
        lo = rng.uniform(0.0, 0.7)
        hi = min(lo + rng.uniform(0.15, 0.6), 1.0)
        pieces.append(f"[{_fmt(lo)},{_fmt(hi)})")
    return "u".join(pieces)


def _doubling_atoms_config(rng: np.random.Generator) -> tuple[str, list, list]:
    positions = np.sort(rng.uniform(0.0, 1.0, ATOMS_N4096))
    raw = rng.uniform(0.2, 1.0, ATOMS_N4096)
    masses = raw / raw.sum()
    text = "\n".join([
        "# Doubling system at N=4096 with seeded atoms (generated).",
        "[system]",
        "branch_slopes = [0.5, 0.5]",
        "branch_offsets = [0.0, 0.5]",
        "probabilities = [0.5, 0.5]",
        'sigma = "inferred"',
        "", "[weight]", 'kind = "constant"', "value = 1.0",
        "", "[grid]", "cells = 4096",
        "", "[measure]", 'kind = "atoms"',
        "positions = [" + ", ".join(repr(float(p)) for p in positions) + "]",
        "masses = [" + ", ".join(repr(float(m)) for m in masses) + "]",
    ]) + "\n"
    return text, positions.tolist(), masses.tolist()


# The query stream's shapes are fixed and only their order, base points and
# interval sets come from the seed, so every seed asks for the same amount
# of work: 50 cylinders at depths 1-12, 30 markov queries at n = 2-12 and
# 20 harmonic-from-measure rebuilds at depths 1-4, each kind spread over
# sys_a, sys_b and sys_d.  With 100 queries a pass, p90 has 10 beyond it.
SYSTEMS = ("sys_a", "sys_b", "sys_d")
QUERY_SHAPES = (
    [("cylinder", 1 + i % 12, SYSTEMS[i // 12 % 3]) for i in range(50)]
    + [("markov", 2 + i % 11, SYSTEMS[i // 11 % 3]) for i in range(30)]
    + [("harmonic-from-measure", 1 + i % 4, SYSTEMS[i // 4 % 3])
       for i in range(20)])


def _query(rng: np.random.Generator, fixtures: Path, kind: str, depth: int,
           system: str) -> tuple[list[str], dict]:
    cfg = str(fixtures / f"{system}.cfg")
    x = float(_fmt(rng.uniform(0.01, 0.99)))
    spec = {"kind": kind, "system": system, "x": x}
    if kind == "cylinder":
        sets = ";".join(_random_set(rng) if rng.random() < 0.6 else "all"
                        for _ in range(depth))
        spec["sets"] = sets
        argv = ["cylinder", "--config", cfg, "--x", repr(x), "--sets", sets]
    elif kind == "markov":
        lo_a, lo_b = rng.uniform(0.0, 0.6, 2)
        set_a = f"[{_fmt(lo_a)},{_fmt(lo_a + rng.uniform(0.2, 0.4))})"
        set_b = f"[{_fmt(lo_b)},{_fmt(lo_b + rng.uniform(0.2, 0.4))})"
        spec.update(n=depth, set_a=set_a, set_b=set_b)
        argv = ["markov", "--config", cfg, "--x", repr(x), "--set-a", set_a,
                "--set-b", set_b, "--n", str(depth)]
    else:
        spec["depth"] = depth
        argv = ["harmonic-from-measure", "--config", cfg, "--depth",
                str(depth)]
    return argv, spec


def build(workload: str, seed: int, root: Path, inputs: Path,
          refs: dict) -> list[Command]:
    """Generate the workload's inputs from ``seed`` into ``inputs`` and
    return one pass of commands."""
    fixtures = root / "src" / "towb" / "fixtures"
    rng = np.random.default_rng(seed)
    fx = {name: str(fixtures / f"{name}.cfg")
          for name in ("sys_a", "sys_b", "sys_c", "sys_d")}

    if workload == "certify":
        text, positions, masses = _doubling_atoms_config(rng)
        path = inputs / "doubling_n4096.cfg"
        path.write_text(text, encoding="utf-8")
        return [
            Command("defect", ["defect", "--config", fx["sys_c"]],
                    refs["defect sys_c"]),
            Command("measure", ["measure", "--config", fx["sys_d"]],
                    refs["measure sys_d"]),
            Command("measure", ["measure", "--config", str(path), "--steps",
                                str(MEASURE_STEPS)],
                    checks.atoms_measure_oracle(positions, masses, 4096,
                                                MEASURE_STEPS)),
        ]
    if workload == "verify":
        s_verify, s_harm = (int(v) for v in rng.integers(0, 2**31, 2))
        (inputs / "seeds.json").write_text(json.dumps(
            {"verify_sys_b": s_verify, "harmonic_sys_b": s_harm}),
            encoding="utf-8")
        return [
            Command("verify", ["verify", "--config", fx["sys_b"], "--seed",
                               str(s_verify)],
                    checks.unit_eigenvalue("harmonic_eigenvalue")),
            Command("verify", ["verify", "--config", fx["sys_d"]],
                    refs["verify sys_d"]),
            Command("harmonic", ["harmonic", "--config", fx["sys_b"],
                                 "--seed", str(s_harm)],
                    checks.unit_eigenvalue("rho")),
        ]
    if workload == "paths":
        order = rng.permutation(len(QUERY_SHAPES))
        queries = [_query(rng, fixtures, *QUERY_SHAPES[i]) for i in order]
        (inputs / "queries.json").write_text(
            json.dumps([spec for _, spec in queries], indent=1),
            encoding="utf-8")
        return [
            Command("sample", ["sample", "--config", fx["sys_b"]],
                    refs["sample sys_b"]),
            Command("quasi", ["quasi", "--config", fx["sys_b"]],
                    refs["quasi sys_b"]),
        ] + [Command("query", argv, checks.query_oracle(spec))
             for argv, spec in queries]
    raise ValueError(f"unknown workload '{workload}'")
