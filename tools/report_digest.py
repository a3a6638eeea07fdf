"""Digest of every towb ``--json`` report on the bundled fixtures.

Usage::

    python3 tools/report_digest.py [--values] [CHECKOUT]

Runs each subcommand on ``sys_a`` to ``sys_d``, plus a few malformed
cylinder specs, through ``towb.cli.main`` of the towb checkout at
``CHECKOUT`` (default: the one holding this script), writing the JSON
reports into a temporary directory.  The fixtures all use ``m x mod 1``
and a closed-form weight, so two generated configs, written into the same
directory, go through ``verify`` and ``measure`` as well: branches of
slopes 1/3 and 2/3 with ``sigma`` inferred (``uneven``), and a table weight
on the doubling map (``table``).  Three more doubling configs go through
``harmonic``: constant weight 2, whose ``rho`` is 2 (``weight_two``),
probabilities 1/4 and 3/4, where the cascade identity does not hold
(``unequal``), and the weight ``1e-20 (1 + cos 2 pi x)``, all of whose
coefficients are tiny (``tiny_weight``).  ``harmonic`` also runs on
``uneven``, which has no invariant trig space and power-iterates, and on
its branches with the constant weight 1.5 (``uneven_constant``), which
solves exactly with ``rho`` 1.5; ``cylinder`` on ``weight_two`` is
refused, since ``rho`` is not 1.  ``verify`` runs on constant weight 0.5
(``weight_half``, ``rho`` 0.5), where the harmonic-support check, whose
lemma needs ``R h = h``, is SKIPPED, and on ``sys_d`` with ``sigma``
inferred (``thirds_inferred``), whose first piece also applies on the gap
``[1/3, 2/3)``, so its preimage rule matches ``sys_d``'s.  ``verify
--trials 30`` runs on ``sys_b`` and on ``table``: one full block of 25
trials and a partial one of 5, where every other ``verify`` runs four full
blocks; on ``table`` it also
takes the duality check's quadrature fallback and applies ``R`` to the
power-iterated grid function ``h``.  ``sample`` and ``cylinder`` run on
three branches of slope 1/3 with probabilities 0.2, 0.3 and 0.5 and
weight 1 (``three_branch``, ``rho`` 1), where the sampler picks among
three digits.  A branch shifted off ``[0, 1]`` (``shifted``), a solver
tolerance of ``inf`` (``tol_inf``), a weight of ``nan`` (``weight_nan``),
a ``cos`` key under a constant weight (``cos_constant``), a key given
twice (``duplicate_key``) and an atom of mass -0.5 or 0 (``mass_negative``,
``mass_zero``) are malformed configs; flag values out of their bounds end
the list, with one above each count's highest value: ``verify`` and
``quasi`` with ``--trials 1001``, ``sample --battery 101``, ``harmonic
--n-max 10001``, ``sample`` on a doubling config with ``paths = 1000001``
(``paths_over``) and ``harmonic`` on one with ``cells = 1048577``
(``cells_over``); then one above the highest value that the config
admits: ``harmonic-from-measure --depth 14`` on ``sys_a``, ``measure
--steps 16`` on the one atom of ``sys_c``, ``harmonic --k-max 16`` on
``sys_b``, ``markov --n 16`` on ``sys_b`` (a path past ``DEPTH_MAX``),
and ``cylinder`` with 17 coordinates on ``sys_a`` and with 13 on
``three_branch`` (3^13 words at one base, past ``WORDS_MAX``); and last
``measure --seed 1``: ``measure`` draws nothing, so it does not offer
``--seed``.  Among them, ``cylinder`` on ``sys_b`` at ``--x 1.5`` and
``--x 1e308`` is refused: a base lies in ``[0, 1)``.  Just before them,
``harmonic-from-measure`` runs on ``sys_a`` at 262,145 cells
(``sys_a_fine``), the smallest grid whose default
rebuild sums more than ``WORDS_MAX`` words over its bases.  Before that,
the doubling map with ``W = 1 + 0.5 cos 40 pi x`` at 32 cells
(``degree_20``), whose invariant degree 20 is past half the grid, goes
through ``harmonic``, ``harmonic-from-measure`` and ``cylinder``, and
``harmonic`` runs on the branches of ``uneven`` with a cosine weight of
100 terms (``uneven_cos100``), whose cascade is SKIPPED and not charged
to the ``--k-max`` budget.
``harmonic --k-max 2 --n-max 4`` runs on ``table``, whose grid is fine
enough for those frequencies: the one run whose cascade check takes the
midpoint rule.  ``table`` with atoms of mass 1/4 and 3/4 at 0.3 and 0.7 as
its base measure (``table_atoms``) goes through ``harmonic`` and
``verify``: its power solve integrates every iterate at the atoms.  The
weight ``1 + 0.2 sin 2 pi x`` on ``table``'s grid (``table_unit``, ``rho``
1) goes through the path commands ``cylinder``, ``sample``, ``quasi``,
``markov`` and ``harmonic-from-measure``: the one path measure of a
power-iterated ``h``.
``harmonic`` runs on ``unequal`` with ``max_iter = 3``
(``unequal_max_iter``), which stops unconverged, and at 256 cells with
``tol = 1e-13`` (``unequal_tol``), whose first step below that
tolerance leaves a residual above it, so the solve takes one step more.
Prints one line per run: the sha256 of the report (``-`` when
none was written), the exit code and the arguments.  Reports are deterministic, so two checkouts give the same
reports exactly when the outputs of::

    diff <(python3 tools/report_digest.py OLD) <(python3 tools/report_digest.py)

are empty.  With ``--values``, each run's line is followed by what its
report holds: one line per check with its status and residual, and one
per result, with floats written in full (``repr``), so the same ``diff``
shows which values moved and by how much when the hashes differ.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
import traceback
from pathlib import Path

FIXTURES = ("sys_a", "sys_b", "sys_c", "sys_d")
_TABLE_N = 256


def _system(slopes, offsets, probs) -> str:
    return (f"[system]\nbranch_slopes = {slopes}\nbranch_offsets = {offsets}"
            f"\nprobabilities = {probs}\nsigma = \"inferred\"\n\n")


def _table(const: float) -> str:
    """The doubling map with the table weight ``const + 0.2 sin 2 pi x``."""
    return (_system([0.5, 0.5], [0.0, 0.5], [0.5, 0.5])
            + '[weight]\nkind = "table"\ntable_values = '
            + str([const + 0.2 * math.sin(2 * math.pi * j / _TABLE_N)
                   for j in range(_TABLE_N)])
            + f"\n\n[grid]\ncells = {_TABLE_N}\n")


_TABLE = _table(1.5)

# Configs written next to the reports: name -> text.
GENERATED = {
    "uneven": _system([1 / 3, 2 / 3], [0.0, 1 / 3], [1 / 3, 2 / 3])
    + '[weight]\nkind = "trig"\nconstant_term = 1.0\ncos = [0.5]\n',
    "uneven_constant": _system([1 / 3, 2 / 3], [0.0, 1 / 3], [1 / 3, 2 / 3])
    + '[weight]\nkind = "constant"\nvalue = 1.5\n',
    "table": _TABLE,
    "table_unit": _table(1.0),
    "table_atoms": _TABLE
    + '\n[measure]\nkind = "atoms"\npositions = [0.3, 0.7]\n'
    + "masses = [0.25, 0.75]\n",
    "shifted": _system([0.5, 0.5], [-0.25, 0.25], [0.5, 0.5]),
    "weight_two": _system([0.5, 0.5], [0.0, 0.5], [0.5, 0.5])
    + '[weight]\nkind = "constant"\nvalue = 2.0\n',
    "weight_half": _system([0.5, 0.5], [0.0, 0.5], [0.5, 0.5])
    + '[weight]\nkind = "constant"\nvalue = 0.5\n',
    "thirds_inferred": _system([1 / 3, 1 / 3], [0.0, 2 / 3], [0.5, 0.5])
    + "[grid]\ncells = 243\n\n[solver]\ntol = 1e-12\n",
    "unequal": _system([0.5, 0.5], [0.0, 0.5], [0.25, 0.75])
    + '[weight]\nkind = "trig"\nconstant_term = 1.0\ncos = [1.0]\n',
    "unequal_max_iter": _system([0.5, 0.5], [0.0, 0.5], [0.25, 0.75])
    + '[weight]\nkind = "trig"\nconstant_term = 1.0\ncos = [1.0]\n\n'
    + "[solver]\nmax_iter = 3\n",
    "unequal_tol": _system([0.5, 0.5], [0.0, 0.5], [0.25, 0.75])
    + '[weight]\nkind = "trig"\nconstant_term = 1.0\ncos = [1.0]\n\n'
    + "[grid]\ncells = 256\n\n[solver]\ntol = 1e-13\n",
    "tiny_weight": _system([0.5, 0.5], [0.0, 0.5], [0.5, 0.5])
    + '[weight]\nkind = "trig"\nconstant_term = 1e-20\ncos = [1e-20]\n',
    "tol_inf": _system([0.5, 0.5], [0.0, 0.5], [0.5, 0.5])
    + '[weight]\nkind = "trig"\nconstant_term = 1.0\ncos = [1.0]\n\n'
    + "[solver]\ntol = inf\n",
    "weight_nan": _system([0.5, 0.5], [0.0, 0.5], [0.5, 0.5])
    + '[weight]\nkind = "constant"\nvalue = nan\n',
    "cos_constant": _system([0.5, 0.5], [0.0, 0.5], [0.5, 0.5])
    + '[weight]\nkind = "constant"\nvalue = 1.0\ncos = [0.9]\n',
    "duplicate_key": _system([0.5, 0.5], [0.0, 0.5], [0.5, 0.5])
    + "[grid]\ncells = 1024\ncells = 512\n",
    "three_branch": _system([1 / 3] * 3, [0.0, 1 / 3, 2 / 3], [0.2, 0.3, 0.5])
    + "[grid]\ncells = 243\n",
    "mass_negative": _system([0.5, 0.5], [0.0, 0.5], [0.5, 0.5])
    + '[measure]\nkind = "atoms"\npositions = [0.25]\nmasses = [-0.5]\n',
    "mass_zero": _system([0.5, 0.5], [0.0, 0.5], [0.5, 0.5])
    + '[measure]\nkind = "atoms"\npositions = [0.25]\nmasses = [0.0]\n',
    "paths_over": _system([0.5, 0.5], [0.0, 0.5], [0.5, 0.5])
    + "[sampler]\npaths = 1000001\n",
    "cells_over": _system([0.5, 0.5], [0.0, 0.5], [0.5, 0.5])
    + "[grid]\ncells = 1048577\n",
    "sys_a_fine": _system([0.5, 0.5], [0.0, 0.5], [0.5, 0.5])
    + "[grid]\ncells = 262145\n",
    "degree_20": _system([0.5, 0.5], [0.0, 0.5], [0.5, 0.5])
    + '[weight]\nkind = "trig"\nconstant_term = 1.0\ncos = '
    + str([0.0] * 19 + [0.5]) + "\n\n[grid]\ncells = 32\n",
    "uneven_cos100": _system([1 / 3, 2 / 3], [0.0, 1 / 3], [1 / 3, 2 / 3])
    + '[weight]\nkind = "trig"\nconstant_term = 1.0\ncos = '
    + str([0.005] * 100) + "\n",
}
GENERATED_COMMANDS = (("verify",), ("measure",))
SHIFTED_COMMANDS = (("measure",), ("defect",), ("verify",))
NON_FINITE_COMMANDS = (("harmonic",),)
PATH_COMMANDS = ("cylinder", "sample", "quasi", "markov",
                 "harmonic-from-measure")
THREE_BRANCH_COMMANDS = (
    ("sample",),
    ("cylinder", "--x", "0.3", "--sets", "[0,0.25);all;[0.5,0.75)u[0.9,1)"),
)
COMMANDS = (
    ("verify",),
    ("harmonic",),
    ("measure",),
    ("defect",),
    ("cylinder", "--x", "0.3", "--sets", "[0,0.25);all;[0.5,0.75)u[0.9,1)"),
    ("sample",),
    ("quasi",),
    ("markov", "--x", "0.3", "--set-a", "[0,0.25)", "--set-b", "[0,0.5)",
     "--n", "3"),
    ("harmonic-from-measure",),
)
# Input errors, run on sys_a only.
MALFORMED = (
    ("cylinder", "--x", "0.3", "--sets", ";"),
    ("markov", "--x", "0.3", "--set-a", ";", "--set-b", "[0,0.5)"),
    ("markov", "--x", "0.3", "--set-a", "[0,0.25);[0.5,0.75)",
     "--set-b", "[0,0.5)"),
    ("cylinder", "--x", "0.3", "--sets", "[0,2)"),
    ("markov", "--x", "0.3", "--set-a", "[-0.5,0.5)", "--set-b", "[0,0.5)"),
)
# Inputs the run would ignore or cannot use, each an exit 2 with no report:
# (config, command).
INPUT_ERRORS = (
    ("sys_a", ("markov", "--x", "0.3", "--set-a", "[0,0.25)",
               "--set-b", "[0,0.5)", "--n", "1")),
    ("sys_a", ("harmonic", "--k-max", "-1")),
    ("sys_a", ("cylinder", "--x", "nan", "--sets", "[0,0.5)")),
    ("sys_b", ("cylinder", "--x", "1.5", "--sets", "[0,0.5)")),
    ("sys_b", ("cylinder", "--x", "1e308", "--sets", "[0,0.5)")),
    ("cos_constant", ("harmonic",)),
    ("duplicate_key", ("harmonic",)),
    ("mass_negative", ("measure",)),
    ("mass_zero", ("measure",)),
    ("mass_zero", ("verify",)),
    ("mass_zero", ("defect",)),
    ("sys_a", ("verify", "--trials", "1001")),
    ("sys_a", ("quasi", "--trials", "1001")),
    ("sys_a", ("sample", "--battery", "101")),
    ("sys_a", ("harmonic", "--n-max", "10001")),
    ("paths_over", ("sample", "--battery", "1")),
    ("cells_over", ("harmonic",)),
    ("sys_a", ("harmonic-from-measure", "--depth", "14")),
    ("sys_c", ("measure", "--steps", "16")),
    ("sys_b", ("harmonic", "--k-max", "16")),
    ("sys_b", ("markov", "--x", "0.3", "--set-a", "[0,0.25)",
               "--set-b", "[0,0.5)", "--n", "16")),
    ("sys_a", ("cylinder", "--x", "0.3",
               "--sets", ";".join(["[0,0.5)"] * 17))),
    ("three_branch", ("cylinder", "--x", "0.3",
                      "--sets", ";".join(["[0,0.5)"] * 13))),
    ("sys_a", ("measure", "--seed", "1")),
)


def cases():
    for fixture in FIXTURES:
        for command in COMMANDS:
            yield fixture, command
    for command in MALFORMED:
        yield "sys_a", command
    for name in ("uneven", "table"):
        for command in GENERATED_COMMANDS:
            yield name, command
    for command in SHIFTED_COMMANDS:
        yield "shifted", command
    for name in ("weight_two", "unequal", "tiny_weight", "uneven",
                 "uneven_constant"):
        yield name, ("harmonic",)
    yield "weight_two", ("cylinder", "--x", "0.3", "--sets", "[0,0.5)")
    yield "weight_half", ("verify",)
    yield "thirds_inferred", ("verify",)
    yield "table", ("harmonic", "--k-max", "2", "--n-max", "4")
    for command in (("harmonic",), ("verify",)):
        yield "table_atoms", command
    for command in COMMANDS:
        if command[0] in PATH_COMMANDS:
            yield "table_unit", command
    for name in ("unequal_max_iter", "unequal_tol"):
        yield name, ("harmonic",)
    for name in ("sys_b", "table"):
        yield name, ("verify", "--trials", "30")
    for command in THREE_BRANCH_COMMANDS:
        yield "three_branch", command
    for name in ("tol_inf", "weight_nan"):
        for command in NON_FINITE_COMMANDS:
            yield name, command
    for command in (("harmonic",), ("harmonic-from-measure",),
                    ("cylinder", "--x", "0.3",
                     "--sets", "[0,0.5);[0.25,0.75)")):
        yield "degree_20", command
    yield "uneven_cos100", ("harmonic",)
    yield "sys_a_fine", ("harmonic-from-measure",)
    yield from INPUT_ERRORS


def run(main, config: Path, command: tuple,
        out: Path) -> tuple[str, int, dict | None]:
    """Sha256 of the JSON report (``-`` if none), the exit code, or
    ``traceback`` when the run raised (its traceback goes to stderr), and
    the report itself (``None`` if none)."""
    if out.exists():
        out.unlink()
    argv = [*command, "--config", str(config), "--json", str(out)]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse: a flag an older checkout lacks
            code = exc.code
        except Exception:           # as an older checkout may raise
            code = "traceback"
            traceback.print_exc(file=sys.__stderr__)
    if not out.exists():
        return "-", code, None
    text = out.read_bytes()
    return hashlib.sha256(text).hexdigest(), code, json.loads(text)


def value_lines(report: dict) -> list[str]:
    """A report's checks (status, residual, note) and results, one line
    each, floats in full."""
    lines = []
    for check in report["checks"]:
        residual = check.get("residual")
        text = f"    check {check['name']} {check['status']}"
        if residual is not None:
            text += f" residual {residual!r}"
        if check.get("note"):
            text += f" [{check['note']}]"
        lines.append(text)
    for name, value in sorted(report["results"].items()):
        lines.append(f"    result {name} {value!r}")
    return lines


def main() -> int:
    args = sys.argv[1:]
    values = "--values" in args
    if values:
        args.remove("--values")
    root = Path(args[0] if args
                else Path(__file__).resolve().parent.parent).resolve()
    src = root / "src"
    if not (src / "towb" / "cli.py").is_file():
        print(f"no towb sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from towb.cli import main as towb_main

    with tempfile.TemporaryDirectory() as tmp:
        configs = {name: src / "towb" / "fixtures" / f"{name}.cfg"
                   for name in FIXTURES}
        for name, text in GENERATED.items():
            configs[name] = Path(tmp) / f"{name}.cfg"
            configs[name].write_text(text, encoding="utf-8")
        out = Path(tmp) / "report.json"
        for name, command in cases():
            digest, code, report = run(towb_main, configs[name], command,
                                       out)
            print(f"{digest}  {code}  {name} {' '.join(command)}")
            if values and report is not None:
                print("\n".join(value_lines(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
