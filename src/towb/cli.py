"""Command-line workbench driver.

Every subcommand loads a config file, assembles the system, runs one part of
the machinery and emits a deterministic report: exit code 0 when every check
passes, 1 on a failed check, 2 on configuration errors, 3 on numerical
failures (non-convergence, domain errors).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time

import numpy as np

from .config import RunConfig, load_config
from .errors import ConfigError, ConvergenceError, DomainError
from .grid import IntervalSet, Measure
from .harmonic import (HarmonicSolution, exact_cascade,
                       fourier_cascade_check, solve_harmonic)
from .report import Report
from .sigspace import (defect_search, hutchinson_iterate, membership,
                       pushed_decomposition)
from .solenoid import (DEPTH_MAX, WORDS_MAX, CylinderFunction, PathMeasure,
                       batch_trials, cylinder_mass,
                       empirical_cylinder_frequency, harmonic_from_measure,
                       markov_deviation, multires_check, parse_interval_set,
                       unitarity_check, worst_quasi_defect)
from .transfer import TransferOperator, check_status, identity_suite
from .trig import TrigPoly

QUASI_TOL = 1e-10
MULTIRES_TOL = 1e-12
HFM_TOL = 1e-8
# A sampled cylinder frequency agrees within this many standard errors.
SAMPLE_Z_TOL = 4.0

def _solve(cfg: RunConfig, op: TransferOperator,
           lam: Measure) -> HarmonicSolution:
    """The harmonic solve with the config's solver settings."""
    return solve_harmonic(op, lam, tol=cfg.solver_tol,
                          max_iter=cfg.solver_max_iter, seed=cfg.solver_seed)


def _solved_path_measure(cfg: RunConfig, op: TransferOperator,
                         lam: Measure) -> PathMeasure:
    return PathMeasure.from_solution(_solve(cfg, op, lam))


def _add_tol_check(report: Report, name: str, residual: float,
                   tol: float) -> None:
    """Add check ``name`` with the status :func:`check_status` gives."""
    report.add_check(name, check_status(residual, tol), residual, tol)


def _check_flags(args) -> None:
    """Raise a :class:`ConfigError` located at the first flag of ``args``
    that breaks its bound in the command's flag table."""
    for flag, (_, _, bound, _) in _COMMANDS[args.command][2].items():
        value = getattr(args, flag.replace("-", "_"))
        if bound is not None and value is not None and not bound[1](value):
            raise ConfigError(f"--{flag} must be {bound[0]}, got {value}",
                              field=flag)


def _check_budget(flag: str, power: int, size: int, factor: int,
                  budget: int, what: str) -> None:
    """Raise a :class:`ConfigError` located at ``flag`` when the count
    ``size * factor ** power`` that the flag asks for exceeds ``budget``.
    With ``factor >= 2`` a power past ``budget.bit_length()`` exceeds it
    too, so no larger power is built."""
    if size * factor ** min(power, budget.bit_length()) > budget:
        count = f"{factor}^{power}" if size == 1 else \
            f"{size} x {factor}^{power}"
        raise ConfigError(f"--{flag} asks for {count} {what}, more than "
                          f"{budget}", field=flag)


def _check_words(flag: str, depth: int, op: TransferOperator) -> None:
    """The path-space budget: ``branches^depth`` words at one base, for a
    path of ``depth`` coordinates after ``x_0``, at most ``WORDS_MAX``."""
    n = op.system.n_branches
    _check_budget(flag, depth, 1, n, WORDS_MAX,
                  f"enumerated words at one base, on {n} branches")


def _write_columns(directory: str, name: str, xs, ys) -> None:
    os.makedirs(directory, exist_ok=True)
    np.savetxt(os.path.join(directory, name),
               np.column_stack([np.asarray(xs, dtype=float),
                                np.asarray(ys, dtype=float)]))


# -- subcommand handlers ----------------------------------------------------


def _cmd_verify(args, cfg, op, lam, report: Report) -> None:
    sol = _solve(cfg, op, lam)
    if not sol.converged:
        raise ConvergenceError("harmonic solve did not converge")
    suite = identity_suite(op, lam, sol.h, trials=args.trials,
                           seed=cfg.solver_seed, rho=sol.rho)
    for check in suite.checks:
        report.add_check(check.name, check.status, check.residual, check.tol,
                         check.note)
    report.add_result("harmonic_eigenvalue", sol.rho)
    if args.plot_data:
        rw = op.rw_multiplier()
        _write_columns(args.plot_data, "rw_multiplier.dat", op.nodes, rw.values)


def _cmd_harmonic(args, cfg, op, lam, report: Report) -> None:
    sol = _solve(cfg, op, lam)
    if args.k_max > 0 and sol.converged and exact_cascade(op.system, sol.h):
        w = op.system.weight.trigpoly
        terms, degree = w.freqs.size, int(np.abs(w.freqs).max(initial=1))
        _check_budget("k-max", args.k_max, terms * degree, 2,
                      CASCADE_TERMS_MAX, f"coefficients, for a weight of "
                      f"{terms} terms and degree {degree}")
    report.add_result("rho", sol.rho)
    report.add_result("residual", sol.residual)
    report.add_result("iterations", sol.iterations)
    report.add_result("method", sol.method)
    if sol.spectral_ratio is not None:
        report.add_result("spectral_ratio", sol.spectral_ratio)
    report.add_check("harmonic_converged",
                     "PASS" if sol.converged else "FAIL",
                     sol.residual, cfg.solver_tol)
    try:  # SKIPPED when unconverged, not doubling, unequal p_i, coarse grid
        if not sol.converged:
            raise DomainError("harmonic solve did not converge")
        dev = fourier_cascade_check(op, sol.h, k_max=args.k_max,
                                    n_max=args.n_max, rho=sol.rho)
    except DomainError as exc:
        report.add_check("fourier_cascade", "SKIPPED", note=str(exc))
    else:
        report.add_result("cascade_deviation", dev)
        _add_tol_check(report, "fourier_cascade", dev, args.cascade_tol)
    if args.plot_data:
        _write_columns(args.plot_data, "h.dat", op.nodes, sol.h(op.nodes))


def _cmd_measure(args, cfg, op, lam, report: Report) -> None:
    _check_budget("steps", args.steps, len(lam.atoms), op.system.n_branches,
                  ATOMS_MAX, f"atoms, from {len(lam.atoms)} on "
                  f"{op.system.n_branches} branches")
    iterated = hutchinson_iterate(op.system, lam, args.steps)
    report.add_result("steps", args.steps)
    report.add_result("total_mass", iterated.total())
    report.add_result("tv_to_uniform",
                      iterated.tv_cell_distance(Measure.lebesgue(cfg.cells)))
    drift = abs(iterated.total() - lam.total())
    _add_tol_check(report, "mass_preserved", drift, 1e-12)
    if args.plot_data:
        _write_columns(args.plot_data, "measure.dat",
                       iterated.cell_midpoints(),
                       iterated.coarse_cells() * cfg.cells)


def _cmd_defect(args, cfg, op, lam, report: Report) -> None:
    dec = pushed_decomposition(lam, op)
    member, value = membership(dec)
    report.add_result("defect", value)
    report.add_result("membership", bool(member))
    _, best = defect_search(op, seed=cfg.solver_seed)
    report.add_result("search_best_defect", best)
    if args.plot_data:
        _write_columns(args.plot_data, "density.dat", lam.cell_midpoints(),
                       dec.density.values)


def _cmd_cylinder(args, cfg, op, lam, report: Report) -> None:
    spec = CylinderFunction.parse(args.sets)
    _check_words("sets", spec.depth, op)
    pm = _solved_path_measure(cfg, op, lam)
    mass = cylinder_mass(pm, args.x, spec)
    hx = float(pm.h(args.x))
    report.add_result("mass", mass)
    report.add_result("normalized_mass", mass / hx if hx > 0 else float("nan"))
    report.add_result("total_mass_at_base", hx)


def _battery(rng: np.random.Generator,
             count: int) -> list[CylinderFunction]:
    specs = []
    for _ in range(count):
        depth = int(rng.integers(1, 4))
        sets = []
        for _ in range(depth):
            if rng.random() < 0.2:
                sets.append(None)
            else:
                lo = rng.uniform(0.0, 0.55)
                hi = lo + rng.uniform(0.2, min(0.42, 1.0 - lo))
                sets.append(IntervalSet([(lo, hi)]))
        specs.append(CylinderFunction([None, *sets]))
    return specs


def _cmd_sample(args, cfg, op, lam, report: Report) -> None:
    pm = _solved_path_measure(cfg, op, lam)
    rng = np.random.default_rng(cfg.sampler_seed)
    specs = _battery(rng, args.battery)
    base_x = args.x
    agree = 0
    worst_z = 0.0
    empirical, exact = [], []
    for i, spec in enumerate(specs):
        p_exact = cylinder_mass(pm, base_x, spec) / float(pm.h(base_x))
        p_hat = empirical_cylinder_frequency(pm, base_x, spec,
                                             cfg.sampler_paths, rng)
        empirical.append(p_hat)
        exact.append(p_exact)
        # the binomial error of the null hypothesis p = p_exact (the score
        # test), floored where p_exact rounds to 0 or 1
        stderr = math.sqrt(max(p_exact * (1.0 - p_exact), 1e-12)
                           / cfg.sampler_paths)
        gap, scale = abs(p_hat - p_exact), max(stderr, 1e-12)
        worst_z = max(worst_z, gap / scale)
        status = check_status(gap, SAMPLE_Z_TOL * scale)
        agree += status == "PASS"
        report.add_check(f"spec_{i:02d}", status, gap, SAMPLE_Z_TOL * scale)
    report.add_result("agreeing", agree)
    report.add_result("battery_size", len(specs))
    report.add_result("worst_z", worst_z)
    if args.plot_data:
        idx = np.arange(len(specs))
        _write_columns(args.plot_data, "hist_empirical.dat", idx, empirical)
        _write_columns(args.plot_data, "hist_exact.dat", idx, exact)


def _cmd_quasi(args, cfg, op, lam, report: Report) -> None:
    pm = _solved_path_measure(cfg, op, lam)
    rng = np.random.default_rng(cfg.sampler_seed)
    # each trial draws its depth in 1..3, then one polynomial per coordinate
    draws = [[TrigPoly.random(rng, degree=4)
              for _ in range(int(rng.integers(1, 4)) + 1)]
             for _ in range(args.trials)]
    worst = worst_quasi_defect(pm, batch_trials(draws))
    report.add_result("quasi_invariance_defect", worst)
    _add_tol_check(report, "quasi_invariance", worst, QUASI_TOL)
    u_dev = unitarity_check(pm, trials=args.trials, seed=cfg.sampler_seed)
    report.add_result("unitarity_defect", u_dev)
    _add_tol_check(report, "unitarity", u_dev, QUASI_TOL)
    mr = multires_check(pm, seed=cfg.sampler_seed)
    report.add_result("nesting_residual", mr.nesting_residual)
    report.add_result("shift_residual", mr.shift_residual)
    _add_tol_check(report, "multiresolution",
                   max(mr.nesting_residual, mr.shift_residual), MULTIRES_TOL)


def _cmd_markov(args, cfg, op, lam, report: Report) -> None:
    set_a = parse_interval_set(args.set_a, "set-a")
    set_b = parse_interval_set(args.set_b, "set-b")
    _check_words("n", args.n + 1, op)
    pm = _solved_path_measure(cfg, op, lam)
    m1, mn, diff = markov_deviation(pm, set_a, set_b, args.x, args.n)
    report.add_result("m_1", m1)
    report.add_result(f"m_{args.n}", mn)
    report.add_result("difference", diff)


def _cmd_harmonic_from_measure(args, cfg, op, lam, report: Report) -> None:
    n = op.system.n_branches
    _check_budget("depth", args.depth, (n + 1) * op.n_grid, n, HFM_WORDS_MAX,
                  f"enumerated words, on {n} branches and {op.n_grid} cells")
    pm = _solved_path_measure(cfg, op, lam)
    h_tilde, residual = harmonic_from_measure(pm, depth=args.depth)
    report.add_result("residual", residual)
    _add_tol_check(report, "harmonic_reconstruction", residual, HFM_TOL)
    if args.plot_data:
        _write_columns(args.plot_data, "h_rebuilt.dat", op.nodes,
                       h_tilde.values)


_NONNEGATIVE = ("nonnegative", lambda v: v >= 0)
_TRIALS = ("from 1 to 1000", lambda v: 1 <= v <= 1000)
_UNIT = ("in [0, 1)", lambda v: 0.0 <= v < 1.0)
_REQUIRED = object()   # the default of a flag that has none
# The flags of every subcommand: flag -> (type, default, bound, help).  A
# bound is the rule as the error states it and its test: main checks every
# flag of the command against it before it loads the config or runs a
# handler.  A count that sizes a loop or an array has a highest value, at
# which the run's peak traced allocation (tracemalloc) stays below 16 MiB.
# Other counts have a highest value that depends on the config; their
# handlers check it against a budget before they build what it sizes:
# - harmonic --k-max, after the solve and before the cascade, where the
#   cascade runs exactly (exact_cascade: a converged TrigPoly h on the
#   doubling map, equal p and a closed-form weight): its last product has
#   about 2 x terms x degree x 2^k_max coefficients of the weight's trig
#   polynomial: 15 on sys_b (9.2 MiB; 16 peaks at 18.3 MiB), 13 at degree 2
#   and 9 at degree 8 (8.1 and 8.9 MiB).  Nothing is charged at k-max 0,
#   which multiplies by no W_k, nor on a midpoint or SKIPPED cascade.
# - measure --steps: the iterate holds up to atoms x branches^steps atoms:
#   15 on sys_c's one atom (11.6 MiB; 16 peaks at 23 MiB), none if no atom.
# - harmonic-from-measure --depth: its two sums enumerate (branches + 1) x
#   branches^depth x cells words in chunks, so the cost is time: 13 on 1,024
#   cells (1.5 s in-process on a 2-core x86-64 host; 14 takes 3.0 s), 3 at
#   2^20 cells (0.9 s); depth 1 passes at every cells for up to 5 branches.
# - markov --n and cylinder --sets: a path of n + 1 coordinates after x_0,
#   or of one per set, has at most DEPTH_MAX of them (--n's bound, and
#   CylinderFunction.parse) and branches^depth <= WORDS_MAX words at one
#   base, the enumeration's own limit: --n 11 and 12 sets on three branches.
CASCADE_TERMS_MAX = 2**17
ATOMS_MAX = 2**15
HFM_WORDS_MAX = 2**25
_COMMON = {
    "config": (str, _REQUIRED, None, "config file"),
    "plot-data": (str, None, None, "write two-column plot data into DIR"),
    "seed": (int, None, _NONNEGATIVE, "override solver and sampler seeds"),
    "json": (str, None, None, "write the JSON report to OUT"),
}
_METAVARS = {"plot-data": "DIR", "json": "OUT"}
# Each subcommand: its handler, its help, and its flags after the common
# ones, in the form above.
_COMMANDS = {name: (handler, text, {**_COMMON, **flags})
             for name, handler, text, flags in (
    ("verify", _cmd_verify, "run the operator identity suite",
     {"trials": (int, 100, _TRIALS, None)}),
    ("harmonic", _cmd_harmonic, "solve for the fixed function of R",
     {"k-max": (int, 4, _NONNEGATIVE, None),
      "n-max": (int, 8, ("from 0 to 10000", lambda v: 0 <= v <= 10_000),
                None),
      "cascade-tol": (float, 1e-6, ("finite and positive", lambda v:
                                    math.isfinite(v) and v > 0), None)}),
    ("measure", _cmd_measure, "iterate the branch-averaging map",
     {"steps": (int, 8, _NONNEGATIVE, None)}),
    ("defect", _cmd_defect, "defect and membership certificate", {}),
    ("cylinder", _cmd_cylinder, "exact cylinder mass",
     {"x": (float, _REQUIRED, _UNIT, None),
      "sets": (str, _REQUIRED, None, "';'-separated interval unions")}),
    ("sample", _cmd_sample, "Monte Carlo vs exact enumeration",
     {"x": (float, 0.3, _UNIT, None),
      "battery": (int, 20, ("from 1 to 100", lambda v: 1 <= v <= 100), None)}),
    ("quasi", _cmd_quasi, "shift quasi-invariance and unitarity",
     {"trials": (int, 20, _TRIALS, None)}),
    ("markov", _cmd_markov, "joint-mass drift across depths",
     {"x": (float, _REQUIRED, _UNIT, None),
      "set-a": (str, _REQUIRED, None, None),
      "set-b": (str, _REQUIRED, None, None),
      "n": (int, 10, (f"from 2 to {DEPTH_MAX - 1}",
                      lambda v: 2 <= v < DEPTH_MAX), None)}),
    ("harmonic-from-measure", _cmd_harmonic_from_measure,
     "rebuild the harmonic function from total masses",
     {"depth": (int, 1, (f"from 1 to {DEPTH_MAX - 1}",
                         lambda v: 1 <= v < DEPTH_MAX), None)}),
)}
for name in ("cylinder", "quasi", "markov"):  # their handlers write no plots
    del _COMMANDS[name][2]["plot-data"]
del _COMMANDS["measure"][2]["seed"]  # its handler draws nothing
# main dispatches through this dict, so that its entries can be wrapped.
_HANDLERS = {name: command[0] for name, command in _COMMANDS.items()}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``towb`` argument parser, built on first use and then shared by
    every :func:`main` call: parsing leaves no state on it, while a build
    sets up one help formatter per argument."""
    parser = argparse.ArgumentParser(
        prog="towb", description="transfer-operator workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, (convert, default, _, doc) in flags.items():
            p.add_argument(f"--{flag}", type=convert, help=doc,
                           metavar=_METAVARS.get(flag),
                           required=default is _REQUIRED,
                           default=None if default is _REQUIRED else default)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        cfg = load_config(args.config)
        seed = getattr(args, "seed", None)  # not every command offers it
        if seed is not None:
            cfg.solver_seed = cfg.sampler_seed = seed
        system = cfg.build_system()
        lam = cfg.build_measure()
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    op = TransferOperator(system, cfg.cells)
    report = Report(command=args.command, config_echo=cfg.emit())
    for key, value in sorted(vars(args).items()):
        if key not in ("command", "config", "json") and value is not None:
            report.options[key] = value

    start = time.perf_counter()
    try:
        _HANDLERS[args.command](args, cfg, op, lam, report)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    report.elapsed_s = time.perf_counter() - start

    for line in report.summary_lines():
        print(line)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
