"""Command-line workbench driver.

Every subcommand loads a config file, assembles the system, runs one part of
the machinery and emits a deterministic report: exit code 0 when every check
passes, 1 on a failed check, 2 on configuration errors, 3 on numerical
failures (non-convergence, domain errors).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .config import RunConfig, load_config
from .errors import ConfigError, ConvergenceError, DomainError
from .grid import IntervalSet, Measure
from .harmonic import (HarmonicSolution, fourier_cascade_check,
                       solve_harmonic)
from .report import Report
from .sigspace import (defect_search, hutchinson_iterate, membership,
                       pushed_decomposition)
from .solenoid import (CylinderFunction, CylinderSpec, PathMeasure,
                       cylinder_mass, empirical_cylinder_frequency,
                       harmonic_from_measure, markov_deviation,
                       multires_check, quasi_invariance_defect,
                       unitarity_check)
from .transfer import TransferOperator, identity_suite
from .trig import TrigPoly

QUASI_TOL = 1e-10
MULTIRES_TOL = 1e-12
HFM_TOL = 1e-8


def _converged_solution(cfg: RunConfig, op: TransferOperator,
                        lam: Measure) -> HarmonicSolution:
    sol = solve_harmonic(op, lam, tol=cfg.solver_tol,
                         max_iter=cfg.solver_max_iter, seed=cfg.solver_seed)
    if not sol.converged:
        raise ConvergenceError("harmonic solve did not converge")
    return sol


def _solved_path_measure(cfg: RunConfig, op: TransferOperator,
                         lam: Measure) -> PathMeasure:
    return PathMeasure.build(op, _converged_solution(cfg, op, lam).h, lam)


def _require_trials(args) -> None:
    if args.trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {args.trials}",
                          field="trials")


def _write_columns(directory: str, name: str, xs, ys) -> None:
    os.makedirs(directory, exist_ok=True)
    np.savetxt(os.path.join(directory, name),
               np.column_stack([np.asarray(xs, dtype=float),
                                np.asarray(ys, dtype=float)]))


# -- subcommand handlers ----------------------------------------------------


def _cmd_verify(args, cfg, op, lam, report: Report) -> None:
    _require_trials(args)
    sol = _converged_solution(cfg, op, lam)
    suite = identity_suite(op, lam, sol.h, trials=args.trials,
                           seed=cfg.solver_seed)
    for check in suite.checks:
        report.add_check(check.name, check.status, check.residual, check.tol,
                         check.note)
    report.add_result("harmonic_eigenvalue", sol.rho)
    if args.plot_data:
        rw = op.rw_multiplier()
        _write_columns(args.plot_data, "rw_multiplier.dat", op.nodes, rw.values)


def _cmd_harmonic(args, cfg, op, lam, report: Report) -> None:
    sol = solve_harmonic(op, lam, tol=cfg.solver_tol,
                         max_iter=cfg.solver_max_iter, seed=cfg.solver_seed)
    report.add_result("rho", sol.rho)
    report.add_result("residual", sol.residual)
    report.add_result("iterations", sol.iterations)
    report.add_check("harmonic_converged",
                     "PASS" if sol.converged else "FAIL",
                     sol.residual, cfg.solver_tol)
    if op.system.is_doubling() and sol.converged:
        dev = fourier_cascade_check(op, sol.h, k_max=args.k_max,
                                    n_max=args.n_max)
        report.add_result("cascade_deviation", dev)
        report.add_check("fourier_cascade",
                         "PASS" if dev < args.cascade_tol else "FAIL",
                         dev, args.cascade_tol)
    else:
        report.add_check("fourier_cascade", "SKIPPED",
                         note="system is not the doubling map")
    if args.plot_data:
        _write_columns(args.plot_data, "h.dat", op.nodes, sol.h.values)


def _cmd_measure(args, cfg, op, lam, report: Report) -> None:
    iterated = hutchinson_iterate(op.system, lam, args.steps)
    report.add_result("steps", args.steps)
    report.add_result("total_mass", iterated.total())
    report.add_result("tv_to_uniform",
                      iterated.tv_cell_distance(Measure.lebesgue(cfg.cells)))
    drift = abs(iterated.total() - lam.total())
    report.add_check("mass_preserved", "PASS" if drift < 1e-12 else "FAIL",
                     drift, 1e-12)
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
    if args.sets is None:
        raise ConfigError("cylinder needs --sets", field="sets")
    spec = CylinderSpec.parse(args.sets)
    pm = _solved_path_measure(cfg, op, lam)
    mass = cylinder_mass(pm, args.x, spec)
    hx = float(pm.h(args.x))
    report.add_result("mass", mass)
    report.add_result("normalized_mass", mass / hx if hx > 0 else float("nan"))
    report.add_result("total_mass_at_base", hx)


def _battery(rng: np.random.Generator, count: int) -> list[CylinderSpec]:
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
        specs.append(CylinderSpec(sets))
    return specs


def _cmd_sample(args, cfg, op, lam, report: Report) -> None:
    pm = _solved_path_measure(cfg, op, lam)
    rng = np.random.default_rng(cfg.sampler_seed)
    specs = _battery(rng, args.battery)
    base_x = args.x
    agree = 0
    empirical, exact = [], []
    for i, spec in enumerate(specs):
        p_exact = cylinder_mass(pm, base_x, spec) / float(pm.h(base_x))
        p_hat, stderr = empirical_cylinder_frequency(
            pm, base_x, spec, cfg.sampler_paths, rng)
        empirical.append(p_hat)
        exact.append(p_exact)
        within = abs(p_hat - p_exact) <= 4.0 * max(stderr, 1e-12)
        agree += within
        report.add_check(f"spec_{i:02d}", "PASS" if within else "FAIL",
                         abs(p_hat - p_exact), 4.0 * max(stderr, 1e-12))
    report.add_result("agreeing", agree)
    report.add_result("battery_size", len(specs))
    if args.plot_data:
        idx = np.arange(len(specs))
        _write_columns(args.plot_data, "hist_empirical.dat", idx, empirical)
        _write_columns(args.plot_data, "hist_exact.dat", idx, exact)


def _cmd_quasi(args, cfg, op, lam, report: Report) -> None:
    _require_trials(args)
    pm = _solved_path_measure(cfg, op, lam)
    rng = np.random.default_rng(cfg.sampler_seed)
    worst = 0.0
    for _ in range(args.trials):
        depth = int(rng.integers(1, 4))
        psi = CylinderFunction([TrigPoly.random(rng, degree=4)
                                for _ in range(depth + 1)])
        worst = max(worst, abs(quasi_invariance_defect(pm, psi)))
    report.add_result("quasi_invariance_defect", worst)
    report.add_check("quasi_invariance", "PASS" if worst < QUASI_TOL else "FAIL",
                     worst, QUASI_TOL)
    u_dev = unitarity_check(pm, trials=args.trials, seed=cfg.sampler_seed)
    report.add_result("unitarity_defect", u_dev)
    report.add_check("unitarity", "PASS" if u_dev < QUASI_TOL else "FAIL",
                     u_dev, QUASI_TOL)
    mr = multires_check(pm, n_max=4, trials=100, seed=cfg.sampler_seed)
    report.add_result("nesting_residual", mr.nesting_residual)
    report.add_result("shift_residual", mr.shift_residual)
    ok = max(mr.nesting_residual, mr.shift_residual) < MULTIRES_TOL
    report.add_check("multiresolution", "PASS" if ok else "FAIL",
                     max(mr.nesting_residual, mr.shift_residual), MULTIRES_TOL)


def _cmd_markov(args, cfg, op, lam, report: Report) -> None:
    if args.set_a is None or args.set_b is None:
        raise ConfigError("markov needs --set-a and --set-b", field="sets")
    set_a = CylinderSpec.parse(args.set_a).sets[0]
    set_b = CylinderSpec.parse(args.set_b).sets[0]
    if set_a is None or set_b is None:
        raise ConfigError("markov sets cannot be 'all'", field="sets")
    pm = _solved_path_measure(cfg, op, lam)
    m1, mn, diff = markov_deviation(pm, set_a, set_b, args.x, args.n)
    report.add_result("m_1", m1)
    report.add_result(f"m_{args.n}", mn)
    report.add_result("difference", diff)


def _cmd_harmonic_from_measure(args, cfg, op, lam, report: Report) -> None:
    pm = _solved_path_measure(cfg, op, lam)
    h_tilde, residual = harmonic_from_measure(pm, depth=args.depth)
    report.add_result("residual", residual)
    report.add_check("harmonic_reconstruction",
                     "PASS" if residual < HFM_TOL else "FAIL",
                     residual, HFM_TOL)
    if args.plot_data:
        _write_columns(args.plot_data, "h_rebuilt.dat", op.nodes,
                       h_tilde.values)


_HANDLERS = {
    "verify": _cmd_verify,
    "harmonic": _cmd_harmonic,
    "measure": _cmd_measure,
    "defect": _cmd_defect,
    "cylinder": _cmd_cylinder,
    "sample": _cmd_sample,
    "quasi": _cmd_quasi,
    "markov": _cmd_markov,
    "harmonic-from-measure": _cmd_harmonic_from_measure,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="towb", description="transfer-operator workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="config file")
        p.add_argument("--plot-data", default=None, metavar="DIR",
                       help="write two-column plot data into DIR")
        p.add_argument("--seed", type=int, default=None,
                       help="override solver and sampler seeds")
        p.add_argument("--json", default=None, metavar="OUT",
                       help="write the JSON report to OUT")

    p = sub.add_parser("verify", help="run the operator identity suite")
    common(p)
    p.add_argument("--trials", type=int, default=100)

    p = sub.add_parser("harmonic", help="solve for the fixed function of R")
    common(p)
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--cascade-tol", type=float, default=1e-6)

    p = sub.add_parser("measure", help="iterate the branch-averaging map")
    common(p)
    p.add_argument("--steps", type=int, default=8)

    p = sub.add_parser("defect", help="defect and membership certificate")
    common(p)

    p = sub.add_parser("cylinder", help="exact cylinder mass")
    common(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--sets", type=str, default=None,
                   help="semicolon-separated interval constraints")

    p = sub.add_parser("sample", help="Monte Carlo vs exact enumeration")
    common(p)
    p.add_argument("--x", type=float, default=0.3)
    p.add_argument("--battery", type=int, default=20)

    p = sub.add_parser("quasi", help="shift quasi-invariance and unitarity")
    common(p)
    p.add_argument("--trials", type=int, default=20)

    p = sub.add_parser("markov", help="joint-mass drift across depths")
    common(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--set-a", type=str, default=None)
    p.add_argument("--set-b", type=str, default=None)
    p.add_argument("--n", type=int, default=10)

    p = sub.add_parser("harmonic-from-measure",
                       help="rebuild the harmonic function from total masses")
    common(p)
    p.add_argument("--depth", type=int, default=1)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.solver_seed = args.seed
            cfg.sampler_seed = args.seed
        system = cfg.build_system()
        lam = cfg.build_measure()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
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
