"""Acceptance suite: the contract-level checks, one per criterion.

Each test prints a single ``ACCEPTANCE <name>: PASS/FAIL`` line (visible
under ``pytest -s`` or on failure) and asserts the criterion at its stated
tolerance.  Tolerances are pinned here, not configurable.
"""

import time

import numpy as np

import towb
from towb import (CylinderFunction, GridFunction, IntervalSet, Measure,
                  PathMeasure, TransferOperator)
from towb.system import PiecewiseAffineMap, WeightExpr, doubling_system
from towb.trig import TrigPoly

N = 1024


def _line(name: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {tag}" + (f"  ({detail})" if detail else ""))
    return ok


def test_01_identity_suite(op_a, op_b, lam_std, sol_a, sol_b):
    """All applicable operator identities hold with residual < 1e-8 over 100
    random trig functions; the harmonic-support check is gated correctly
    (evaluated on the unit weight, skipped on the cosine weight)."""
    start = time.perf_counter()
    suite_a = towb.identity_suite(op_a, lam_std, sol_a.h, trials=100, seed=0)
    suite_b = towb.identity_suite(op_b, lam_std, sol_b.h, trials=100, seed=0)
    elapsed = time.perf_counter() - start
    ok_a = suite_a.counts() == {"PASS": 7, "FAIL": 0, "SKIPPED": 0}
    ok_b = suite_b.counts() == {"PASS": 6, "FAIL": 0, "SKIPPED": 1}
    ok_gate = (suite_a.by_name("harmonic_support_multiplier").status == "PASS"
               and suite_b.by_name("harmonic_support_multiplier").status
               == "SKIPPED")
    residuals = [c.residual for c in suite_a.checks + suite_b.checks
                 if c.status == "PASS"]
    ok_resid = max(residuals) < 1e-8
    ok_time = elapsed < 10.0
    ok = ok_a and ok_b and ok_gate and ok_resid and ok_time
    assert _line("01 identity suite", ok,
                 f"max residual {max(residuals):.2e}, {elapsed:.1f}s")


def test_02_harmonic_solving(op_a, op_b, lam_std, sol_a, sol_b):
    """Unit leading eigenvalue to 1e-10 on both weights; doubling the weight
    doubles the eigenvalue and renormalizing restores it."""
    ok = True
    for sol in (sol_a, sol_b):
        ok &= abs(sol.rho - 1.0) < 1e-10 and sol.residual < 1e-10
    op2 = TransferOperator(doubling_system(WeightExpr.constant(2.0), N), N)
    sol2 = towb.solve_harmonic(op2, lam_std)
    ok &= abs(sol2.rho - 2.0) < 1e-10
    renorm = towb.normalize_weight(sol2)
    sol2n = towb.solve_harmonic(TransferOperator(renorm, N), lam_std)
    ok &= abs(sol2n.rho - 1.0) < 1e-10
    assert _line("02 harmonic solving", ok,
                 f"rho deviations {abs(sol_a.rho - 1):.1e}/"
                 f"{abs(sol_b.rho - 1):.1e}, doubled {sol2.rho:g}, "
                 f"renormalized {sol2n.rho:g}")


def test_03_fourier_cascade():
    """Cascade coefficients match through four refinement levels and all
    frequencies up to 8, within 1e-6 at 4096 cells."""
    n = 4096
    op = TransferOperator(towb.sys_b(n), n)
    sol = towb.solve_harmonic(op, Measure.lebesgue(n))
    dev = towb.fourier_cascade_check(op, sol.h, k_max=4, n_max=8)
    assert _line("03 fourier cascade", dev < 1e-6, f"deviation {dev:.2e}")


def test_04_ifs_measures(op_d):
    """Five branch-averaging steps on the thirds system reproduce the exact
    dyadic masses on generation-5 cells with zero total-variation error;
    the doubling system spreads a point mass to uniform within 12 steps."""
    out = towb.hutchinson_iterate(op_d.system, Measure.lebesgue(243), 5)
    oracle = np.zeros(243)
    for bits in range(32):
        idx = 0
        for i in range(5):
            idx = idx * 3 + (2 if (bits >> i) & 1 else 0)
        oracle[idx] = 2.0 ** -5
    tv_exact = 0.5 * float(np.abs(out.cell_masses - oracle).sum()) \
        + sum(m for _, m in out.atoms)
    ok_triadic = tv_exact == 0.0

    system = towb.sys_a(256)
    cur = Measure.dirac(0.3, 256)
    reached = None
    for k in range(1, 13):
        cur = towb.hutchinson_iterate(system, cur, 1)
        if cur.tv_cell_distance(Measure.lebesgue(256)) < 0.01:
            reached = k
            break
    ok_spread = reached is not None
    assert _line("04 ifs measures", ok_triadic and ok_spread,
                 f"triadic TV {tv_exact}, uniform reached at step {reached}")


def test_05a_defect_zero_certificates(op_a, op_b, op_d, lam_std, lam_triadic):
    """The defect vanishes (< 1e-10) for the invariant base measures of all
    three systems, and the membership certificate agrees on all fixtures,
    including rejecting the point mass."""
    values = [towb.defect(lam_std, op_a), towb.defect(lam_std, op_b),
              towb.defect(lam_triadic, op_d)]
    ok = max(values) < 1e-10
    ok &= towb.l1_membership(lam_std, op_a)[0]
    ok &= towb.l1_membership(lam_std, op_b)[0]
    ok &= towb.l1_membership(lam_triadic, op_d)[0]
    delta0 = Measure.dirac(0.0, N)
    ok &= not towb.l1_membership(delta0, op_a)[0]
    assert _line("05a defect zero certificates", ok,
                 f"max defect {max(values):.2e}")


def test_05b_point_mass_defect_reference_value(op_a):
    """The point mass ``delta_0`` on the constant-weight doubling system
    scores exactly its escaped mass, 1/2.

    The push of ``delta_0`` is ``(1/2) delta_0 + (1/2) delta_{1/2}``: the
    branch ``x/2`` keeps half the mass on the base atom, with density
    ``w = W_lam(0) = 1/2``, and the branch ``(x+1)/2`` moves the other half
    to where ``delta_0`` has no mass.  The defect is the squared distance from
    ``sqrt(d(lam . R))`` to the classes ``f sqrt(d lam)``, minimized over
    ``f``.  Only ``c = f(0)`` enters, so the objective is the quadratic
    ``1 + c^2 - 2 c sqrt(w)``.  Its minimum is 1/2, at ``c = sqrt(w)``; that
    minimum is the defect.  The objective at ``c = w`` is
    ``1/2 + (1/2)(1 - sqrt(1/2))^2 = 0.542893``, larger by ``(w - sqrt(w))^2``,
    so it is not the minimum and not the defect.  The reference is derived
    here from the closed form and from ``sig_distance_sq``, not from
    ``towb.defect``.
    """
    w, escaped = 0.5, 0.5
    # (w + escaped) + c^2 - 2 c sqrt(w) at its minimizer c = sqrt(w)
    reference = escaped
    delta0 = Measure.dirac(0.0, N)
    pushed = Measure(np.zeros(N), [(0.0, w), (0.5, escaped)])
    computed_push = op_a.push_measure(delta0)
    push_ok = (computed_push.atoms == pushed.atoms
               and not computed_push.cell_masses.any())

    def objective(c):
        return towb.sig_distance_sq(
            towb.SigElement(GridFunction.constant(1.0, N), pushed),
            towb.SigElement(GridFunction.constant(c, N), delta0))

    # The objective is a quadratic in c; three values fix it exactly.
    g_m, g_0, g_p = objective(-1.0), objective(0.0), objective(1.0)
    curv, slope = (g_p + g_m) / 2.0 - g_0, (g_p - g_m) / 2.0
    c_min = -slope / (2.0 * curv)
    sig_min = objective(c_min)
    literal_at_w = 0.5 + 0.5 * (1.0 - np.sqrt(0.5)) ** 2
    at_w = objective(w)

    value = towb.defect(delta0, op_a)
    ok = push_ok
    ok &= abs(c_min - np.sqrt(w)) < 1e-12 and abs(sig_min - reference) < 1e-12
    ok &= abs(value - reference) < 5e-7
    ok &= abs(at_w - literal_at_w) < 1e-12
    ok &= literal_at_w > value
    ok &= abs((literal_at_w - value) - (w - np.sqrt(w)) ** 2) < 5e-7
    assert _line("05b point-mass defect = escaped mass", ok,
                 f"defect {value:.6f}, min over c {sig_min:.6f} at "
                 f"c = {c_min:.6f}, objective at c = w {at_w:.6f}")


def test_06_sampler_vs_oracle(pm_a, pm_b):
    """Empirical cylinder frequencies from 1e5 sampled paths match exact
    enumeration within four standard errors in at least 19 of 20 specs per
    system, in under 30 seconds."""
    start = time.perf_counter()
    results = {}
    for name, pm in (("a", pm_a), ("b", pm_b)):
        rng = np.random.default_rng(2024)
        agreeing = 0
        for _ in range(20):
            depth = int(rng.integers(1, 4))
            sets = []
            for _ in range(depth):
                lo = rng.uniform(0.0, 0.55)
                hi = lo + rng.uniform(0.2, min(0.42, 1.0 - lo))
                sets.append(IntervalSet([(lo, hi)]))
            spec = CylinderFunction([None, *sets])
            x = 0.3
            p_exact = towb.cylinder_mass(pm, x, spec) / float(pm.h(x))
            p_hat = towb.empirical_cylinder_frequency(pm, x, spec, 100_000,
                                                      rng)
            se = np.sqrt(max(p_exact * (1 - p_exact), 1e-12) / 100_000)
            agreeing += abs(p_hat - p_exact) <= 4 * max(se, 1e-12)
        results[name] = agreeing
    elapsed = time.perf_counter() - start
    ok = min(results.values()) >= 19 and elapsed < 30.0
    assert _line("06 sampler vs oracle", ok,
                 f"agreeing {results}, {elapsed:.1f}s")


def test_07_quasi_invariance_and_unitarity(pm_a, pm_b):
    """Exact-mode shift quasi-invariance defect below 1e-10 for 20 random
    cylinder functions of depth <= 3 on both systems, and the weighted
    shift preserves norms to the same tolerance."""
    worst_q = 0.0
    for pm in (pm_a, pm_b):
        rng = np.random.default_rng(7)
        for _ in range(20):
            depth = int(rng.integers(1, 4))
            psi = CylinderFunction([TrigPoly.random(rng, 4)
                                    for _ in range(depth + 1)])
            worst_q = max(worst_q, abs(towb.quasi_invariance_defect(pm, psi)))
    worst_u = max(towb.unitarity_check(pm_a, trials=20, seed=1),
                  towb.unitarity_check(pm_b, trials=20, seed=1))
    ok = worst_q < 1e-10 and worst_u < 1e-10
    assert _line("07 quasi-invariance and unitarity", ok,
                 f"quasi {worst_q:.2e}, unitary {worst_u:.2e}")


def test_08_multiresolution(pm_a, pm_b, lam_std):
    """Exact nesting and shift residuals of the multiresolution ladder are
    below 1e-12 up to level 4; skewing the expanding map's slope to 2.01
    breaks nesting by more than 1e-3."""
    worst = 0.0
    for pm in (pm_a, pm_b):
        out = towb.multires_check(pm, seed=0)
        worst = max(worst, out.nesting_residual, out.shift_residual)
    skewed = PiecewiseAffineMap([(0.0, 0.5, 2.01, 0.0),
                                 (0.5, 1.0, 2.01, -1.005)])
    bad_system = towb.sys_a(N).with_sigma(skewed)
    bad_pm = PathMeasure.build(TransferOperator(bad_system, N),
                               GridFunction.constant(1.0, N), lam_std)
    control = towb.multires_check(bad_pm, seed=0)
    ok = worst < 1e-12 and control.nesting_residual > 1e-3
    assert _line("08 multiresolution", ok,
                 f"residual {worst:.2e}, control {control.nesting_residual:.2e}")


def test_09_non_markov_witness(pm_a, lam_std):
    """Joint masses across depths: exactly 0.25 at depth 1 and 0.125 at
    depth 2 for the quarter/half window pair from base 0.3; by depth 10 the
    mass flattens to the product form within 1e-6."""
    a = IntervalSet([(0.0, 0.25)])
    b = IntervalSet([(0.0, 0.5)])
    m1, m2, _ = towb.markov_deviation(pm_a, a, b, 0.3, 2)
    _, m10, _ = towb.markov_deviation(pm_a, a, b, 0.3, 10)
    target = a.total_length() * towb.integrate(
        lambda x: np.asarray(b.indicator(x)) * np.asarray(pm_a.h(x)), lam_std)
    ok = m1 == 0.25 and m2 == 0.125 and abs(m10 - target) < 1e-6
    assert _line("09 non-markov witness", ok,
                 f"m1={m1}, m2={m2}, |m10-{target:.3f}|={abs(m10 - target):.1e}")


def test_10_harmonic_round_trip(pm_a, pm_b, op_a, lam_std):
    """Total cylinder masses rebuild the harmonic function with residual
    below 1e-10 on both systems; a sawtooth input is flagged with residual
    above 0.1."""
    worst = 0.0
    for pm in (pm_a, pm_b):
        rebuilt, residual = towb.harmonic_from_measure(pm)
        worst = max(worst, residual,
                    float(np.max(np.abs(rebuilt.values - pm.h(pm.op.nodes)))))
    bad = PathMeasure.build(
        op_a, GridFunction.from_callable(lambda x: np.asarray(x, dtype=float),
                                         N), lam_std, strict=False)
    _, control = towb.harmonic_from_measure(bad)
    ok = worst < 1e-10 and control > 0.1
    assert _line("10 harmonic round trip", ok,
                 f"residual {worst:.2e}, control {control:.2f}")
