"""Path-space measures: exact cylinder masses versus Monte Carlo.

A path records a base point and successive preimages under the expanding
map, chosen by branch digits.  The measure at base x gives a depth-m
cylinder the nested operator mass R(chi_1 R(chi_2 ... R(chi_m h)))(x), and
its digit process can be sampled exactly through the h-conditioned kernel

    P(digit i | state y) = p_i W(tau_i y) h(tau_i y) / h(y).
"""

import numpy as np

import towb

N = 1024
lam = towb.Measure.lebesgue(N)
op = towb.TransferOperator(towb.sys_b(N), N)
h = towb.solve_harmonic(op, lam).h
pm = towb.PathMeasure.build(op, h, lam)

# Exact masses for a few events at base 0.3.
x = 0.3
quarter = towb.IntervalSet([(0.0, 0.25)])
half = towb.IntervalSet([(0.0, 0.5)])
for label, spec in [
        ("first coordinate in [0, 1/4)",
         towb.CylinderFunction([None, quarter])),
        ("two steps in [0, 1/2)", towb.CylinderFunction([None, half, half])),
        ("unconstrained depth 3", towb.CylinderFunction([None] * 4))]:
    mass = towb.cylinder_mass(pm, x, spec)
    print(f"{label}: mass = {mass:.6f}")
print(f"(total mass at the base equals h(x) = {float(pm.h(x)):.6f})")

# Monte Carlo agrees with the oracle within sampling error.
rng = np.random.default_rng(0)
spec = towb.CylinderFunction([None, quarter, half])
exact = towb.cylinder_mass(pm, x, spec) / float(pm.h(x))
for n_paths in (1_000, 10_000, 100_000):
    p_hat = towb.empirical_cylinder_frequency(pm, x, spec, n_paths, rng)
    se = np.sqrt(exact * (1 - exact) / n_paths)
    print(f"paths {n_paths:7d}: empirical {p_hat:.5f}  exact {exact:.5f}  "
          f"({abs(p_hat - exact) / se:.1f} standard errors)")

# Expectations of cylinder functions, both ways: exactly, and as the mean
# over sampled paths whose bases are drawn from h dlam.
psi = towb.CylinderFunction([None, lambda y: np.asarray(y, dtype=float)])
exact_e = towb.expectation(pm, psi)
bases = towb.sample_bases(pm, 100_000, rng)
_, coords = towb.sample_paths(pm, bases, psi.depth, rng)
vals = psi.eval_on_coords(coords)
mc_e, mc_se = vals.mean(), vals.std(ddof=1) / np.sqrt(vals.size)
print(f"\nmean of the first coordinate: exact {exact_e:.6f}, "
      f"MC {mc_e:.6f} +/- {mc_se:.6f}")

# The chain of joint masses m_k flattens out with depth: the non-Markov
# signature of the conditioned process.
pm_a = towb.PathMeasure.build(towb.TransferOperator(towb.sys_a(N), N),
                              towb.GridFunction.constant(1.0, N), lam)
m1, m10, diff = towb.markov_deviation(pm_a, quarter, half, x, 10)
print(f"\njoint masses: depth 1 -> {m1}, depth 10 -> {m10} "
      f"(difference {diff})")
