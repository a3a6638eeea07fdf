"""A first walk through the weighted transfer operator.

We work on the circle [0, 1) with the doubling map sigma(x) = 2x mod 1 and
its two inverse branches x/2 and (x+1)/2.  The operator averages a function
over the branches with a positive weight:

    (R f)(x) = (1/2) [ W(x/2) f(x/2) + W((x+1)/2) f((x+1)/2) ].

With the unit weight this is the classical transfer operator; with
W(x) = 1 + cos(2 pi x) the constant function is still fixed because
cos^2(pi x / 2) + sin^2(pi x / 2) = 1.
"""

import numpy as np

import towb

N = 512
lam = towb.Measure.lebesgue(N)

for name, system in [("unit weight", towb.sys_a(N)),
                     ("cosine weight", towb.sys_b(N))]:
    op = towb.TransferOperator(system, N)
    one = towb.GridFunction.constant(1.0, N)
    r_one = op.apply(one)
    print(f"{name}: max |R(1) - 1| = {np.max(np.abs(r_one.values - 1)):.2e}")

# The operator is an average over an atomic transition kernel: the branch
# images of x, each carrying mass p_i W(tau_i x).
op = towb.TransferOperator(towb.sys_a(N), N)
points = op.branch_points(0.4)
print("\nkernel at x = 0.4:")
for point, mass in zip(points, op.branch_masses(points)):
    print(f"  atom at {point:.2f} with mass {mass:.2f}")

# Its adjoint in L2(Lebesgue) is the weighted composition f -> W * (f o sigma);
# duality holds for any pair of test functions.
rng = np.random.default_rng(0)
f, g = towb.TrigPoly.random(rng), towb.TrigPoly.random(rng)
lhs = towb.integrate(lambda x: op.adjoint_fn(f)(x) * g(x), lam)
rhs = towb.integrate(lambda x: f(x) * op.apply_fn(g)(x), lam)
print(f"\nduality residual: {abs(lhs - rhs):.2e}")

# The full identity battery, randomized:
opb = towb.TransferOperator(towb.sys_b(N), N)
h = towb.solve_harmonic(opb, lam).h
suite = towb.identity_suite(opb, lam, h, trials=50, seed=0)
print("\nidentity suite on the cosine-weight system:")
for check in suite.checks:
    print(f"  {check.status:8s} {check.name:30s} "
          + ("" if check.residual != check.residual
             else f"residual {check.residual:.2e}"))
