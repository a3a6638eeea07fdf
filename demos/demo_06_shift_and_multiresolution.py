"""The path shift, its weighted unitary, and the multiresolution ladder.

Prepending sigma(x_0) to a path is invertible; the path measure transforms
under it with multiplicative density W(x_0).  Taking square roots turns the
change of variables into a norm-preserving operator

    (U psi)(omega) = sqrt(W(x_0)) psi(shifted omega),

which maps functions of the level-n coordinate into functions of level
n - 1: the levels form an increasing ladder of subspaces swept by U.  All
three statements are the one quasi-invariance identity, so every number
below is exact up to rounding; no path is sampled.
"""

import numpy as np

import towb

N = 1024
lam = towb.Measure.lebesgue(N)
op = towb.TransferOperator(towb.sys_b(N), N)
h = towb.solve_harmonic(op, lam).h
pm = towb.PathMeasure.build(op, h, lam)

# Shifting forward and back is the identity, exactly.
rng = np.random.default_rng(0)
path = towb.SolPath(0.8125, (1, 0, 1))
there = towb.shift_forward(op, path)
back = towb.shift_back(op, there)
print(f"path {path}")
print(f"shifted {there}")
print(f"round trip equals original: {back == path}")

# Quasi-invariance: weighting the shifted function by W(x_0) preserves
# expectations.
worst = 0.0
for _ in range(10):
    psi = towb.CylinderFunction([towb.TrigPoly.random(rng, 4)
                                 for _ in range(3)])
    worst = max(worst, abs(towb.quasi_invariance_defect(pm, psi)))
print(f"\nworst quasi-invariance defect over 10 random functions: {worst:.2e}")

# The square-root weighting preserves norms: ||U psi||^2 - ||psi||^2 is the
# quasi-invariance defect of psi^2.
print(f"unitarity defect over 20 random functions: "
      f"{towb.unitarity_check(pm, trials=20, seed=1):.2e}")

# Multiresolution: the levels nest because sigma is a left inverse of the
# branches, and U drops level n isometrically into level n - 1.
result = towb.multires_check(pm, seed=2)
print(f"nesting residual: {result.nesting_residual:.2e}")
print(f"shift residual:   {result.shift_residual:.2e}")

# Rebuilding the harmonic function from total cylinder masses closes the
# loop: total mass at every base is again fixed by R.
rebuilt, residual = towb.harmonic_from_measure(pm)
print(f"\nharmonic rebuilt from total masses: residual {residual:.2e}, "
      f"max |difference from h| {np.max(np.abs(rebuilt.values - pm.h(op.nodes))):.2e}")
