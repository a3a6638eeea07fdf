"""Solving R h = h and watching the Fourier cascade.

Whenever R maps the trig polynomials of a fixed degree into themselves --
on the doubling map with a trig-polynomial weight, or with a constant
weight on any non-wrapping branches -- the leading eigenpair of the
positive operator R is read off that small matrix, whose columns are the
exact images R e_k (on the doubling map, the transition operator of wavelet
theory); other systems use power iteration.  For the doubling systems the
eigenvalue is 1 and the fixed function is constant;
scaling the weight scales the eigenvalue, and dividing it back out restores
a genuine fixed point.

The cascade identity says the Fourier coefficients of a fixed function
reappear, dilated by powers of two, in the coefficients of the products
W_k(x) = W(x) W(2x) ... W(2^{k-1} x) -- the refinement structure behind
low-pass filter constructions.  For an eigenfunction R h = rho h with
p_1 = p_2 = 1/2 they reappear multiplied by rho^k.
"""

import numpy as np

import towb
from towb.system import WeightExpr, doubling_system

N = 2048
lam = towb.Measure.lebesgue(N)

op = towb.TransferOperator(towb.sys_b(N), N)
sol = towb.solve_harmonic(op, lam)
print(f"cosine weight: rho = {sol.rho:.12f}, residual = {sol.residual:.2e}, "
      f"method {sol.method}, |lambda_2| / rho = {sol.spectral_ratio}")

# Scaling the weight by 2 scales the eigenvalue by 2.
op2 = towb.TransferOperator(doubling_system(WeightExpr.constant(2.0), N), N)
sol2 = towb.solve_harmonic(op2, lam)
print(f"doubled weight: rho = {sol2.rho}")

renormalized = towb.normalize_weight(sol2)
sol3 = towb.solve_harmonic(towb.TransferOperator(renormalized, N), lam)
print(f"after renormalizing: rho = {sol3.rho}")

# The cascade: coefficients of h agree with dilated coefficients of W_k h.
deviation = towb.fourier_cascade_check(op, sol.h, k_max=4, n_max=8)
print(f"\ncascade deviation over k <= 4, |n| <= 8: {deviation:.2e}")
deviation2 = towb.fourier_cascade_check(op2, sol2.h, k_max=4, n_max=8,
                                        rho=sol2.rho)
print(f"doubled weight, cascade divided by rho^k: {deviation2:.2e}")

# The partial products W_k all integrate to one: the cosine weight's
# frequencies 2^j never cancel against each other.
mids = (np.arange(N) + 0.5) / N
wk = np.ones(N)
for k in range(1, 5):
    wk = wk * np.asarray(op.system.weight((2 ** (k - 1) * mids) % 1.0))
    print(f"  int W_{k} dx = {wk.mean():.12f}")
