"""Square densities and the absolute-continuity defect.

Pushing a probability measure through the weighted operator gives a new
measure; the defect is the squared distance, in the Hilbert space of square
densities, between the square root of the pushed measure and its projection
onto the classes the base measure carries.  It vanishes exactly when the
push is absolutely continuous at grid scale, so it certifies membership in
the set of admissible base measures.
"""

import towb

N = 1024
lam = towb.Measure.lebesgue(N)

for name, op in [("unit weight", towb.TransferOperator(towb.sys_a(N), N)),
                 ("cosine weight", towb.TransferOperator(towb.sys_b(N), N))]:
    member, value = towb.l1_membership(lam, op)
    print(f"{name}, uniform base: defect = {value:.3e}, member = {member}")

# The thirds system pushes Lebesgue onto the outer thirds with density 3/2:
# still absolutely continuous, so still a certificate.
op_d = towb.TransferOperator(towb.sys_d(243), 243)
member, value = towb.l1_membership(towb.Measure.lebesgue(243), op_d)
print(f"thirds system, uniform base: defect = {value:.3e}, member = {member}")

# A point mass at the origin fails: half of its push escapes to the atom at
# 1/2, which the base measure cannot see.
op_a = towb.TransferOperator(towb.sys_a(N), N)
delta = towb.Measure.dirac(0.0, N)
member, value = towb.l1_membership(delta, op_a)
print(f"point mass at 0: defect = {value:.6f}, member = {member}")

dec = op_a.rn_derivative(delta)
print(f"  matched atom density at 0: {dec.atom_density}")
print(f"  singular part: {dec.singular.atoms}")

# A seeded draw with mass on every cell and no atoms pushes to a measure with
# no singular part, so its defect is exactly zero.
best_measure, best_value = towb.defect_search(op_a, seed=0)
print(f"\nfull-support draw on the unit-weight system: defect = {best_value:.2e}")
