"""A tour of the bound catalog on one concrete instance.

Evaluates each check against the star S10's orbit distribution (1/10, 9/10)
and a linear sphere functional, printing structured reports rather than
asserting. The star's skewed distribution is exactly the regime where the
literal rho**(alpha-2) bound fails while the corrected rho**|alpha-2|
variant holds with room to spare.
"""

from graphent import (
    FunctionalSpec,
    generate_graph,
    jensen_gap_bound,
    functional_values,
    ordering_bound,
    partition_distribution,
    thm1_refined_bound,
    thm3_partition_vs_functional,
    thm4_scaled_dominance,
    thm5_additive_dominance,
    thm6_convex_combination,
    connected_functional_bounds,
    distribution_from_values,
    vertex_orbits,
)

ALPHA = 0.5

g = generate_graph("star", 10)
part = vertex_orbits(g)
d = partition_distribution(part)
print(f"S10 orbit distribution: p = {list(d.probs)}  (rho = 9)\n")


def show(r):
    status = {True: "holds", False: "VIOLATED", None: "n/a"}[r.holds]
    print(
        f"{r.theorem_id:<10} {r.variant:<10} {r.direction:<9} "
        f"lhs={r.lhs:.6f}  bound={r.bound:.6f}  slack={r.slack:+.6f}  {status}"
    )


show(ordering_bound(d, ALPHA))
show(jensen_gap_bound(d, ALPHA))
show(thm1_refined_bound(d, ALPHA, "literal"))
show(thm1_refined_bound(d, ALPHA, "corrected"))
show(thm1_refined_bound(d, ALPHA, "corrected", use_epsilon=True))

fv = functional_values(g, FunctionalSpec("linear", coeffs=(2, 1)))
show(thm3_partition_vs_functional(g, part, fv, ALPHA))

fv2 = functional_values(g, FunctionalSpec("linear", coeffs=(1, 2)))
d1 = distribution_from_values(fv)
d2 = distribution_from_values(fv2)
psi = max(a / b for a, b in zip(d1.probs, d2.probs))
show(thm4_scaled_dominance(d1, d2, psi, ALPHA))
phi = max(max(a - b for a, b in zip(d1.probs, d2.probs)), 0.01)
show(thm5_additive_dominance(d1, d2, phi, ALPHA, "literal"))
show(thm5_additive_dominance(d1, d2, phi, ALPHA, "corrected"))
show(thm6_convex_combination(g, fv, fv2, 1.0, 1.0, ALPHA, "literal"))
show(thm6_convex_combination(g, fv, fv2, 1.0, 1.0, ALPHA, "corrected"))
show(connected_functional_bounds(g, FunctionalSpec("linear", coeffs=(2, 1)), ALPHA, "literal"))

print(
    "\nThe literal refined bound is the one documented failure mode: with\n"
    "rho = 9 and alpha = 0.5 its gap term shrinks by rho**(alpha-2) = 1/27\n"
    "instead of growing by rho**|alpha-2| = 27, so the Renyi value walks\n"
    "straight past it. Every corrected variant keeps a positive margin."
)
