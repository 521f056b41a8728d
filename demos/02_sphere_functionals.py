"""Distance-sphere functionals and the distributions they induce.

Shows j-sphere profiles on a wheel, evaluates the linear and exponential
functionals for a few parameter choices, and demonstrates why the
exponential one is carried in log space: beta > 1 with large coefficients
overflows linear floats long before it troubles the log representation.
"""

from graphent import (
    FunctionalSpec,
    distance_matrix,
    distribution_from_values,
    functional_values,
    generate_graph,
    renyi_entropy,
    shannon_entropy,
)


def rounded(values, digits):
    return [round(x, digits) for x in values]


g = generate_graph("wheel", 7)
d = distance_matrix(g)
print(f"wheel W7: n={g.n}, diameter eta={d.eta}")
for v in (0, 1):
    print(f"  |S_j({v})| = {d.spheres[v]}")

print("\nlinear functional, c = (2, 1):")
fv = functional_values(g, FunctionalSpec("linear", coeffs=(2, 1)), d)
print(f"  f(v) = {rounded(fv.linear, 4)}")
dist = distribution_from_values(fv)
print(f"  p(v) = {rounded(dist.probs, 4)}")
print(f"  H = {shannon_entropy(dist):.6f}, H_2 = {renyi_entropy(dist, 2.0):.6f}")

print("\nexponential functional, beta = 2, c = (2, 1):")
fe = functional_values(
    g, FunctionalSpec("exponential", coeffs=(2, 1), beta=2.0), d
)
print(f"  exponents ln f = {rounded(fe.logs, 3)} (natural log)")
print(f"  p(v) = {rounded(distribution_from_values(fe).probs, 4)}")

print("\nlog-space robustness: beta = 2 with c = (400, 300) on W7")
huge = functional_values(
    g, FunctionalSpec("exponential", coeffs=(400, 300), beta=2.0), d
)
print(f"  max ln f = {max(huge.logs):.1f} (e^x overflows past ~709)")
print(f"  linear rendering available: {huge.linear is not None}")
print(f"  normalized p(v) = {rounded(distribution_from_values(huge).probs, 6)}")
