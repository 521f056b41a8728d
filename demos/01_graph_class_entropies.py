"""Orbit-based entropies across the standard graph classes.

Walks stars, paths, cycles, wheels and complete graphs, computes their
automorphism orbits and the induced partition distribution, then prints
Shannon and Renyi values side by side with the library's closed-form
Renyi entropy (the class_renyi_exact bound of class_closed_forms) for
every star, wheel and path.
"""

from graphent import (
    class_closed_forms,
    generate_graph,
    partition_distribution,
    renyi_entropy,
    shannon_entropy,
    vertex_orbits,
)

ALPHA = 2.0

print(f"alpha = {ALPHA}\n")
print(f"{'graph':<12} {'orbit sizes':<18} {'H (bits)':>10} {'H_alpha':>10} {'closed form':>12}")

for kind in ("star", "path", "cycle", "wheel", "complete"):
    for n in (4, 5, 8):
        g = generate_graph(kind, n)
        part = vertex_orbits(g)
        d = partition_distribution(part)
        h = shannon_entropy(d)
        h_a = renyi_entropy(d, ALPHA)
        closed = ""
        if kind in ("star", "wheel", "path"):
            exact = next(
                r for r in class_closed_forms(kind, n, ALPHA)
                if r.theorem_id == "class_renyi_exact"
            )
            closed = f"{exact.bound:.6f}" + ("" if exact.precondition_met else "*")
        sizes = ",".join(str(s) for s in part.sizes)
        print(f"{f'{kind}_{n}':<12} {sizes:<18} {h:>10.6f} {h_a:>10.6f} {closed:>12}")

print(
    "\n* precondition not met: wheel_4 is K4, a single orbit, not the (1, n-1)\n"
    "  profile the closed form is stated for.\n"
    "\nVertex-transitive classes (cycles, complete graphs) collapse to a single\n"
    "orbit, so every entropy is zero; stars and wheels share the (1, n-1)\n"
    "profile and therefore the same closed forms; even paths are uniform over\n"
    "n/2 mirror pairs, making every Renyi order equal log2(n/2), and odd paths\n"
    "add the center as a singleton orbit."
)
