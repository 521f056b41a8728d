"""Graph families for the orbit_entropy workload.

graphent only generates star/path/cycle/wheel/complete/gnp, so the
symmetric families used to stress the exact orbit search are built here.
Every family function returns a ``graphent.graph.Graph`` in its natural
labeling; the workload relabels it by a seeded permutation afterwards.
"""

from __future__ import annotations

from itertools import combinations

from graphent.graph import Graph, generate_graph


def torus(a: int, b: int) -> Graph:
    """C_a x C_b grid with wrap-around edges."""
    def vid(i, j):
        return (i % a) * b + (j % b)

    edges = []
    for i in range(a):
        for j in range(b):
            edges.append((vid(i, j), vid(i + 1, j)))
            edges.append((vid(i, j), vid(i, j + 1)))
    return Graph.from_edges(a * b, edges)


def hypercube(d: int) -> Graph:
    n = 1 << d
    return Graph.from_edges(
        n, ((v, v ^ (1 << k)) for v in range(n) for k in range(d) if v < v ^ (1 << k))
    )


def paley(q: int) -> Graph:
    """Paley graph on Z_q for a prime q = 1 (mod 4)."""
    squares = {(x * x) % q for x in range(1, q)}
    return Graph.from_edges(
        q, ((u, v) for u in range(q) for v in range(u + 1, q) if (v - u) % q in squares)
    )


def _subset_graph(n: int, k: int, adjacent) -> Graph:
    verts = [frozenset(s) for s in combinations(range(n), k)]
    return Graph.from_edges(
        len(verts),
        (
            (i, j)
            for i in range(len(verts))
            for j in range(i + 1, len(verts))
            if adjacent(verts[i], verts[j])
        ),
    )


def johnson(n: int, k: int) -> Graph:
    """k-subsets of an n-set, adjacent when they share k-1 elements."""
    return _subset_graph(n, k, lambda a, b: len(a & b) == k - 1)


def kneser(n: int, k: int) -> Graph:
    """k-subsets of an n-set, adjacent when disjoint."""
    return _subset_graph(n, k, lambda a, b: not (a & b))


# Edge sets of K_8 that Seidel-switch the triangular graph T(8) into the
# three Chang graphs: a perfect matching, C_3 + C_5, and C_8.
_CHANG_SWITCH = (
    ((0, 1), (2, 3), (4, 5), (6, 7)),
    ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)),
    ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7)),
)


def chang(index: int) -> Graph:
    """Chang graph number 0, 1 or 2: strongly regular (28, 12, 6, 4),
    not vertex-transitive."""
    pairs = list(combinations(range(8), 2))
    switch = {pairs.index(tuple(sorted(e))) for e in _CHANG_SWITCH[index]}
    edges = []
    for i, j in combinations(range(len(pairs)), 2):
        adjacent = bool(set(pairs[i]) & set(pairs[j]))
        if (i in switch) != (j in switch):
            adjacent = not adjacent
        if adjacent:
            edges.append((i, j))
    return Graph.from_edges(len(pairs), edges)


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, ((u, a + v) for u in range(a) for v in range(b)))


def build(name: str) -> Graph:
    """Graph for an instance name such as ``torus_4x6`` or ``kab_3x5``."""
    kind, _, arg = name.partition("_")
    nums = [int(x) for x in arg.split("x")]
    if kind in ("cycle", "wheel", "star", "complete", "path"):
        return generate_graph(kind, nums[0])
    families = {
        "torus": torus,
        "hypercube": hypercube,
        "paley": paley,
        "johnson": johnson,
        "kneser": kneser,
        "chang": chang,
        "kab": complete_bipartite,
    }
    return families[kind](*nums)
