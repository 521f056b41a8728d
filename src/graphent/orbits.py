"""Exact vertex orbits under the full automorphism group.

The main route colors vertices by degree and refines the coloring by
iterated neighbor-class multisets; a regular graph keeps its one color
with no refinement pass. Refinement never over-splits (cells are
unions of orbits) but may over-merge. Twins (equal open or equal closed
neighborhoods) are united first, since swapping two of them is an
automorphism, so stars, complete graphs and complete bipartite graphs need
no search. Any other pair sharing a cell is only united after a
backtracking search actually exhibits an automorphism mapping one to the
other. The search places the most constrained vertex next (McKay &
Piperno, "Practical graph isomorphism II", 2014), walks the complement of
a graph with more than half of all possible edges (same automorphisms,
fewer edges), and gives up with CapacityError past ORBIT_NODE_BUDGET
nodes, so it is exact and bounded. It is a loop over positions with an
explicit stack of each position's remaining candidates; the placement
order and each position's already-placed neighbors are planned once per
representative, and a position's candidates are the free members of its
cell adjacent to the images of those neighbors. Orbits are merged inline,
as trees of one parent list rooted at their smallest vertices. The n!
oracle (brute_force_orbits) is the independent ground truth for small graphs.
"""

from __future__ import annotations

from itertools import permutations

from .errors import CapacityError, DomainError
from .graph import Graph, _Record

ORBIT_CAP = 64
# Search nodes (a vertex given a candidate image) one vertex_orbits call may
# visit. Over the 8 relabelings by default_rng(s).permutation, s in 0..7,
# the benchmark families need at most 3,767 (chang_0, whose natural
# labeling needs 4,011), the acceptance corpus 24, and 128 dense G(n, p)
# draws (n 16-28, p 0.9-0.97) at most 140, searched on their complements;
# searched on the graphs themselves, two of those draws ran past this
# budget.
ORBIT_NODE_BUDGET = 500_000
BRUTE_FORCE_CAP = 8

_bit = (1).__lshift__  # v -> 1 << v, the bitmask of vertex v


class OrbitPartition(_Record):
    """Vertex orbits, each sorted, ordered by (size, smallest member)."""

    __slots__ = ("blocks",)
    _fields = __slots__

    def __init__(self, blocks: tuple[tuple[int, ...], ...]):
        seen: set[int] = set()
        for block in blocks:
            if not block:
                raise DomainError("empty orbit block")
            if set(block) & seen:
                raise DomainError("orbit blocks overlap")
            seen.update(block)
        if seen != set(range(len(seen))):
            raise DomainError("orbit blocks must cover 0..n-1")
        self.blocks = blocks

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def total(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)


def _partition(parent: list[int]) -> OrbitPartition:
    """The blocks of a forest rooted at each block's smallest vertex, which
    flattens parent in place: off the roots parent[v] < v, so parent[v]
    points at its root by the time v is reached. The blocks are a partition
    by construction, so OrbitPartition's cover and overlap check is skipped."""
    groups: dict[int, list[int]] = {}
    for v, up in enumerate(parent):
        parent[v] = root = parent[up]
        groups.setdefault(root, []).append(v)
    blocks = sorted(map(tuple, groups.values()), key=lambda b: (len(b), b[0]))
    part = OrbitPartition.__new__(OrbitPartition)
    part.blocks = tuple(blocks)
    return part


def _compress(sigs: list) -> list[int]:
    table: dict = {}
    return [table.setdefault(s, len(table)) for s in sigs]


def _refine(g: Graph, colors: list[int]) -> list[int]:
    """Iterate neighbor-class multiset refinement of the degree coloring
    ``colors`` until stable.

    One color is one degree: every vertex of a regular graph has the same
    signature, so a pass would return the all-zero coloring unsplit.
    """
    if len(set(colors)) == 1:
        return [0] * len(colors)
    while True:
        sigs = [
            (colors[v], tuple(sorted(map(colors.__getitem__, nbrs))))
            for v, nbrs in enumerate(g.adjacency)
        ]
        new = _compress(sigs)
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def _search_order(g: Graph, src: int, cellbits: list[int]) -> list[int]:
    """src, then repeatedly the unplaced vertex with the most placed
    neighbors, ties broken by smaller cell, then by smaller index.

    One integer score per vertex, placed * n^2 - cell size * n - index,
    orders vertices as that rule does (cell size * n + index spans fewer
    than n^2 values, so one more placed neighbor outweighs any tie-break),
    and each step is a single max.
    """
    n = g.n
    adjacency = g.adjacency
    step = n * n
    score = [-(cellbits[v].bit_count() * n + v) for v in range(n)]
    order, unplaced = [src], set(range(n)) - {src}
    while unplaced:
        for x in adjacency[order[-1]]:
            score[x] += step
        w = max(unplaced, key=score.__getitem__)
        order.append(w)
        unplaced.remove(w)
    return order


def _placed_neighbors(g: Graph, order: list[int]) -> list[list[int]]:
    """Per position of ``order``, the neighbors of its vertex placed before it."""
    rank = [0] * g.n
    for pos, w in enumerate(order):
        rank[w] = pos
    adjacency = g.adjacency
    return [[x for x in adjacency[w] if rank[x] < pos] for pos, w in enumerate(order)]


def _find_automorphism(
    adjbits: list[int], cellbits: list[int], order: list[int],
    placed: list[list[int]], dst: int, nodes: int,
) -> tuple[list[int] | None, int]:
    """Backtracking search for an automorphism with sigma(order[0]) = dst.

    Vertices are placed in ``order``, ``placed[pos]`` holding the neighbors
    of order[pos] placed before it, and candidate images are tried in
    ascending vertex order so discovered generators are reproducible. A
    candidate c for vertex w is viable iff c's already-used neighbors are
    exactly the images of w's already-placed neighbors. ``nodes`` counts
    the search nodes the calling vertex_orbits has visited so far; the
    automorphism (or None) is returned with the updated count.
    """
    n = len(order)
    budget = ORBIT_NODE_BUDGET
    image = [-1] * n
    # per position below the current one: its untried candidates and want
    stack_free = [0] * n
    stack_want = [0] * n
    used = pos = want = 0
    free = 1 << dst
    while True:
        while free:
            bit = free & -free
            free ^= bit
            c = bit.bit_length() - 1
            if adjbits[c] & used == want:
                break
        else:
            if not pos:
                return None, nodes
            pos -= 1
            free = stack_free[pos]
            want = stack_want[pos]
            used ^= 1 << image[order[pos]]
            continue
        nodes += 1
        if nodes > budget:
            raise CapacityError(
                f"exact orbit search gave up after {nodes} search nodes "
                f"(budget {budget})"
            )
        image[order[pos]] = c
        used |= bit
        stack_free[pos] = free
        stack_want[pos] = want
        pos += 1
        if pos == n:
            return image, nodes
        # unused cell members adjacent to the images of the placed neighbors
        free = cellbits[order[pos]] & ~used
        want = 0
        for x in placed[pos]:
            y = image[x]
            want |= 1 << y
            free &= adjbits[y]


def _searched_graph(g: Graph, adjbits: list[int]) -> tuple[Graph, list[int]]:
    """The graph the search walks, and its neighbor bitmasks: g, or its
    complement when g has more than half of all vertex pairs as edges.
    Both have one automorphism group and one refinement, and the sparser
    one constrains each placed vertex through fewer neighbors. The
    complement's pairs are listed once each, in ascending order, so its
    neighbor lists are built from that list."""
    n = g.n
    if 4 * g.m <= n * (n - 1):
        return g, adjbits
    full = (1 << n) - 1
    bits = [full ^ b ^ 1 << v for v, b in enumerate(adjbits)]
    edges = [(u, v) for u, b in enumerate(bits) for v in range(u + 1, n) if b >> v & 1]
    return Graph._checked(n, frozenset(edges), edges), bits


def vertex_orbits(g: Graph) -> OrbitPartition:
    """Exact orbits of the automorphism group.

    Exactness is non-negotiable, so graphs beyond ORBIT_CAP (64 vertices),
    checked before the neighbor lists are read, or whose search visits
    more than ORBIT_NODE_BUDGET nodes raise CapacityError instead of
    degrading to the refinement cells alone.
    """
    n = g.n
    if n < 1:
        raise DomainError("vertex orbits need n >= 1")
    if n > ORBIT_CAP:
        raise CapacityError(
            f"exact orbit computation capped at n = {ORBIT_CAP}, got {n}"
        )
    adjacency = g.adjacency
    colors = _refine(g, list(map(len, adjacency)))
    cells: dict[int, list[int]] = {}
    for v, color in enumerate(colors):
        cells.setdefault(color, []).append(v)
    bits = {color: sum(map(_bit, cell)) for color, cell in cells.items()}
    cellbits = [bits[color] for color in colors]
    adjbits = [sum(map(_bit, nbrs)) for nbrs in adjacency]

    # The orbits found so far are the trees of parent, each rooted at its
    # smallest vertex. Twins, vertices with equal open (false twins) or equal
    # closed (true twins) neighborhoods, are swapped by an automorphism, so
    # each starts under the first vertex of its twin class. No vertex has
    # both kinds (u's open twin would be adjacent to u's closed twin, so a
    # neighbor of u, but open twins are never adjacent), so the smaller first
    # vertex is its class's.
    open_twin: dict[int, int] = {}
    closed_twin: dict[int, int] = {}
    parent = [
        min(open_twin.setdefault(b, v), closed_twin.setdefault(b | 1 << v, v))
        for v, b in enumerate(adjbits)
    ]
    plans: dict[int, tuple[list[int], list[list[int]]]] = {}
    searched = None
    nodes = 0
    for cell in cells.values():
        # A cell may hold several orbits: each vertex joins the orbit of the
        # first representative an automorphism maps to it, or starts its own.
        # A vertex off the roots shares an orbit with a smaller vertex of
        # its cell, so with a representative.
        reps: list[int] = []
        for v in cell:
            if parent[v] != v:
                continue
            for r in reps:
                if searched is None:
                    searched = _searched_graph(g, adjbits)
                if r not in plans:
                    order = _search_order(searched[0], r, cellbits)
                    plans[r] = order, _placed_neighbors(searched[0], order)
                sigma, nodes = _find_automorphism(
                    searched[1], cellbits, *plans[r], v, nodes
                )
                if sigma is not None:
                    # join the trees of each vertex and its image
                    for a, b in enumerate(sigma):
                        while parent[a] != a:
                            a = parent[a]
                        while parent[b] != b:
                            b = parent[b]
                        if a != b:
                            parent[max(a, b)] = min(a, b)
                    break
            else:
                reps.append(v)
    return _partition(parent)


def brute_force_orbits(g: Graph) -> OrbitPartition:
    """Oracle: the automorphisms are the n! permutations that keep every
    edge, and each vertex's orbit is its set of images under them."""
    if g.n < 1:
        raise DomainError("vertex orbits need n >= 1")
    if g.n > BRUTE_FORCE_CAP:
        raise CapacityError(
            f"brute-force orbits capped at n = {BRUTE_FORCE_CAP}, got {g.n}"
        )
    edges = g.edges
    images: list[set[int]] = [set() for _ in range(g.n)]
    for perm in permutations(range(g.n)):
        if all(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) in edges
            for u, v in edges
        ):
            for image, w in zip(images, perm):
                image.add(w)
    blocks = {tuple(sorted(image)) for image in images}
    return OrbitPartition(tuple(sorted(blocks, key=lambda b: (len(b), b[0]))))
