"""Simple undirected graphs: parsing, generators, BFS distances, j-spheres.

Vertices are dense integers 0..n-1. Graphs are immutable after construction
and safe to share across threads. Distances use an explicit ``UNREACHABLE``
sentinel (never a large magic number) so the diameter cannot be silently
corrupted by disconnected pairs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import DomainError, ParseError, ValidationError

# numpy is imported inside the functions that use it: only G(n, p) draws
# and the array views of distances and sphere profiles load it.
if TYPE_CHECKING:
    import numpy as np

UNREACHABLE = -1

GRAPH_CLASSES = ("star", "path", "cycle", "wheel", "complete", "gnp")

# Redraws allowed while rejecting disconnected G(n, p) samples.
GNP_MAX_REDRAWS = 1000


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]
    adjacency: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValidationError(f"vertex count must be >= 0, got {self.n}")
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValidationError(f"edge {e} outside 0..{self.n - 1}")
            if u > v:
                raise ValidationError(f"edge {e} not normalized as (min, max)")
            nbrs[u].add(v)
            nbrs[v].add(u)
        object.__setattr__(
            self, "adjacency", tuple(tuple(sorted(s)) for s in nbrs)
        )

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        """Build a graph, normalizing pair order and collapsing duplicates."""
        norm = frozenset(
            (min(int(u), int(v)), max(int(u), int(v))) for u, v in edges
        )
        return cls(n=n, edges=norm)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def is_connected(self) -> bool:
        return self._connected

    @cached_property
    def _connected(self) -> bool:
        """One BFS per graph; the graph is immutable, so the answer is kept."""
        if self.n <= 1:
            return True
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for w in self.adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self.n

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Image of the graph under the vertex permutation v -> perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise DomainError("perm must be a permutation of 0..n-1")
        return Graph.from_edges(
            self.n, ((perm[u], perm[v]) for u, v in self.edges)
        )

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


@dataclass(frozen=True)
class DistanceData:
    """All-pairs hop distances, one tuple per source vertex, plus the
    diameter eta."""

    rows: tuple[tuple[int, ...], ...]
    eta: int

    @cached_property
    def dist(self) -> np.ndarray:
        """The distances as a read-only (n, n) int64 array."""
        return _read_only_array(self.rows, "int64", (len(self.rows),) * 2)

    @cached_property
    def spheres(self) -> tuple[tuple[int, ...], ...]:
        """j-sphere profiles: entry [v][j-1] = |S_j(v)| for j = 1..eta,
        zero-padded up to the diameter. Built once per DistanceData, so
        every functional on one graph reads the same profiles."""
        radii = range(1, self.eta + 1)
        return tuple(tuple(map(row.count, radii)) for row in self.rows)


def _read_only_array(values, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
    """values as a read-only numpy array of dtype and shape."""
    import numpy as np

    arr = np.array(values, dtype=dtype).reshape(shape)
    arr.setflags(write=False)
    return arr


def parse_edge_list(text: str, n: int | None = None) -> Graph:
    """Parse whitespace-separated "u v" lines into a Graph.

    Lines starting with '#' and blank lines are ignored; duplicate edges
    collapse. Without an explicit ``n`` the vertex count is 1 + max id and
    the id set must be dense (gaps rejected); with ``n`` given, ids only
    need to stay below it.
    """
    edges: list[tuple[int, int]] = []
    seen_ids: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected two vertex ids, got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"malformed vertex id in {line!r}", lineno) from None
        if u < 0 or v < 0:
            raise ParseError(f"negative vertex id in {line!r}", lineno)
        if u == v:
            raise ValidationError(f"line {lineno}: self-loop at vertex {u}")
        edges.append((u, v) if u < v else (v, u))
        seen_ids.update((u, v))

    max_id = max(seen_ids) if seen_ids else -1
    if n is None:
        n = max_id + 1
        if len(seen_ids) != n:
            # the first few missing ids, found in the gaps between seen ones
            ids = sorted(seen_ids)
            gaps = (range(a + 1, min(b, a + 4)) for a, b in zip([-1] + ids, ids))
            first = [i for gap in gaps for i in gap][:3]
            raise ValidationError(
                f"vertex ids have gaps ({n - len(seen_ids)} missing, first "
                f"{first}); pass n explicitly to allow isolated vertices"
            )
    elif n < max_id + 1:
        raise ValidationError(f"n={n} is below 1 + max vertex id ({max_id})")
    return Graph(n=n, edges=frozenset(edges))


def write_edge_list(g: Graph) -> str:
    """Render one "u v" pair per line, u < v, ascending, newline-terminated."""
    return "".join(f"{u} {v}\n" for u, v in g.sorted_edges())


def _gnp_edges(n: int, p: float, rng: np.random.Generator) -> set[tuple[int, int]]:
    import numpy as np

    draws = rng.random(n * (n - 1) // 2) if n > 1 else np.empty(0)
    # one draw per pair u < v, in row-major order
    us, vs = np.triu_indices(n, k=1)
    keep = draws < p
    return set(zip(us[keep].tolist(), vs[keep].tolist()))


def generate_gnp_connected(n: int, p: float, seed) -> tuple[Graph, int]:
    """Draw G(n, p) samples until one is connected.

    Returns (graph, redraw_count). Raises DomainError once the redraw cap is
    hit, since the requested regime then cannot supply connected samples.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"edge probability must be in [0, 1], got {p}")
    import numpy as np

    rng = np.random.default_rng(seed)
    for attempt in range(GNP_MAX_REDRAWS + 1):
        g = Graph.from_edges(n, _gnp_edges(n, p, rng))
        if g.is_connected():
            if attempt:
                # imported here, so a CLI start does not pay for logging
                import logging

                logging.getLogger(__name__).info(
                    "gnp(n=%d, p=%g): %d disconnected redraws", n, p, attempt
                )
            return g, attempt
    raise DomainError(
        f"gnp(n={n}, p={p}): no connected sample within {GNP_MAX_REDRAWS} redraws"
    )


def generate_graph(
    kind: str, n: int, p: float | None = None, seed=None
) -> Graph:
    """Construct one of the supported graph classes.

    star: center 0 joined to n-1 leaves (n >= 3).
    path: edges (i, i+1) (n >= 1).
    cycle: path plus closing edge (n >= 3).
    wheel: hub 0 joined to every vertex of a cycle on 1..n-1 (n >= 4).
    complete: all pairs (n >= 1).
    gnp: connected Erdos-Renyi sample, reproducible from seed.
    """
    if kind not in GRAPH_CLASSES:
        raise DomainError(f"unknown graph class {kind!r}")
    if n < 1:
        raise DomainError(f"{kind} requires n >= 1, got {n}")

    if kind == "star":
        if n < 3:
            raise DomainError(f"star requires n >= 3, got {n}")
        return Graph.from_edges(n, ((0, i) for i in range(1, n)))
    if kind == "path":
        return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))
    if kind == "cycle":
        if n < 3:
            raise DomainError(f"cycle requires n >= 3, got {n}")
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
        return Graph.from_edges(n, edges)
    if kind == "wheel":
        if n < 4:
            raise DomainError(f"wheel requires n >= 4, got {n}")
        rim = [(i, i + 1) for i in range(1, n - 1)] + [(1, n - 1)]
        hub = [(0, i) for i in range(1, n)]
        return Graph.from_edges(n, rim + hub)
    if kind == "complete":
        return Graph.from_edges(
            n, ((u, v) for u in range(n) for v in range(u + 1, n))
        )
    # gnp
    if p is None or seed is None:
        raise DomainError("gnp requires both p and seed")
    g, _ = generate_gnp_connected(n, p, seed)
    return g


def distance_matrix(g: Graph) -> DistanceData:
    """BFS-exact hop distances; unreachable pairs hold UNREACHABLE."""
    adjacency = g.adjacency
    rows = []
    eta = 0
    for src in range(g.n):
        row = [UNREACHABLE] * g.n
        row[src] = 0
        frontier = [src]
        depth = 0
        # one level per pass; depth ends one past the farthest level reached
        while frontier:
            depth += 1
            reached = []
            for u in frontier:
                for w in adjacency[u]:
                    if row[w] == UNREACHABLE:
                        row[w] = depth
                        reached.append(w)
            frontier = reached
        eta = max(eta, depth - 1)
        rows.append(tuple(row))
    return DistanceData(rows=tuple(rows), eta=eta)


def sphere_counts_matrix(g: Graph, d: DistanceData) -> np.ndarray:
    """d.spheres as a read-only (n, eta) int64 array. Requires a connected
    graph."""
    if not g.is_connected():
        raise DomainError("j-sphere profiles are undefined on disconnected graphs")
    return _read_only_array(d.spheres, "int64", (g.n, d.eta))
