"""Simple undirected graphs: parsing, generators, seeded draws, BFS distances,
j-spheres.

Vertices are dense integers 0..n-1. Graphs are immutable after construction
and safe to share across threads. Distances use an explicit ``UNREACHABLE``
sentinel (never a large magic number) so the diameter cannot be silently
corrupted by disconnected pairs. Distances and j-sphere profiles are tuples
of ints (``DistanceData.rows`` and ``spheres``), and seeded draws come from
``SeededStream``, a stdlib port of numpy's generator, so nothing here loads
numpy.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import chain, combinations
from operator import eq, index
from typing import Iterable, NoReturn, Sequence

from .errors import DomainError, ParseError, ValidationError

UNREACHABLE = -1

GRAPH_CLASSES = ("star", "path", "cycle", "wheel", "complete", "gnp")

# The error of every operation that reads j-sphere profiles.
DISCONNECTED = "j-sphere profiles are undefined on disconnected graphs"

# Redraws allowed while rejecting disconnected G(n, p) samples.
GNP_MAX_REDRAWS = 1000


class _Record:
    """Equality, hash and repr over the attributes named in _fields, for
    records that are immutable by convention: attributes are set once, in
    __init__."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"


class Graph(_Record):
    """Simple undirected graph on vertices 0..n-1.

    Construction checks every edge with one chained 0 <= u < v < n test
    while it appends to per-vertex neighbor lists; only when an edge fails
    does a second walk over the edges word the error of the first bad one.
    """

    _fields = ("n", "edges")

    def __init__(self, n: int, edges: frozenset[tuple[int, int]]):
        if n < 0:
            raise ValidationError(f"vertex count must be >= 0, got {n}")
        self.n = n
        self.edges = edges
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not 0 <= u < v < n:
                self._raise_first_bad_edge()
            nbrs[u].append(v)
            nbrs[v].append(u)
        for a in nbrs:
            a.sort()
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(map(tuple, nbrs))

    def _raise_first_bad_edge(self) -> NoReturn:
        """Word the error of the first edge that fails 0 <= u < v < n."""
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValidationError(f"edge {e} outside 0..{self.n - 1}")
            if u > v:
                raise ValidationError(f"edge {e} not normalized as (min, max)")

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


class DistanceData(_Record):
    """All-pairs hop distances, one tuple per source vertex, plus the
    diameter eta."""

    _fields = ("rows", "eta")

    def __init__(self, rows: tuple[tuple[int, ...], ...], eta: int):
        self.rows = rows
        self.eta = eta

    @cached_property
    def spheres(self) -> tuple[tuple[int, ...], ...]:
        """j-sphere profiles: entry [v][j-1] = |S_j(v)| for j = 1..eta,
        zero-padded up to the diameter. Built once per DistanceData, so
        every functional on one graph reads the same profiles."""
        radii = range(1, self.eta + 1)
        return tuple(tuple(map(row.count, radii)) for row in self.rows)


def parse_edge_list(text: str, n: int | None = None) -> Graph:
    """Parse whitespace-separated "u v" lines into a Graph.

    Lines whose first token starts with '#' and blank lines are ignored;
    duplicate edges collapse. Without an explicit ``n`` the vertex count is
    1 + max id and the id set must be dense (gaps rejected); with ``n``
    given, ids only need to stay below it. See parse_edge_pairs for how the
    lines are checked.
    """
    n, edges = parse_edge_pairs(text, n)
    return Graph(n=n, edges=edges)


def parse_edge_pairs(
    text: str, n: int | None = None
) -> tuple[int, frozenset[tuple[int, int]]]:
    """The vertex count and normalized edge set that parse_edge_list builds
    its Graph from, so a caller can check n before n adjacency lists exist.

    The lines are checked in bulk: each is split once, every id goes
    through one ``map(int, ...)``, and negative ids and self-loops are
    found with builtins over all pairs. Only when a bulk check fails does
    a walk over the lines run, to raise the error of the first bad line
    with its line number.
    """
    rows = [r for r in map(str.split, text.splitlines()) if r and r[0][0] != "#"]
    ids = None
    if all(len(r) == 2 for r in rows):
        try:
            ids = list(map(int, chain.from_iterable(rows)))
        except ValueError:
            pass
    if ids is None or (ids and min(ids) < 0) or any(map(eq, ids[::2], ids[1::2])):
        _raise_first_bad_line(text)
    edges = frozenset(
        [(u, v) if u < v else (v, u) for u, v in zip(ids[::2], ids[1::2])]
    )

    seen_ids = set(ids)
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
    return n, edges


def _raise_first_bad_line(text: str) -> NoReturn:
    """Raise the error of the first line that fails a check of
    parse_edge_pairs, naming its line number."""
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
    raise AssertionError("a bulk edge-list check failed on no line")


def write_edge_list(g: Graph) -> str:
    """Render one "u v" pair per line, u < v, ascending, newline-terminated."""
    return "".join(f"{u} {v}\n" for u, v in g.sorted_edges())


# numpy.random.default_rng(seed)'s draws, ported bit for bit so drawing
# needs no numpy: SeedSequence (numpy's entropy mixing) turns the seed's
# 32-bit words into 4 x u64, which seed PCG64, the XSL-RR 128/64 member of
# O'Neill's PCG family (HMC-CS-2014-0905).
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


class SeededStream:
    """The stream of numpy.random.default_rng(seed): random() and
    uniform() give the same doubles, bit for bit, as the Generator's
    methods of those names, and successive calls continue one stream.

    seed is an int >= 0 or a sequence of them; anything else is a
    DomainError. Each draw is about 1 us of Python integer arithmetic.
    """

    __slots__ = ("_state", "_inc")

    def __init__(self, seed):
        words = _seed_words(seed)
        pool = _mix_entropy(words)
        # SeedSequence.generate_state(4, uint64): 8 hashed words read as 4
        # little-endian u64, which give the 128-bit seed and stream
        hash_const = 0x8B51F9DD
        out = []
        for i in range(8):
            value = pool[i % 4] ^ hash_const
            hash_const = hash_const * 0x58F38DED & _MASK32
            value = value * hash_const & _MASK32
            out.append(value ^ value >> 16)
        s0, s1, s2, s3 = (out[i] | out[i + 1] << 32 for i in range(0, 8, 2))
        # pcg64_set_seed: inc = 2 * seq + 1, then step, add the seed, step
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        state = (self._inc + (s0 << 64 | s1)) & _MASK128
        self._state = (state * _PCG_MULTIPLIER + self._inc) & _MASK128

    def random(self, size: int) -> list[float]:
        """size draws from [0, 1): the top 53 bits of each u64 times 2**-53."""
        state, inc = self._state, self._inc
        out = [0.0] * size
        for i in range(size):
            # step, then XSL-RR output: rotate hi ^ lo right by state >> 122
            state = (state * _PCG_MULTIPLIER + inc) & _MASK128
            x = ((state >> 64) ^ state) & _MASK64
            r = state >> 122
            out[i] = (((x >> r | x << (64 - r)) & _MASK64) >> 11) * 2.0**-53
        self._state = state
        return out

    def uniform(self, lo: float, hi: float, size: int) -> list[float]:
        """size draws from [lo, hi): lo + (hi - lo) * random()."""
        span = hi - lo
        return [lo + span * u for u in self.random(size)]


def _seed_words(seed) -> list[int]:
    """The 32-bit words SeedSequence assembles from seed: each int split
    low word first, 0 being one word. A seed that is not an int >= 0 or a
    sequence of them is a DomainError."""
    try:
        if isinstance(seed, (list, tuple, range)):
            values = list(map(index, seed))
        else:
            values = [index(seed)]
    except TypeError:
        values = None
    if values is None or any(v < 0 for v in values):
        raise DomainError(
            f"seed must be an integer >= 0 or a sequence of them, got {seed!r}"
        )
    words = []
    for v in values:
        words.append(v & _MASK32)
        while v := v >> 32:
            words.append(v & _MASK32)
    return words


def _mix_entropy(words: list[int]) -> list[int]:
    """SeedSequence's 4-word pool: hash the first 4 words in, mix every
    pool word into every other, then mix in each remaining word."""
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _gnp_edges(n: int, p: float, rng: SeededStream) -> set[tuple[int, int]]:
    # one draw per pair u < v, in row-major order
    draws = rng.random(n * (n - 1) // 2)
    return {pair for pair, x in zip(combinations(range(n), 2), draws) if x < p}


def generate_gnp_connected(n: int, p: float, seed) -> tuple[Graph, int]:
    """Draw G(n, p) samples until one is connected; each redraw continues
    the stream of SeededStream(seed).

    Returns (graph, redraw_count). Raises DomainError once the redraw cap is
    hit, since the requested regime then cannot supply connected samples.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"edge probability must be in [0, 1], got {p}")
    rng = SeededStream(seed)
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
