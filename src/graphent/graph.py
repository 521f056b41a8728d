"""Simple undirected graphs: parsing, generators, seeded draws, BFS distances,
j-spheres.

Vertices are dense integers 0..n-1. Graphs are immutable after construction
and safe to share across threads. A graph checks its edges when built but
makes its n neighbor lists on first use, so each operation checks its own
domain (the orbit cap, connectivity) in O(m) before anything sized by n
exists. Distances use an explicit ``UNREACHABLE`` sentinel (never a large
magic number) so the diameter cannot be silently corrupted by disconnected
pairs. Distances and j-sphere profiles are tuples of ints
(``DistanceData.rows`` and ``spheres``), and seeded draws come from
``SeededStream``, a stdlib port of numpy's generator, so nothing here loads
numpy.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import chain
from operator import eq, index, lt
from typing import Iterable, NoReturn, Sequence

from .errors import DomainError, ParseError, ValidationError

UNREACHABLE = -1

# Each graph class and the smallest n it is defined for.
GRAPH_CLASSES = {
    "star": 3, "path": 1, "cycle": 3, "wheel": 4, "complete": 1, "gnp": 1,
}

# The error of every operation that reads j-sphere profiles.
DISCONNECTED = "j-sphere profiles are undefined on disconnected graphs"

# Redraws allowed while rejecting disconnected G(n, p) samples.
GNP_MAX_REDRAWS = 1000


class _Record:
    """Equality, hash and repr over the attributes named in _fields, for
    records whose constructors validate or derive (Graph, DistanceData,
    FunctionalSpec, OrbitPartition) and so are not NamedTuples. They are
    immutable by convention: attributes are set once, in __init__."""

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


class _cached:
    """A value computed on the first read of an attribute and then kept in
    the instance's __dict__, where later reads find it without calling
    this descriptor: functools.cached_property without its per-attribute
    lock, which Python 3.10 and 3.11 take on every first read. The values
    kept are pure functions of immutable objects, so a race can only
    compute one twice. Once requires-python is >= 3.12, whose
    cached_property takes no lock, this can go."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class Graph(_Record):
    """Simple undirected graph on vertices 0..n-1.

    Construction checks every edge with one chained 0 <= u < v < n test;
    only when an edge fails does a second walk over the edges word the
    error of the first bad one. parse_edge_list and the orbit search's
    complement have checked their edges already and build through
    ``_checked``, which skips that test. The neighbor lists are built on
    the first read of ``adjacency``, so a graph with a huge n and few
    edges costs O(m) until an operation that needs them runs. Like the
    connectivity, they are a pure function of (n, edges), so a race can
    only build them twice. Those two builders may also hand over their
    pairs in the order they found them, each edge once (parse_edge_list's
    two id lists in text order, when its text repeats no pair): the
    neighbor lists are built from those and the pairs dropped, which is
    about twice as fast as walking the edge frozenset in hash order. The
    pairs are kept outside ``_fields``, so equality, hash and repr do not
    see them.
    """

    _fields = ("n", "edges")

    def __init__(self, n: int, edges: frozenset[tuple[int, int]]):
        if n < 0:
            raise ValidationError(f"vertex count must be >= 0, got {n}")
        self.n = n
        self.edges = edges
        for u, v in edges:
            if not 0 <= u < v < n:
                self._raise_first_bad_edge()

    @classmethod
    def _checked(
        cls, n: int, edges: frozenset[tuple[int, int]],
        pairs: Iterable[tuple[int, int]] | None = None,
    ) -> "Graph":
        """The graph on edges its caller has shown to satisfy 0 <= u < v < n.

        ``pairs``, when given, yields each edge exactly once, in either
        orientation; the first read of ``adjacency`` consumes it instead
        of walking ``edges``.
        """
        g = cls.__new__(cls)
        g.n, g.edges = n, edges
        if pairs is not None:
            g._pairs = pairs
        return g

    @_cached
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuples, one per vertex."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.__dict__.pop("_pairs", self.edges):
            nbrs[u].append(v)
            nbrs[v].append(u)
        for a in nbrs:
            a.sort()
        return tuple(map(tuple, nbrs))

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
        """Build a graph, normalizing pair order and collapsing duplicates.

        Each edge is a pair of integer ids, ints or numpy integers (taken
        through operator.index); any other edge is a ValidationError that
        names it.
        """
        edges = list(edges)
        try:
            pairs = [
                (u, v) if u < v else (v, u)
                for u, v in ((index(a), index(b)) for a, b in edges)
            ]
        except (TypeError, ValueError):
            _raise_first_bad_pair(edges)
        return cls(n=n, edges=frozenset(pairs))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def is_connected(self) -> bool:
        return self._connected

    @_cached
    def _connected(self) -> bool:
        """One BFS per graph; the graph is immutable, so the answer is kept.
        Fewer than n - 1 edges connect no n vertices, so such a graph is
        answered without a BFS, and without its neighbor lists."""
        if self.n > len(self.edges) + 1:
            return False
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

    @_cached
    def spheres(self) -> tuple[tuple[int, ...], ...]:
        """j-sphere profiles: entry [v][j-1] = |S_j(v)| for j = 1..eta,
        zero-padded up to the diameter. Built once per DistanceData, so
        every functional on one graph reads the same profiles."""
        radii = range(1, self.eta + 1)
        return tuple(tuple(map(row.count, radii)) for row in self.rows)


def _raise_first_bad_pair(edges: list) -> NoReturn:
    """Raise the error of the first edge of Graph.from_edges that is not a
    pair of integer ids."""
    for e in edges:
        try:
            a, b = e
            index(a), index(b)
        except (TypeError, ValueError):
            raise ValidationError(
                f"edge {e!r} is not a pair of integer vertex ids"
            ) from None
    raise AssertionError("an edge conversion failed on no edge")


def parse_edge_list(text: str, n: int | None = None) -> Graph:
    """Parse whitespace-separated "u v" lines into a Graph.

    Lines whose first token starts with '#' and blank lines are ignored;
    duplicate edges collapse. Without an explicit ``n`` the vertex count is
    1 + max id and the id set must be dense (gaps rejected); with ``n``
    given, ids only need to stay below it, and a huge n costs nothing until
    an operation reads the graph's neighbor lists.

    Text in write_edge_list's shape (no '#', and equal to its tokens
    joined two to a line by one space, each line ended by a newline) is
    split with one ``str.split`` of the whole text; any other text is split
    line by line, its comment and blank lines dropped. Either way the
    tokens are checked in bulk: each distinct id token goes through
    ``int`` once and every token is mapped through the resulting dict, and
    negative ids and self-loops are found with builtins over all pairs.
    Only when a bulk check fails does a walk over the lines run, to raise
    the error of the first bad line with its line number. Those checks and
    the one against n establish 0 <= u < v < n for every edge, so the
    Graph is built without walking its edges again; when every pair is
    already (min, max) the edges are the pairs themselves. When no pair
    repeats, the Graph is handed the two id lists in text order, and its
    neighbor lists are built from them on first use.
    """
    tokens = text.split()
    if "#" in text or text != "\n".join(
        map(" ".join, zip(tokens[::2], tokens[1::2]))
    ) + "\n":
        rows = map(str.split, text.splitlines())
        if "#" in text:
            rows = [r for r in rows if r and r[0][0] != "#"]
        else:
            rows = list(filter(None, rows))
        tokens = None
        if all(len(r) == 2 for r in rows):
            tokens = list(chain.from_iterable(rows))
    ids = None
    if tokens is not None:
        try:
            id_of = {t: int(t) for t in set(tokens)}
            ids = list(map(id_of.__getitem__, tokens))
            seen_ids = set(id_of.values())
        except ValueError:
            pass
    if ids is None or (ids and min(seen_ids) < 0):
        _raise_first_bad_line(text)
    us, vs = ids[::2], ids[1::2]
    if any(map(eq, us, vs)):
        _raise_first_bad_line(text)
    if all(map(lt, us, vs)):
        edges = frozenset(zip(us, vs))
    else:
        edges = frozenset([(u, v) if u < v else (v, u) for u, v in zip(us, vs)])

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
    return Graph._checked(n, edges, zip(us, vs) if len(edges) == len(us) else None)


def _raise_first_bad_line(text: str) -> NoReturn:
    """Raise the error of the first line that fails a bulk check of
    parse_edge_list, naming its line number."""
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
    DomainError. Each draw is about 1 us of Python integer arithmetic; a
    small bounded cache keeps the mix of a seed's first 4 words per head.
    """

    __slots__ = ("_state", "_inc")

    def __init__(self, seed):
        words = _seed_words(seed)
        # SeedSequence's pool: the head's, then each later word mixed in
        *pool, const = _head_pool(tuple(words[:4]))
        for word in words[4:]:
            for dst in range(4):
                x = word ^ const
                const = const * 0x931E8875 & _MASK32
                x = x * const & _MASK32
                mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * (x ^ x >> 16) & _MASK32
                pool[dst] = mixed ^ mixed >> 16
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


@lru_cache(maxsize=64)
def _head_pool(head: tuple[int, ...]) -> tuple[int, ...]:
    """SeedSequence's 4 pool words, then the hash constant, once the first 4
    words (zero-padded) are hashed in and each pool word mixed into the rest.

    A hash xors its value with the hash constant, steps the constant and
    multiplies by it, so the constants depend on the count of hashes only
    and the last one carries on into mixing the later words; mixing a hash
    x into a pool word is inline too.
    """
    const, pool = 0x43B0D7E5, []
    for word in (head + (0, 0, 0, 0))[:4]:
        x = word ^ const
        const = const * 0x931E8875 & _MASK32
        x = x * const & _MASK32
        pool.append(x ^ x >> 16)
    for src, dst in _POOL_PAIRS:
        x = pool[src] ^ const
        const = const * 0x931E8875 & _MASK32
        x = x * const & _MASK32
        mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * (x ^ x >> 16) & _MASK32
        pool[dst] = mixed ^ mixed >> 16
    return (*pool, const)


_POOL_PAIRS = tuple((src, dst) for src in range(4) for dst in range(4) if src != dst)


def _gnp_edges(n: int, p: float, rng: SeededStream) -> set[tuple[int, int]]:
    # one draw per pair u < v, in row-major order, drawn a row at a time so
    # memory scales with the edges kept, not with the n(n-1)/2 pairs
    return {
        (u, v)
        for u in range(n - 1)
        for v, x in zip(range(u + 1, n), rng.random(n - 1 - u))
        if x < p
    }


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
    """Construct one of the supported graph classes, on at least the n
    that GRAPH_CLASSES gives for it.

    star: center 0 joined to n-1 leaves.
    path: edges (i, i+1).
    cycle: path plus closing edge.
    wheel: hub 0 joined to every vertex of a cycle on 1..n-1.
    complete: all pairs.
    gnp: connected Erdos-Renyi sample, reproducible from seed.
    """
    if kind not in GRAPH_CLASSES:
        raise DomainError(f"unknown graph class {kind!r}")
    if n < GRAPH_CLASSES[kind]:
        raise DomainError(f"{kind} requires n >= {GRAPH_CLASSES[kind]}, got {n}")

    if kind == "star":
        return Graph.from_edges(n, ((0, i) for i in range(1, n)))
    if kind == "path":
        return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))
    if kind == "cycle":
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
        return Graph.from_edges(n, edges)
    if kind == "wheel":
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
