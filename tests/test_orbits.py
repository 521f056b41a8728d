import importlib.util
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import graphent.orbits as orbits
from graphent import (
    CapacityError,
    Graph,
    OrbitPartition,
    brute_force_orbits,
    cli,
    distance_matrix,
    generate_graph,
    vertex_orbits,
)


def _relabeled(g, seed):
    return g.relabel(np.random.default_rng(seed).permutation(g.n).tolist())


def _battery():
    graphs = []
    for n in range(3, 8):
        graphs.append(generate_graph("star", n))
        graphs.append(generate_graph("path", n))
        graphs.append(generate_graph("cycle", n))
        if n >= 4:
            graphs.append(generate_graph("wheel", n))
        graphs.append(generate_graph("complete", n))
    return graphs


class TestExamples:
    def test_star_two_orbits(self):
        part = vertex_orbits(generate_graph("star", 4))
        assert part.blocks == ((0,), (1, 2, 3))
        assert part.k == 2

    def test_path_6_pairs(self):
        part = vertex_orbits(generate_graph("path", 6))
        assert part.blocks == ((0, 5), (1, 4), (2, 3))

    def test_complete_single_block(self):
        part = vertex_orbits(generate_graph("complete", 4))
        assert part.blocks == ((0, 1, 2, 3),)

    def test_path_odd_center(self):
        part = vertex_orbits(generate_graph("path", 5))
        assert part.blocks == ((2,), (0, 4), (1, 3))

    def test_single_vertex(self):
        assert vertex_orbits(Graph.from_edges(1, [])).blocks == ((0,),)

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            vertex_orbits(Graph.from_edges(65, []))


class TestBruteForce:
    def test_cycle_4_transitive(self):
        part = brute_force_orbits(generate_graph("cycle", 4))
        assert part.blocks == ((0, 1, 2, 3),)

    def test_path_4(self):
        part = brute_force_orbits(generate_graph("path", 4))
        assert part.blocks == ((0, 3), (1, 2))

    def test_single_vertex(self):
        assert brute_force_orbits(Graph.from_edges(1, [])).blocks == ((0,),)

    def test_cap(self):
        with pytest.raises(CapacityError):
            brute_force_orbits(Graph.from_edges(9, []))


class TestAgainstOracle:
    def test_battery(self):
        for g in _battery():
            assert vertex_orbits(g).blocks == brute_force_orbits(g).blocks

    def test_relabeled_battery(self):
        for i, g in enumerate(_battery()):
            for seed in range(3):
                h = _relabeled(g, 100 * i + seed)
                assert vertex_orbits(h).blocks == brute_force_orbits(h).blocks

    def test_cell_holding_two_orbits(self):
        # C_3 + C_4: every vertex has degree 2, so refinement leaves one cell
        # and the search must split it into both orbits
        g = Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
        for seed in range(6):
            h = _relabeled(g, seed)
            assert vertex_orbits(h).blocks == brute_force_orbits(h).blocks
            assert vertex_orbits(h).sizes == (3, 4)

    def test_random_connected(self):
        rng = np.random.default_rng(99)
        for i in range(40):
            n = int(rng.integers(3, 8))
            g = generate_graph("gnp", n, p=float(rng.uniform(0.3, 0.9)), seed=1000 + i)
            assert vertex_orbits(g).blocks == brute_force_orbits(g).blocks

    def test_disconnected(self):
        g = Graph.from_edges(4, [(0, 1)])
        assert vertex_orbits(g).blocks == brute_force_orbits(g).blocks

    def test_two_isolated_vertices_swap(self):
        assert vertex_orbits(Graph.from_edges(2, [])).blocks == ((0, 1),)


class TestProperties:
    def test_relabel_equivariance(self):
        rng = np.random.default_rng(7)
        g = generate_graph("gnp", 9, p=0.4, seed=21)
        base = vertex_orbits(g)
        for _ in range(5):
            perm = list(rng.permutation(g.n))
            mapped = sorted(
                tuple(sorted(perm[v] for v in block)) for block in base.blocks
            )
            got = sorted(vertex_orbits(g.relabel(perm)).blocks)
            assert got == mapped

    def test_wheel_orbit_profile(self):
        for n in range(5, 10):
            part = vertex_orbits(generate_graph("wheel", n))
            assert part.sizes == (1, n - 1)

    def test_wheel_4_collapses_to_k4(self):
        assert vertex_orbits(generate_graph("wheel", 4)).sizes == (4,)

    def test_blocks_share_degree_and_distance_multiset(self):
        for seed in range(6):
            g = generate_graph("gnp", 10, p=0.4, seed=seed)
            d = distance_matrix(g)
            for block in vertex_orbits(g).blocks:
                degs = {g.degree(v) for v in block}
                assert len(degs) == 1
                rows = {
                    tuple(sorted(x for i, x in enumerate(d.rows[v]) if i != v))
                    for v in block
                }
                assert len(rows) == 1

    def test_blocks_cover_and_sorted(self):
        g = generate_graph("gnp", 12, p=0.3, seed=4)
        part = vertex_orbits(g)
        members = [v for block in part.blocks for v in block]
        assert sorted(members) == list(range(g.n))
        assert list(part.blocks) == sorted(
            part.blocks, key=lambda b: (len(b), b[0])
        )


class TestHardSymmetricGraphs:
    """Regular graphs where refinement alone cannot split anything, so the
    backtracking confirmation carries the whole answer."""

    def test_petersen_transitive(self):
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, 5 + i) for i in range(5)]
        g = Graph.from_edges(10, outer + inner + spokes)
        assert vertex_orbits(g).sizes == (10,)

    def test_rook_4x4_transitive(self):
        edges = []
        for r in range(4):
            for c in range(4):
                v = 4 * r + c
                edges += [(v, 4 * r + c2) for c2 in range(c + 1, 4)]
                edges += [(v, 4 * r2 + c) for r2 in range(r + 1, 4)]
        assert vertex_orbits(Graph.from_edges(16, edges)).sizes == (16,)

    def test_complete_bipartite(self):
        k44 = Graph.from_edges(8, [(i, 4 + j) for i in range(4) for j in range(4)])
        assert vertex_orbits(k44).blocks == brute_force_orbits(k44).blocks
        k35 = Graph.from_edges(8, [(i, 3 + j) for i in range(3) for j in range(5)])
        assert vertex_orbits(k35).sizes == (3, 5)

    def test_hypercube_q4_transitive(self):
        edges = [
            (u, u ^ (1 << b))
            for u in range(16)
            for b in range(4)
            if u < u ^ (1 << b)
        ]
        assert vertex_orbits(Graph.from_edges(16, edges)).sizes == (16,)

    def test_envelope_sizes(self):
        assert vertex_orbits(generate_graph("cycle", 64)).sizes == (64,)
        assert vertex_orbits(generate_graph("complete", 64)).sizes == (64,)
        assert vertex_orbits(generate_graph("wheel", 64)).sizes == (1, 63)
        assert vertex_orbits(generate_graph("path", 64)).k == 32


def _hypercube(d):
    n = 1 << d
    return Graph.from_edges(
        n, [(u, u ^ (1 << b)) for u in range(n) for b in range(d) if u < u ^ (1 << b)]
    )


def _torus(a, b):
    def vid(i, j):
        return (i % a) * b + (j % b)

    return Graph.from_edges(
        a * b,
        [(vid(i, j), vid(i + di, j + dj))
         for i in range(a) for j in range(b) for di, dj in ((1, 0), (0, 1))],
    )


def _kneser(n, k):
    verts = [set(s) for s in combinations(range(n), k)]
    return Graph.from_edges(
        len(verts),
        [(i, j) for i, j in combinations(range(len(verts)), 2)
         if not verts[i] & verts[j]],
    )


# Edge sets of K_8 that Seidel-switch the triangular graph T(8) into the
# three Chang graphs: a perfect matching, C_3 + C_5, and C_8.
_CHANG_SWITCH = (
    ((0, 1), (2, 3), (4, 5), (6, 7)),
    ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)),
    ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7)),
)


def _chang(index):
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


class TestRelabeledSymmetricGraphs:
    """Orbit sizes do not depend on the labeling. In a random labeling these
    graphs defeated a search that placed vertices in index order."""

    @pytest.mark.parametrize(
        "build, sizes",
        [
            (lambda: generate_graph("cycle", 28), (28,)),
            (lambda: _hypercube(6), (64,)),
            (lambda: _hypercube(5), (32,)),
            (lambda: _torus(5, 5), (25,)),
            (lambda: _kneser(7, 3), (35,)),
            (lambda: _kneser(8, 3), (56,)),
            # not vertex-transitive: the switching set's stabilizer in S_8
            # fixes the orbits, and K_4 counts per vertex tell them apart
            (lambda: _chang(0), (4, 24)),
            (lambda: _chang(1), (10, 18)),
            (lambda: _chang(2), (4, 24)),
            (lambda: generate_graph("wheel", 20), (1, 19)),
        ],
        ids=[
            "cycle_28", "hypercube_6", "hypercube_5", "torus_5x5", "kneser_7x3",
            "kneser_8x3", "chang_0", "chang_1", "chang_2", "wheel_20",
        ],
    )
    def test_sizes_in_six_labelings(self, build, sizes):
        g = build()
        for seed in range(6):
            assert vertex_orbits(_relabeled(g, seed)).sizes == sizes


def _rebuilt(part):
    """part, after checking that the public OrbitPartition(...) accepts its
    blocks, equal, and that they are sorted and ordered by (size, first
    member): vertex_orbits builds its partition without that check."""
    assert OrbitPartition(part.blocks) == part
    assert all(list(b) == sorted(b) for b in part.blocks)
    assert list(part.blocks) == sorted(part.blocks, key=lambda b: (len(b), b[0]))
    return part


class TestPartitionInvariant:
    def test_relabeled_battery(self):
        for i, g in enumerate(_battery()):
            for seed in range(3):
                _rebuilt(vertex_orbits(_relabeled(g, 100 * i + seed)))

    def test_random_connected(self):
        rng = np.random.default_rng(2024)
        for i in range(40):
            n = int(rng.integers(3, 8))
            g = generate_graph("gnp", n, p=float(rng.uniform(0.3, 0.9)), seed=3000 + i)
            assert _rebuilt(vertex_orbits(g)).blocks == brute_force_orbits(g).blocks

    def test_cell_holding_two_orbits(self):
        g = Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
        for seed in range(6):
            assert _rebuilt(vertex_orbits(_relabeled(g, seed))).sizes == (3, 4)

    @pytest.mark.parametrize(
        "g, sizes",
        [(generate_graph("complete", 48), (48,)), (_hypercube(6), (64,))],
        ids=["complete_48", "hypercube_6"],
    )
    def test_relabeled_large_transitive(self, g, sizes):
        for seed in range(3):
            assert _rebuilt(vertex_orbits(_relabeled(g, seed))).sizes == sizes


def _threshold(steps):
    """Add vertices in order, each isolated ('i') or dominating ('d'); runs
    of one kind are false ('i') or true ('d') twins."""
    edges = [(u, v) for v, kind in enumerate(steps) if kind == "d" for u in range(v)]
    return Graph.from_edges(len(steps), edges)


class TestTwins:
    def test_every_labeled_graph_up_to_5_vertices(self):
        # 1 + 2 + 8 + 64 + 1024 = 1,099 graphs, disconnected ones included
        count = 0
        for n in range(1, 6):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
                assert vertex_orbits(g).blocks == brute_force_orbits(g).blocks
                count += 1
        assert count == 1099

    def test_twin_classes_need_no_search(self, monkeypatch):
        monkeypatch.setattr(orbits, "ORBIT_NODE_BUDGET", 0)
        assert vertex_orbits(generate_graph("complete", 64)).blocks == (tuple(range(64)),)
        assert vertex_orbits(generate_graph("star", 40)).blocks == (
            (0,), tuple(range(1, 40)),
        )
        k10_20 = Graph.from_edges(30, [(i, 10 + j) for i in range(10) for j in range(20)])
        assert vertex_orbits(k10_20).blocks == (tuple(range(10)), tuple(range(10, 30)))

    @pytest.mark.parametrize(
        "g",
        [
            _threshold("iidiiddi"),
            _threshold("iiiddd"),
            _threshold("ididid"),
            # K_{2,2,2}: three false-twin pairs, joined by the search
            Graph.from_edges(6, [(u, v) for u, v in combinations(range(6), 2) if u // 2 != v // 2]),
            # K_3 joined to 3 K_1: a true-twin and a false-twin class
            Graph.from_edges(6, [(u, v) for u, v in combinations(range(6), 2) if u < 3]),
            # K_2 + 2 K_1 + P_3: twins in several components
            Graph.from_edges(7, [(0, 1), (4, 5), (5, 6)]),
        ],
        ids=["threshold_8", "threshold_6", "threshold_alt", "k222", "k3_join_3k1", "mixed"],
    )
    def test_relabeled_twin_graphs(self, g):
        for seed in range(6):
            h = _relabeled(g, seed)
            assert vertex_orbits(h).blocks == brute_force_orbits(h).blocks


def _complement(g):
    return Graph.from_edges(
        g.n, [e for e in combinations(range(g.n), 2) if e not in g.edges]
    )


class TestDenseGraphs:
    """A graph with more than half of all pairs as edges is searched on its
    complement, which has the same automorphisms."""

    def test_dense_gnp_draw_gets_exact_orbits(self):
        # searched on the graph itself, this draw ran past the node budget
        g = generate_graph("gnp", 20, p=0.95, seed=8)
        assert vertex_orbits(g).sizes == (2, 2, 2, 4, 10)

    def test_graph_and_complement_match_the_oracle(self):
        rng = np.random.default_rng(20261019)
        for n in range(1, 9):
            for _ in range(6):
                p = float(rng.uniform(0.6, 1.0))
                g = Graph.from_edges(
                    n, [e for e in combinations(range(n), 2) if rng.random() < p]
                )
                want = brute_force_orbits(g).blocks
                assert vertex_orbits(g).blocks == want, sorted(g.edges)
                assert vertex_orbits(_complement(g)).blocks == want, sorted(g.edges)

    def test_twin_resolved_dense_graphs_build_no_complement(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a complement was built")

        monkeypatch.setattr(orbits, "_searched_graph", refuse)
        assert vertex_orbits(generate_graph("complete", 64)).sizes == (64,)
        k6_9 = Graph.from_edges(15, [(i, 6 + j) for i in range(6) for j in range(9)])
        assert vertex_orbits(k6_9).sizes == (6, 9)


class TestNodeBudget:
    def test_over_budget_names_the_node_count(self, monkeypatch):
        monkeypatch.setattr(orbits, "ORBIT_NODE_BUDGET", 3)
        with pytest.raises(CapacityError, match="after 4 search nodes"):
            vertex_orbits(generate_graph("cycle", 6))

    @pytest.mark.parametrize("budget", [1, 5, 12])
    def test_paley_over_budget_names_count_and_budget(self, monkeypatch, budget):
        # P_13 is vertex-transitive, so its first search finds an
        # automorphism, placing all 13 vertices
        monkeypatch.setattr(orbits, "ORBIT_NODE_BUDGET", budget)
        g = _perfbench_instances().build("paley_13")
        with pytest.raises(CapacityError) as info:
            vertex_orbits(g)
        assert str(info.value) == (
            f"exact orbit search gave up after {budget + 1} search nodes "
            f"(budget {budget})"
        )

    def test_compute_over_budget_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(orbits, "ORBIT_NODE_BUDGET", 3)
        edges = "".join(f"{i} {(i + 1) % 6}\n" for i in range(6))
        code, out = cli.dispatch(["compute", "--dist", "orbits"], stdin=edges)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("graphent: ") and err.count("\n") == 1
        assert "search nodes" in err


def _perfbench_instances():
    """perfbench/instances.py, which builds the benchmark's graph families."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "instances.py"
    spec = importlib.util.spec_from_file_location("perfbench_instances", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cellbits(g):
    """The refined cells' bitmasks, per vertex, as vertex_orbits builds them."""
    colors = orbits._refine(g, [g.degree(v) for v in range(g.n)])
    return [sum(1 << w for w in range(g.n) if colors[w] == colors[v]) for v in range(g.n)]


def _one_refinement_pass(g, colors):
    """One pass of the neighbor-class multiset refinement loop."""
    return orbits._compress(
        [(colors[v], tuple(sorted(colors[x] for x in nbrs)))
         for v, nbrs in enumerate(g.adjacency)]
    )


def _reference_order(g, src, cellbits):
    """The documented rule, step by step: src, then the unplaced vertex that
    minimizes (-placed neighbors, cell size, index)."""
    order, placed = [src], {src}
    while len(order) < g.n:
        w = min(
            (v for v in range(g.n) if v not in placed),
            key=lambda v: (
                -sum(x in placed for x in g.neighbors(v)),
                bin(cellbits[v]).count("1"),
                v,
            ),
        )
        order.append(w)
        placed.add(w)
    return order


def _reference_search(g, adjbits, cellbits, order, dst):
    """The search as a recursion that ORs each placed vertex's image bit
    into every neighbor's mask and clears it on backtrack: (sigma or None,
    search nodes visited)."""
    n = g.n
    adjacency = g.adjacency
    image = [-1] * n
    mapped_nbr_bits = [0] * n
    used_mask = 0
    nodes = 0

    def extend(pos):
        nonlocal used_mask, nodes
        if pos == n:
            return True
        w = order[pos]
        nbrs = adjacency[w]
        want = mapped_nbr_bits[w]
        free = cellbits[w] & ~used_mask if pos else 1 << dst
        if want:
            free &= adjbits[want.bit_length() - 1]
        while free:
            bit = free & -free
            free ^= bit
            c = bit.bit_length() - 1
            if adjbits[c] & used_mask != want:
                continue
            nodes += 1
            image[w] = c
            used_mask |= bit
            for x in nbrs:
                mapped_nbr_bits[x] |= bit
            if extend(pos + 1):
                return True
            used_mask &= ~bit
            for x in nbrs:
                mapped_nbr_bits[x] &= ~bit
        return False

    return (image if extend(0) else None), nodes


def _random_graphs():
    rng = np.random.default_rng(20241018)
    for n in [1, 2, 3, 5, 8, 13, 21, 34, 64]:
        for p in (0.1, 0.3, 0.6):
            pairs = combinations(range(n), 2)
            yield Graph.from_edges(n, [e for e in pairs if rng.random() < p])


BENCHMARK_FAMILIES = [
    "cycle_20", "wheel_16", "star_12", "path_9", "complete_16", "torus_4x6",
    "hypercube_5", "paley_29", "johnson_6x3", "kneser_7x3", "chang_0",
    "chang_1", "chang_2", "kab_4x7",
]


class TestSearchOrder:
    """Equal orders mean the search visits the same nodes and finds the same
    generators."""

    @staticmethod
    def _assert_every_source(g):
        cellbits = _cellbits(g)
        for src in range(g.n):
            assert orbits._search_order(g, src, cellbits) == _reference_order(g, src, cellbits)

    def test_random_graphs(self):
        for g in _random_graphs():
            self._assert_every_source(g)

    @pytest.mark.parametrize("name", BENCHMARK_FAMILIES)
    def test_benchmark_families(self, name):
        g = _perfbench_instances().build(name)
        for seed in range(3):
            self._assert_every_source(_relabeled(g, seed))


class TestSearch:
    """The search loop finds the same automorphism after the same number of
    nodes as the reference recursion, from every representative to every
    destination in its cell, on the graph vertex_orbits searches."""

    @staticmethod
    def _assert_every_pair(g):
        cellbits = _cellbits(g)
        adjbits = [sum(1 << x for x in nbrs) for nbrs in g.adjacency]
        searched, bits = orbits._searched_graph(g, adjbits)
        for src in range(g.n):
            order = orbits._search_order(searched, src, cellbits)
            placed = orbits._placed_neighbors(searched, order)
            for dst in range(g.n):
                if cellbits[src] >> dst & 1:
                    got = orbits._find_automorphism(bits, cellbits, order, placed, dst, 0)
                    assert got == _reference_search(searched, bits, cellbits, order, dst)

    def test_random_graphs(self):
        for g in _random_graphs():
            self._assert_every_pair(g)

    @pytest.mark.parametrize("name", BENCHMARK_FAMILIES)
    def test_benchmark_families(self, name):
        g = _perfbench_instances().build(name)
        for seed in range(3):
            self._assert_every_pair(_relabeled(g, seed))


class TestRefine:
    @pytest.mark.parametrize(
        "name",
        ["cycle_20", "complete_16", "torus_4x6", "hypercube_5", "paley_29",
         "johnson_6x3", "kneser_7x3", "chang_2"],
    )
    def test_regular_graph_is_one_pass_of_the_loop(self, name):
        g = _perfbench_instances().build(name)
        degrees = [g.degree(v) for v in range(g.n)]
        assert len(set(degrees)) == 1
        assert orbits._refine(g, degrees) == _one_refinement_pass(g, degrees) == [0] * g.n
