import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import straightline as sl
from graphent import (
    UNREACHABLE,
    DomainError,
    GraphEntropyError,
    Graph,
    ParseError,
    ValidationError,
    distance_matrix,
    generate_graph,
    parse_edge_list,
    write_edge_list,
)
from graphent.graph import DISCONNECTED, SeededStream, _gnp_edges, generate_gnp_connected
from graphent.measures import FunctionalSpec, functional_values


def floyd_warshall(g):
    """Naive all-pairs oracle for small graphs."""
    inf = float("inf")
    n = g.n
    d = [[0.0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in g.edges:
        d[u][v] = d[v][u] = 1.0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


class TestParse:
    def test_star_from_text(self):
        g = parse_edge_list("0 1\n0 2\n0 3\n")
        assert g.n == 4
        assert g.edges == frozenset({(0, 1), (0, 2), (0, 3)})

    def test_empty_input_gives_empty_graph(self):
        g = parse_edge_list("")
        assert g.n == 0 and g.m == 0

    def test_duplicate_and_comment_collapse(self):
        g = parse_edge_list("0 1\n1 0\n# c\n")
        assert g.n == 2
        assert g.edges == frozenset({(0, 1)})

    def test_malformed_token_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("0 1\n0 x\n")

    def test_wrong_arity_reports_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list("0 1 2\n")

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            parse_edge_list("3 3\n")

    def test_id_gaps_rejected_without_n(self):
        with pytest.raises(ValidationError, match="gaps"):
            parse_edge_list("0 1\n0 3\n")

    def test_explicit_n_allows_isolated_vertices(self):
        g = parse_edge_list("0 2\n", n=4)
        assert g.n == 4
        assert g.degree(1) == 0 and g.degree(3) == 0

    def test_explicit_n_below_ids_rejected(self):
        with pytest.raises(ValidationError):
            parse_edge_list("0 5\n", n=3)

    @pytest.mark.parametrize(
        "text, n, pairs",
        [
            ("  # indented comment\n0 1\n\t# tab comment\n1 2\n", None, [(0, 1), (1, 2)]),
            ("0\t1\n\t2 1\t\n", None, [(0, 1), (2, 1)]),
            ("0 1\r\n1 2\r\n\r\n2 0\r\n", None, [(0, 1), (1, 2), (2, 0)]),
            ("0 1\n1 0\n2 1\n1 2\n", None, [(0, 1), (1, 0), (2, 1), (1, 2)]),
            ("3 1\n", 6, [(3, 1)]),
            ("0 4\n4 2\n", 5, [(0, 4), (4, 2)]),
            ("", 3, []),
        ],
        ids=["comments", "tabs", "crlf", "duplicates", "n_override", "id_gaps", "empty_n"],
    )
    def test_parse_equals_from_edges(self, text, n, pairs):
        g = parse_edge_list(text, n=n)
        expected_n = n if n is not None else 1 + max(max(p) for p in pairs)
        assert g == Graph.from_edges(expected_n, pairs)

    @pytest.mark.parametrize(
        "text, n, error, message, line",
        [
            ("0 1\r\n1 x\r\n", None, ParseError,
             "line 2: malformed vertex id in '1 x'", 2),
            ("  # c\n0 1 2\n", None, ParseError,
             "line 2: expected two vertex ids, got '0 1 2'", 2),
            ("0 1\n\t-1 2\n", None, ParseError,
             "line 2: negative vertex id in '-1 2'", 2),
            ("# a\n0\t1\n  2 2  \n", None, ValidationError,
             "line 3: self-loop at vertex 2", None),
            ("0 1\n1 0\n0 3\n", None, ValidationError,
             "vertex ids have gaps (1 missing, first [2]); pass n explicitly "
             "to allow isolated vertices", None),
            ("0 1\n0 4\n0 9\n", None, ValidationError,
             "vertex ids have gaps (6 missing, first [2, 3, 5]); pass n "
             "explicitly to allow isolated vertices", None),
            ("0 1\n1 0\n0 5\n", 3, ValidationError,
             "n=3 is below 1 + max vertex id (5)", None),
        ],
        ids=["crlf_token", "arity", "negative", "self_loop", "gap", "gaps", "n_below"],
    )
    def test_error_messages_and_lines(self, text, n, error, message, line):
        with pytest.raises(error) as info:
            parse_edge_list(text, n=n)
        assert type(info.value) is error and str(info.value) == message
        assert getattr(info.value, "line", None) == line

    def test_writer_round_trip(self):
        g = generate_graph("wheel", 6)
        assert parse_edge_list(write_edge_list(g)).edges == g.edges

    def test_writer_ordering(self):
        g = Graph.from_edges(4, [(3, 1), (2, 0), (1, 0)])
        assert write_edge_list(g) == "0 1\n0 2\n1 3\n"


_SPACE = st.sampled_from(["", " ", "\t", "  ", " \t"])
_SEP = st.sampled_from([" ", "\t", "  ", " \t "])


def _spelled(draw, v):
    """v as a token, sometimes in another spelling that int() takes."""
    return draw(st.sampled_from([str(v), str(v), f"+{v}", f"0{v}", chr(0x0660 + v)]))


@st.composite
def _bad_line(draw):
    """A line that fails one check: one or three tokens, a negative id, a
    self-loop or a token int() rejects."""
    kind = draw(st.sampled_from(["one", "three", "negative", "loop", "token"]))
    u, v, w = (_spelled(draw, draw(st.integers(0, 9))) for _ in range(3))
    tokens = {
        "one": [u],
        "three": [u, v, w],
        "negative": [u, str(-draw(st.integers(1, 3)))],
        "loop": [u, u],
        "token": [u, draw(st.sampled_from(["x", "1.5", "0x1", "1e3", "--1"]))],
    }[kind]
    return draw(_SPACE) + draw(_SEP).join(draw(st.permutations(tokens))) + draw(_SPACE)


@st.composite
def _edge_list(draw):
    """(text, n): edge lines with comments, blank lines, tabs, duplicates
    in both orientations and LF or CRLF endings, sometimes with a few bad
    lines, and n absent, large enough, or drawn at random."""
    top = draw(st.integers(1, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, top), st.integers(0, top)), max_size=16))
    pairs = [(u, v) for u, v in pairs if u != v]
    pairs += [(v, u) for u, v in draw(st.lists(st.sampled_from(pairs), max_size=3))] if pairs else []
    lines = [
        draw(_SPACE) + draw(_SEP).join([_spelled(draw, u), _spelled(draw, v)]) + draw(_SPACE)
        for u, v in pairs
    ]
    extra = draw(st.lists(st.sampled_from(["", " ", "\t", "#", " # 0 1", "\t#c"]), max_size=3))
    if draw(st.booleans()):
        extra += draw(st.lists(_bad_line(), min_size=1, max_size=2))
    for line in extra:
        lines.insert(draw(st.integers(0, len(lines))), line)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + draw(st.sampled_from(["", eol]))
    max_id = max(map(max, pairs), default=-1)
    n = draw(st.one_of(
        st.none(), st.integers(max_id + 1, max_id + 4), st.integers(0, 12)
    ))
    return text, n


def _parsed(parse, text, n):
    """(n, edges, adjacency), or the error's type, message and line."""
    try:
        return parse(text, n)
    except GraphEntropyError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def _package_parse(text, n):
    g = parse_edge_list(text, n=n)
    return g.n, g.edges, g.adjacency


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_edge_list())
@example(case=("0 1\n1 2\n2 0\n", None))
@example(case=("  # c\r\n\t# t\r\n0\t1\r\n\r\n 1 2 \r\n", 5))
@example(case=("0 1\n1 0\n0 1\n2 1\n", None))
@example(case=("0 1\n0\n", None))
@example(case=("# a\n0 1 2\n", None))
@example(case=("0 1\n-1 2\n", None))
@example(case=("0 1\n\t3 3\n", None))
@example(case=("0 1\n1 x\n", None))
@example(case=("0 1\n0 4\n0 9\n", None))
@example(case=("0 5\n", 3))
def test_parse_matches_straightline_reference(case):
    """The bulk checks give the line loop's graph, or its first error with
    the same type, message and line number."""
    text, n = case
    assert _parsed(_package_parse, text, n) == _parsed(sl.sl_parse_edge_list, text, n)


class TestGenerators:
    def test_star(self):
        g = generate_graph("star", 4)
        assert g.m == 3
        assert all(0 in e for e in g.edges)

    def test_wheel_5(self):
        g = generate_graph("wheel", 5)
        assert g.m == 8
        assert g.degree(0) == 4
        assert all(g.degree(v) == 3 for v in range(1, 5))

    def test_wheel_4_is_complete(self):
        assert generate_graph("wheel", 4).edges == generate_graph("complete", 4).edges

    def test_path(self):
        g = generate_graph("path", 6)
        assert g.edges == frozenset((i, i + 1) for i in range(5))
        assert distance_matrix(g).eta == 5

    def test_cycle(self):
        g = generate_graph("cycle", 5)
        assert g.m == 5 and all(g.degree(v) == 2 for v in range(5))

    def test_class_n_mismatch(self):
        with pytest.raises(DomainError):
            generate_graph("star", 2)
        with pytest.raises(DomainError):
            generate_graph("wheel", 3)
        with pytest.raises(DomainError):
            generate_graph("nonsense", 5)

    def test_gnp_deterministic(self):
        a = generate_graph("gnp", 10, p=0.4, seed=123)
        b = generate_graph("gnp", 10, p=0.4, seed=123)
        assert a.edges == b.edges

    def test_gnp_connected(self):
        for seed in range(5):
            assert generate_graph("gnp", 8, p=0.3, seed=seed).is_connected()

    def test_gnp_p1_is_complete(self):
        g = generate_graph("gnp", 6, p=1.0, seed=0)
        assert g.m == 15

    def test_gnp_draws_follow_pair_order(self):
        # one uniform draw per pair u < v in row-major order, so corpora
        # stay reproducible across rewrites of the edge loop
        for n in range(0, 10):
            for p in (0.0, 0.3, 1.0):
                for seed in range(3):
                    draws = iter(np.random.default_rng(seed).random(n * (n - 1) // 2))
                    expect = {
                        (u, v) for u in range(n) for v in range(u + 1, n)
                        if next(draws) < p
                    }
                    got = _gnp_edges(n, p, np.random.default_rng(seed))
                    assert got == expect, (n, p, seed)

    def test_gnp_requires_params(self):
        with pytest.raises(DomainError):
            generate_graph("gnp", 5)

    @pytest.mark.parametrize(
        "seed", [-1, 1.5, [1, -2], [1, 2.0], "3", [[1, 2]], None, math.nan]
    )
    def test_gnp_bad_seed_is_domain_error(self, seed):
        with pytest.raises(DomainError, match="seed"):
            generate_graph("gnp", 5, p=0.5, seed=seed)
        with pytest.raises(DomainError, match="seed must be an integer >= 0"):
            generate_gnp_connected(5, 0.5, seed)


def _bits(values) -> list[int]:
    """The IEEE-754 bit patterns of values, so equal lists are bit-equal."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _kernel_seeds(count: int) -> list:
    """count seeds for SeededStream against numpy: edge values, then ints
    of up to 200 bits and lists of 1 to 6 such entries."""
    rng = np.random.default_rng(20260101)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 1, [], [0], [0, 0]]

    def entry():
        words = rng.integers(0, 2**32, size=7, dtype=np.uint64).tolist()
        value = sum(w << 32 * i for i, w in enumerate(words))
        return value >> (224 - int(rng.integers(0, 201)))

    while len(seeds) < count:
        if rng.random() < 0.5:
            seeds.append(entry())
        else:
            seeds.append([entry() for _ in range(int(rng.integers(1, 7)))])
    return seeds


class TestSeededStream:
    """SeededStream is numpy.random.default_rng(seed)'s stream, bit for
    bit; numpy is the oracle here and nowhere in the package."""

    SEEDS = _kernel_seeds(2400)

    def test_random_matches_numpy(self):
        for seed in self.SEEDS:
            k = 1 + len(str(seed)) % 9
            want = np.random.default_rng(seed).random(k)
            assert _bits(SeededStream(seed).random(k)) == _bits(want), seed

    def test_uniform_matches_numpy(self):
        rng = np.random.default_rng(5)
        for seed in self.SEEDS:
            lo = float(rng.uniform(1e-3, 10.0))
            hi = lo + float(rng.choice([0.0, rng.uniform(0.0, 1e3)]))
            want = np.random.default_rng(seed).uniform(lo, hi, size=6)
            assert _bits(SeededStream(seed).uniform(lo, hi, 6)) == _bits(want), seed

    def test_calls_continue_one_stream(self):
        for seed in self.SEEDS[:200]:
            ours, theirs = SeededStream(seed), np.random.default_rng(seed)
            for k in (0, 3, 1, 28, 7):
                assert _bits(ours.random(k)) == _bits(theirs.random(k)), seed
            assert _bits(ours.uniform(0.5, 2.0, 4)) == _bits(
                theirs.uniform(0.5, 2.0, size=4)
            ), seed

    def test_gnp_redraws_continue_numpys_stream(self):
        """generate_gnp_connected keeps drawing one stream across redraws,
        as a numpy Generator would."""
        redrawn = 0
        for t in range(40):
            seed, n, p = [7, 101, t], 12, 0.15
            rng, attempts = np.random.default_rng(seed), 0
            while True:
                g = Graph.from_edges(n, _gnp_edges(n, p, rng))
                if g.is_connected():
                    break
                attempts += 1
            got, drawn = generate_gnp_connected(n, p, seed)
            assert (got.edges, drawn) == (g.edges, attempts), seed
            redrawn += attempts > 0
        assert redrawn > 10


class TestDistances:
    def test_path_p4(self):
        g = generate_graph("path", 4)
        d = distance_matrix(g)
        assert d.rows[0][3] == 3
        assert d.eta == 3

    def test_star_s4(self):
        d = distance_matrix(generate_graph("star", 4))
        assert d.eta == 2
        assert d.rows[1][2] == 2

    def test_disconnected_sentinel(self):
        g = Graph.from_edges(2, [])
        d = distance_matrix(g)
        assert d.rows[0][1] == UNREACHABLE
        assert d.eta == 0

    def test_matches_floyd_warshall_oracle(self):
        rng = np.random.default_rng(5)
        graphs = [generate_graph(k, n) for k in ("star", "path", "cycle", "complete")
                  for n in (3, 5, 8) if not (k in ("star", "cycle") and n < 3)]
        graphs += [generate_graph("gnp", int(n), p=0.5, seed=int(s))
                   for n, s in zip(rng.integers(3, 9, 10), range(10))]
        for g in graphs:
            oracle = floyd_warshall(g)
            d = distance_matrix(g)
            for i in range(g.n):
                for j in range(g.n):
                    expected = oracle[i][j]
                    got = d.rows[i][j]
                    if expected == float("inf"):
                        assert got == UNREACHABLE
                    else:
                        assert got == expected

    def test_symmetry_zero_diagonal_triangle(self):
        g = generate_graph("gnp", 9, p=0.4, seed=11)
        d = distance_matrix(g).rows
        n = g.n
        assert all(d[i][j] == d[j][i] for i in range(n) for j in range(n))
        assert all(d[i][i] == 0 for i in range(n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert d[i][j] <= d[i][k] + d[k][j]

    def test_relabel_invariance(self):
        rng = np.random.default_rng(17)
        g = generate_graph("gnp", 8, p=0.4, seed=3)
        for _ in range(5):
            perm = list(rng.permutation(g.n))
            dg = distance_matrix(g).rows
            dh = distance_matrix(g.relabel(perm)).rows
            for u in range(g.n):
                for v in range(g.n):
                    assert dh[perm[u]][perm[v]] == dg[u][v]

    def test_empty_graph(self):
        d = distance_matrix(Graph.from_edges(0, []))
        assert d.rows == () and d.eta == 0


class TestSpheres:
    def test_profiles_count_each_distance(self):
        for seed in range(8):
            g = generate_graph("gnp", 9, p=0.35, seed=seed)
            d = distance_matrix(g)
            assert d.spheres == tuple(
                tuple(sum(x == j for x in row) for j in range(1, d.eta + 1))
                for row in d.rows
            )

    def test_single_vertex_has_empty_profile(self):
        g = generate_graph("path", 1)
        d = distance_matrix(g)
        assert d.spheres == ((),)

    def test_s4_leaf(self):
        g = generate_graph("star", 4)
        d = distance_matrix(g)
        assert d.spheres[1] == (1, 2)

    def test_s4_center_padded(self):
        g = generate_graph("star", 4)
        d = distance_matrix(g)
        assert d.spheres[0] == (3, 0)

    def test_p4_endpoint(self):
        g = generate_graph("path", 4)
        d = distance_matrix(g)
        assert d.spheres[0] == (1, 1, 1)

    def test_counts_sum_to_n_minus_1(self):
        for seed in range(8):
            g = generate_graph("gnp", 9, p=0.35, seed=seed)
            d = distance_matrix(g)
            assert all(sum(profile) == g.n - 1 for profile in d.spheres)

    def test_disconnected_rejected(self):
        g = Graph.from_edges(3, [(0, 1)])
        d = distance_matrix(g)
        with pytest.raises(DomainError, match=DISCONNECTED):
            functional_values(g, FunctionalSpec("linear"), d)


class TestGraphInvariants:
    def test_adjacency_symmetric(self):
        g = generate_graph("gnp", 10, p=0.4, seed=2)
        for u in range(g.n):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValidationError):
            Graph.from_edges(3, [(0, 4)])
        with pytest.raises(ValidationError):
            Graph.from_edges(3, [(1, 1)])
