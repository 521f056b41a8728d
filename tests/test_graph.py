import math
import resource
import subprocess
import sys
from itertools import combinations

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
from graphent.graph import (
    DISCONNECTED, DistanceData, SeededStream, _gnp_edges, generate_gnp_connected,
)
from graphent.measures import (
    Distribution, FunctionalSpec, FunctionalValues, functional_values,
)


def run_capped(code):
    """(exit status, stdout, stderr) of ``python -c code`` in a child whose
    address space is capped at 128 MB."""
    limit = 128 * 2**20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=300, preexec_fn=cap_address_space,
    )
    return proc.returncode, proc.stdout, proc.stderr


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


# a relabeled dense list: K_9 on shuffled ids, each id in 8 of its lines
_RELABELED_K9 = "".join(
    f"{u} {v}\n" for u, v in combinations([5, 2, 8, 0, 3, 6, 1, 7, 4], 2)
)


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
@example(case=(_RELABELED_K9, None))
# one id in every spelling int() takes, each a distinct token
@example(case=("1 0\n01 2\n+1 3\n0_1 4\n\u0661 5\n 001\t6\n", None))
# one list with a '#' comment, a '#' inside a line, and without any
@example(case=("# K_3\n0 1\n\n1 2\n2 0\n", None))
@example(case=("0 1\n1 2 # c\n2 0\n", None))
@example(case=("0 1\n\n1 2\n2 0\n", None))
# write_edge_list's shape, or one step off it, on each side of the
# whole-text split: a reversed pair, a repeated pair, a self-loop, a
# negative id, an id gap, n below the ids, no final newline, a double
# space or a tab, other spellings of an id, a comment, and no pairs at all
@example(case=("1 0\n0 2\n", None))
@example(case=("0 1\n1 2\n0 1\n", None))
@example(case=("0 1\n2 2\n", None))
@example(case=("0 1\n0 -2\n", None))
@example(case=("0 1\n0 3\n", None))
@example(case=("0 1\n1 5\n", 3))
@example(case=("0 1\n1 2", None))
@example(case=("0 1\n1  2\n", None))
@example(case=("0 1\n1\t2\n", None))
@example(case=("0 \u0661\n1 2\n", None))
@example(case=("0 +1\n0_1 2\n", None))
@example(case=("0 1\n# 2\n", None))
@example(case=("", None))
@example(case=("\n", None))
def test_parse_matches_straightline_reference(case):
    """The bulk checks give the line loop's graph, or its first error with
    the same type, message and line number."""
    text, n = case
    assert _parsed(_package_parse, text, n) == _parsed(sl.sl_parse_edge_list, text, n)


@st.composite
def _graph(draw):
    """A graph on up to 12 vertices, some of them often isolated."""
    n = draw(st.integers(0, 12))
    pairs = list(combinations(range(n), 2))
    return Graph.from_edges(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(g=_graph())
def test_written_list_parses_to_its_graph(g):
    """A written list takes the whole-text split and gives back its graph,
    with the neighbor lists built from the id lists equal to those built
    from the edges."""
    parsed = parse_edge_list(write_edge_list(g), n=g.n)
    assert parsed == g and parsed.adjacency == g.adjacency


class TestParsedGraphIdentity:
    """A parsed graph carries its id lists outside _fields until the first
    read of its neighbor lists, which consumes them."""

    TEXT = "0 1\n1 3\n2 3\n0 3\n"
    PAIRS = [(0, 1), (1, 3), (2, 3), (0, 3)]

    def test_equal_to_from_edges(self):
        g = parse_edge_list(self.TEXT)
        built = Graph.from_edges(4, self.PAIRS)
        assert "_pairs" in g.__dict__ and "_pairs" not in built.__dict__
        assert g == built and hash(g) == hash(built) and repr(g) == repr(built)

    def test_adjacency_from_the_id_lists(self):
        g = parse_edge_list(self.TEXT)
        assert g.adjacency == Graph.from_edges(4, self.PAIRS).adjacency
        assert "_pairs" not in g.__dict__
        assert g.adjacency == ((1, 3), (0, 3), (3,), (0, 1, 2))

    @pytest.mark.parametrize("text", ["0 1\n1 0\n", "0 1\n0 1\n", "0 1\n# c\n0 1\n"])
    def test_repeated_pair_carries_no_id_lists(self, text):
        g = parse_edge_list(text)
        assert "_pairs" not in g.__dict__ and g.adjacency == ((1,), (0,))

    def test_huge_n_builds_nothing(self):
        g = parse_edge_list("0 1\n", n=10**9)
        assert "adjacency" not in g.__dict__ and g.m == 1


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
        # every too-small n names its own class's minimum
        minimum = {
            "star": 3, "path": 1, "cycle": 3, "wheel": 4, "complete": 1, "gnp": 1,
        }
        for kind, low in minimum.items():
            for n in (0, low - 1):
                message = f"^{kind} requires n >= {low}, got {n}$"
                with pytest.raises(DomainError, match=message):
                    generate_graph(kind, n, p=0.5, seed=1)
            assert generate_graph(kind, low, p=0.5, seed=1).n == low
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

    def test_gnp_memory_scales_with_edges(self):
        # 3000 vertices have about 4.5 million pairs: their draws, held at
        # once, pass the child's 128 MB; the ~45,000 edges kept take a few MB
        code = (
            "from graphent import generate_graph\n"
            "g = generate_graph('gnp', 3000, p=0.01, seed=1)\n"
            "print(g.n, g.is_connected())"
        )
        assert run_capped(code) == (0, "3000 True\n", "")

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

    def test_streams_sharing_a_seed_head_match_numpy(self):
        """Seeds that share their zero-padded first four words, and so one
        cached head pool, but differ past them: the sweep's [s, 7, g, t, p]
        for p = 0, 1, 2, interleaved and repeated, short heads of 0 to 3
        words, and seeds of 6 or more words. Each stream is numpy's, and a
        stream made after another of its head has drawn is unchanged, so no
        stream mutates the cached pool."""
        heads = [[5, 7, 3, 1], [2**40 + 9, 7, 3], [], [5], [5, 0], [5, 7, 3]]
        tails = [[0], [1], [2], [1], [0], [2, 2**35 + 1], [0, 1, 2, 3], [2]]
        for head in heads:
            for tail in tails + tails[::-1]:
                seed = head + tail
                ours = SeededStream(seed)
                want = np.random.default_rng(seed).random(40)
                assert _bits(ours.random(40)) == _bits(want), seed
                assert _bits(ours.random(3)) == _bits(
                    np.random.default_rng(seed).random(43)[40:]
                ), seed
            for size in range(4):  # a seed that is all head
                seed = head[:size]
                assert _bits(SeededStream(seed).random(5)) == _bits(
                    np.random.default_rng(seed).random(5)
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
        # m < n - 1, and a triangle plus an isolated vertex (m = n - 1)
        for g in (
            Graph.from_edges(3, [(0, 1)]),
            Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)]),
        ):
            d = distance_matrix(g)
            with pytest.raises(DomainError, match=DISCONNECTED):
                functional_values(g, FunctionalSpec("linear"), d)


def _error(build):
    """The type and message of the GraphEntropyError build() raises."""
    with pytest.raises(GraphEntropyError) as info:
        build()
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "n, edges, message, parse_error",
    [
        (3, [(0, 1), (2, 2)], "self-loop at vertex 2",
         (ValidationError, "line 2: self-loop at vertex 2")),
        (3, [(0, 1), (1, 3)], "edge (1, 3) outside 0..2",
         (ValidationError, "n=3 is below 1 + max vertex id (3)")),
        (0, [(0, 1)], "edge (0, 1) outside 0..-1",
         (ValidationError, "n=0 is below 1 + max vertex id (1)")),
        (3, [(-1, 2)], "edge (-1, 2) outside 0..2",
         (ParseError, "line 1: negative vertex id in '-1 2'")),
        (-1, [], "vertex count must be >= 0, got -1",
         (ValidationError, "n=-1 is below 1 + max vertex id (-1)")),
    ],
    ids=["self_loop", "past_n", "n_zero", "negative_id", "negative_n"],
)
def test_bad_edge_or_n_is_refused_on_every_path(n, edges, message, parse_error):
    """Graph(...) and Graph.from_edges give one error for a bad edge or n.
    parse_edge_list builds its Graph without that check, so its own checks
    must refuse the same input: with the line-numbered or n-worded error
    they have always given."""
    text = "".join(f"{u} {v}\n" for u, v in edges)
    assert _error(lambda: Graph(n, frozenset(edges))) == (ValidationError, message)
    assert _error(lambda: Graph.from_edges(n, edges)) == (ValidationError, message)
    assert _error(lambda: parse_edge_list(text, n=n)) == parse_error


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

    @pytest.mark.parametrize(
        "edges",
        [
            [(0.7, 2), (1, 2)],
            [(0, 1), (0, 1, 2)],
            [(0, 1), 5],
            [("0", "1")],
            [(0, 1), (1, np.float64(2.0))],
        ],
    )
    def test_from_edges_names_its_first_non_integer_pair(self, edges):
        bad = next(e for e in edges if e != (0, 1))
        with pytest.raises(ValidationError) as info:
            Graph.from_edges(3, iter(edges))
        assert str(info.value) == f"edge {bad!r} is not a pair of integer vertex ids"

    def test_from_edges_takes_numpy_integers(self):
        g = Graph.from_edges(3, [(np.int64(2), np.int32(0)), (True, 2)])
        assert g.edges == {(0, 2), (1, 2)}
        assert all(type(v) is int for e in g.edges for v in e)

    def test_is_connected_matches_reachability(self):
        """The edge-count shortcut and the BFS agree with a reachability
        oracle on every labeled graph on up to 5 vertices, each also with
        one and two isolated vertices added."""

        def reaches_all(n, edges):
            seen = {0}
            grown = True
            while grown:
                grown = False
                for u, v in edges:
                    if (u in seen) != (v in seen):
                        seen |= {u, v}
                        grown = True
            return n <= 1 or len(seen) == n

        assert Graph.from_edges(0, []).is_connected()
        for k in range(1, 6):
            pairs = list(combinations(range(k), 2))
            for mask in range(1 << len(pairs)):
                edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
                for n in (k, k + 1, k + 2):
                    g = Graph.from_edges(n, edges)
                    assert g.is_connected() == reaches_all(n, edges), (n, edges)


# Each operation checks its domain before the graph's neighbor lists exist,
# so a billion vertices on one edge cost O(m) on every path.
HUGE_N_SCRIPT = """
from graphent import (
    CapacityError, DomainError, FunctionalSpec, Graph,
    connected_functional_bounds, functional_values, parse_edge_list,
    vertex_orbits,
)

g = parse_edge_list("0 1\\n", n=10**9)
print(g.n, g.m)
spec = FunctionalSpec("linear")
for op in (
    lambda: vertex_orbits(g),
    lambda: functional_values(g, spec),
    lambda: connected_functional_bounds(g, spec, 2.0, "corrected"),
):
    try:
        op()
    except (CapacityError, DomainError) as exc:
        print(type(exc).__name__, exc)
print(Graph.from_edges(10**9, [(0, 1)]).is_connected())
"""


def test_library_huge_n_is_rejected_before_the_neighbor_lists_exist():
    # a billion neighbor lists do not fit in the child's 128 MB
    assert run_capped(HUGE_N_SCRIPT) == (
        0,
        "1000000000 1\n"
        "CapacityError exact orbit computation capped at n = 64, got 1000000000\n"
        f"DomainError {DISCONNECTED}\n"
        "DomainError connected-graph bounds need a connected graph\n"
        "False\n",
        "",
    )


def _cached_owners():
    """(class, attribute, a fresh instance maker) for every cached value."""
    owners = [
        (Graph, "adjacency", lambda: Graph.from_edges(3, [(0, 1), (1, 2)])),
        (Graph, "_connected", lambda: Graph.from_edges(3, [(0, 1), (1, 2)])),
        (DistanceData, "spheres", lambda: DistanceData(((0, 1), (1, 0)), 1)),
        (Distribution, "log_probs", lambda: Distribution([0.25, 0.75])),
        (Distribution, "_shannon", lambda: Distribution([0.25, 0.75])),
        (Distribution, "_stats", lambda: Distribution([0.25, 0.75])),
        (FunctionalValues, "linear", lambda: FunctionalValues([0.0, 1.0])),
        (FunctionalValues, "distribution", lambda: FunctionalValues([0.0, 1.0])),
    ]
    return [pytest.param(*o, id=f"{o[0].__name__}.{o[1]}") for o in owners]


@pytest.mark.parametrize("cls, name, make", _cached_owners())
def test_cached_value_is_computed_once_per_object(monkeypatch, cls, name, make):
    """The first read runs the function and keeps its value in that
    instance's __dict__, where every later read finds it; the class and
    other instances hold nothing, and class access gives the descriptor."""
    descriptor = vars(cls)[name]
    assert getattr(cls, name) is descriptor
    calls = []

    def counted(obj, func=descriptor.func):
        calls.append(obj)
        return func(obj)

    monkeypatch.setattr(descriptor, "func", counted)
    first, other = make(), make()
    value = getattr(first, name)
    assert getattr(first, name) is value and getattr(first, name) is value
    assert calls == [first]
    assert first.__dict__[name] is value and name not in other.__dict__
    assert vars(cls)[name] is descriptor
    assert getattr(other, name) is other.__dict__[name]
    assert calls == [first, other]
