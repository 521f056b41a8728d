import json
import math
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphent import SweepConfig, cli, run_sweep, summarize_report

BASE = [sys.executable, "-m", "graphent"]


def run(args, stdin=""):
    proc = subprocess.run(
        BASE + args, input=stdin, capture_output=True, text=True, timeout=300
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_capped(args, stdin=""):
    """run() in a child whose address space is capped at 128 MB."""
    limit = 128 * 2**20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        BASE + args, input=stdin, capture_output=True, text=True, timeout=300,
        preexec_fn=cap_address_space,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _modules_after(code: str) -> set[str]:
    """Names in sys.modules once ``code`` has run in a fresh interpreter."""
    script = f"import sys\n{code}\nprint(' '.join(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_import_leaves_scipy_unloaded():
    """numpy is the only runtime dependency, so cold start never pays for scipy."""
    assert "scipy" not in _modules_after("import graphent, graphent.cli")


def test_import_graphent_loads_no_submodule():
    """Public names resolve on first use, so the bare import loads no numpy."""
    loaded = _modules_after("import graphent")
    assert "numpy" not in loaded
    assert {m for m in loaded if m.startswith("graphent.")} == set()


GRAPH_TEXT = "0 1\n1 2\n2 3\n"


@pytest.mark.parametrize(
    "argv, stdin, status, modules",
    [
        (["gen", "star", "5"], None, 0, {"graph"}),
        (["gen", "gnp", "8", "--p", "0.5", "--seed", "3"], None, 0, {"graph"}),
        (["compute", "--alpha", "2", "--dist", "orbits"], GRAPH_TEXT, 0,
         {"graph", "orbits", "measures"}),
        (["compute", "--alpha", "2", "--dist", "exp", "--beta", "2"], GRAPH_TEXT, 0,
         {"graph", "orbits", "measures"}),
        (["check", "thm1", "--alpha", "0.5", "--variant", "literal",
          "--probs", "0.9,0.1", "--strict"], None, 1,
         {"graph", "orbits", "measures", "inequalities"}),
        (["check", "conn", "--alpha", "2", "--functional", "linear"], GRAPH_TEXT, 0,
         {"graph", "orbits", "measures", "inequalities"}),
        (["check", "jensen", "--alpha", "2", "--probs", "0.5,0.3,0.2"], None, 0,
         {"graph", "orbits", "measures", "inequalities"}),
        (["check", "jensen", "--alpha", "2"], GRAPH_TEXT, 0,
         {"graph", "orbits", "measures", "inequalities"}),
    ],
    ids=["gen", "gen-gnp", "compute-orbits", "compute-exp", "check-thm1", "check-conn",
         "check-jensen-probs", "check-jensen-graph"],
)
def test_each_subcommand_imports_only_what_it_runs(argv, stdin, status, modules):
    """A pipe stage is a fresh interpreter, so what it imports is its cold
    start: gen loads graph alone, compute adds orbits and measures, check
    adds inequalities. No stage loads numpy (G(n, p) draws and jensen's
    pair sums included) or dataclasses, which pulls in inspect, ast and
    dis."""
    loaded = _modules_after(
        "from graphent import cli\n"
        f"assert cli.dispatch({argv!r}, stdin={stdin!r})[0] == {status}"
    )
    assert {m for m in loaded if m.startswith("graphent.")} == {
        f"graphent.{m}" for m in modules | {"cli", "errors"}
    }
    assert not {"numpy", "dataclasses", "inspect"} & loaded


_LAZY_NAMESPACE = """
import graphent
names = {}
exec("from graphent import *", names)
assert set(graphent.__all__) <= set(names), set(graphent.__all__) - set(names)
assert set(graphent.__all__) <= set(dir(graphent))
try:
    graphent.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("graphent.no_such_name resolved")
"""


def test_lazy_namespace_resolves_every_public_name():
    loaded = _modules_after(_LAZY_NAMESPACE)
    assert {"graphent.harness", "graphent.inequalities"} <= loaded


# Prints [[bytes written, traced peak], ...] of `graphent sweep` on the two
# configs named in argv, after one untraced run of the first, so one-time
# allocations count in neither peak.
_STREAMED_MEMORY = '''
import gc, json, sys, tracemalloc
from graphent import cli

class Sink:
    """stdout that counts what is written and keeps none of it. At each
    graph's chunk (not the ", " between two) a full collection empties
    CPython's free lists, so the peak counts what the sweep holds rather
    than the freed tuples the interpreter keeps for reuse."""

    size = 0

    def write(self, text):
        self.size += len(text)
        if text != ", ":
            gc.collect()

    def flush(self):
        pass

def streamed(path, trace=True):
    sink, stdout = Sink(), sys.stdout
    sys.stdout = sink
    if trace:
        tracemalloc.start()
    try:
        code = cli.main(["sweep", "--config", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sys.stdout = stdout
    if code != 0:
        sys.exit(f"graphent sweep exited {code}")
    return sink.size, peak

streamed(sys.argv[1], trace=False)
print(json.dumps([streamed(path) for path in sys.argv[1:]]))
'''


class TestGen:
    def test_star_edge_list(self):
        code, out, _ = run(["gen", "star", "4"])
        assert code == 0
        assert out == "0 1\n0 2\n0 3\n"

    def test_gnp_deterministic(self):
        a = run(["gen", "gnp", "9", "--p", "0.4", "--seed", "7"])
        b = run(["gen", "gnp", "9", "--p", "0.4", "--seed", "7"])
        assert a == b and a[0] == 0

    def test_gnp_missing_seed(self):
        code, _, err = run(["gen", "gnp", "9", "--p", "0.4"])
        assert code == 2 and "seed" in err

    @pytest.mark.parametrize("seed", ["-1", "-18446744073709551617"])
    def test_gnp_negative_seed_exits_2(self, seed):
        code, out, err = run(["gen", "gnp", "5", "--p", "0.5", "--seed", seed])
        assert (code, out) == (2, "")
        assert err == f"graphent: seed must be an integer >= 0 or a sequence of them, got {seed}\n"

    def test_invalid_class(self):
        code, _, _ = run(["gen", "blob", "4"])
        assert code == 2

    def test_class_n_mismatch_is_domain_error(self):
        code, _, err = run(["gen", "wheel", "3"])
        assert code == 2 and "wheel" in err

    @pytest.mark.parametrize(
        "argv",
        [["gen", "star", "100000000"],
         ["gen", "gnp", "5000", "--p", "0.5", "--seed", "1"]],
        ids=["star", "gnp"],
    )
    def test_out_of_memory_is_one_line_and_exit_2(self, argv):
        # neither edge set fits in 128 MB
        assert run_capped(argv) == (2, "", "graphent: out of memory\n")


class TestCompute:
    def test_star_orbits_alpha2(self):
        _, edges, _ = run(["gen", "star", "4"])
        code, out, _ = run(["compute", "--alpha", "2", "--dist", "orbits"], edges)
        assert code == 0
        doc = json.loads(out)
        assert doc["renyi"] == pytest.approx(0.678071905113, abs=1e-9)
        assert doc["shannon"] == pytest.approx(0.811278124459, abs=1e-9)
        assert doc["orbit_sizes"] == [1, 3]

    def test_path6_orbits(self):
        _, edges, _ = run(["gen", "path", "6"])
        code, out, _ = run(["compute", "--alpha", "0.5", "--dist", "orbits"], edges)
        doc = json.loads(out)
        assert doc["renyi"] == pytest.approx(1.58496250072, abs=1e-9)

    def test_k5_single_orbit(self):
        _, edges, _ = run(["gen", "complete", "5"])
        _, out, _ = run(["compute"], edges)
        doc = json.loads(out)
        assert doc["shannon"] == 0.0
        assert doc["orbit_sizes"] == [5]

    def test_linear_functional_params(self):
        _, edges, _ = run(["gen", "star", "4"])
        _, out, _ = run(["compute", "--dist", "linear", "--c", "2,1"], edges)
        doc = json.loads(out)
        assert doc["functional_params"]["S"] == pytest.approx(18.0)
        assert doc["alpha"] is None and doc["renyi"] is None

    def test_alpha_absent_keeps_shannon(self):
        _, edges, _ = run(["gen", "star", "4"])
        _, out, _ = run(["compute"], edges)
        assert json.loads(out)["shannon"] == pytest.approx(0.811278124459, abs=1e-9)

    def test_unnormalizable_values_name_a_plain_float(self):
        code, out, err = run(
            ["compute", "--alpha", "2", "--dist", "exp", "--beta", "1e300",
             "--c", "1e300,1e300,1e300"],
            GRAPH_TEXT,
        )
        assert code == 2 and out == ""
        assert err == (
            "graphent: functional values cannot be normalized at ln S = "
            "2.07233e+303: probabilities sum to 4.0, expected 1 within 1e-12\n"
        )

    def test_beta_with_linear_is_usage_error(self):
        _, edges, _ = run(["gen", "star", "4"])
        code, _, err = run(
            ["compute", "--dist", "linear", "--c", "2,1", "--beta", "2"], edges
        )
        assert code == 2 and "beta" in err

    def test_c_with_orbits_is_usage_error(self):
        _, edges, _ = run(["gen", "star", "4"])
        code, _, _ = run(["compute", "--dist", "orbits", "--c", "2,1"], edges)
        assert code == 2

    def test_exp_requires_beta(self):
        _, edges, _ = run(["gen", "path", "3"])
        code, _, _ = run(["compute", "--dist", "exp", "--c", "1,1"], edges)
        assert code == 2

    @pytest.mark.parametrize(
        "args",
        [
            # the smallest atom is subnormal, so rho = max p / min p is inf
            ["--dist", "exp", "--c", "357,1", "--beta", "2.718281828459045",
             "--alpha", "2"],
            ["--alpha", "nan"],
            ["--alpha", "inf"],
        ],
    )
    def test_non_finite_exits_2(self, capsys, args):
        code, out = cli.dispatch(["compute", *args], stdin="0 1\n0 2\n0 3\n")
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("graphent: ") and err.count("\n") == 1

    def test_unknown_flag_rejected(self):
        code, _, _ = run(["compute", "--frobnicate"], "0 1\n")
        assert code == 2

    def test_twelve_significant_digits(self):
        _, edges, _ = run(["gen", "star", "4"])
        _, out, _ = run(["compute", "--alpha", "2"], edges)
        assert '"renyi": 0.678071905113' in out

    def test_n_override_allows_isolated_vertices(self):
        code, out, _ = run(["compute", "--n", "4"], "0 2\n")
        assert code == 0
        doc = json.loads(out)
        # orbits: the edge pair and the two isolated vertices
        assert doc["n"] == 4 and doc["shannon"] == pytest.approx(1.0)

    def test_gap_without_override_is_domain_error(self):
        code, _, err = run(["compute"], "0 2\n")
        assert code == 2 and "gaps" in err

    def test_sparse_ids_give_a_short_error(self):
        # the gap check and its message scale with the edges, not the largest id
        code, out, err = run(["compute"], "0 1\n1 3000000\n")
        assert code == 2 and out == ""
        assert err.startswith("graphent: ") and err.count("\n") == 1
        assert "gaps (2999998 missing" in err and len(err.encode()) < 200

    @pytest.mark.parametrize(
        "argv, stdin, message",
        [
            (["compute", "--dist", "orbits"], "0 1\n",
             "exact orbit computation capped at n = 64, got 1000000000"),
            (["check", "thm1", "--alpha", "2"], "0 1\n",
             "exact orbit computation capped at n = 64, got 1000000000"),
            (["compute", "--dist", "linear"], "0 1\n",
             "j-sphere profiles are undefined on disconnected graphs"),
            # n = 1 + max id, but one edge cannot connect n vertices
            (["compute", "--dist", "exp", "--beta", "2"], "0 999999999\n",
             "j-sphere profiles are undefined on disconnected graphs"),
            (["check", "conn", "--alpha", "2", "--functional", "linear"], "0 1\n",
             "connected-graph bounds need a connected graph"),
        ],
        ids=["compute_orbits", "check_orbits", "compute_linear", "compute_exp", "conn"],
    )
    def test_huge_n_override_is_rejected_before_the_graph_is_built(
        self, argv, stdin, message
    ):
        # A billion adjacency lists do not fit in the child's 128 MB address
        # space, so a check made after the graph is built fails here with
        # "out of memory" instead of exhausting the host's memory.
        assert run_capped(argv + ["--n", "1000000000"], stdin) == (
            2, "", f"graphent: {message}\n"
        )


def _normalized(raw) -> str:
    p = np.asarray(raw, dtype=float)
    return ",".join(repr(float(x)) for x in p / p.sum())


# p proportional to (1, 1, 10**-10.96): rho**28 ~ 1e307 is finite, but the
# corrected thm1 gap, 29 * 6 times it, passes 1e308
THM1_INFINITE_BOUND_PROBS = _normalized([1.0, 1.0, 10**-10.96])


class TestCheck:
    def test_literal_counterexample_strict_exit(self):
        code, out, _ = run(
            ["check", "thm1", "--alpha", "0.5", "--variant", "literal",
             "--probs", "0.9,0.1", "--strict"]
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["holds"] is False
        assert doc["bound"] == pytest.approx(0.495712168420558, abs=1e-12)
        assert doc["lhs"] == pytest.approx(0.678071905112638, abs=1e-12)

    def test_corrected_passes_strict(self):
        code, out, _ = run(
            ["check", "thm1", "--alpha", "0.5", "--variant", "corrected",
             "--probs", "0.9,0.1", "--strict"]
        )
        assert code == 0
        assert json.loads(out)["holds"] is True

    def test_check_from_graph_stdin(self):
        _, edges, _ = run(["gen", "star", "10"])
        code, out, _ = run(
            ["check", "thm1", "--alpha", "0.5", "--variant", "literal",
             "--dist", "orbits", "--strict"],
            edges,
        )
        assert code == 1
        assert json.loads(out)["params"]["rho"] == pytest.approx(9.0)

    def test_thm3_past_the_orbit_cap_builds_no_distance_matrix(self):
        # a 5000-vertex path's distance matrix does not fit in the child's
        # 128 MB, so the orbit cap must reject the graph before it is built
        edges = "".join(f"{i} {i + 1}\n" for i in range(4999))
        assert run_capped(
            ["check", "thm3", "--alpha", "2", "--functional", "linear"], edges
        ) == (2, "", "graphent: exact orbit computation capped at n = 64, got 5000\n")

    def test_thm3_pipe(self):
        _, edges, _ = run(["gen", "star", "4"])
        code, out, _ = run(
            ["check", "thm3", "--alpha", "0.5", "--functional", "linear",
             "--c", "2,1"],
            edges,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["holds"] is True
        assert doc["bound"] == pytest.approx(4.157728441894158, abs=1e-9)

    def test_thm4_flags(self):
        code, out, _ = run(
            ["check", "thm4", "--alpha", "0.5", "--probs1", "0.5,0.5",
             "--probs2", "0.25,0.75", "--psi", "2"]
        )
        doc = json.loads(out)
        assert code == 0 and doc["holds"] is True

    def test_thm5_log_base_switch(self):
        args = ["check", "thm5", "--alpha", "0.5", "--probs1", "0.6,0.4",
                "--probs2", "0.5,0.5", "--phi", "0.2"]
        _, lit_2, _ = run(args + ["--variant", "literal"])
        _, lit_e, _ = run(args + ["--variant", "literal", "--log-base", "e"])
        _, cor_e, _ = run(args + ["--variant", "corrected", "--log-base", "e"])
        assert json.loads(lit_e)["bound"] == pytest.approx(
            json.loads(cor_e)["bound"], abs=1e-12
        )
        assert json.loads(lit_2)["bound"] != pytest.approx(
            json.loads(lit_e)["bound"], abs=1e-6
        )
        assert json.loads(lit_e)["params"]["log_base"] != 2.0

    def test_log_base_rejected_elsewhere(self):
        code, _, _ = run(
            ["check", "thm1", "--alpha", "0.5", "--probs", "0.9,0.1",
             "--log-base", "e"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["thm1", "--alpha", "0.25", "--probs", "1,1e-200"],
            ["thm1", "--alpha", "30", "--variant", "literal", "--probs", "1,1e-20"],
            ["thm4", "--alpha", "0.5", "--probs1", "0.5,0.5", "--probs2", "0.5,0.5",
             "--s1", "1", "--s2", "inf"],
            # (n-1)**alpha overflows
            ["star", "--n", "10", "--alpha", "400"],
            ["wheel", "--n", "10", "--alpha", "400"],
            # the odd path's power sum underflows to 0
            ["path", "--n", "5", "--alpha", "1000"],
            # a finite rho power, but the gap overflows: bound -inf
            ["thm1", "--alpha", "30", "--probs", THM1_INFINITE_BOUND_PROBS],
            # sum p2**2000 underflows to 0 under thm5's power mean
            ["thm5", "--alpha", "2000", "--probs1", "0.5,0.5", "--probs2", "0.5,0.5",
             "--phi", "0.1"],
        ],
    )
    def test_non_finite_arithmetic_exits_2(self, args):
        code, out, err = run(["check"] + args)
        assert code == 2 and out == ""
        assert err.startswith("graphent: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "args, match",
        [
            (["ordering", "--alpha", "nan", "--probs", "0.5,0.5"], "alpha must be"),
            (["thm1", "--alpha", "inf", "--probs", "0.9,0.1"], "alpha must be"),
            (["thm6", "--alpha", "2", "--functional", "linear", "--c", "2,1",
              "--f2-functional", "linear", "--f2-c", "1,1", "--c1", "nan", "--c2", "1"],
             "weights"),
            (["thm6", "--alpha", "2", "--functional", "linear", "--c", "2,1",
              "--f2-functional", "linear", "--f2-c", "1,1", "--c1", "1", "--c2", "inf"],
             "weights"),
            (["thm5", "--alpha", "0.5", "--probs1", "0.6,0.4", "--probs2", "0.5,0.5",
              "--phi", "nan"], "phi must be positive and finite"),
            (["thm5", "--alpha", "2", "--probs1", "0.6,0.4", "--probs2", "0.5,0.5",
              "--phi", "inf"], "phi must be positive and finite"),
        ],
    )
    def test_non_finite_input_names_its_rule(self, capsys, args, match):
        code, out = cli.dispatch(["check", *args], stdin="0 1\n0 2\n0 3\n")
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("graphent: ") and err.count("\n") == 1
        assert match in err

    def test_star_closed_forms_array(self):
        code, out, _ = run(["check", "star", "--alpha", "2", "--n", "4"])
        assert code == 0
        docs = json.loads(out)
        assert isinstance(docs, list)
        exact = next(d for d in docs if d["theorem"] == "class_renyi_exact")
        assert exact["holds"] is True

    def test_conn_check(self):
        _, edges, _ = run(["gen", "star", "4"])
        code, out, _ = run(
            ["check", "conn", "--alpha", "0.5", "--functional", "linear",
             "--c", "2,1", "--variant", "literal"],
            edges,
        )
        doc = json.loads(out)
        assert code == 0 and doc["holds"] is True
        assert doc["params"]["bound_lower"] == pytest.approx(1.0)
        assert doc["params"]["bound_upper"] == pytest.approx(3.0)

    def test_conn_on_one_vertex_exits_2(self):
        code, out, err = run(
            ["check", "conn", "--functional", "exp", "--beta", "2", "--alpha", "2",
             "--n", "1"],
            "\n",
        )
        assert code == 2 and out == ""
        assert err == (
            "graphent: connected-graph bounds need at least one edge (diameter 0)\n"
        )

    def test_linear_conn_on_one_vertex_names_the_diameter(self):
        # the diameter is checked before the linear functional's values,
        # which are all 0 on one vertex
        code, out, err = run(
            ["check", "conn", "--functional", "linear", "--alpha", "2", "--n", "1"],
            "\n",
        )
        assert code == 2 and out == ""
        assert err == (
            "graphent: connected-graph bounds need at least one edge (diameter 0)\n"
        )

    def test_linear_compute_on_one_vertex_names_the_diameter(self):
        code, out, err = run(["compute", "--dist", "linear", "--n", "1"], "\n")
        assert code == 2 and out == ""
        assert err == (
            "graphent: linear functional is 0 on a one-vertex graph "
            "(diameter 0, no spheres)\n"
        )

    def test_thm6_without_f2_functional_names_that_flag(self):
        code, out, err = run(
            ["check", "thm6", "--alpha", "2", "--functional", "linear",
             "--c", "2,1", "--c1", "1", "--c2", "1"],
            "0 1\n0 2\n0 3\n",
        )
        assert code == 2 and out == ""
        assert err == "graphent: thm6 (f2) requires --f2-functional linear|exp\n"

    def test_thm6_pipe(self):
        _, edges, _ = run(["gen", "wheel", "5"])
        code, out, _ = run(
            ["check", "thm6", "--alpha", "2", "--functional", "linear",
             "--c", "2,1", "--f2-functional", "exp", "--f2-c", "1,1",
             "--f2-beta", "2", "--c1", "1", "--c2", "1",
             "--variant", "corrected"],
            edges,
        )
        assert code == 0
        assert json.loads(out)["holds"] is True


# Each entry is one `graphent check` invocation (argv after "check", and
# stdin) with the exact exit status and stdout it gave when recorded; every
# check name appears, each thm1 variant with and without --use-epsilon, thm3
# under both log bases, thm4 with --psi and with --s1/--s2, thm6 with and
# without --symmetric, conn on both functionals, and each class with and
# without a functional.
PINNED_CHECKS = json.loads(
    (Path(__file__).parent / "check_output.json").read_text(encoding="utf-8")
)


def test_pinned_checks_cover_every_check_name():
    assert {case["argv"][0] for case in PINNED_CHECKS} == set(cli._CHECKS)


@pytest.mark.parametrize(
    "case", PINNED_CHECKS,
    ids=[f"{i:02d}-{case['argv'][0]}" for i, case in enumerate(PINNED_CHECKS)],
)
def test_check_output_bytes_are_pinned(case):
    status, out = cli.dispatch(["check", *case["argv"]], case["stdin"])
    assert (status, out) == (case["status"], case["stdout"])


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


# alpha log-uniform on [1e-3, 1e3], never 1
_ALPHA = st.floats(-3.0, 3.0).map(lambda e: 10.0**e).filter(lambda a: a != 1.0)

# ordering/jensen/thm1 on --probs with atoms down to 1e-300
_DIST_CHECK = st.builds(
    lambda theorem, atoms, variant, eps: [
        theorem, "--probs", _normalized(atoms), "--variant", variant,
    ] + (["--use-epsilon"] if eps and theorem == "thm1" else []),
    st.sampled_from(("ordering", "jensen", "thm1")),
    st.lists(st.floats(-300.0, 0.0).map(lambda e: 10.0**e), min_size=1, max_size=6),
    st.sampled_from(("literal", "corrected")),
    st.booleans(),
)

# star/wheel/path closed forms over their valid n, with or without a functional
_CLASS_CHECK = st.sampled_from((("star", 3), ("wheel", 4), ("path", 2))).flatmap(
    lambda kind_min: st.builds(
        lambda n, functional: [kind_min[0], "--n", str(n)] + functional,
        st.integers(kind_min[1], 40),
        st.one_of(
            st.just([]),
            st.just(["--functional", "linear"]),
            st.floats(-2.0, 2.0).map(
                lambda e: ["--functional", "exp", "--beta", repr(10.0**e)]
            ),
        ),
    )
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(check=st.one_of(_DIST_CHECK, _CLASS_CHECK), alpha=_ALPHA, strict=st.booleans())
@example(check=["star", "--n", "10"], alpha=400.0, strict=False)
@example(check=["wheel", "--n", "10"], alpha=400.0, strict=False)
@example(check=["path", "--n", "5"], alpha=1000.0, strict=False)
@example(check=["thm1", "--probs", THM1_INFINITE_BOUND_PROBS], alpha=30.0, strict=False)
@example(check=["thm1", "--probs", "1e308,1e308"], alpha=2.0, strict=False)
@example(check=["thm5", "--probs1", "1e308,1e308", "--probs2", "0.5,0.5", "--phi", "0.1"],
         alpha=2.0, strict=True)
def test_check_extreme_inputs_keep_the_exit_contract(check, alpha, strict):
    """No input escapes as a raw exception or numpy warning; the exit code is
    0, 1 or 2 and stdout on 0/1 is strict JSON."""
    argv = ["check", *check, "--alpha", repr(alpha)] + (["--strict"] if strict else [])
    code, out = cli.dispatch(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
    else:
        assert code == 0 or strict
        _strict_json(out)


# 10**e for e in [lo, hi]: 10**-323 is subnormal
def _log_uniform(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


# edge lists of diameter 1, 2 and 3, and each graph's diameter
_COMPUTE_GRAPHS = (("complete", 4, 1), ("star", 5, 2), ("wheel", 6, 2),
                   ("path", 4, 3), ("cycle", 7, 3))

# compute over each distribution kind; --c has one coefficient per sphere
# radius, or one too many
_COMPUTE = st.sampled_from(_COMPUTE_GRAPHS).flatmap(
    lambda graph: st.builds(
        lambda dist, coeffs, beta: (
            graph[:2],
            ["--dist", dist]
            + ([] if dist == "orbits" or coeffs is None
               else ["--c", ",".join(map(repr, coeffs))])
            + (["--beta", repr(beta)] if dist == "exp" else []),
        ),
        st.sampled_from(("orbits", "linear", "exp")),
        st.one_of(
            st.none(),
            st.lists(_log_uniform(-323.0, 300.0), min_size=graph[2],
                     max_size=graph[2] + 1),
        ),
        _log_uniform(-323.0, 300.0),
    )
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(compute=_COMPUTE, alpha=st.one_of(st.none(), _log_uniform(-300.0, 308.0)))
@example(compute=(("path", 4), ["--dist", "exp", "--beta", "1e300",
                                "--c", "1e300,1e300,1e300"]), alpha=2.0)
@example(compute=(("cycle", 7), ["--dist", "linear"]), alpha=1e308)
@example(compute=(("star", 5), ["--dist", "exp", "--beta", "5e-324"]), alpha=1e-300)
def test_compute_extreme_inputs_keep_the_exit_contract(compute, alpha):
    """compute's math kernels raise where numpy gave inf or nan; none of it
    escapes as a raw exception: the exit code is 0 or 2 and stdout on 0 is
    strict JSON."""
    from graphent.graph import generate_graph, write_edge_list

    (kind, n), flags = compute
    argv = ["compute", *flags] + ([] if alpha is None else ["--alpha", repr(alpha)])
    code, out = cli.dispatch(argv, stdin=write_edge_list(generate_graph(kind, n)))
    assert code in (0, 2)
    if code == 2:
        assert out == ""
    else:
        _strict_json(out)


def _config_text(drop: str = "", **fields) -> str:
    """A small sweep config as JSON text, with fields replaced or dropped."""
    doc = {"seed": 1, "n_range": [3, 4], "edge_probabilities": [], "trials_per_cell": 1}
    doc.update(fields)
    doc.pop(drop, None)
    return json.dumps(doc)


class TestSweepCommand:
    @pytest.fixture()
    def config_file(self, tmp_path):
        cfg = {
            "seed": 9,
            "n_range": [3, 4],
            "edge_probabilities": [0.5],
            "trials_per_cell": 1,
            "alpha_grid": [0.5, 2.0],
            "theorems": ["ordering", "thm1"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_json_output(self, config_file):
        code, out, _ = run(["sweep", "--config", config_file])
        assert code == 0
        doc = json.loads(out)
        assert set(doc.keys()) == {"config", "columns", "aggregates", "exemplars"}
        # each variant's column (its object's shared lists overlaid with its
        # own) holds one entry per alpha of the grid in each list
        alphas = doc["config"]["alpha_grid"]
        columns = [
            {**obj, **entry} for obj in doc["columns"] for entry in obj["variants"].values()
        ]
        assert columns and all(
            len(c[key]) == len(alphas)
            for c in columns
            for key in ("holds", "lhs", "bound", "slack", "direction", "reason")
        )

    def test_byte_identical_runs(self, config_file):
        a = run(["sweep", "--config", config_file])
        b = run(["sweep", "--config", config_file])
        assert a == b

    def test_closed_stdout_exits_141_quietly(self, tmp_path):
        """A reader that closes the pipe after the first chunk ends the stage
        as SIGPIPE would end it in a shell: status 141, nothing on stderr.
        The document is far larger than a pipe's buffer, so the sweep is
        still writing when the pipe closes."""
        path = tmp_path / "cfg.json"
        path.write_text(_config_text(n_range=[3, 6], edge_probabilities=[0.3, 0.5, 0.8]))
        proc = subprocess.Popen(
            BASE + ["sweep", "--config", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(10) == b'{"config":'
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=300), err) == (141, b"")

    def test_strict_flags_violations(self, config_file):
        code, out, _ = run(["sweep", "--config", config_file, "--strict"])
        doc_code, doc_out, _ = run(["sweep", "--config", config_file])
        doc = json.loads(doc_out)
        has_violation = any(
            agg["violated"] > 0 for agg in doc["aggregates"].values()
        )
        assert code == (1 if has_violation else 0)

    def test_text_format(self, config_file):
        code, out, _ = run(["sweep", "--config", config_file, "--format", "text"])
        assert code == 0 and "theorem" in out

    def test_streamed_json_is_the_report_text(self, config_file):
        code, out, err = run(["sweep", "--config", config_file])
        with open(config_file, encoding="utf-8") as fh:
            cfg = SweepConfig.from_dict(json.load(fh))
        assert (code, err) == (0, "")
        assert out == summarize_report(run_sweep(cfg), "json") + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_summary_formats_match_the_report(self, config_file, fmt):
        code, out, _ = run(["sweep", "--config", config_file, "--format", fmt])
        with open(config_file, encoding="utf-8") as fh:
            cfg = SweepConfig.from_dict(json.load(fh))
        want = summarize_report(run_sweep(cfg), fmt)

        def steady(text):
            # the text table's first line carries the run's own runtime
            return re.sub(r"runtime: [0-9.]+s", "runtime: -", text)

        assert code == 0 and steady(out) == steady(want)

    def test_streamed_memory_does_not_grow_with_the_corpus(self, tmp_path):
        """Both measured sweeps run in a fresh interpreter, so what earlier
        tests left allocated in this one moves neither peak; two alphas and
        one functional family keep them short."""
        paths = []
        for trials in (1, 8):
            path = tmp_path / f"t{trials}.json"
            path.write_text(_config_text(
                n_range=[3, 8], edge_probabilities=[0.3, 0.5, 0.8],
                trials_per_cell=trials, alpha_grid=[0.5, 2.0],
                functional_specs=[{"kind": "linear"}],
            ))
            paths.append(str(path))
        proc = subprocess.run(
            [sys.executable, "-c", _STREAMED_MEMORY, *paths],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        (size_1, peak_1), (size_8, peak_8) = json.loads(proc.stdout)
        assert size_8 > 3 * size_1
        assert peak_8 < 2 * peak_1, (peak_1, peak_8)

    def test_missing_config(self):
        code, _, err = run(["sweep", "--config", "/nonexistent.json"])
        assert code == 2

    def test_failed_gnp_draw_gives_error_cells(self, tmp_path):
        # p = 0 passes the config's [0, 1] check but has no connected draw
        path = tmp_path / "p0.json"
        path.write_text(_config_text(edge_probabilities=[0.0], alpha_grid=[0.5]))
        code, out, err = run(["sweep", "--config", str(path)])
        assert (code, err) == (0, "")
        failed = [c for c in json.loads(out)["columns"]
                  if c["graph_id"].startswith("gnp_")]
        assert failed and all(
            "no connected sample within" in reason
            for c in failed for entry in c["variants"].values()
            for reason in entry["reason"]
        )

    @pytest.mark.parametrize(
        "text, names",
        [
            pytest.param(_config_text(drop="seed"), None, id="missing-seed"),
            pytest.param(_config_text(seed="x"), None, id="seed-not-int"),
            # a str or a bool is refused, not coerced or read char by char
            pytest.param(_config_text(seed="7"), "seed", id="seed-numeric-str"),
            pytest.param(_config_text(seed=True), "seed", id="seed-bool"),
            pytest.param(_config_text(trials_per_cell="2"), "trials_per_cell",
                         id="trials-str"),
            pytest.param(_config_text(n_range="34"), "n_range", id="n_range-str"),
            pytest.param(_config_text(edge_probabilities=[0.5, "0.8"]),
                         "edge_probabilities", id="p-str"),
            pytest.param(_config_text(theorems="thm1"), "theorems", id="theorems-str"),
            pytest.param(_config_text(seed=-1), None, id="seed-negative"),
            pytest.param(_config_text(n_range=5), None, id="n_range-not-list"),
            pytest.param(_config_text(n_range=[3, 4, 5]), None, id="n_range-three"),
            pytest.param(f"[{_config_text()}]", None, id="top-level-list"),
            pytest.param(_config_text(functional_specs=[{"beta": 2.0}]),
                         None, id="template-without-kind"),
            pytest.param(_config_text(functional_specs=5), None,
                         id="templates-not-list"),
            pytest.param(_config_text(alpha_grid=["a"]), None, id="alpha-not-number"),
            pytest.param(_config_text(alpha_grid=[math.nan]), None, id="alpha-nan"),
            pytest.param(_config_text(alpha_grid=[math.inf]), None, id="alpha-inf"),
            # a mistyped field name is not a silent default
            pytest.param(_config_text(alpha_grdi=[0.5]), None, id="unknown-field"),
            # two cells would share a (theorem, variant, alpha, graph, family) key
            pytest.param(_config_text(alpha_grid=[0.5, 0.5]), None,
                         id="repeated-alpha"),
            # a 401-digit integer is past float range
            pytest.param(_config_text(alpha_grid=[10**400]), None, id="alpha-past-float"),
            pytest.param(_config_text(edge_probabilities=[10**400]),
                         None, id="p-past-float"),
            pytest.param(_config_text(functional_specs=[
                {"kind": "linear", "c_range": [0.5, 10**400]}]), None, id="c-past-float"),
            pytest.param(_config_text(functional_specs=[
                {"kind": "exponential", "beta": 10**400}]), None, id="beta-past-float"),
            pytest.param(_config_text(functional_specs=[
                {"kind": "exponential", "beta": True}]), "beta", id="beta-bool"),
            pytest.param(_config_text(functional_specs=[
                {"kind": "exponential", "beta": "2"}]), "beta", id="beta-str"),
            # not UTF-8: a UTF-16 byte-order mark and UTF-16 text
            pytest.param(b"\xff\xfe" + _config_text().encode("utf-16-le"),
                         None, id="not-utf-8"),
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, text, names):
        """names, where given, is the field the error line must name."""
        path = tmp_path / "cfg.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        code, out = cli.dispatch(["sweep", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("graphent: ") and err.count("\n") == 1
        assert names is None or names in err
