"""Command-line front end: generate graphs, compute entropies, check bounds.

Subcommands compose over stdin/stdout edge lists:

    graphent gen star 4 | graphent compute --alpha 2 --dist orbits
    graphent check thm1 --alpha 0.5 --variant literal --probs 0.9,0.1 --strict
    graphent sweep --config sweep.json --format text

Exit status: 0 success, 1 violation found under --strict, 2 usage or
domain errors, or out of memory, 141 (128 + SIGPIPE, as a shell reports a
stage SIGPIPE ended) when the reader closes stdout early: nothing printed.

`check` turns its flags into one inequalities.BoundInputs record, picks
its inequalities.THEOREMS id (thm1 --use-epsilon is thm1_eps, thm4
--s1/--s2 thm4_cor, thm6 --symmetric thm6_avg) and makes one
inequalities.evaluate call, the evaluator the public bound operations
share; the sweep runs the same table's cores. The star/wheel/path closed
forms are a column core too, read at one alpha by
inequalities.class_closed_forms; they are no sweep ids, since the
benchmark's committed reference fixes a sweep's aggregate keys.

Import rule: each pipe stage is a fresh interpreter, so this module imports
only the standard library and graphent.errors at module level, and each
subcommand imports the graphent modules it runs inside the functions that
run them. `gen` loads graph alone; `compute` adds orbits and measures;
`check` adds inequalities; only `sweep` loads harness, the one module that
uses dataclasses. The numbers are Python floats and G(n, p) draws come
from graph.SeededStream, so no stage but `sweep` loads numpy, and a sweep
only for its thm5 rows (harness._thm5_pair, whose bits the benchmark
references pin).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING

from .errors import DomainError, GraphEntropyError

if TYPE_CHECKING:
    from .graph import Graph
    from .measures import Distribution, FunctionalSpec

# One check per distinct inequalities.THEOREMS check name, plus the
# graph-class closed forms; spelled out so that building the parser for
# `gen` or `compute` imports no inequalities.
_CHECKS = (
    "ordering", "jensen", "thm1", "thm3", "thm4", "thm5", "thm6", "conn",
    "star", "wheel", "path",
)

_BASE_CHECKS = ("thm3", "thm4", "thm5", "thm6")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphent",
        description="graph entropies and their bound catalog",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit an edge list for a graph class")
    gen.add_argument(
        "cls",
        metavar="class",
        choices=("star", "path", "cycle", "wheel", "complete", "gnp"),
    )
    gen.add_argument("n", type=int)
    gen.add_argument("--p", type=float, help="gnp edge probability")
    gen.add_argument("--seed", type=int, help="gnp seed")

    comp = sub.add_parser("compute", help="entropy report for a piped edge list")
    comp.add_argument("--alpha", type=float)
    comp.add_argument("--dist", choices=("orbits", "linear", "exp"), default="orbits")
    comp.add_argument("--c", help="comma-separated sphere coefficients")
    comp.add_argument("--beta", type=float, help="exponential functional base")
    comp.add_argument("--n", type=int, help="vertex count override for the edge list")

    chk = sub.add_parser("check", help="evaluate one bound instance")
    chk.add_argument("theorem", choices=_CHECKS)
    chk.add_argument("--alpha", type=float, required=True)
    chk.add_argument("--variant", choices=("literal", "corrected"), default="corrected")
    chk.add_argument("--strict", action="store_true",
                     help="exit 1 if any emitted report is violated")
    chk.add_argument("--log-base", choices=("2", "e"), default="2",
                     help="log base for the thm3..thm6 bound formulas")
    chk.add_argument("--probs", help="raw distribution, e.g. 0.9,0.1")
    chk.add_argument("--probs1", help="first raw distribution (thm4/thm5)")
    chk.add_argument("--probs2", help="second raw distribution (thm4/thm5)")
    chk.add_argument("--use-epsilon", action="store_true",
                     help="thm1: use the epsilon**2 corollary form")
    chk.add_argument("--psi", type=float, help="thm4 dominance constant")
    chk.add_argument("--s1", type=float, help="thm4 corollary: total of f1")
    chk.add_argument("--s2", type=float, help="thm4 corollary: total of f2")
    chk.add_argument("--phi", type=float, help="thm5 additive constant")
    chk.add_argument("--dist", choices=("orbits", "linear", "exp"))
    chk.add_argument("--functional", choices=("linear", "exp"))
    chk.add_argument("--c", help="comma-separated sphere coefficients")
    chk.add_argument("--beta", type=float)
    chk.add_argument("--n", type=int, help="class size (star/wheel/path) or parse override")
    chk.add_argument("--c1", type=float, help="thm6 weight for f1")
    chk.add_argument("--c2", type=float, help="thm6 weight for f2")
    chk.add_argument("--symmetric", action="store_true", help="thm6 averaged form")
    chk.add_argument("--f2-functional", choices=("linear", "exp"))
    chk.add_argument("--f2-c", help="thm6: coefficients for f2")
    chk.add_argument("--f2-beta", type=float)

    swp = sub.add_parser("sweep", help="run a sweep from a JSON config")
    swp.add_argument("--config", required=True)
    swp.add_argument("--format", choices=("json", "csv", "text"), default="json")
    swp.add_argument("--strict", action="store_true",
                     help="exit 1 if the sweep recorded any violation")
    return parser


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise DomainError(f"cannot parse {what} from {text!r}") from None


def _parse_probs(text: str) -> Distribution:
    from .measures import Distribution

    return Distribution(p=_parse_floats(text, "probabilities"))


def _round12(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def _functional_spec(
    kind: str | None,
    c: str | None,
    beta: float | None,
    what: str = "this check",
    flag: str = "--functional",
) -> FunctionalSpec:
    """The spec that a kind flag (--functional, --f2-functional or --dist),
    its coefficients and its beta describe; ``flag`` names the kind flag."""
    from .measures import FunctionalSpec

    if kind is None:
        raise DomainError(f"{what} requires {flag} linear|exp")
    coeffs = _parse_floats(c, "coefficients") if c else None
    kind = "exponential" if kind == "exp" else kind
    return FunctionalSpec(kind=kind, coeffs=coeffs, beta=beta)


def _graph_from_stdin(stdin: str | None, n_override: int | None) -> Graph:
    """The edge list on stdin as a Graph; each operation checks its own
    domain before the graph's neighbor lists are built."""
    from .graph import parse_edge_list

    return parse_edge_list(sys.stdin.read() if stdin is None else stdin, n=n_override)


def _distribution_for(g: Graph, dist_kind: str, c: str | None, beta: float | None):
    """(Distribution, kind-specific extras) for orbits/linear/exp on g."""
    from .measures import (
        distribution_from_values,
        functional_values,
        partition_distribution,
    )
    from .orbits import vertex_orbits

    if dist_kind == "orbits":
        if c is not None or beta is not None:
            raise DomainError("--c/--beta do not apply to the orbit distribution")
        part = vertex_orbits(g)
        return partition_distribution(part), {"orbit_sizes": list(part.sizes)}
    spec = _functional_spec(dist_kind, c, beta)
    fv = functional_values(g, spec)
    extras = {
        "functional_params": {
            "kind": spec.kind,
            "c": None if spec.coeffs is None else list(spec.coeffs),
            "beta": spec.beta,
            "S": None if fv.linear is None else _round12(math.fsum(fv.linear)),
            "log2_S": _round12(fv.total_log / math.log(2.0)),
        }
    }
    return distribution_from_values(fv), extras


def emit_entropy_report(g: Graph, args: argparse.Namespace) -> str:
    """JSON entropy report for `graphent compute`, numbers at 12 significant
    digits."""
    from .measures import distribution_stats, renyi_entropy, shannon_entropy

    alpha = args.alpha
    d, extras = _distribution_for(g, args.dist, args.c, args.beta)
    stats = distribution_stats(d)
    if not math.isfinite(stats.rho):
        raise DomainError(
            f"rho = max p / min p overflows a float (min p = {min(d.probs):g})"
        )
    renyi = None
    if alpha is not None:
        renyi = renyi_entropy(d, alpha)
        if not math.isfinite(renyi):
            # alpha * ln p rounds to -inf below -1.8e308, so sum p**alpha is 0
            raise DomainError(f"H_alpha leaves float range at alpha = {alpha:g}")
    doc = {
        "n": g.n,
        "distribution_kind": "exponential" if args.dist == "exp" else args.dist,
        "alpha": _round12(alpha) if alpha is not None else None,
        "shannon": _round12(shannon_entropy(d)),
        "renyi": _round12(renyi),
        "rho": _round12(stats.rho),
        "epsilon": _round12(stats.epsilon),
    }
    doc.update(extras)
    return json.dumps(doc, allow_nan=False)


def _run_gen(args) -> tuple[int, str]:
    from .graph import generate_graph, write_edge_list

    if args.cls == "gnp":
        if args.p is None or args.seed is None:
            raise DomainError("gnp requires --p and --seed")
        g = generate_graph("gnp", args.n, p=args.p, seed=args.seed)
    else:
        if args.p is not None or args.seed is not None:
            raise DomainError("--p/--seed only apply to gnp")
        g = generate_graph(args.cls, args.n)
    return 0, write_edge_list(g)


def _check_inputs(args, stdin: str | None):
    """(THEOREMS id, BoundInputs) of a check's flags; each flag's error is
    raised in the order the check reads it."""
    from .inequalities import BoundInputs
    from .measures import functional_values
    from .orbits import vertex_orbits

    theorem = args.theorem
    if theorem in ("ordering", "jensen", "thm1"):
        if args.probs is not None:
            d = _parse_probs(args.probs)
        else:
            g = _graph_from_stdin(stdin, args.n)
            d, _ = _distribution_for(g, args.dist or "orbits", args.c, args.beta)
        if theorem == "thm1" and args.use_epsilon:
            theorem = "thm1_eps"
        return theorem, BoundInputs(dist=d)
    if theorem == "thm4":
        if args.probs1 is None or args.probs2 is None:
            raise DomainError("thm4 requires --probs1 and --probs2")
        d1, d2 = _parse_probs(args.probs1), _parse_probs(args.probs2)
        if args.s1 is not None or args.s2 is not None:
            if args.s1 is None or args.s2 is None:
                raise DomainError("corollary mode requires both --s1 and --s2")
            totals = (args.s1, args.s2)
            return "thm4_cor", BoundInputs(dist=d1, dist_second=d2, totals=totals)
        if args.psi is None:
            raise DomainError("thm4 requires --psi or --s1/--s2")
        return "thm4", BoundInputs(dist=d1, dist_second=d2, psi=args.psi)
    if theorem == "thm5":
        if args.probs1 is None or args.probs2 is None or args.phi is None:
            raise DomainError("thm5 requires --probs1, --probs2 and --phi")
        d1, d2 = _parse_probs(args.probs1), _parse_probs(args.probs2)
        return "thm5", BoundInputs(dist=d1, dist_second=d2, phi=args.phi)
    g = _graph_from_stdin(stdin, args.n)
    if theorem == "thm6":
        spec1 = _functional_spec(args.functional, args.c, args.beta, "thm6 (f1)")
        spec2 = _functional_spec(
            args.f2_functional, args.f2_c, args.f2_beta, "thm6 (f2)", "--f2-functional"
        )
        fv1, fv2 = functional_values(g, spec1), functional_values(g, spec2)
        if args.c1 is None or args.c2 is None:
            raise DomainError("thm6 requires --c1 and --c2")
        theorem = "thm6_avg" if args.symmetric else "thm6"
        weights = (args.c1, args.c2)
        return theorem, BoundInputs(graph=g, fv=fv1, fv_second=fv2, weights=weights)
    spec = _functional_spec(args.functional, args.c, args.beta, theorem)
    if theorem == "thm3":
        # orbits first: their cap rejects a large graph before its O(n^2)
        # distance matrix is built
        part = vertex_orbits(g)
        return "thm3", BoundInputs(graph=g, part=part, fv=functional_values(g, spec))
    # conn_linear or conn_exp, as --functional names it; its values come
    # once the graph is known to be connected
    return f"conn_{args.functional}", BoundInputs(graph=g, spec=spec)


def _run_check(args, stdin: str | None) -> tuple[int, str]:
    from .inequalities import class_closed_forms, evaluate

    base = 2.0 if args.log_base == "2" else math.e
    if args.log_base != "2" and args.theorem not in _BASE_CHECKS:
        raise DomainError(f"--log-base only applies to {'/'.join(_BASE_CHECKS)}")
    theorem = args.theorem
    if theorem in ("star", "wheel", "path"):
        if args.n is None:
            raise DomainError(f"{theorem} closed forms require --n")
        fv = None
        if args.functional is not None:
            from .graph import generate_graph
            from .measures import functional_values
            from .orbits import vertex_orbits

            spec = _functional_spec(args.functional, args.c, args.beta)
            g = generate_graph(theorem, args.n)
            # orbits first, as for thm3: their cap refuses a large graph
            # before its O(n^2) distance matrix is built
            vertex_orbits(g)
            fv = functional_values(g, spec)
        reports = class_closed_forms(theorem, args.n, args.alpha, fv=fv)
    else:
        theorem_id, inputs = _check_inputs(args, stdin)
        reports = [evaluate(theorem_id, inputs, args.alpha, args.variant, base)]

    docs = [r.to_dict() for r in reports]
    out = json.dumps(docs[0] if len(docs) == 1 else docs, allow_nan=False)
    status = 0
    if args.strict and any(r.holds is False for r in reports):
        status = 1
    return status, out + "\n"


def _run_sweep(args) -> tuple[int, str]:
    from .harness import SweepConfig, stream_sweep, summarize_report

    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = SweepConfig.from_dict(json.load(fh))
    if args.format == "json":
        summary = stream_sweep(cfg, sys.stdout.write)
        sys.stdout.write("\n")
        out = ""
    else:
        summary = stream_sweep(cfg)
        out = summarize_report(summary, format=args.format)
    status = 0
    if args.strict and any(
        agg["violated"] > 0 for agg in summary.aggregates.values()
    ):
        status = 1
    return status, out


def dispatch(argv: list[str], stdin: str | None = None) -> tuple[int, str]:
    """Run one invocation; returns (exit status, stdout text).

    `sweep --format json` writes its document, and the newline after it, to
    sys.stdout graph by graph as the sweep runs, and returns no text.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), ""
    try:
        if args.command == "gen":
            return _run_gen(args)
        if args.command == "compute":
            g = _graph_from_stdin(stdin, args.n)
            return 0, emit_entropy_report(g, args) + "\n"
        if args.command == "check":
            return _run_check(args, stdin)
        if args.command == "sweep":
            return _run_sweep(args)
        raise DomainError(f"unknown command {args.command!r}")
    except BrokenPipeError:
        raise  # main's to handle: it is no domain error
    except (
        GraphEntropyError, OSError, json.JSONDecodeError, UnicodeDecodeError
    ) as exc:
        print(f"graphent: {exc}", file=sys.stderr)
        return 2, ""
    except MemoryError:
        print("graphent: out of memory", file=sys.stderr)
        return 2, ""


def main(argv: list[str] | None = None) -> int:
    try:
        status, out = dispatch(sys.argv[1:] if argv is None else argv)
        sys.stdout.write(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: end as SIGPIPE would, with stdout on the
        # null device so that the flush at exit raises nothing
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return status


if __name__ == "__main__":
    raise SystemExit(main())
