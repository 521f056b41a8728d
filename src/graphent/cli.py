"""Command-line front end: generate graphs, compute entropies, check bounds.

Subcommands compose over stdin/stdout edge lists:

    graphent gen star 4 | graphent compute --alpha 2 --dist orbits
    graphent check thm1 --alpha 0.5 --variant literal --probs 0.9,0.1 --strict
    graphent sweep --config sweep.json --format text

Exit status: 0 success, 1 violation found under --strict, 2 usage or
domain errors.

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

# One check per distinct harness.THEOREMS check name, plus the graph-class
# closed forms; spelled out so that parsing `check` needs no harness import.
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


def _graph_from_stdin(
    stdin: str | None,
    n_override: int | None,
    *,
    orbits: bool = False,
    disconnected: str | None = None,
) -> Graph:
    """The edge list on stdin as a Graph, its vertex count checked first.

    An explicit n costs n adjacency lists, so what the command cannot take
    is rejected before the graph is built: past ORBIT_CAP when ``orbits``
    are computed, and, when ``disconnected`` is the command's error for a
    disconnected graph, any n that leaves vertex n - 1 without an edge or
    that needs more than the m + 1 vertices m edges can connect.
    """
    from .graph import Graph, parse_edge_pairs

    if stdin is None:
        stdin = sys.stdin.read()
    n, edges = parse_edge_pairs(stdin, n=n_override)
    if disconnected is not None and n > 1:
        max_id = max((v for _, v in edges), default=-1)
        if n > max_id + 1 or n > len(edges) + 1:
            raise DomainError(disconnected)
    if orbits:
        from .orbits import check_orbit_capacity

        check_orbit_capacity(n)
    return Graph(n=n, edges=edges)


def _graph_for(stdin: str | None, n_override: int | None, dist: str) -> Graph:
    """The graph that the --dist distribution (orbits, linear or exp) is
    taken on."""
    from .graph import DISCONNECTED

    if dist == "orbits":
        return _graph_from_stdin(stdin, n_override, orbits=True)
    return _graph_from_stdin(stdin, n_override, disconnected=DISCONNECTED)


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


def _run_check(args, stdin: str | None) -> tuple[int, str]:
    from .graph import DISCONNECTED, generate_graph
    from .inequalities import (
        class_closed_forms,
        connected_functional_bounds,
        jensen_gap_bound,
        ordering_bound,
        thm1_refined_bound,
        thm3_partition_vs_functional,
        thm4_scaled_dominance,
        thm5_additive_dominance,
        thm6_convex_combination,
    )
    from .measures import functional_values
    from .orbits import vertex_orbits

    base = 2.0 if args.log_base == "2" else math.e
    if args.log_base != "2" and args.theorem not in _BASE_CHECKS:
        raise DomainError(f"--log-base only applies to {'/'.join(_BASE_CHECKS)}")
    reports = []
    theorem = args.theorem

    if theorem in ("ordering", "jensen", "thm1"):
        if args.probs is not None:
            d = _parse_probs(args.probs)
        else:
            dist = args.dist or "orbits"
            g = _graph_for(stdin, args.n, dist)
            d, _ = _distribution_for(g, dist, args.c, args.beta)
        if theorem == "ordering":
            reports.append(ordering_bound(d, args.alpha))
        elif theorem == "jensen":
            reports.append(jensen_gap_bound(d, args.alpha))
        else:
            reports.append(
                thm1_refined_bound(
                    d, args.alpha, args.variant, use_epsilon=args.use_epsilon
                )
            )
    elif theorem == "thm3":
        g = _graph_from_stdin(
            stdin, args.n, orbits=True, disconnected=DISCONNECTED
        )
        spec = _functional_spec(args.functional, args.c, args.beta, "thm3")
        fv = functional_values(g, spec)
        reports.append(
            thm3_partition_vs_functional(g, vertex_orbits(g), fv, args.alpha, base=base)
        )
    elif theorem == "thm4":
        if args.probs1 is None or args.probs2 is None:
            raise DomainError("thm4 requires --probs1 and --probs2")
        d1, d2 = _parse_probs(args.probs1), _parse_probs(args.probs2)
        derive = None
        if args.s1 is not None or args.s2 is not None:
            if args.s1 is None or args.s2 is None:
                raise DomainError("corollary mode requires both --s1 and --s2")
            derive = (args.s1, args.s2)
        elif args.psi is None:
            raise DomainError("thm4 requires --psi or --s1/--s2")
        reports.append(
            thm4_scaled_dominance(
                d1, d2, args.psi, args.alpha, derive_psi_from=derive, base=base
            )
        )
    elif theorem == "thm5":
        if args.probs1 is None or args.probs2 is None or args.phi is None:
            raise DomainError("thm5 requires --probs1, --probs2 and --phi")
        reports.append(
            thm5_additive_dominance(
                _parse_probs(args.probs1),
                _parse_probs(args.probs2),
                args.phi,
                args.alpha,
                args.variant,
                base=base,
            )
        )
    elif theorem == "thm6":
        g = _graph_from_stdin(stdin, args.n, disconnected=DISCONNECTED)
        spec1 = _functional_spec(args.functional, args.c, args.beta, "thm6 (f1)")
        spec2 = _functional_spec(
            args.f2_functional, args.f2_c, args.f2_beta, "thm6 (f2)", "--f2-functional"
        )
        fv1, fv2 = functional_values(g, spec1), functional_values(g, spec2)
        if args.c1 is None or args.c2 is None:
            raise DomainError("thm6 requires --c1 and --c2")
        reports.append(
            thm6_convex_combination(
                g, fv1, fv2, args.c1, args.c2, args.alpha, args.variant,
                symmetric=args.symmetric, base=base,
            )
        )
    elif theorem == "conn":
        g = _graph_from_stdin(
            stdin, args.n,
            disconnected="connected-graph bounds need a connected graph",
        )
        spec = _functional_spec(args.functional, args.c, args.beta, "conn")
        reports.append(
            connected_functional_bounds(g, spec, args.alpha, args.variant)
        )
    else:  # star / wheel / path closed forms
        if args.n is None:
            raise DomainError(f"{theorem} closed forms require --n")
        fv = None
        if args.functional is not None:
            spec = _functional_spec(args.functional, args.c, args.beta)
            fv = functional_values(generate_graph(theorem, args.n), spec)
        reports.extend(class_closed_forms(theorem, args.n, args.alpha, fv=fv))

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
            g = _graph_for(stdin, args.n, args.dist)
            return 0, emit_entropy_report(g, args) + "\n"
        if args.command == "check":
            return _run_check(args, stdin)
        if args.command == "sweep":
            return _run_sweep(args)
        raise DomainError(f"unknown command {args.command!r}")
    except (
        GraphEntropyError, OSError, json.JSONDecodeError, UnicodeDecodeError
    ) as exc:
        print(f"graphent: {exc}", file=sys.stderr)
        return 2, ""


def main(argv: list[str] | None = None) -> int:
    status, out = dispatch(sys.argv[1:] if argv is None else argv)
    if out:
        sys.stdout.write(out)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
