"""Checkable reports for every inequality in the bound catalog.

Each theorem has one column core. It takes its inputs, an alpha grid and
the variants asked for, computes everything that does not depend on alpha
or on the variant once, builds each variant's bound at every alpha, and
hands each grid to _outcomes, which applies the slack, verdict and
finiteness rules in one pass. It returns one Column per variant, in the
canonical JSON's shape: the report params, built once, with one list over
the grid for each that depends on alpha, and one list per verdict, number,
direction and reason. A core checks its own inputs first and builds what
its record leaves None. THEOREMS, the one theorem table, says per sweep id
which core runs on which fields of a BoundInputs, the one record of every
input a core reads, with one field per role: the dominance bounds thm4,
thm4_cor and thm5 all read p1 from dist and p2 from dist_second. The sweep
fills one record per row with what the row's columns share and keeps and
renders the columns; evaluate runs the same core at one alpha (the public
operations and `graphent check` build a record and call it) and returns a
structured BoundReport instead of asserting. The star/wheel/path closed
forms are one more core, _class_columns, which class_closed_forms reads at
one alpha through the same _report, so every report comes from a Column.
They are no sweep ids, since the benchmark's committed sweep reference
fixes a sweep's aggregate keys. Two variants exist wherever
the printed bound and its repaired derivation disagree:

  literal    the formula exactly as printed: rho**(alpha-2) multiplied
             below alpha=1 and divided above (thm1/thm1_eps), penalty terms
             without the 1/ln(base) factor (thm5/thm6), signed log2(beta)
             (conn_exp).
  corrected  the repaired form: rho**abs(alpha-2) multiplied in both
             regimes, the epsilon**2 factor in both regimes, penalties
             scaled by 1/ln(base) wherever log(1+x) was replaced by x,
             and abs(log2(beta)) so beta < 1 keeps the interval ordered.

Every core runs on Python floats through ``math``, the Jensen-gap pair sum
and the lemma oracles included, and lemma_checks draws from
graph.SeededStream, so nothing here loads numpy.

Checks are non-strict with tolerance 1e-9 (1e-12 for closed-form equality);
holds is None, never False, when an instance's precondition fails. "log" in
the dominance/combination bounds (thm3-thm6) defaults to base 2 but accepts
base e, under which the literal penalty forms become sound.
"""

from __future__ import annotations

import math
from functools import partial
from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence

from .errors import DomainError
from .graph import Graph, SeededStream, distance_matrix, generate_graph
from .measures import (
    FUNCTIONAL_KINDS,
    LN2,
    Distribution,
    FunctionalSpec,
    FunctionalValues,
    _as_float,
    _resolved_coeffs,
    distribution_from_values,
    distribution_stats,
    functional_values,
    log2_power_sums,
    logsumexp,
    partition_distribution,
    renyi_entropies,
    shannon_entropy,
)
from .orbits import OrbitPartition, vertex_orbits

TOLERANCE = 1e-9
EXACT_TOLERANCE = 1e-12

VARIANTS = ("literal", "corrected")

# Relative guard when checking sampled preconditions that may sit exactly on
# the boundary after float round-trips.
_PRE_GUARD = 1e-12


class BoundReport(NamedTuple):
    """One evaluated theorem instance.

    slack is the signed distance to the bound (negative below -tolerance
    means violation): bound-lhs for upper, lhs-bound for lower,
    -abs(lhs-bound) for equal, min(lhs-lo, hi-lhs) for interval. holds is
    None when the precondition failed.
    """

    theorem_id: str
    variant: str
    alpha: float
    lhs: float | None
    bound: float | None
    direction: str
    precondition_met: bool
    holds: bool | None
    slack: float | None
    tolerance: float
    params: Mapping[str, Any] = MappingProxyType({})

    def to_dict(self) -> dict[str, Any]:
        doc = self._asdict()
        doc["params"] = dict(self.params)
        return {"theorem": doc.pop("theorem_id"), **doc}


class LemmaCheck(NamedTuple):
    """One sampled instance of a real-number lemma backing the catalog."""

    lemma_id: str
    inputs: dict[str, Any]
    satisfied: bool
    margin: float


class Column(NamedTuple):
    """A column core's result over one alpha grid, in the canonical JSON's
    shape: one list over the grid per verdict, number and direction.

    params holds every report param in key order; those named in varying
    depend on alpha and hold their list over the grid. reason holds per
    alpha None or the reason that alpha failed, where every other list
    holds None. The precondition and the tolerance hold at every alpha.
    """

    theorem_id: str
    params: dict[str, Any]
    varying: tuple[str, ...]
    holds: list[bool | None]
    lhs: list[float | None]
    bound: list[float | None]
    slack: list[float | None]
    direction: Sequence[str | None]
    reason: list[str | None]
    precondition_met: bool = True
    tolerance: float = TOLERANCE

    @classmethod
    def failed(cls, theorem_id: str, reason: str, size: int) -> "Column":
        """A column whose every alpha fails for one reason."""
        nones = [None] * size
        return cls(theorem_id, {}, (), nones, nones, nones, nones, nones,
                   [reason] * size, precondition_met=False)

    def params_at(self, i: int) -> dict[str, Any]:
        """The full params of the evaluated alpha at index i."""
        params = dict(self.params)
        for name in self.varying:
            params[name] = params[name][i]
        return params


class BoundInputs(NamedTuple):
    """Every input a column core reads, one field per role; a caller fills
    those of the theorems it evaluates and leaves the rest None. pdist,
    combined, fv and eta are derived: a core builds them when they are
    None, and so are thm4's dist_second and psi (from fv_second) and
    thm4_cor's dist_second and totals (from fv and fv_second). The sweep
    fills one record per (graph, family) row, pdist, combined, fv and eta
    included, so that a row's columns share them and their Renyi memos."""

    # the graph that thm3, thm6 and conn check and conn's values come from
    graph: Graph | None = None
    # p of ordering, jensen and thm1, and p1 of thm4, thm4_cor and thm5
    dist: Distribution | None = None
    # thm3: the orbits and partition_distribution(part)
    part: OrbitPartition | None = None
    pdist: Distribution | None = None
    # conn: the functional's spec and the graph's diameter
    spec: FunctionalSpec | None = None
    eta: int | None = None
    # f of thm3 and conn, f1 of thm6; and thm6's f2
    fv: FunctionalValues | None = None
    fv_second: FunctionalValues | None = None
    # p2 of thm4, thm4_cor and thm5; thm4 reads None as f2's distribution
    # and thm4_cor as that of the dominating functional f1 + f2
    dist_second: Distribution | None = None
    # thm4's dominance constant, or None for psi = max p1/p2
    psi: float | None = None
    # thm4_cor's totals (S1, S2), or None for those of f1 and f1 + f2
    totals: tuple[float, float] | None = None
    # thm5's additive constant
    phi: float | None = None
    # thm6: the weights (c1, c2) and c1 f + c2 f_second
    weights: tuple[float, float] | None = None
    combined: FunctionalValues | None = None


def _outcomes(
    theorem_id: str, params: dict[str, Any], varying: tuple[str, ...],
    lhs: list[float], bounds: Sequence[float | str | tuple[float, float]],
    directions: Sequence[str], *, precondition_met: bool = True,
    tolerance: float = TOLERANCE,
) -> Column:
    """The Column of one variant: slack, verdict and finiteness per alpha.

    params holds each param named in varying as its list over the grid. A
    str bound is that alpha's reason. An "interval" bound is (lo, hi), which
    varying holds too, and its nearer end becomes the bound. An alpha fails
    when its slack, an interval end or a varying value is not finite, and
    every list holds None there. lhs is a list of floats. Unless an alpha
    fails, lhs, the varying lists and directions are kept as they are, so
    a core's variants share them and the canonical JSON writes them once.
    """
    n, failed = len(directions), {}
    try:  # most grids: a number bound on one side at every alpha
        slacks = [
            b - h if d == "upper" else h - b for h, b, d in zip(lhs, bounds, directions)
        ]
        # a sum of floats is finite only where every one of them is
        one_sided = "equal" not in directions and math.isfinite(sum(slacks))
        nearest = bounds
    except TypeError:  # a reason or an interval
        one_sided = False
    if not one_sided:
        nearest, slacks = [], []
        for i, (h, bound, direction) in enumerate(zip(lhs, bounds, directions)):
            finite = True
            if bound.__class__ is str:
                failed[i], bound, slack = bound, 0.0, 0.0
            elif direction == "interval":
                lo, hi = bound
                low_side, high_side = h - lo, hi - h
                slack = min(low_side, high_side)
                bound = lo if low_side <= high_side else hi
                # an interval's other end is not in slack, so it is checked too
                finite = math.isfinite(lo) and math.isfinite(hi)
            elif direction == "upper":
                slack = bound - h
            elif direction == "lower":
                slack = h - bound
            else:  # equal
                slack = -abs(h - bound)
            # slack is finite only where lhs and bound are
            if not (finite and math.isfinite(slack)):
                failed[i] = (
                    f"{theorem_id} is not finite: lhs {h!r}, bound {bound!r}, "
                    f"slack {slack!r}"
                )
            nearest.append(bound)
            slacks.append(slack)
    bound_out, slacks = list(map(float, nearest)), list(map(float, slacks))
    values = [params[name] for name in varying]
    if values and not math.isfinite(sum(map(sum, values))):
        for i, row in enumerate(zip(*values)):
            if i not in failed and not all(map(math.isfinite, row)):
                failed[i] = f"{theorem_id} params are not finite: {row!r}"
    negative = -tolerance
    holds = [s >= negative for s in slacks] if precondition_met else [None] * n
    reasons = [None] * n
    if failed:
        reasons = [failed.get(i) for i in range(n)]
        def cut(xs: Sequence[Any]) -> list[Any]:
            return [x if r is None else None for x, r in zip(xs, reasons)]
        holds, lhs, bound_out, slacks, directions = map(
            cut, (holds, lhs, bound_out, slacks, directions)
        )
        params = {**params, **dict(zip(varying, map(cut, values)))}
    return Column(
        theorem_id, params, varying, holds, lhs, bound_out, slacks, directions,
        reasons, precondition_met, tolerance,
    )


def _report(variant: str, alpha: float, column: Column) -> BoundReport:
    """The BoundReport of a one-alpha column; a reason is raised as the
    DomainError it came from."""
    if column.reason[0] is not None:
        raise DomainError(column.reason[0])
    return BoundReport(
        column.theorem_id, variant, float(alpha), column.lhs[0], column.bound[0],
        column.direction[0], column.precondition_met, column.holds[0],
        column.slack[0], column.tolerance, column.params_at(0),
    )


def _directions(alphas: Sequence[float], below: str = "upper") -> list[str]:
    """A one-sided bound's direction at each alpha: below under alpha=1, the
    other side above it."""
    above = "lower" if below == "upper" else "upper"
    return [below if alpha < 1.0 else above for alpha in alphas]


def _check_alpha(alpha: float) -> None:
    if not 0.0 < _as_float(alpha) < math.inf or alpha == 1.0:
        raise DomainError(f"alpha must be positive, finite and != 1, got {alpha}")


def _check_base(base: float) -> None:
    if not 1.0 < base < math.inf:
        raise DomainError(f"log base must exceed 1 and be finite, got {base}")


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise DomainError(f"variant must be one of {VARIANTS}, got {variant!r}")


def _to_base(bits: list[float], base: float) -> list[float]:
    """Convert base-2 information values to the requested log base."""
    ln_base = math.log(base)
    return [b * LN2 / ln_base for b in bits]


def _logb(x: float, base: float) -> float:
    return math.log(x) / math.log(base)


def _penalized(
    theorem_id: str, params: dict[str, Any], varying: tuple[str, ...],
    lhs: list[float], alphas: Sequence[float], heads: list[float],
    tails: list[float | str], variants: Sequence[str], base: float, met: bool = True,
) -> list[Column]:
    """One Column per variant of the bound head + tail * factor at each
    alpha, or the reason a str tail holds. The factor scales penalties that
    came from replacing log(1+x) by x: 1/ln(base) when corrected, else 1."""
    directions = _directions(alphas)
    factors = [1.0 / math.log(base) if v == "corrected" else 1.0 for v in variants]
    return [
        _outcomes(theorem_id, params, varying, lhs, [
            t if t.__class__ is str else h + t * factor for h, t in zip(heads, tails)
        ], directions, precondition_met=met)
        for factor in factors
    ]


# ---------------------------------------------------------------------------
# Lemma oracles
# ---------------------------------------------------------------------------


def _check_lemma1(x: float, y: float, r: float) -> LemmaCheck:
    lo_coeff, hi_coeff = (y, x) if (r < 0 or r > 1) else (x, y)
    lo = r * lo_coeff ** (r - 1) * (x - y)
    hi = r * hi_coeff ** (r - 1) * (x - y)
    mid = x**r - y**r
    margin = min(mid - lo, hi - mid)
    return LemmaCheck(
        lemma_id="L1",
        inputs={"x": x, "y": y, "r": r},
        satisfied=margin > 0.0,
        margin=margin,
    )


def _check_lemma2(rows: list[list[float]], r: float) -> LemmaCheck:
    big_r = 1.0 if r <= 1.0 else 1.0 / r
    lhs = math.fsum(math.fsum(col) ** r for col in zip(*rows)) ** big_r
    rhs = math.fsum(math.fsum(v**r for v in row) ** big_r for row in rows)
    margin = rhs - lhs
    satisfied = lhs <= rhs * (1.0 + _PRE_GUARD) + 1e-12
    return LemmaCheck(
        lemma_id="L2",
        inputs={"vectors": rows, "r": r, "R": big_r},
        satisfied=satisfied,
        margin=margin,
    )


def _check_lemma3(p: list[float], x: list[float]) -> LemmaCheck:
    gap = math.log2(math.fsum(pi * xi for pi, xi in zip(p, x))) - math.fsum(
        pi * math.log2(xi) for pi, xi in zip(p, x)
    )
    # the sum over ordered pairs (i, j) of p_i p_j (x_i - x_j)**2 / (x_i x_j)
    pair_sum = 2.0 * math.fsum(
        p[i] * p[j] * (x[i] - x[j]) ** 2 / (x[i] * x[j])
        for i in range(len(p))
        for j in range(i + 1, len(p))
    )
    bound = pair_sum / (2.0 * LN2)
    margin = min(gap, bound - gap)
    satisfied = gap >= -1e-12 and gap <= bound + 1e-12 + _PRE_GUARD * abs(bound)
    return LemmaCheck(
        lemma_id="L3",
        inputs={"p": p, "x": x},
        satisfied=satisfied,
        margin=margin,
    )


def lemma_checks(seed: int, trials: int) -> list[LemmaCheck]:
    """Sample `trials` valid instances of each lemma and check the chains.

    Draws come from graph.SeededStream(seed), so each seed gives one list.
    Lemma 1 samples keep x and y separated by at least 1% relative so the
    strict chain cannot degenerate into a float tie. Lemma 3's p is a flat
    Dirichlet draw: k standard exponentials -log1p(-U), normalized
    (Devroye 1986, ch. XI), with one atom zeroed in a fifth of the draws.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    stream = SeededStream(seed)

    def uniform(lo: float, hi: float) -> float:
        return stream.uniform(lo, hi, 1)[0]

    def integer(lo: int, hi: int) -> int:
        return lo + int(uniform(0.0, hi - lo))

    out: list[LemmaCheck] = []
    for _ in range(trials):
        # L1
        while True:
            x, y = stream.uniform(0.05, 20.0, 2)
            if abs(x - y) >= 0.01 * max(x, y):
                break
        branch = integer(0, 3)
        if branch == 0:
            r = uniform(-3.0, -0.05)
        elif branch == 1:
            r = uniform(1.05, 4.0)
        else:
            r = uniform(0.05, 0.95)
        out.append(_check_lemma1(x, y, r))

        # L2
        m, length = integer(2, 5), integer(1, 7)
        rows = [stream.uniform(0.0, 3.0, length) for _ in range(m)]
        if uniform(0.0, 1.0) < 0.2:
            rows[integer(0, m)][integer(0, length)] = 0.0
        out.append(_check_lemma2(rows, uniform(0.05, 3.95)))

        # L3
        k = integer(2, 7)
        e = [-math.log1p(-u) for u in stream.random(k)]
        if uniform(0.0, 1.0) < 0.2 and k > 2:
            e[integer(0, k)] = 0.0
        total = math.fsum(e)
        p = [v / total for v in e]
        out.append(_check_lemma3(p, stream.uniform(0.01, 10.0, k)))
    return out


# ---------------------------------------------------------------------------
# Renyi vs Shannon (ordering, Jensen-gap step, thm1/thm2 refinements)
# ---------------------------------------------------------------------------


def ordering_bound(d: Distribution, alpha: float) -> BoundReport:
    """H_alpha >= H below alpha=1 and H_alpha <= H above it."""
    return evaluate("ordering", BoundInputs(dist=d), alpha)


def _ordering_column(r: BoundInputs, alphas: Sequence[float], *_) -> list[Column]:
    d = r.dist
    n, h = d.size, shannon_entropy(d)
    return [_outcomes(
        "ordering", {"N": n, "shannon": h}, (), list(renyi_entropies(d, alphas)),
        [h] * len(alphas), _directions(alphas, "lower"),
    )]


def jensen_gap_bound(d: Distribution, alpha: float) -> BoundReport:
    """Sound intermediate step: H + sum-term / (2 ln2 (1-alpha)) bounds
    H_alpha from above below alpha=1 and from below above it.

    The sum runs over ordered pairs with x = p**(alpha-1), exactly as the
    Jensen-gap extension instantiates it.
    """
    return evaluate("jensen", BoundInputs(dist=d), alpha)


def _jensen_column(r: BoundInputs, alphas: Sequence[float], *_) -> list[Column]:
    d = r.dist
    sum_terms = _jensen_sums(d, alphas)
    n, h = d.size, shannon_entropy(d)
    bounds = [
        h + sum_term / (2.0 * LN2 * (1.0 - alpha))
        for alpha, sum_term in zip(alphas, sum_terms)
    ]
    params = {"N": n, "shannon": h, "sum_term": sum_terms}
    return [_outcomes(
        "jensen", params, ("sum_term",), list(renyi_entropies(d, alphas)), bounds,
        _directions(alphas),
    )]


# The smallest normal float: a power below it has lost digits.
_MIN_NORMAL = 2.0**-1022


def _jensen_sums(d: Distribution, alphas: Sequence[float]) -> list[float]:
    """Lemma 3's sum over ordered pairs of p_i p_j (x_i - x_j)**2 / (x_i x_j),
    x = p**(alpha-1), at each alpha: 8 * sum p_i p_j sinh(h)**2 over the
    pairs p_i > p_j, h = (alpha-1)/2 * ln(p_i/p_j). Equal atoms add 0.

    ln(p_i/p_j) is log1p of the exact p_i - p_j within a factor 2, else the
    log of the rounded ratio (or of each atom, past float range). Where
    |h| > 1 a rounded h would cost |h| ulps, so sinh(h) = (z - 1/z)/2 with
    z = r_i/r_j, r = p**((alpha-1)/2) from the exact atoms: a power with an
    exact exponent above alpha = 1, p**(alpha/2) / sqrt(p) below it. Only
    a pair of small atoms can see r_j underflow; it keeps sinh(h). inf where
    a sum leaves float range, which _outcomes makes that alpha's reason.
    """
    probs, logs = d.probs, d.log_probs
    pairs = []
    for a in range(d.size):
        for b in range(a + 1, d.size):
            if probs[a] == probs[b]:
                continue
            i, j = (a, b) if probs[a] > probs[b] else (b, a)
            pi, pj = probs[i], probs[j]
            ratio = pi / pj
            if ratio <= 2.0:
                log_ratio = math.log1p((pi - pj) / pj)
            else:
                log_ratio = math.log(ratio) if ratio < math.inf else logs[i] - logs[j]
            pairs.append((i, j, pi * pj, log_ratio))
    sums = []
    for alpha in alphas:
        half = (alpha - 1.0) / 2.0
        try:
            if alpha > 1.0:
                roots = [p**half for p in probs]
            else:
                roots = [p ** (alpha / 2.0) / math.sqrt(p) for p in probs]
            terms = []
            for i, j, weight, log_ratio in pairs:
                h = half * log_ratio
                if abs(h) > 1.0 and roots[j] >= _MIN_NORMAL:
                    s = (roots[i] / roots[j] - roots[j] / roots[i]) / 2.0
                else:
                    s = math.sinh(h)
                terms.append(weight * s * s)
            sums.append(8.0 * math.fsum(terms))
        except OverflowError:
            sums.append(math.inf)
    return sums


def _thm1_bounds(
    h: float, alphas: Sequence[float], variant: str, pairs: int, rho: float,
    eps_factor: float,
) -> list[float | str]:
    """thm1's bound at each alpha in the variant thm1_refined_bound
    describes, or the reason rho's power overflows there, for Shannon
    entropy h, pairs = N(N-1) ordered pairs of atoms and eps_factor
    epsilon**2 or 1. It is an upper bound below alpha=1, a lower one above."""
    bounds: list[float | str] = []
    for alpha in alphas:
        exponent = abs(alpha - 2.0) if variant == "corrected" else alpha - 2.0
        try:
            rho_factor = rho**exponent
        except OverflowError:
            rho_factor = math.inf
        if math.isinf(rho) or math.isinf(rho_factor):
            bounds.append(f"rho ** {exponent:g} overflows a float at rho = {rho:g}")
        elif alpha > 1.0 and variant == "literal":
            # the printed form divides by rho**(alpha-2) and carries no
            # epsilon**2 in this regime even in the corollary
            bounds.append(h - (alpha - 1.0) * pairs / (2.0 * LN2 * rho_factor))
        else:
            # 1 - alpha carries the regime's sign: the gap is subtracted above 1
            gap = pairs * (1.0 - alpha) * eps_factor * rho_factor / (2.0 * LN2)
            bounds.append(h + gap)
    return bounds


def thm1_refined_bound(
    d: Distribution, alpha: float, variant: str, use_epsilon: bool = False
) -> BoundReport:
    """Shannon-side bound on H_alpha through rho (and optionally epsilon**2).

    literal transcribes the printed bounds: rho**(alpha-2) multiplied below
    alpha=1, divided above, epsilon**2 only below alpha=1. corrected uses
    rho**abs(alpha-2) multiplied in both regimes and epsilon**2 in both.
    """
    theorem_id = "thm1_eps" if use_epsilon else "thm1"
    return evaluate(theorem_id, BoundInputs(dist=d), alpha, variant)


def _thm1_column(
    r: BoundInputs, alphas: Sequence[float], variants: Sequence[str], base: float,
    use_epsilon: bool = False,
) -> list[Column]:
    d = r.dist
    stats = distribution_stats(d)
    n, h = d.size, shannon_entropy(d)
    eps_factor = stats.epsilon**2 if use_epsilon else 1.0
    theorem_id = "thm1_eps" if use_epsilon else "thm1"
    params = {
        "N": n,
        "rho": stats.rho,
        "epsilon": stats.epsilon,
        "use_epsilon": use_epsilon,
        "shannon": h,
    }
    hs, directions = list(renyi_entropies(d, alphas)), _directions(alphas)
    pairs = n * (n - 1)
    return [_outcomes(theorem_id, params, (), hs, _thm1_bounds(
        h, alphas, variant, pairs, stats.rho, eps_factor
    ), directions) for variant in variants]


# ---------------------------------------------------------------------------
# Partition vs functional, dominance, convex combination
# ---------------------------------------------------------------------------


def thm3_partition_vs_functional(
    g: Graph,
    part: OrbitPartition,
    fv: FunctionalValues,
    alpha: float,
    base: float = 2.0,
) -> BoundReport:
    """Partition Renyi entropy vs functional Renyi entropy through S/|X|.

    Precondition (sufficient, checkable): ascending-sorted block sizes sit
    strictly below the k smallest f values, which yields an injection
    |X_i| < f(v_i) over distinct vertices.
    """
    return evaluate("thm3", BoundInputs(graph=g, part=part, fv=fv), alpha, base=base)


def _thm3_column(
    r: BoundInputs, alphas: Sequence[float], variants: Sequence[str], base: float
) -> list[Column]:
    """thm3 on a connected graph; pdist is partition_distribution(part)."""
    g, part, pdist, fv = r.graph, r.part, r.pdist, r.fv
    if not g.is_connected():
        raise DomainError("thm3 needs a connected graph")
    if part.total != g.n or fv.size != g.n:
        raise DomainError("partition/functional sizes must match the graph")
    if pdist is None:
        pdist = partition_distribution(part)
    n = part.total
    k = part.k
    sizes = sorted(part.sizes)
    smallest_logs = sorted(fv.logs)[:k]
    met = all(math.log(size) < x for size, x in zip(sizes, smallest_logs))
    h_gammas = _to_base(renyi_entropies(pdist, alphas), base)
    h_fs = _to_base(renyi_entropies(distribution_from_values(fv), alphas), base)
    log_ratio = (fv.total_log - math.log(n)) / math.log(base)
    log2_s = fv.total_log / LN2
    bounds = [
        h_f + (alpha / (1.0 - alpha)) * log_ratio for alpha, h_f in zip(alphas, h_fs)
    ]
    params = {
        "k": k,
        "X_size": n,
        "log2_S": log2_s,
        "h_functional": h_fs,
        "log_base": base,
    }
    return [_outcomes(
        "thm3", params, ("h_functional",), h_gammas, bounds, _directions(alphas),
        precondition_met=met,
    )]


def thm4_scaled_dominance(
    d1: Distribution,
    d2: Distribution,
    psi: float | None,
    alpha: float,
    derive_psi_from: tuple[float, float] | None = None,
    base: float = 2.0,
) -> BoundReport:
    """H over p1 vs H over p2 assuming p1 <= psi * p2 everywhere.

    Corollary mode: derive_psi_from = (S1, S2) sets psi = S2/S1, matching
    the pointwise dominance f1 <= f2. Totals and psi must be finite.
    """
    if derive_psi_from is not None:
        inputs = BoundInputs(dist=d1, dist_second=d2, totals=derive_psi_from)
        return evaluate("thm4_cor", inputs, alpha, base=base)
    inputs = BoundInputs(dist=d1, dist_second=d2, psi=psi)
    return evaluate("thm4", inputs, alpha, base=base)


def _thm4_column(
    r: BoundInputs, alphas: Sequence[float], variants: Sequence[str], base: float,
    corollary: bool = False,
) -> list[Column]:
    """thm4 on distributions over one vertex set: p1 = dist against
    p2 = dist_second and psi, or in the corollary with psi = S2/S1 for the
    totals (S1, S2). A record that leaves dist_second None has it derived
    from fv and fv_second: p2 is f2's distribution and psi = max p1/p2,
    or in the corollary p2 is that of the dominating functional f1 + f2
    with totals (S1, S1 + S2)."""
    d1, d2, psi, totals = r.dist, r.dist_second, r.psi, r.totals
    if d2 is None and corollary:
        dominating = _weighted_sum(r.fv, r.fv_second, 1.0, 1.0)
        d2, totals = dominating.distribution, (r.fv.total, dominating.total)
    elif d2 is None:
        d2 = r.fv_second.distribution
        psi = max(a / b for a, b in zip(d1.probs, d2.probs))
    if d1.size != d2.size:
        raise DomainError("distributions must share a vertex set")
    mode = "psi"
    total_params: dict[str, float] = {}
    if corollary:
        s1, s2 = map(_as_float, totals)
        if not (0.0 < s1 < math.inf and 0.0 < s2 < math.inf):
            raise DomainError("functional totals must be positive and finite")
        psi = s2 / s1
        mode = "corollary"
        total_params = {"S1": s1, "S2": s2}
    psi = math.nan if psi is None else _as_float(psi)
    if not 0.0 < psi < math.inf:
        raise DomainError("psi must be positive and finite")
    met = all(
        a <= psi * b * (1.0 + _PRE_GUARD) for a, b in zip(d1.probs, d2.probs)
    )
    n = d1.size
    log_psi = _logb(psi, base)
    h1s = _to_base(renyi_entropies(d1, alphas), base)
    h2s = _to_base(renyi_entropies(d2, alphas), base)
    bounds = [h2 + (alpha / (1.0 - alpha)) * log_psi for alpha, h2 in zip(alphas, h2s)]
    params = {
        "psi": psi,
        "mode": mode,
        "N": n,
        "h_other": h2s,
        "log_base": base,
        **total_params,
    }
    return [_outcomes(
        "thm4", params, ("h_other",), h1s, bounds, _directions(alphas),
        precondition_met=met,
    )]


def thm5_additive_dominance(
    d1: Distribution,
    d2: Distribution,
    phi: float,
    alpha: float,
    variant: str,
    base: float = 2.0,
) -> BoundReport:
    """H over p1 vs H over p2 assuming p1 <= p2 + phi everywhere.

    The penalty terms replace log(1+x) by x in the printed derivation;
    corrected multiplies them by 1/ln(base), the valid replacement.
    """
    inputs = BoundInputs(dist=d1, dist_second=d2, phi=phi)
    return evaluate("thm5", inputs, alpha, variant, base)


def _thm5_column(
    r: BoundInputs, alphas: Sequence[float], variants: Sequence[str], base: float
) -> list[Column]:
    """thm5 on p1 = dist, p2 = dist_second on one vertex set, 0 < phi < inf."""
    d1, d2 = r.dist, r.dist_second
    if d1.size != d2.size:
        raise DomainError("distributions must share a vertex set")
    phi = _as_float(r.phi)
    if not 0.0 < phi < math.inf:
        raise DomainError(f"phi must be positive and finite, got {phi}")
    met = all(a <= b + phi + 1e-15 for a, b in zip(d1.probs, d2.probs))
    n = d1.size
    h1s = _to_base(renyi_entropies(d1, alphas), base)
    h2s = _to_base(renyi_entropies(d2, alphas), base)
    power_sums = [2.0**log2_sum for log2_sum in log2_power_sums(d2, alphas)]
    tails: list[float | str] = []
    for alpha, power_sum_2 in zip(alphas, power_sums):
        # the regime picks the power mean and its weight; 1 - alpha carries
        # the sign, so the penalty is subtracted above 1; a sum underflowing
        if power_sum_2 == 0.0:  # to 0, above 1 only, leaves no power mean
            tails.append(f"thm5 power_sum_2 underflows a float at alpha = {alpha:g}")
            continue
        if alpha < 1.0:
            w, x = 1.0, n * phi**alpha / power_sum_2
        else:
            w, x = alpha, n ** (1.0 / alpha) * phi / power_sum_2 ** (1.0 / alpha)
        tails.append((w / (1.0 - alpha)) * x)
    params = {
        "phi": phi,
        "N": n,
        "power_sum_2": power_sums,
        "h_other": h2s,
        "log_base": base,
    }
    return _penalized(
        "thm5", params, ("power_sum_2", "h_other"), h1s, alphas, h2s, tails,
        variants, base, met,
    )


def thm6_convex_combination(
    g: Graph,
    fv1: FunctionalValues,
    fv2: FunctionalValues,
    c1: float,
    c2: float,
    alpha: float,
    variant: str,
    symmetric: bool = False,
    base: float = 2.0,
) -> BoundReport:
    """Entropy of f = c1*f1 + c2*f2 vs its components through A1, A2.

    symmetric=True evaluates the averaged corollary form bounding against
    (H1 + H2)/2 with both penalty ratios.
    """
    inputs = BoundInputs(graph=g, fv=fv1, fv_second=fv2, weights=(c1, c2))
    return evaluate("thm6_avg" if symmetric else "thm6", inputs, alpha, variant, base)


def _weighted_sum(
    fv1: FunctionalValues, fv2: FunctionalValues, c1: float, c2: float
) -> FunctionalValues:
    """c1 f1 + c2 f2 for positive weights on one vertex set."""
    ln_c1, ln_c2 = math.log(c1), math.log(c2)
    return FunctionalValues(
        log_values=[
            logsumexp((ln_c1 + x1, ln_c2 + x2)) for x1, x2 in zip(fv1.logs, fv2.logs)
        ]
    )


def _penalty_exp(*logs: float) -> float | str:
    """The sum of exp over thm6 penalty ratios' logs, or the reason that
    the first to overflow does."""
    total = 0.0
    for x in logs:
        try:
            total += math.exp(x)
        except OverflowError:
            return f"thm6 penalty exp({x:g}) overflows a float"
    return total


def _thm6_column(
    r: BoundInputs, alphas: Sequence[float], variants: Sequence[str], base: float,
    symmetric: bool = False,
) -> list[Column]:
    """thm6 for positive finite weights c_i on the graph's vertices, with
    combined = _weighted_sum(fv1, fv2, c1, c2), shares A_i = c_i S_i / S and
    t_i = ln(c_i S_i). The averaged form is the mean of f1's and f2's side."""
    fv1, fv2, combined = r.fv, r.fv_second, r.combined
    c1, c2 = map(_as_float, r.weights)
    if not (0.0 < c1 < math.inf and 0.0 < c2 < math.inf):
        raise DomainError(
            f"combination weights c1, c2 must be positive and finite, got {c1}, {c2}"
        )
    if fv1.size != r.graph.n or fv2.size != r.graph.n:
        raise DomainError("functional value sets must live on the graph's vertices")
    if combined is None:
        combined = _weighted_sum(fv1, fv2, c1, c2)
    t1 = math.log(c1) + fv1.total_log
    t2 = math.log(c2) + fv2.total_log
    t_sum = logsumexp((t1, t2))
    a1, a2 = math.exp(t1 - t_sum), math.exp(t2 - t_sum)
    if a1 == 0.0 or a2 == 0.0:
        raise DomainError(f"a share A_i underflows to 0 (A1 = {a1!r}, A2 = {a2!r})")
    h_fs = _to_base(renyi_entropies(distribution_from_values(combined), alphas), base)
    d1 = distribution_from_values(fv1)
    d2 = distribution_from_values(fv2)
    log_a = _logb(a1, base)
    sides = 1.0
    if symmetric:
        log_a, sides = log_a + _logb(a2, base), 2.0
    theorem_id = "thm6_avg" if symmetric else "thm6"
    h1s = _to_base(renyi_entropies(d1, alphas), base)
    h2s = _to_base(renyi_entropies(d2, alphas), base)
    heads, tails = [], []  # a bound is head + tail * the variant's factor
    for alpha, h1, h2, sum_1, sum_2 in zip(
        alphas, h1s, h2s, log2_power_sums(d1, alphas), log2_power_sums(d2, alphas)
    ):
        # ln(sum p2^alpha) - ln(sum p1^alpha)
        dtp = (sum_2 - sum_1) * LN2
        # the regime picks the penalty exponent of Z21 = exp(e) and its
        # weight; Z12's exponent is -e, and 1 - alpha carries the sign
        if alpha < 1.0:
            w, e = 1.0, alpha * (t2 - t1) + dtp
        else:
            w, e = alpha, (t2 - t1) + dtp / alpha
        if symmetric:
            h, z = 0.5 * (h1 + h2), _penalty_exp(e, -e)
        else:
            h, z = h1, _penalty_exp(e)
        den = sides * (1.0 - alpha)
        heads.append(h + (alpha / den) * log_a)
        tails.append(z if z.__class__ is str else (w / den) * z)
    params = {
        "c1": c1,
        "c2": c2,
        "A1": a1,
        "A2": a2,
        "S1_log2": fv1.total_log / LN2,
        "S2_log2": fv2.total_log / LN2,
        "h1": h1s,
        "h2": h2s,
        "log_base": base,
    }
    return _penalized(
        theorem_id, params, ("h1", "h2"), h_fs, alphas, heads, tails, variants, base
    )


# ---------------------------------------------------------------------------
# Graph-class closed forms and connected-graph bounds
# ---------------------------------------------------------------------------


def _class_columns(
    kind: str, n: int, alphas: Sequence[float], part: OrbitPartition,
    fv: FunctionalValues | None,
) -> Iterator[tuple[str, Column]]:
    """The closed forms of the star, wheel or path on n vertices with orbits
    part, as (variant, Column) pairs over the grid: class_renyi_exact; for
    stars and wheels class_shannon_exact, then class_gamma_bound literal and
    corrected; with fv, class_functional_bound, the class's head minus
    (alpha/(1-alpha)) log2 S minus its offset (1 on a path), a lower bound
    on the functional's H_alpha below alpha=1 and an upper one above. Each
    pair is built as it is taken, so a one-alpha caller raises a column's
    reason before the next column is built. Where a closed form leaves float
    range, that is the alpha's reason in each column that reads it.

    Stars and wheels share the two-orbit profile (1, n-1); W4 collapses to
    K4 and is reported with precondition_met=False rather than patched.
    """
    pdist = partition_distribution(part)
    h_alphas = list(renyi_entropies(pdist, alphas))
    params: dict[str, Any] = {"graph_class": kind, "n": n}
    out_of_range = f"{kind} closed forms leave float range at n = {n}, alpha = {{:g}}"
    path, two_orbit = kind == "path", part.sizes == (1, n - 1)
    if path:
        even = n % 2 == 0
        params["even"] = even
        closed: list[float | str] = [math.log2(n / 2)] * len(alphas)
        if not even:
            # two-vertex orbits and the center; the sum underflows to 0 at a
            # large alpha
            sums = [(n - 1) // 2 * (2.0 / n) ** a + (1.0 / n) ** a for a in alphas]
            closed = [
                math.log2(s) / (1.0 - alpha) if s else out_of_range.format(alpha)
                for alpha, s in zip(alphas, sums)
            ]
        heads: list[float | str] = [math.log2(n) / (1.0 - alpha) for alpha in alphas]
    else:
        if not two_orbit:
            params["reason"] = "orbit profile is not (1, n-1)"
        closed, heads = [], []
        for alpha in alphas:
            try:
                log2_sum = math.log2(1.0 + (n - 1) ** alpha)
            except OverflowError:
                closed.append(out_of_range.format(alpha))
                heads.append(out_of_range.format(alpha))
                continue
            closed.append((log2_sum - alpha * math.log2(n)) / (1.0 - alpha))
            heads.append(log2_sum / (1.0 - alpha))
    exact = partial(
        _outcomes, params=params, varying=(), directions=["equal"] * len(alphas),
        precondition_met=path or two_orbit, tolerance=EXACT_TOLERANCE,
    )
    yield "na", exact("class_renyi_exact", lhs=h_alphas, bounds=closed)
    if not path:
        closed_shannon = math.log2(n) - (n - 1) / n * math.log2(n - 1)
        yield "na", exact(
            "class_shannon_exact", lhs=[shannon_entropy(pdist)] * len(alphas),
            bounds=[closed_shannon] * len(alphas),
        )
        # thm1 on the two-orbit distribution: 2 ordered pairs, rho = n-1
        rho = float(n - 1)
        for variant in VARIANTS:
            yield variant, _outcomes(
                "class_gamma_bound", {**params, "rho": rho}, (), h_alphas,
                _thm1_bounds(closed_shannon, alphas, variant, 2, rho, 1.0),
                _directions(alphas), precondition_met=two_orbit,
            )
    if fv is None:
        return
    extra: dict[str, Any] = {}
    if path:
        above_two = sum(x > LN2 for x in fv.logs)
        met, offset = even and above_two >= n // 2, 1.0
        extra["vertices_above_two"] = above_two
        if not even:
            extra["reason"] = "stated for the even orbit structure"
    else:
        ordered = sorted(fv.logs, reverse=True)
        met = two_orbit and ordered[0] > math.log(n - 1) and ordered[1] > 0.0
        offset = 0.0
    log2_s = fv.total_log / LN2
    bounds = [
        head if head.__class__ is str
        else head - (alpha / (1.0 - alpha)) * log2_s - offset
        for alpha, head in zip(alphas, heads)
    ]
    yield "na", _outcomes(
        "class_functional_bound", {**params, "log2_S": log2_s, **extra}, (),
        list(renyi_entropies(fv.distribution, alphas)), bounds,
        _directions(alphas, "lower"), precondition_met=met,
    )


def class_closed_forms(
    kind: str, n: int, alpha: float, fv: FunctionalValues | None = None
) -> list[BoundReport]:
    """Exact-value and bound reports for stars, wheels and paths: the class
    core _class_columns at one alpha, one report per column."""
    _check_alpha(alpha)
    if kind not in ("star", "wheel", "path"):
        raise DomainError(f"no closed forms for class {kind!r}")
    minimum = {"star": 3, "wheel": 4, "path": 2}[kind]
    if n < minimum:
        raise DomainError(f"{kind} closed forms need n >= {minimum}, got {n}")
    if fv is not None and fv.size != n:
        raise DomainError("functional values must live on the class graph")
    part = vertex_orbits(generate_graph(kind, n))
    return [
        _report(variant, alpha, column)
        for variant, column in _class_columns(kind, n, (alpha,), part, fv)
    ]


def connected_functional_bounds(
    g: Graph,
    spec: FunctionalSpec,
    alpha: float,
    variant: str,
) -> BoundReport:
    """Two-sided interval around log2(n) for the j-sphere functionals.

    Linear: half-width (alpha/|1-alpha|) log2(cmax/cmin), identical in both
    variants. Exponential: half-width (alpha (n-1) X/|1-alpha|) log2(beta);
    the literal form needs beta >= 1, corrected takes abs(log2 beta).
    """
    theorem_id = "conn_linear" if spec.kind == "linear" else "conn_exp"
    return evaluate(theorem_id, BoundInputs(graph=g, spec=spec), alpha, variant)


def _conn_column(
    r: BoundInputs, alphas: Sequence[float], variants: Sequence[str], base: float
) -> list[Column]:
    """Connected-graph interval on a graph with an edge; fv holds spec's
    values on it and eta its diameter. The diameter is checked before the
    values are built, since a linear functional is 0 on one vertex. Variants
    with one half-width scale and precondition share one Column: both
    linear ones, and both exponential ones where beta >= 1."""
    g, spec, fv, eta = r.graph, r.spec, r.fv, r.eta
    if not g.is_connected():
        raise DomainError("connected-graph bounds need a connected graph")
    if fv is None:
        distances = distance_matrix(g)
        eta = distances.eta
    if eta < 1:
        raise DomainError("connected-graph bounds need at least one edge (diameter 0)")
    if fv is None:
        fv = functional_values(g, spec, distances)
    n = fv.size
    coeffs = _resolved_coeffs(spec, eta)
    c_max, c_min = max(coeffs), min(coeffs)
    if spec.kind == "linear":
        theorem_id, head = "conn_linear", {}
        widths = [alpha / abs(1.0 - alpha) for alpha in alphas]
        settings = [(math.log2(c_max / c_min), True)] * len(variants)
    else:
        theorem_id = "conn_exp"
        spread = c_max - c_min
        head = {"X": spread, "beta": spec.beta}
        widths = [alpha * (n - 1) * spread / abs(1.0 - alpha) for alpha in alphas]
        log2_beta = math.log2(spec.beta)
        settings = [
            (abs(log2_beta), True) if variant == "corrected"
            else (log2_beta, spec.beta >= 1.0)
            for variant in variants
        ]
    hs = list(renyi_entropies(distribution_from_values(fv), alphas))
    center, directions = math.log2(n), ["interval"] * len(alphas)
    made: dict[tuple[float, bool], Column] = {}
    for scale, met in settings:
        if (scale, met) in made:
            continue
        params = {**head, "n": n, "eta": eta, "c_max": c_max, "c_min": c_min}
        if not met:
            params["reason"] = "literal form needs beta >= 1"
        lows = [center - width * scale for width in widths]
        highs = [center + width * scale for width in widths]
        params.update({"bound_lower": lows, "bound_upper": highs})
        made[scale, met] = _outcomes(
            theorem_id, params, ("bound_lower", "bound_upper"), hs,
            list(zip(lows, highs)), directions, precondition_met=met,
        )
    return [made[setting] for setting in settings]


# ---------------------------------------------------------------------------
# The theorem table and its one evaluator
# ---------------------------------------------------------------------------

# The row kinds of a sweep: the orbit distribution's and each functional's.
ROW_KINDS = ("orbit",) + FUNCTIONAL_KINDS


class Theorem(NamedTuple):
    """One sweep id of the bound catalog.

    check is the `graphent check` subcommand that evaluates it. column runs
    its core on a record over an alpha grid, as column(inputs, alphas,
    variants, base), and returns one Column per variant asked for: what the
    variants share runs once, and only each one's bound tail and
    _outcomes run per variant. The core checks the id's own inputs first,
    so evaluate and the sweep call it alike. kinds are the
    row kinds it applies to, so a row of another kind emits no cell for it.
    variants marks a literal/corrected split (otherwise its one variant is
    "na"), log_base an id taking a base other than 2 (check's --log-base).
    """

    id: str
    check: str
    column: Callable[
        [BoundInputs, Sequence[float], Sequence[str], float], list[Column]
    ]
    kinds: tuple[str, ...] = ROW_KINDS
    variants: bool = False
    log_base: bool = False


THEOREMS = (
    Theorem("ordering", "ordering", _ordering_column),
    Theorem("jensen", "jensen", _jensen_column),
    Theorem("thm1", "thm1", _thm1_column, variants=True),
    Theorem("thm1_eps", "thm1", partial(_thm1_column, use_epsilon=True),
            variants=True),
    Theorem("thm3", "thm3", _thm3_column, FUNCTIONAL_KINDS, log_base=True),
    Theorem("thm4", "thm4", _thm4_column, FUNCTIONAL_KINDS, log_base=True),
    Theorem("thm4_cor", "thm4", partial(_thm4_column, corollary=True),
            FUNCTIONAL_KINDS, log_base=True),
    Theorem("thm5", "thm5", _thm5_column, FUNCTIONAL_KINDS, variants=True,
            log_base=True),
    Theorem("thm6", "thm6", _thm6_column, FUNCTIONAL_KINDS, variants=True,
            log_base=True),
    Theorem("thm6_avg", "thm6", partial(_thm6_column, symmetric=True),
            FUNCTIONAL_KINDS, variants=True, log_base=True),
    Theorem("conn_linear", "conn", _conn_column, ("linear",), variants=True),
    Theorem("conn_exp", "conn", _conn_column, ("exponential",), variants=True),
)

_BY_ID = {t.id: t for t in THEOREMS}


def evaluate(
    theorem_id: str,
    inputs: BoundInputs,
    alpha: float,
    variant: str = "na",
    base: float = 2.0,
) -> BoundReport:
    """One instance of a THEOREMS id: the alpha, base and variant checks,
    then its core, which checks the id's own inputs, at this one alpha. An
    id without a literal/corrected split reports variant "na". A base other
    than 2 without log_base, or a spec of a kind outside kinds, is refused."""
    theorem = _BY_ID.get(theorem_id)
    if theorem is None:
        raise DomainError(f"unknown theorem id {theorem_id!r}")
    _check_alpha(alpha)
    _check_base(base)
    if base != 2.0 and not theorem.log_base:
        raise DomainError(f"{theorem_id} reports base 2 only, got log base {base!r}")
    if inputs.spec is not None and inputs.spec.kind not in theorem.kinds:
        raise DomainError(f"{theorem_id} takes no {inputs.spec.kind} functional")
    if theorem.variants:
        _check_variant(variant)
    else:
        variant = "na"
    (column,) = theorem.column(inputs, (alpha,), (variant,), base)
    return _report(variant, alpha, column)
