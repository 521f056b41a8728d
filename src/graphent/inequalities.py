"""Checkable reports for every inequality in the bound catalog.

Each theorem has one column core. It takes its inputs and an alpha grid,
computes everything that does not depend on alpha once, and returns a
Column: the report params that do not depend on alpha, built once, and per
alpha an outcome (verdict, numbers and the params that do depend on alpha)
or the reason that alpha failed. The sweep keeps and renders the columns;
each public operation evaluates one instance as a one-row call into its
core and returns a structured BoundReport instead of asserting. Two
variants exist wherever the printed bound and its repaired derivation
disagree:

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
from typing import Any, Callable, NamedTuple, Sequence

from .errors import DomainError, GraphEntropyError
from .graph import (
    DistanceData,
    Graph,
    SeededStream,
    _Record,
    distance_matrix,
    generate_graph,
)
from .measures import (
    LN2,
    Distribution,
    FunctionalSpec,
    FunctionalValues,
    _resolved_coeffs,
    distribution_from_values,
    distribution_stats,
    functional_values,
    log2_power_sums,
    logsumexp,
    partition_distribution,
    renyi_entropies,
    renyi_entropy,
    shannon_entropy,
)
from .orbits import OrbitPartition, vertex_orbits

TOLERANCE = 1e-9
EXACT_TOLERANCE = 1e-12

VARIANTS = ("literal", "corrected")

# Relative guard when checking sampled preconditions that may sit exactly on
# the boundary after float round-trips.
_PRE_GUARD = 1e-12


class BoundReport(_Record):
    """One evaluated theorem instance.

    slack is the signed distance to the bound (negative below -tolerance
    means violation): bound-lhs for upper, lhs-bound for lower,
    -abs(lhs-bound) for equal, min(lhs-lo, hi-lhs) for interval. holds is
    None when the precondition failed.
    """

    __slots__ = (
        "theorem_id", "variant", "alpha", "lhs", "bound", "direction",
        "precondition_met", "holds", "slack", "tolerance", "params",
    )
    _fields = __slots__

    def __init__(
        self,
        theorem_id: str,
        variant: str,
        alpha: float,
        lhs: float | None,
        bound: float | None,
        direction: str,
        precondition_met: bool,
        holds: bool | None,
        slack: float | None,
        tolerance: float,
        params: dict[str, Any] | None = None,
    ):
        self.theorem_id = theorem_id
        self.variant = variant
        self.alpha = alpha
        self.lhs = lhs
        self.bound = bound
        self.direction = direction
        self.precondition_met = precondition_met
        self.holds = holds
        self.slack = slack
        self.tolerance = tolerance
        self.params: dict[str, Any] = {} if params is None else params

    def to_dict(self) -> dict[str, Any]:
        return {
            "theorem": self.theorem_id,
            "variant": self.variant,
            "alpha": self.alpha,
            "lhs": self.lhs,
            "bound": self.bound,
            "direction": self.direction,
            "precondition_met": self.precondition_met,
            "holds": self.holds,
            "slack": self.slack,
            "tolerance": self.tolerance,
            "params": dict(self.params),
        }


class LemmaCheck(NamedTuple):
    """One sampled instance of a real-number lemma backing the catalog."""

    lemma_id: str
    inputs: dict[str, Any]
    satisfied: bool
    margin: float


# One alpha's finished instance, in the order the sweep's cell text reads
# it: (holds, lhs, bound, slack, *the column's alpha-dependent params,
# direction). Every number is a finite Python float and direction is one
# of "upper", "lower", "equal" and "interval". A plain tuple, since the
# sweep makes one per cell.
Outcome = tuple


class Column(_Record):
    """A column core's result over one alpha grid.

    params holds every report param in key order; those named in varying
    depend on alpha, hold None here and take each alpha's values from its
    outcome. The rest, the precondition and the tolerance are the same at
    every alpha. outcomes has per alpha its Outcome or the reason that
    alpha failed.
    """

    __slots__ = (
        "theorem_id", "params", "outcomes", "varying", "precondition_met",
        "tolerance",
    )
    _fields = __slots__

    def __init__(
        self,
        theorem_id: str,
        params: dict[str, Any],
        outcomes: list[Outcome | str],
        varying: tuple[str, ...] = (),
        precondition_met: bool = True,
        tolerance: float = TOLERANCE,
    ):
        self.theorem_id = theorem_id
        self.params = params
        self.outcomes = outcomes
        self.varying = varying
        self.precondition_met = precondition_met
        self.tolerance = tolerance

    @classmethod
    def failed(cls, theorem_id: str, reason: str, size: int) -> "Column":
        """A column whose every alpha fails for one reason."""
        return cls(theorem_id, {}, [reason] * size, precondition_met=False)

    def params_at(self, i: int) -> dict[str, Any]:
        """The full params of the evaluated outcome at alpha index i."""
        params = dict(self.params)
        if self.varying:
            params.update(zip(self.varying, self.outcomes[i][4:-1]))
        return params


def _finish(
    theorem_id: str,
    lhs: float,
    bound: float | None,
    direction: str,
    varying: tuple[float, ...] = (),
    *,
    precondition_met: bool = True,
    tolerance: float = TOLERANCE,
    interval: tuple[float, float] | None = None,
) -> Outcome:
    """Slack, verdict and finiteness of one evaluated instance.

    varying holds the values of the column's alpha-dependent params. An
    interval's ends follow them, as bound_lower/bound_upper, and its nearer
    end becomes the bound. Raises DomainError when the slack, an interval
    end or a varying value is not finite.
    """
    if interval is not None:
        lo, hi = interval
        varying = (*varying, lo, hi)
        low_side, high_side = lhs - lo, hi - lhs
        slack = min(low_side, high_side)
        bound = lo if low_side <= high_side else hi
        # an interval's other end is not in slack, so it is checked as well
        finite = math.isfinite(slack) and math.isfinite(lo) and math.isfinite(hi)
    else:
        if direction == "upper":
            slack = bound - lhs
        elif direction == "lower":
            slack = lhs - bound
        else:  # equal
            slack = -abs(lhs - bound)
        # slack is finite only where lhs and bound are
        finite = math.isfinite(slack)
    if not finite:
        raise DomainError(
            f"{theorem_id} is not finite: lhs {lhs!r}, bound {bound!r}, "
            f"slack {slack!r}"
        )
    if varying:
        varying = tuple(map(float, varying))
        if not all(map(math.isfinite, varying)):
            raise DomainError(f"{theorem_id} params are not finite: {varying!r}")
    holds = bool(slack >= -tolerance) if precondition_met else None
    return (holds, float(lhs), float(bound), float(slack), *varying, direction)


def _instance(
    variant: str,
    alpha: float,
    theorem_id: str,
    lhs: float,
    bound: float | None,
    direction: str,
    params: dict[str, Any],
    *,
    precondition_met: bool = True,
    tolerance: float = TOLERANCE,
) -> BoundReport:
    """The BoundReport of one instance whose params are all known."""
    outcome = _finish(
        theorem_id, lhs, bound, direction,
        precondition_met=precondition_met, tolerance=tolerance,
    )
    column = Column(theorem_id, params, [outcome], (), precondition_met, tolerance)
    return _report(variant, alpha, column)


def _report(variant: str, alpha: float, column: Column) -> BoundReport:
    """The BoundReport of a one-alpha column; a reason is raised as the
    DomainError it came from."""
    outcome = column.outcomes[0]
    if isinstance(outcome, str):
        raise DomainError(outcome)
    holds, lhs, bound, slack = outcome[:4]
    return BoundReport(
        column.theorem_id, variant, float(alpha), lhs, bound, outcome[-1],
        column.precondition_met, holds, slack, column.tolerance,
        column.params_at(0),
    )


def _per_alpha(
    body: Callable[..., Outcome], alphas: Sequence[float], *values: list
) -> list[Outcome | str]:
    """body(alpha, *that alpha's entry of each values list) at each alpha; a
    DomainError at one alpha becomes that alpha's reason."""
    out: list[Outcome | str] = []
    for args in zip(alphas, *values):
        try:
            out.append(body(*args))
        except DomainError as exc:
            out.append(str(exc))
    return out


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < math.inf or alpha == 1.0:
        raise DomainError(f"alpha must be positive, finite and != 1, got {alpha}")


def _check_base(base: float) -> None:
    if not 1.0 < base < math.inf:
        raise DomainError(f"log base must exceed 1 and be finite, got {base}")


def _as_float(x: float) -> float:
    """float(x), or inf for an int above float range, so that a positive
    and finite check rejects it instead of leaking OverflowError."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _to_base(bits: list[float], base: float) -> list[float]:
    """Convert base-2 information values to the requested log base."""
    ln_base = math.log(base)
    return [b * LN2 / ln_base for b in bits]


def _logb(x: float, base: float) -> float:
    return math.log(x) / math.log(base)


def _penalty_factor(variant: str, base: float) -> float:
    """Scale on penalties that came from replacing log(1+x) by x."""
    if variant not in VARIANTS:
        raise DomainError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return 1.0 / math.log(base) if variant == "corrected" else 1.0


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
    _check_alpha(alpha)
    return _report("na", alpha, _ordering_column(d, (alpha,)))


def _ordering_column(d: Distribution, alphas: Sequence[float]) -> Column:
    n, h = d.size, shannon_entropy(d)

    def body(alpha: float, h_alpha: float) -> Outcome:
        direction = "lower" if alpha < 1.0 else "upper"
        return _finish("ordering", h_alpha, h, direction)

    outcomes = _per_alpha(body, alphas, renyi_entropies(d, alphas))
    return Column("ordering", {"N": n, "shannon": h}, outcomes)


def jensen_gap_bound(d: Distribution, alpha: float) -> BoundReport:
    """Sound intermediate step: H + sum-term / (2 ln2 (1-alpha)) bounds
    H_alpha from above below alpha=1 and from below above it.

    The sum runs over ordered pairs with x = p**(alpha-1), exactly as the
    Jensen-gap extension instantiates it.
    """
    _check_alpha(alpha)
    return _report("na", alpha, _jensen_column(d, (alpha,)))


def _jensen_column(d: Distribution, alphas: Sequence[float]) -> Column:
    sum_terms = _jensen_sums(d, alphas)
    n, h = d.size, shannon_entropy(d)

    def body(alpha: float, h_alpha: float, sum_term: float) -> Outcome:
        return _finish(
            "jensen",
            h_alpha,
            h + sum_term / (2.0 * LN2 * (1.0 - alpha)),
            "upper" if alpha < 1.0 else "lower",
            (sum_term,),
        )

    outcomes = _per_alpha(body, alphas, renyi_entropies(d, alphas), sum_terms)
    params = {"N": n, "shannon": h, "sum_term": None}
    return Column("jensen", params, outcomes, ("sum_term",))


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
    a sum leaves float range, which _finish makes that alpha's DomainError.
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


def _thm1_bound(
    h: float, alpha: float, variant: str, pairs: int, rho: float, eps_factor: float
) -> tuple[str, float]:
    """(direction, bound) of thm1 in the variant thm1_refined_bound describes,
    for Shannon entropy h, pairs = N(N-1) ordered pairs of atoms and
    eps_factor epsilon**2 or 1."""
    exponent = abs(alpha - 2.0) if variant == "corrected" else alpha - 2.0
    try:
        rho_factor = rho**exponent
    except OverflowError:
        rho_factor = math.inf
    if math.isinf(rho) or math.isinf(rho_factor):
        raise DomainError(f"rho ** {exponent:g} overflows a float at rho = {rho:g}")
    if alpha > 1.0 and variant == "literal":
        # the printed form divides by rho**(alpha-2) and carries no
        # epsilon**2 in this regime even in the corollary
        return "lower", h - (alpha - 1.0) * pairs / (2.0 * LN2 * rho_factor)
    # (1 - alpha) carries the regime's sign, so the gap is subtracted above 1
    gap = pairs * (1.0 - alpha) * eps_factor * rho_factor / (2.0 * LN2)
    return ("upper" if alpha < 1.0 else "lower"), h + gap


def thm1_refined_bound(
    d: Distribution, alpha: float, variant: str, use_epsilon: bool = False
) -> BoundReport:
    """Shannon-side bound on H_alpha through rho (and optionally epsilon**2).

    literal transcribes the printed bounds: rho**(alpha-2) multiplied below
    alpha=1, divided above, epsilon**2 only below alpha=1. corrected uses
    rho**abs(alpha-2) multiplied in both regimes and epsilon**2 in both.
    """
    _check_alpha(alpha)
    if variant not in VARIANTS:
        raise DomainError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return _report(variant, alpha, _thm1_column(d, (alpha,), variant, use_epsilon))


def _thm1_column(
    d: Distribution, alphas: Sequence[float], variant: str, use_epsilon: bool
) -> Column:
    stats = distribution_stats(d)
    n, h = d.size, shannon_entropy(d)
    eps_factor = stats.epsilon**2 if use_epsilon else 1.0
    theorem_id = "thm1_eps" if use_epsilon else "thm1"

    def body(alpha: float, h_alpha: float) -> Outcome:
        direction, bound = _thm1_bound(
            h, alpha, variant, n * (n - 1), stats.rho, eps_factor
        )
        return _finish(theorem_id, h_alpha, bound, direction)

    params = {
        "N": n,
        "rho": stats.rho,
        "epsilon": stats.epsilon,
        "use_epsilon": use_epsilon,
        "shannon": h,
    }
    outcomes = _per_alpha(body, alphas, renyi_entropies(d, alphas))
    return Column(theorem_id, params, outcomes)


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
    _check_alpha(alpha)
    _check_base(base)
    if not g.is_connected():
        raise DomainError("thm3 needs a connected graph")
    if part.total != g.n or fv.size != g.n:
        raise DomainError("partition/functional sizes must match the graph")
    column = _thm3_column(part, partition_distribution(part), fv, (alpha,), base)
    return _report("na", alpha, column)


def _thm3_column(
    part: OrbitPartition,
    pdist: Distribution,
    fv: FunctionalValues,
    alphas: Sequence[float],
    base: float,
) -> Column:
    """thm3 on validated inputs; pdist is partition_distribution(part)."""
    n = part.total
    k = part.k
    sizes = sorted(part.sizes)
    smallest_logs = sorted(fv.logs)[:k]
    met = all(math.log(size) < x for size, x in zip(sizes, smallest_logs))
    h_gammas = _to_base(renyi_entropies(pdist, alphas), base)
    h_fs = _to_base(renyi_entropies(distribution_from_values(fv), alphas), base)
    log_ratio = (fv.total_log - math.log(n)) / math.log(base)
    log2_s = fv.total_log / LN2

    def body(alpha: float, h_gamma: float, h_f: float) -> Outcome:
        return _finish(
            "thm3",
            h_gamma,
            h_f + (alpha / (1.0 - alpha)) * log_ratio,
            "upper" if alpha < 1.0 else "lower",
            (h_f,),
            precondition_met=met,
        )

    params = {
        "k": k,
        "X_size": n,
        "log2_S": log2_s,
        "h_functional": None,
        "log_base": base,
    }
    outcomes = _per_alpha(body, alphas, h_gammas, h_fs)
    return Column("thm3", params, outcomes, ("h_functional",), met)


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
    _check_alpha(alpha)
    _check_base(base)
    if d1.size != d2.size:
        raise DomainError("distributions must share a vertex set")
    column = _thm4_column(d1, d2, psi, derive_psi_from, (alpha,), base)
    return _report("na", alpha, column)


def _thm4_column(
    d1: Distribution,
    d2: Distribution,
    psi: float | None,
    derive_psi_from: tuple[float, float] | None,
    alphas: Sequence[float],
    base: float,
) -> Column:
    """thm4 on distributions over one vertex set."""
    mode = "psi"
    totals: dict[str, float] = {}
    if derive_psi_from is not None:
        s1, s2 = _as_float(derive_psi_from[0]), _as_float(derive_psi_from[1])
        if not (0.0 < s1 < math.inf and 0.0 < s2 < math.inf):
            raise DomainError("functional totals must be positive and finite")
        psi = s2 / s1
        mode = "corollary"
        totals = {"S1": s1, "S2": s2}
    psi = math.nan if psi is None else _as_float(psi)
    if not 0.0 < psi < math.inf:
        raise DomainError("psi must be positive and finite")
    met = all(
        a <= psi * b * (1.0 + _PRE_GUARD) for a, b in zip(d1.probs, d2.probs)
    )
    n = d1.size
    log_psi = _logb(psi, base)

    def body(alpha: float, h1: float, h2: float) -> Outcome:
        return _finish(
            "thm4",
            h1,
            h2 + (alpha / (1.0 - alpha)) * log_psi,
            "upper" if alpha < 1.0 else "lower",
            (h2,),
            precondition_met=met,
        )

    params = {
        "psi": psi,
        "mode": mode,
        "N": n,
        "h_other": None,
        "log_base": base,
        **totals,
    }
    outcomes = _per_alpha(
        body,
        alphas,
        _to_base(renyi_entropies(d1, alphas), base),
        _to_base(renyi_entropies(d2, alphas), base),
    )
    return Column("thm4", params, outcomes, ("h_other",), met)


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
    _check_alpha(alpha)
    _check_base(base)
    if d1.size != d2.size:
        raise DomainError("distributions must share a vertex set")
    phi = _as_float(phi)
    if not 0.0 < phi < math.inf:
        raise DomainError(f"phi must be positive and finite, got {phi}")
    return _report(variant, alpha, _thm5_column(d1, d2, phi, (alpha,), variant, base))


def _thm5_column(
    d1: Distribution,
    d2: Distribution,
    phi: float,
    alphas: Sequence[float],
    variant: str,
    base: float,
) -> Column:
    """thm5 on distributions over one vertex set, for 0 < phi < inf."""
    met = all(a <= b + phi + 1e-15 for a, b in zip(d1.probs, d2.probs))
    n = d1.size
    factor = _penalty_factor(variant, base)

    def body(alpha: float, h1: float, h2: float, log2_sum_2: float) -> Outcome:
        power_sum_2 = 2.0 ** log2_sum_2
        # the regime picks the power mean and its weight; 1 - alpha carries
        # the sign, so the penalty is subtracted above 1
        if alpha < 1.0:
            w, x = 1.0, n * phi**alpha / power_sum_2
        else:
            w, x = alpha, n ** (1.0 / alpha) * phi / power_sum_2 ** (1.0 / alpha)
        return _finish(
            "thm5", h1, h2 + (w / (1.0 - alpha)) * x * factor,
            "upper" if alpha < 1.0 else "lower", (power_sum_2, h2),
            precondition_met=met,
        )

    params = {
        "phi": float(phi),
        "N": n,
        "power_sum_2": None,
        "h_other": None,
        "log_base": base,
    }
    outcomes = _per_alpha(
        body,
        alphas,
        _to_base(renyi_entropies(d1, alphas), base),
        _to_base(renyi_entropies(d2, alphas), base),
        log2_power_sums(d2, alphas),
    )
    return Column("thm5", params, outcomes, ("power_sum_2", "h_other"), met)


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
    _check_alpha(alpha)
    _check_base(base)
    c1, c2 = _as_float(c1), _as_float(c2)
    if not (0.0 < c1 < math.inf and 0.0 < c2 < math.inf):
        raise DomainError(
            f"combination weights c1, c2 must be positive and finite, got {c1}, {c2}"
        )
    if fv1.size != g.n or fv2.size != g.n:
        raise DomainError("functional value sets must live on the graph's vertices")
    column = _thm6_column(
        fv1, fv2, c1, c2, _weighted_sum(fv1, fv2, c1, c2), (alpha,), variant,
        symmetric, base,
    )
    return _report(variant, alpha, column)


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


def _penalty_exp(x: float) -> float:
    """exp of a thm6 penalty ratio's log; DomainError when it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        raise DomainError(f"thm6 penalty exp({x:g}) overflows a float") from None


def _thm6_column(
    fv1: FunctionalValues,
    fv2: FunctionalValues,
    c1: float,
    c2: float,
    combined: FunctionalValues,
    alphas: Sequence[float],
    variant: str,
    symmetric: bool,
    base: float,
) -> Column:
    """thm6 for positive finite weights c_i on one vertex set, with combined
    = _weighted_sum(fv1, fv2, c1, c2), shares A_i = c_i S_i / S and t_i =
    ln(c_i S_i). The averaged form is the mean of f1's and f2's side."""
    t1 = math.log(c1) + fv1.total_log
    t2 = math.log(c2) + fv2.total_log
    t_sum = logsumexp((t1, t2))
    a1, a2 = math.exp(t1 - t_sum), math.exp(t2 - t_sum)
    if a1 == 0.0 or a2 == 0.0:
        raise DomainError(f"a share A_i underflows to 0 (A1 = {a1!r}, A2 = {a2!r})")
    h_fs = _to_base(renyi_entropies(distribution_from_values(combined), alphas), base)
    d1 = distribution_from_values(fv1)
    d2 = distribution_from_values(fv2)
    factor = _penalty_factor(variant, base)
    log_a = _logb(a1, base)
    sides = 1.0
    if symmetric:
        log_a, sides = log_a + _logb(a2, base), 2.0
    theorem_id = "thm6_avg" if symmetric else "thm6"

    def body(
        alpha: float, h_f: float, h1: float, h2: float, sum_1: float, sum_2: float
    ) -> Outcome:
        # ln(sum p2^alpha) - ln(sum p1^alpha)
        dtp = (sum_2 - sum_1) * LN2
        # the regime picks the penalty exponent of Z21 = exp(e) and its
        # weight; Z12's exponent is -e, and 1 - alpha carries the sign
        if alpha < 1.0:
            w, e = 1.0, alpha * (t2 - t1) + dtp
        else:
            w, e = alpha, (t2 - t1) + dtp / alpha
        h, z = h1, _penalty_exp(e)
        if symmetric:
            h, z = 0.5 * (h1 + h2), z + _penalty_exp(-e)
        den = sides * (1.0 - alpha)
        return _finish(
            theorem_id, h_f, h + (alpha / den) * log_a + (w / den) * z * factor,
            "upper" if alpha < 1.0 else "lower", (h1, h2),
        )

    params = {
        "c1": float(c1),
        "c2": float(c2),
        "A1": a1,
        "A2": a2,
        "S1_log2": fv1.total_log / LN2,
        "S2_log2": fv2.total_log / LN2,
        "h1": None,
        "h2": None,
        "log_base": base,
    }
    outcomes = _per_alpha(
        body,
        alphas,
        h_fs,
        _to_base(renyi_entropies(d1, alphas), base),
        _to_base(renyi_entropies(d2, alphas), base),
        log2_power_sums(d1, alphas),
        log2_power_sums(d2, alphas),
    )
    return Column(theorem_id, params, outcomes, ("h1", "h2"))


# ---------------------------------------------------------------------------
# Graph-class closed forms and connected-graph bounds
# ---------------------------------------------------------------------------


def _class_functional_report(
    alpha: float,
    fv: FunctionalValues,
    head: float,
    offset: float,
    met: bool,
    params: dict[str, Any],
    extra: dict[str, Any],
) -> BoundReport:
    """The class bound head - (alpha/(1-alpha)) log2 S - offset on the
    functional's H_alpha: a lower bound below alpha=1, an upper one above."""
    log2_s = fv.total_log / LN2
    return _instance(
        "na",
        alpha,
        "class_functional_bound",
        renyi_entropy(distribution_from_values(fv), alpha),
        head - (alpha / (1.0 - alpha)) * log2_s - offset,
        "lower" if alpha < 1.0 else "upper",
        {**params, "log2_S": log2_s, **extra},
        precondition_met=met,
    )


def _star_like_reports(
    kind: str, n: int, alpha: float, part: OrbitPartition, fv: FunctionalValues | None
) -> list[BoundReport]:
    """Closed forms shared by stars and wheels (two orbits of sizes 1, n-1)."""
    pdist = partition_distribution(part)
    h_alpha = renyi_entropy(pdist, alpha)
    h_shannon = shannon_entropy(pdist)
    two_orbit = part.sizes == (1, n - 1)
    base_params = {"graph_class": kind, "n": n}
    if not two_orbit:
        base_params["reason"] = "orbit profile is not (1, n-1)"

    log2_sum = math.log2(1.0 + (n - 1) ** alpha)
    closed_renyi = (log2_sum - alpha * math.log2(n)) / (1.0 - alpha)
    closed_shannon = math.log2(n) - (n - 1) / n * math.log2(n - 1)
    reports = [
        _instance(
            "na", alpha, "class_renyi_exact", h_alpha, closed_renyi, "equal",
            dict(base_params), precondition_met=two_orbit, tolerance=EXACT_TOLERANCE,
        ),
        _instance(
            "na", alpha, "class_shannon_exact", h_shannon, closed_shannon, "equal",
            dict(base_params), precondition_met=two_orbit, tolerance=EXACT_TOLERANCE,
        ),
    ]
    # thm1 on the two-orbit distribution: 2 ordered pairs, rho = n-1
    rho = float(n - 1)
    for variant in VARIANTS:
        direction, bound = _thm1_bound(closed_shannon, alpha, variant, 2, rho, 1.0)
        reports.append(_instance(
            variant, alpha, "class_gamma_bound", h_alpha, bound, direction,
            {**base_params, "rho": rho}, precondition_met=two_orbit,
        ))
    if fv is not None:
        ordered = sorted(fv.logs, reverse=True)
        met = two_orbit and ordered[0] > math.log(n - 1) and ordered[1] > 0.0
        head = log2_sum / (1.0 - alpha)
        reports.append(
            _class_functional_report(alpha, fv, head, 0.0, met, base_params, {})
        )
    return reports


def _path_reports(
    n: int, alpha: float, part: OrbitPartition, fv: FunctionalValues | None
) -> list[BoundReport]:
    pdist = partition_distribution(part)
    h_alpha = renyi_entropy(pdist, alpha)
    even = n % 2 == 0
    params = {"graph_class": "path", "n": n, "even": even}
    if even:
        closed = math.log2(n / 2)
    else:
        m = (n - 1) // 2
        closed = math.log2(m * (2.0 / n) ** alpha + (1.0 / n) ** alpha) / (1.0 - alpha)
    reports = [
        _instance(
            "na", alpha, "class_renyi_exact", h_alpha, closed, "equal", dict(params),
            tolerance=EXACT_TOLERANCE,
        )
    ]
    if fv is not None:
        above_two = sum(x > LN2 for x in fv.logs)
        met = even and above_two >= n // 2
        extra: dict[str, Any] = {"vertices_above_two": above_two}
        if not even:
            extra["reason"] = "stated for the even orbit structure"
        head = math.log2(n) / (1.0 - alpha)
        reports.append(
            _class_functional_report(alpha, fv, head, 1.0, met, params, extra)
        )
    return reports


def class_closed_forms(
    kind: str, n: int, alpha: float, fv: FunctionalValues | None = None
) -> list[BoundReport]:
    """Exact-value and bound reports for stars, wheels and paths.

    Stars and wheels share the two-orbit profile (1, n-1); W4 collapses to
    K4 and is reported with precondition_met=False rather than patched.
    """
    _check_alpha(alpha)
    if kind not in ("star", "wheel", "path"):
        raise DomainError(f"no closed forms for class {kind!r}")
    minimum = {"star": 3, "wheel": 4, "path": 2}[kind]
    if n < minimum:
        raise DomainError(f"{kind} closed forms need n >= {minimum}, got {n}")
    if fv is not None and fv.size != n:
        raise DomainError("functional values must live on the class graph")
    part = vertex_orbits(generate_graph(kind, n))
    try:
        if kind == "path":
            return _path_reports(n, alpha, part, fv)
        return _star_like_reports(kind, n, alpha, part, fv)
    except GraphEntropyError:
        raise
    except (OverflowError, ValueError):
        # (n-1)**alpha overflows, or an odd path's power sum underflows to 0
        raise DomainError(
            f"{kind} closed forms leave float range at n = {n}, alpha = {alpha:g}"
        ) from None


def connected_functional_bounds(
    g: Graph,
    spec: FunctionalSpec,
    alpha: float,
    variant: str,
    distances: DistanceData | None = None,
) -> BoundReport:
    """Two-sided interval around log2(n) for the j-sphere functionals.

    Linear: half-width (alpha/|1-alpha|) log2(cmax/cmin), identical in both
    variants. Exponential: half-width (alpha (n-1) X/|1-alpha|) log2(beta);
    the literal form needs beta >= 1, corrected takes abs(log2 beta).
    """
    _check_alpha(alpha)
    if variant not in VARIANTS:
        raise DomainError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if not g.is_connected():
        raise DomainError("connected-graph bounds need a connected graph")
    d = distances if distances is not None else distance_matrix(g)
    fv = functional_values(g, spec, d)
    return _report(variant, alpha, _conn_column(spec, fv, d.eta, (alpha,), variant))


def _conn_column(
    spec: FunctionalSpec,
    fv: FunctionalValues,
    eta: int,
    alphas: Sequence[float],
    variant: str,
) -> Column:
    """Connected-graph interval for validated inputs; fv holds spec's values
    on a connected graph of diameter eta."""
    if eta < 1:
        raise DomainError("connected-graph bounds need at least one edge (diameter 0)")
    n = fv.size
    coeffs = _resolved_coeffs(spec, eta)
    c_max, c_min = max(coeffs), min(coeffs)
    linear = spec.kind == "linear"
    if linear:
        theorem_id = "conn_linear"
        log2_ratio = math.log2(c_max / c_min)
        met = True
        params: dict[str, Any] = {}
    else:
        theorem_id = "conn_exp"
        spread = c_max - c_min
        log2_beta = math.log2(spec.beta)
        if variant == "corrected":
            log2_beta = abs(log2_beta)
            met = True
        else:
            met = spec.beta >= 1.0
        params = {"X": spread, "beta": spec.beta}
    hs = renyi_entropies(distribution_from_values(fv), alphas)
    center = math.log2(n)
    params.update({"n": n, "eta": eta, "c_max": c_max, "c_min": c_min})
    if not met:
        params["reason"] = "literal form needs beta >= 1"
    params.update({"bound_lower": None, "bound_upper": None})

    def body(alpha: float, h: float) -> Outcome:
        if linear:
            half_width = (alpha / abs(1.0 - alpha)) * log2_ratio
        else:
            half_width = (alpha * (n - 1) * spread / abs(1.0 - alpha)) * log2_beta
        return _finish(
            theorem_id, h, None, "interval",
            precondition_met=met,
            interval=(center - half_width, center + half_width),
        )

    outcomes = _per_alpha(body, alphas, hs)
    return Column(theorem_id, params, outcomes, ("bound_lower", "bound_upper"), met)
