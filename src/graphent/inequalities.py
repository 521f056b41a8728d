"""Checkable reports for every inequality in the bound catalog.

Each operation evaluates one instance and returns a structured BoundReport
instead of asserting. Two variants exist wherever the printed bound and its
repaired derivation disagree:

  literal    the formula exactly as printed: rho**(alpha-2) multiplied
             below alpha=1 and divided above (thm1/thm1_eps), penalty terms
             without the 1/ln(base) factor (thm5/thm6), signed log2(beta)
             (conn_exp).
  corrected  the repaired form: rho**abs(alpha-2) multiplied in both
             regimes, the epsilon**2 factor in both regimes, penalties
             scaled by 1/ln(base) wherever log(1+x) was replaced by x,
             and abs(log2(beta)) so beta < 1 keeps the interval ordered.

Checks are non-strict with tolerance 1e-9 (1e-12 for closed-form equality);
holds is None, never False, when an instance's precondition fails. "log" in
the dominance/combination bounds (thm3-thm6) defaults to base 2 but accepts
base e, under which the literal penalty forms become sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import DomainError, GraphEntropyError
from .graph import DistanceData, Graph, distance_matrix, generate_graph
from .measures import (
    LN2,
    Distribution,
    FunctionalSpec,
    FunctionalValues,
    _resolved_coeffs,
    distribution_from_values,
    distribution_stats,
    functional_values,
    log2_power_sum,
    partition_distribution,
    renyi_entropy,
    shannon_entropy,
)
from .orbits import OrbitPartition, vertex_orbits

TOLERANCE = 1e-9
EXACT_TOLERANCE = 1e-12

VARIANTS = ("literal", "corrected")
DIRECTIONS = ("upper", "lower", "equal", "interval")

# Relative guard when checking sampled preconditions that may sit exactly on
# the boundary after float round-trips.
_PRE_GUARD = 1e-12


@dataclass(frozen=True)
class BoundReport:
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
    params: dict[str, Any] = field(default_factory=dict)

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


@dataclass(frozen=True)
class LemmaCheck:
    """One sampled instance of a real-number lemma backing the catalog."""

    lemma_id: str
    inputs: dict[str, Any]
    satisfied: bool
    margin: float


def _report(
    theorem_id: str,
    variant: str,
    alpha: float,
    lhs: float | None,
    bound: float | None,
    direction: str,
    *,
    precondition_met: bool = True,
    params: dict[str, Any] | None = None,
    tolerance: float = TOLERANCE,
    interval: tuple[float, float] | None = None,
) -> BoundReport:
    if direction not in DIRECTIONS:
        raise DomainError(f"unknown direction {direction!r}")
    params = dict(params or {})
    slack: float | None = None
    if direction == "interval" and interval is not None:
        lo, hi = interval
        params.setdefault("bound_lower", lo)
        params.setdefault("bound_upper", hi)
        if lhs is not None:
            low_side, high_side = lhs - lo, hi - lhs
            slack = min(low_side, high_side)
            bound = lo if low_side <= high_side else hi
    elif lhs is not None and bound is not None:
        if direction == "upper":
            slack = bound - lhs
        elif direction == "lower":
            slack = lhs - bound
        else:  # equal
            slack = -abs(lhs - bound)
    # slack is finite only where lhs and bound are; an interval's other end
    # is not in slack, so it is checked as well
    ends = interval if interval is not None else ()
    if (slack is not None and not math.isfinite(slack)) or not all(
        map(math.isfinite, ends)
    ):
        raise DomainError(
            f"{theorem_id} is not finite: lhs {lhs!r}, bound {bound!r}, "
            f"slack {slack!r}"
        )
    holds: bool | None = None
    if precondition_met and slack is not None:
        holds = bool(slack >= -tolerance)
    return BoundReport(
        theorem_id=theorem_id,
        variant=variant,
        alpha=float(alpha),
        lhs=None if lhs is None else float(lhs),
        bound=None if bound is None else float(bound),
        direction=direction,
        precondition_met=precondition_met,
        holds=holds,
        slack=None if slack is None else float(slack),
        tolerance=tolerance,
        params=params,
    )


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < math.inf or alpha == 1.0:
        raise DomainError(f"alpha must be positive, finite and != 1, got {alpha}")


def _check_base(base: float) -> None:
    if base <= 1.0:
        raise DomainError(f"log base must exceed 1, got {base}")


def _to_base(bits: float, base: float) -> float:
    """Convert a base-2 information value to the requested log base."""
    return bits * LN2 / math.log(base)


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
        satisfied=bool(margin > 0.0),
        margin=float(margin),
    )


def _check_lemma2(rows: np.ndarray, r: float) -> LemmaCheck:
    big_r = 1.0 if r <= 1.0 else 1.0 / r
    lhs = float(np.sum(rows.sum(axis=0) ** r) ** big_r)
    rhs = float(sum(np.sum(row**r) ** big_r for row in rows))
    margin = rhs - lhs
    satisfied = lhs <= rhs * (1.0 + _PRE_GUARD) + 1e-12
    return LemmaCheck(
        lemma_id="L2",
        inputs={"vectors": rows.tolist(), "r": r, "R": big_r},
        satisfied=bool(satisfied),
        margin=float(margin),
    )


def _check_lemma3(p: np.ndarray, x: np.ndarray) -> LemmaCheck:
    gap = float(np.log2(np.dot(p, x)) - np.dot(p, np.log2(x)))
    diff = np.subtract.outer(x, x) ** 2
    weight = np.outer(p, p) / np.outer(x, x)
    bound = float((weight * diff).sum() / (2.0 * LN2))
    margin = min(gap, bound - gap)
    satisfied = gap >= -1e-12 and gap <= bound + 1e-12 + _PRE_GUARD * abs(bound)
    return LemmaCheck(
        lemma_id="L3",
        inputs={"p": p.tolist(), "x": x.tolist()},
        satisfied=bool(satisfied),
        margin=float(margin),
    )


def lemma_checks(seed: int, trials: int) -> list[LemmaCheck]:
    """Sample `trials` valid instances of each lemma and check the chains.

    Lemma 1 samples keep x and y separated by at least 1% relative so the
    strict chain cannot degenerate into a float tie.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    out: list[LemmaCheck] = []
    for _ in range(trials):
        # L1
        while True:
            x, y = rng.uniform(0.05, 20.0, size=2)
            if abs(x - y) >= 0.01 * max(x, y):
                break
        branch = int(rng.integers(0, 3))
        if branch == 0:
            r = float(rng.uniform(-3.0, -0.05))
        elif branch == 1:
            r = float(rng.uniform(1.05, 4.0))
        else:
            r = float(rng.uniform(0.05, 0.95))
        out.append(_check_lemma1(float(x), float(y), r))

        # L2
        m = int(rng.integers(2, 5))
        length = int(rng.integers(1, 7))
        rows = rng.uniform(0.0, 3.0, size=(m, length))
        if rng.random() < 0.2:
            rows[tuple(rng.integers(0, s) for s in rows.shape)] = 0.0
        out.append(_check_lemma2(rows, float(rng.uniform(0.05, 3.95))))

        # L3
        k = int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(k))
        if rng.random() < 0.2 and k > 2:
            p[int(rng.integers(0, k))] = 0.0
            p = p / p.sum()
        out.append(_check_lemma3(p, rng.uniform(0.01, 10.0, size=k)))
    return out


# ---------------------------------------------------------------------------
# Renyi vs Shannon (ordering, Jensen-gap step, thm1/thm2 refinements)
# ---------------------------------------------------------------------------


def ordering_bound(d: Distribution, alpha: float) -> BoundReport:
    """H_alpha >= H below alpha=1 and H_alpha <= H above it."""
    _check_alpha(alpha)
    h = shannon_entropy(d)
    h_alpha = renyi_entropy(d, alpha)
    direction = "lower" if alpha < 1.0 else "upper"
    return _report(
        "ordering",
        "na",
        alpha,
        h_alpha,
        h,
        direction,
        params={"N": d.size, "shannon": h},
    )


def jensen_gap_bound(d: Distribution, alpha: float) -> BoundReport:
    """Sound intermediate step: |H_alpha - H| <= sum-term / (2 ln2 |1-alpha|).

    The sum runs over ordered pairs with x = p**(alpha-1), exactly as the
    Jensen-gap extension instantiates it.
    """
    _check_alpha(alpha)
    p = d.p
    # a tiny atom at large alpha over- or underflows x; the NaN or inf this
    # leaves in sum_term becomes a DomainError in _report
    with np.errstate(all="ignore"):
        x = np.exp((alpha - 1.0) * d.log_p)
        diff = np.subtract.outer(x, x) ** 2
        weight = np.outer(p, p) / np.outer(x, x)
        sum_term = float((weight * diff).sum())
    gap_bound = sum_term / (2.0 * LN2 * abs(1.0 - alpha))
    h = shannon_entropy(d)
    h_alpha = renyi_entropy(d, alpha)
    if alpha < 1.0:
        direction, bound = "upper", h + gap_bound
    else:
        direction, bound = "lower", h - gap_bound
    return _report(
        "jensen",
        "na",
        alpha,
        h_alpha,
        bound,
        direction,
        params={"N": d.size, "shannon": h, "sum_term": sum_term},
    )


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
    if alpha < 1.0:
        gap = pairs * (1.0 - alpha) * eps_factor * rho_factor / (2.0 * LN2)
        return "upper", h + gap
    if variant == "corrected":
        gap = (alpha - 1.0) * pairs * eps_factor * rho_factor / (2.0 * LN2)
    else:
        # the printed form divides by rho**(alpha-2) and carries no
        # epsilon**2 in this regime even in the corollary
        gap = (alpha - 1.0) * pairs / (2.0 * LN2 * rho_factor)
    return "lower", h - gap


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
    stats = distribution_stats(d)
    n = d.size
    h = shannon_entropy(d)
    h_alpha = renyi_entropy(d, alpha)
    eps_factor = stats.epsilon**2 if use_epsilon else 1.0
    direction, bound = _thm1_bound(
        h, alpha, variant, n * (n - 1), stats.rho, eps_factor
    )
    return _report(
        "thm1_eps" if use_epsilon else "thm1",
        variant,
        alpha,
        h_alpha,
        bound,
        direction,
        params={
            "N": n,
            "rho": stats.rho,
            "epsilon": stats.epsilon,
            "use_epsilon": use_epsilon,
            "shannon": h,
        },
    )


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
    return _thm3_report(part, partition_distribution(part), fv, alpha, base)


def _thm3_report(
    part: OrbitPartition,
    pdist: Distribution,
    fv: FunctionalValues,
    alpha: float,
    base: float,
) -> BoundReport:
    """thm3 on validated inputs; pdist is partition_distribution(part)."""
    n = part.total
    k = part.k
    sizes = sorted(part.sizes)
    smallest_logs = np.sort(fv.log_values)[:k]
    met = all(
        math.log(sizes[i]) < float(smallest_logs[i]) for i in range(k)
    )
    h_gamma = _to_base(renyi_entropy(pdist, alpha), base)
    h_f = _to_base(renyi_entropy(distribution_from_values(fv), alpha), base)
    log_ratio = (fv.total_log - math.log(n)) / math.log(base)
    if alpha < 1.0:
        direction = "upper"
        bound = h_f + (alpha / (1.0 - alpha)) * log_ratio
    else:
        direction = "lower"
        bound = h_f - (alpha / (alpha - 1.0)) * log_ratio
    return _report(
        "thm3",
        "na",
        alpha,
        h_gamma,
        bound,
        direction,
        precondition_met=met,
        params={
            "k": k,
            "X_size": n,
            "log2_S": fv.total_log / LN2,
            "h_functional": h_f,
            "log_base": base,
        },
    )


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
    mode = "psi"
    s1 = s2 = None
    if derive_psi_from is not None:
        s1, s2 = float(derive_psi_from[0]), float(derive_psi_from[1])
        if not (0.0 < s1 < math.inf and 0.0 < s2 < math.inf):
            raise DomainError("functional totals must be positive and finite")
        psi = s2 / s1
        mode = "corollary"
    if psi is None or not 0.0 < psi < math.inf:
        raise DomainError("psi must be positive and finite")
    met = bool(np.all(d1.p <= psi * d2.p * (1.0 + _PRE_GUARD)))
    h1 = _to_base(renyi_entropy(d1, alpha), base)
    h2 = _to_base(renyi_entropy(d2, alpha), base)
    log_psi = _logb(psi, base)
    if alpha < 1.0:
        direction, bound = "upper", h2 + (alpha / (1.0 - alpha)) * log_psi
    else:
        direction, bound = "lower", h2 - (alpha / (alpha - 1.0)) * log_psi
    params: dict[str, Any] = {
        "psi": float(psi),
        "mode": mode,
        "N": d1.size,
        "h_other": h2,
        "log_base": base,
    }
    if s1 is not None:
        params["S1"], params["S2"] = s1, s2
    return _report("thm4", "na", alpha, h1, bound, direction,
                   precondition_met=met, params=params)


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
    if phi <= 0.0:
        raise DomainError("phi must be positive")
    met = bool(np.all(d1.p <= d2.p + phi + 1e-15))
    n = d1.size
    power_sum_2 = 2.0 ** log2_power_sum(d2, alpha)
    h1 = _to_base(renyi_entropy(d1, alpha), base)
    h2 = _to_base(renyi_entropy(d2, alpha), base)
    factor = _penalty_factor(variant, base)
    if alpha < 1.0:
        penalty = (1.0 / (1.0 - alpha)) * (n * phi**alpha / power_sum_2) * factor
        direction, bound = "upper", h2 + penalty
    else:
        x = n ** (1.0 / alpha) * phi / power_sum_2 ** (1.0 / alpha)
        penalty = (alpha / (alpha - 1.0)) * x * factor
        direction, bound = "lower", h2 - penalty
    return _report(
        "thm5",
        variant,
        alpha,
        h1,
        bound,
        direction,
        precondition_met=met,
        params={
            "phi": float(phi),
            "N": n,
            "power_sum_2": power_sum_2,
            "h_other": h2,
            "log_base": base,
        },
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
    _check_alpha(alpha)
    _check_base(base)
    if not (0.0 < c1 < math.inf and 0.0 < c2 < math.inf):
        raise DomainError(
            f"combination weights c1, c2 must be positive and finite, got {c1}, {c2}"
        )
    if fv1.size != g.n or fv2.size != g.n:
        raise DomainError("functional value sets must live on the graph's vertices")
    return _thm6_report(
        _combine(fv1, fv2, c1, c2), alpha, variant, symmetric, base
    )


@dataclass(frozen=True)
class _Combination:
    """The alpha-independent part of thm6: f = c1*f1 + c2*f2 and the shares
    A_i = c_i S_i / S, with t_i = ln(c_i S_i)."""

    fv1: FunctionalValues
    fv2: FunctionalValues
    c1: float
    c2: float
    t1: float
    t2: float
    a1: float
    a2: float
    combined: FunctionalValues


def _combine(
    fv1: FunctionalValues, fv2: FunctionalValues, c1: float, c2: float
) -> _Combination:
    """Build thm6's combination from positive weights on one vertex set."""
    t1 = math.log(c1) + fv1.total_log
    t2 = math.log(c2) + fv2.total_log
    t_sum = float(np.logaddexp(t1, t2))
    combined = FunctionalValues(
        log_values=np.logaddexp(
            math.log(c1) + fv1.log_values, math.log(c2) + fv2.log_values
        )
    )
    return _Combination(
        fv1=fv1,
        fv2=fv2,
        c1=float(c1),
        c2=float(c2),
        t1=t1,
        t2=t2,
        a1=math.exp(t1 - t_sum),
        a2=math.exp(t2 - t_sum),
        combined=combined,
    )


def _penalty_exp(x: float) -> float:
    """exp of a thm6 penalty ratio's log; DomainError when it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        raise DomainError(f"thm6 penalty exp({x:g}) overflows a float") from None


def _thm6_report(
    comb: _Combination, alpha: float, variant: str, symmetric: bool, base: float
) -> BoundReport:
    """thm6 on a validated combination."""
    t1, t2, a1, a2 = comb.t1, comb.t2, comb.a1, comb.a2
    if a1 == 0.0 or a2 == 0.0:
        raise DomainError(f"a share A_i underflows to 0 (A1 = {a1!r}, A2 = {a2!r})")
    h_f = _to_base(
        renyi_entropy(distribution_from_values(comb.combined), alpha), base
    )
    d1 = distribution_from_values(comb.fv1)
    d2 = distribution_from_values(comb.fv2)
    h1 = _to_base(renyi_entropy(d1, alpha), base)
    h2 = _to_base(renyi_entropy(d2, alpha), base)
    # ln(sum p2^alpha) - ln(sum p1^alpha)
    dtp = (log2_power_sum(d2, alpha) - log2_power_sum(d1, alpha)) * LN2
    factor = _penalty_factor(variant, base)
    log_a1 = _logb(a1, base)
    log_a2 = _logb(a2, base)
    if alpha < 1.0:
        direction = "upper"
        z21 = _penalty_exp(alpha * (t2 - t1) + dtp)
        if symmetric:
            z12 = _penalty_exp(alpha * (t1 - t2) - dtp)
            bound = (
                0.5 * (h1 + h2)
                + (alpha / (2.0 * (1.0 - alpha))) * (log_a1 + log_a2)
                + (1.0 / (2.0 * (1.0 - alpha))) * (z21 + z12) * factor
            )
        else:
            bound = (
                h1
                + (alpha / (1.0 - alpha)) * log_a1
                + (1.0 / (1.0 - alpha)) * z21 * factor
            )
    else:
        direction = "lower"
        w21 = _penalty_exp((t2 - t1) + dtp / alpha)
        if symmetric:
            w12 = _penalty_exp((t1 - t2) - dtp / alpha)
            bound = (
                0.5 * (h1 + h2)
                - (alpha / (2.0 * (alpha - 1.0))) * (log_a1 + log_a2)
                - (alpha / (2.0 * (alpha - 1.0))) * (w21 + w12) * factor
            )
        else:
            bound = (
                h1
                - (alpha / (alpha - 1.0)) * log_a1
                - (alpha / (alpha - 1.0)) * w21 * factor
            )
    return _report(
        "thm6_avg" if symmetric else "thm6",
        variant,
        alpha,
        h_f,
        bound,
        direction,
        params={
            "c1": comb.c1,
            "c2": comb.c2,
            "A1": a1,
            "A2": a2,
            "S1_log2": comb.fv1.total_log / LN2,
            "S2_log2": comb.fv2.total_log / LN2,
            "h1": h1,
            "h2": h2,
            "log_base": base,
        },
    )


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
    return _report(
        "class_functional_bound",
        "na",
        alpha,
        renyi_entropy(distribution_from_values(fv), alpha),
        head - (alpha / (1.0 - alpha)) * log2_s - offset,
        "lower" if alpha < 1.0 else "upper",
        precondition_met=met,
        params={**params, "log2_S": log2_s, **extra},
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
        _report(
            "class_renyi_exact",
            "na",
            alpha,
            h_alpha,
            closed_renyi,
            "equal",
            precondition_met=two_orbit,
            tolerance=EXACT_TOLERANCE,
            params=base_params,
        ),
        _report(
            "class_shannon_exact",
            "na",
            alpha,
            h_shannon,
            closed_shannon,
            "equal",
            precondition_met=two_orbit,
            tolerance=EXACT_TOLERANCE,
            params=base_params,
        ),
    ]
    # thm1 on the two-orbit distribution: 2 ordered pairs, rho = n-1
    rho = float(n - 1)
    for variant in VARIANTS:
        direction, bound = _thm1_bound(closed_shannon, alpha, variant, 2, rho, 1.0)
        reports.append(
            _report(
                "class_gamma_bound",
                variant,
                alpha,
                h_alpha,
                bound,
                direction,
                precondition_met=two_orbit,
                params={**base_params, "rho": rho},
            )
        )
    if fv is not None:
        ordered = np.sort(fv.log_values)[::-1]
        met = two_orbit and bool(
            ordered[0] > math.log(n - 1) and ordered[1] > 0.0
        )
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
        _report(
            "class_renyi_exact",
            "na",
            alpha,
            h_alpha,
            closed,
            "equal",
            tolerance=EXACT_TOLERANCE,
            params=params,
        )
    ]
    if fv is not None:
        above_two = int(np.count_nonzero(fv.log_values > math.log(2.0)))
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
    return _conn_report(spec, functional_values(g, spec, d), d.eta, alpha, variant)


def _conn_report(
    spec: FunctionalSpec,
    fv: FunctionalValues,
    eta: int,
    alpha: float,
    variant: str,
) -> BoundReport:
    """Connected-graph interval for validated inputs; fv holds spec's values
    on a connected graph of diameter eta."""
    n = fv.size
    coeffs = _resolved_coeffs(spec, eta)
    c_max, c_min = float(coeffs.max()), float(coeffs.min())
    if spec.kind == "linear":
        theorem_id = "conn_linear"
        half_width = (alpha / abs(1.0 - alpha)) * math.log2(c_max / c_min)
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
        half_width = (alpha * (n - 1) * spread / abs(1.0 - alpha)) * log2_beta
        params = {"X": spread, "beta": spec.beta}
    h = renyi_entropy(distribution_from_values(fv), alpha)
    center = math.log2(n)
    params.update({"n": n, "eta": eta, "c_max": c_max, "c_min": c_min})
    if not met:
        params["reason"] = "literal form needs beta >= 1"
    return _report(
        theorem_id,
        variant,
        alpha,
        h,
        None,
        "interval",
        precondition_met=met,
        interval=(center - half_width, center + half_width),
        params=params,
    )
