"""Probability distributions on graphs and their entropies.

Two routes induce distributions: orbit partitions (p_i = |X_i|/n) and
strictly positive vertex functionals (p(v) = f(v)/sum f). Functional values
are carried in natural-log space so the exponential j-sphere functional
cannot overflow. One scaled log-sum-exp kernel, logsumexp(a, scale),
serves normalization, weighted sums and every power sum (alpha is the
scale of log p). Entropies are in bits, and renyi_entropies also gives a
grid's in another log base; power sums are filled an alpha grid at a time.

The distributions here have a few dozen atoms at most, so the numbers are
tuples of Python floats, every transcendental is a libm call through
``math`` and every sum is ``math.fsum``, correctly rounded and so the same
in any order and on any Python version. Each value has that one
representation (``Distribution.probs`` and ``log_probs``,
``FunctionalValues.logs`` and ``linear``), and nothing here loads numpy.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .errors import DomainError
from .graph import (
    DISCONNECTED, DistanceData, Graph, _cached, _Record, distance_matrix,
)
from .orbits import OrbitPartition

LN2 = math.log(2.0)

PROB_SUM_TOL = 1e-12

# renyi_entropy switches to the Shannon limit inside this band around 1.
ALPHA_ONE_BAND = 1e-9

# Linear rendering of log-space values is exposed only below this magnitude.
SAFE_LOG_RANGE = 700.0

FUNCTIONAL_KINDS = ("linear", "exponential")


class Distribution:
    """Strictly positive probability vector, held as the tuple probs.

    Everything derived from p alone (log p, Shannon entropy, rho/epsilon)
    is computed on first use and kept: power sums per alpha, filled a grid
    at a time, and one Renyi list per (alpha grid, base), which
    renyi_entropies hands out itself, so its readers share it and none may
    change it. Each is a pure function of probs, so concurrent first uses
    can only store equal values.
    """

    def __init__(self, p: Iterable[float]):
        probs = _floats(p)
        if not probs:
            raise DomainError("distribution needs at least one atom")
        if not all(x > 0.0 for x in probs):
            raise DomainError("probabilities must be strictly positive")
        total = _fsum_or_inf(probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise DomainError(
                f"probabilities sum to {total!r}, expected 1 within {PROB_SUM_TOL}"
            )
        self.probs = probs
        self._log2_power_sums: dict[float, float] = {}
        # (alpha grid, log base, None for bits) -> the Renyi list
        self._renyi_lists: dict[tuple, list[float]] = {}

    @property
    def size(self) -> int:
        return len(self.probs)

    @_cached
    def log_probs(self) -> tuple[float, ...]:
        return tuple(map(math.log, self.probs))

    @_cached
    def _shannon(self) -> float:
        return -math.fsum(x * math.log2(x) for x in self.probs) + 0.0

    @_cached
    def _stats(self) -> "DistributionStats":
        hi, lo = max(self.probs), min(self.probs)
        # rho is inf once the smallest atom is subnormal against the largest
        return DistributionStats(rho=hi / lo, epsilon=hi - lo)


class DistributionStats(NamedTuple):
    """rho = max p_i/p_k and epsilon = max (p_i - p_k); both 1/0 iff uniform."""

    rho: float
    epsilon: float


class FunctionalSpec(_Record):
    """Rule generating j-sphere functional values.

    coeffs holds c_1..c_eta (None defers to default_coefficients at
    evaluation time); beta is the exponential base, required only there.
    """

    __slots__ = ("kind", "coeffs", "beta")
    _fields = __slots__

    def __init__(
        self,
        kind: str,
        coeffs: Iterable[float] | None = None,
        beta: float | None = None,
    ):
        if kind not in FUNCTIONAL_KINDS:
            raise DomainError(f"unknown functional kind {kind!r}")
        if coeffs is not None:
            coeffs = _floats(coeffs)
            if not all(0.0 < c < math.inf for c in coeffs):
                raise DomainError("all sphere coefficients must be positive and finite")
        if kind == "exponential":
            if beta is None or not 0.0 < _as_float(beta) < math.inf:
                raise DomainError("exponential functional requires 0 < beta < inf")
        elif beta is not None:
            raise DomainError("beta only applies to the exponential functional")
        self.kind = kind
        self.coeffs: tuple[float, ...] | None = coeffs
        self.beta = beta


class FunctionalValues:
    """Per-vertex f(v) in natural-log space, held as the tuple logs, with
    total_log = ln(sum f)."""

    def __init__(self, log_values: Iterable[float]):
        logs = _floats(log_values)
        if not logs:
            raise DomainError("functional values need at least one vertex")
        if not all(map(math.isfinite, logs)):
            raise DomainError("functional values must be finite and positive")
        self.logs = logs
        self.total_log = logsumexp(logs)

    @_cached
    def linear(self) -> tuple[float, ...] | None:
        """f(v) in linear space; None unless every |ln f(v)| is below
        SAFE_LOG_RANGE."""
        if max(map(abs, self.logs)) >= SAFE_LOG_RANGE:
            return None
        return tuple(map(math.exp, self.logs))

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "FunctionalValues":
        linear = _floats(values)
        if not all(x > 0.0 for x in linear):
            raise DomainError("functional values must be strictly positive")
        return cls(log_values=map(math.log, linear))

    @property
    def size(self) -> int:
        return len(self.logs)

    @property
    def total(self) -> float:
        """sum f(v) in linear space; inf when it overflows a float."""
        return _exp_or_inf(self.total_log)

    @_cached
    def distribution(self) -> Distribution:
        """p(v) = exp(ln f(v) - ln sum f), validated once and kept."""
        total_log = self.total_log
        try:
            return Distribution(p=[math.exp(x - total_log) for x in self.logs])
        except DomainError as exc:
            raise DomainError(
                f"functional values cannot be normalized at ln S = "
                f"{total_log:g}: {exc}"
            ) from None


def _as_float(x: float) -> float:
    """float(x), or inf for an int above float range, so that a positive
    and finite check rejects it instead of leaking OverflowError."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _floats(values: Iterable[float]) -> tuple[float, ...]:
    """tuple(map(float, values)), or (inf,) where one is an int above float
    range, so that the caller's positive and finite checks reject it."""
    try:
        return tuple(map(float, values))
    except OverflowError:
        return (math.inf,)


def _check_base(base: float) -> None:
    if not 1.0 < base < math.inf:
        raise DomainError(f"log base must exceed 1 and be finite, got {base}")


def _exp_or_inf(x: float) -> float:
    """math.exp(x), or inf where it overflows a float."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _fsum_or_inf(values: Iterable[float]) -> float:
    """math.fsum of non-negative values, or inf where it passes float range
    (fsum raises there)."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def logsumexp(a: Sequence[float], scale: float = 1.0) -> float:
    """ln(sum exp(scale * a)) for a non-empty a and scale > 0, shifted by
    the max so no term overflows (Blanchard, Higham & Higham 2021).

    The shift is m = scale * max(a): x -> scale * x is monotone in floats,
    so that is the max of the scaled terms, and each term is formed as
    exp(scale * x - m), so the bits are those of scaling a first. Two terms
    take m + log(1 + exp(lo - m)): the max term is exp(0) = 1, and the
    correctly rounded sum of two floats is their rounded sum. A non-finite
    max (an inf entry, or all entries -inf) is returned as is.
    """
    if len(a) == 2:
        hi, lo = a
        if hi < lo:
            hi, lo = lo, hi
        m = float(scale * hi)
        if not math.isfinite(m):
            return m
        return m + math.log(1.0 + math.exp(scale * lo - m))
    m = float(scale * max(a))
    if not math.isfinite(m):
        return m
    return m + math.log(math.fsum([math.exp(scale * x - m) for x in a]))


def default_coefficients(eta: int) -> tuple[float, ...]:
    """Strictly decreasing all-distinct defaults c_j = eta - j + 1."""
    return tuple(float(eta - j + 1) for j in range(1, eta + 1))


def partition_distribution(part: OrbitPartition) -> Distribution:
    """p_i = |X_i| / n in the partition's deterministic block order."""
    n = sum(part.sizes)
    return Distribution(p=[size / n for size in part.sizes])


def _resolved_coeffs(spec: FunctionalSpec, eta: int) -> tuple[float, ...]:
    coeffs = spec.coeffs if spec.coeffs is not None else default_coefficients(eta)
    if len(coeffs) != eta:
        raise DomainError(
            f"need one coefficient per sphere radius: got {len(coeffs)}, "
            f"diameter is {eta}"
        )
    return coeffs


def _weighted_count(coeffs: tuple[float, ...], counts: tuple[int, ...]) -> float:
    """sum_j c_j |S_j(v)|; inf where the sum passes float range, which
    FunctionalValues rejects."""
    return _fsum_or_inf([c * k for c, k in zip(coeffs, counts)])


def functional_values(
    g: Graph, spec: FunctionalSpec, distances: DistanceData | None = None
) -> FunctionalValues:
    """Values of the j-sphere functional that spec describes, on a connected graph.

    linear: f(v) = sum_j c_j |S_j(v)|; exponential: f(v) = beta ** (sum_j
    c_j |S_j(v)|), held as exponent * ln(beta). The sphere profiles are
    read from distances, which builds them once.
    """
    if not g.is_connected():
        raise DomainError(DISCONNECTED)
    d = distances if distances is not None else distance_matrix(g)
    coeffs = _resolved_coeffs(spec, d.eta)
    raw = [_weighted_count(coeffs, counts) for counts in d.spheres]
    if spec.kind == "exponential":
        ln_beta = math.log(spec.beta)
        return FunctionalValues(log_values=[x * ln_beta for x in raw])
    if d.eta < 1:
        raise DomainError(
            "linear functional is 0 on a one-vertex graph (diameter 0, no spheres)"
        )
    if not all(x > 0.0 for x in raw):
        raise DomainError("linear functional produced a non-positive value")
    return FunctionalValues(log_values=map(math.log, raw))


def distribution_from_values(fv: FunctionalValues) -> Distribution:
    """Normalize via log-sum-exp: p(v) = exp(ln f(v) - ln sum f)."""
    return fv.distribution


def shannon_entropy(d: Distribution) -> float:
    """H = -sum p log2 p, in bits."""
    return d._shannon


def renyi_entropy(d: Distribution, alpha: float) -> float:
    """H_alpha = log2(sum p^alpha) / (1 - alpha), in bits.

    Powers go through log space; alpha within 1e-9 of 1 returns the
    Shannon limit.
    """
    if not 0.0 < _as_float(alpha) < math.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    if abs(alpha - 1.0) <= ALPHA_ONE_BAND:
        return shannon_entropy(d)
    return log2_power_sums(d, (alpha,))[0] / (1.0 - alpha) + 0.0


def renyi_entropies(
    d: Distribution, alphas: Sequence[float], base: float | None = None
) -> list[float]:
    """renyi_entropy at each of alphas from one power-sum fill, in bits, or
    with a base each of those times ln 2 / ln(base).

    The list is kept on d per (grid, base) and returned itself, never a
    copy, so every core that reads one distribution on one grid in one base
    holds the same list; no caller may change it. base 2 is an entry of its
    own, apart from the bits: b * ln 2 / ln 2 is not always b.
    """
    key = (tuple(alphas), base)
    values = d._renyi_lists.get(key)
    if values is None:
        grid = key[0]
        if base is None:
            for alpha in grid:
                if not 0.0 < _as_float(alpha) < math.inf:
                    renyi_entropy(d, alpha)  # raises its DomainError
            values = [
                d._shannon if abs(a - 1.0) <= ALPHA_ONE_BAND else s / (1.0 - a) + 0.0
                for a, s in zip(grid, log2_power_sums(d, grid))
            ]
        else:
            _check_base(base)
            ln_base = math.log(base)
            values = [b * LN2 / ln_base for b in renyi_entropies(d, grid)]
        d._renyi_lists[key] = values
    return values


def log2_power_sums(d: Distribution, alphas: Sequence[float]) -> list[float]:
    """log2(sum p^alpha) at each of alphas, memoized on d: the one fill of
    that memo, one logsumexp of log p scaled by alpha per alpha not yet in
    it."""
    memo, out = d._log2_power_sums, []
    for alpha in alphas:
        value = memo.get(alpha)
        if value is None:
            value = memo[alpha] = logsumexp(d.log_probs, alpha) / LN2
        out.append(value)
    return out


def distribution_stats(d: Distribution) -> DistributionStats:
    return d._stats
