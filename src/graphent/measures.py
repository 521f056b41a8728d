"""Probability distributions on graphs and their entropies.

Two routes induce distributions: orbit partitions (p_i = |X_i|/n) and
strictly positive vertex functionals (p(v) = f(v)/sum f). Functional values
are carried in natural-log space so the exponential j-sphere functional
cannot overflow; normalization goes through log-sum-exp.
All entropies are base 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError
from .graph import DistanceData, Graph, distance_matrix, sphere_counts_matrix
from .orbits import OrbitPartition

LN2 = math.log(2.0)

PROB_SUM_TOL = 1e-12

# renyi_entropy switches to the Shannon limit inside this band around 1.
ALPHA_ONE_BAND = 1e-9

# Linear rendering of log-space values is exposed only below this magnitude.
SAFE_LOG_RANGE = 700.0

FUNCTIONAL_KINDS = ("linear", "exponential")


@dataclass(frozen=True)
class Distribution:
    """Strictly positive probability vector.

    Everything derived from p alone (log p, Shannon entropy, rho/epsilon)
    is computed on first use and kept, and power sums are memoized per
    alpha. Each is a pure function of the read-only p, so concurrent first
    uses can only store equal values.
    """

    p: np.ndarray
    _log2_power_sums: dict[float, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float).reshape(-1)
        if arr.size == 0:
            raise DomainError("distribution needs at least one atom")
        if not np.all(arr > 0.0):
            raise DomainError("probabilities must be strictly positive")
        if abs(float(arr.sum()) - 1.0) > PROB_SUM_TOL:
            raise DomainError(
                f"probabilities sum to {arr.sum()!r}, expected 1 within {PROB_SUM_TOL}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    @property
    def size(self) -> int:
        return int(self.p.size)

    @cached_property
    def log_p(self) -> np.ndarray:
        """Natural log of p, read-only."""
        out = np.log(self.p)
        out.setflags(write=False)
        return out

    @cached_property
    def _shannon(self) -> float:
        return float(-np.dot(self.p, np.log2(self.p))) + 0.0

    @cached_property
    def _stats(self) -> "DistributionStats":
        p = self.p
        # rho is inf once the smallest atom is subnormal against the largest
        with np.errstate(over="ignore"):
            rho = float(p.max() / p.min())
        return DistributionStats(rho=rho, epsilon=float(p.max() - p.min()))


@dataclass(frozen=True)
class DistributionStats:
    """rho = max p_i/p_k and epsilon = max (p_i - p_k); both 1/0 iff uniform."""

    rho: float
    epsilon: float


@dataclass(frozen=True)
class FunctionalSpec:
    """Rule generating j-sphere functional values.

    coeffs holds c_1..c_eta (None defers to default_coefficients at
    evaluation time); beta is the exponential base, required only there.
    """

    kind: str
    coeffs: tuple[float, ...] | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in FUNCTIONAL_KINDS:
            raise DomainError(f"unknown functional kind {self.kind!r}")
        if self.coeffs is not None:
            coeffs = tuple(float(c) for c in self.coeffs)
            if not all(0.0 < c < math.inf for c in coeffs):
                raise DomainError("all sphere coefficients must be positive and finite")
            object.__setattr__(self, "coeffs", coeffs)
        if self.kind == "exponential":
            if self.beta is None or not 0.0 < self.beta < math.inf:
                raise DomainError("exponential functional requires 0 < beta < inf")
        elif self.beta is not None:
            raise DomainError("beta only applies to the exponential functional")


@dataclass(frozen=True)
class FunctionalValues:
    """Per-vertex f(v) in natural-log space, with total_log = ln(sum f)."""

    log_values: np.ndarray
    total_log: float = field(init=False)
    values: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        arr = np.asarray(self.log_values, dtype=float).reshape(-1)
        if arr.size == 0:
            raise DomainError("functional values need at least one vertex")
        if not np.all(np.isfinite(arr)):
            raise DomainError("functional values must be finite and positive")
        arr.setflags(write=False)
        object.__setattr__(self, "log_values", arr)
        object.__setattr__(self, "total_log", logsumexp(arr))
        linear = None
        if float(np.abs(arr).max()) < SAFE_LOG_RANGE:
            linear = np.exp(arr)
            linear.setflags(write=False)
        object.__setattr__(self, "values", linear)

    @classmethod
    def from_values(cls, values) -> "FunctionalValues":
        arr = np.asarray(values, dtype=float).reshape(-1)
        if arr.size and not np.all(arr > 0.0):
            raise DomainError("functional values must be strictly positive")
        return cls(log_values=np.log(arr))

    @property
    def size(self) -> int:
        return int(self.log_values.size)

    @property
    def total(self) -> float:
        """sum f(v) in linear space; inf when it overflows a float."""
        try:
            return math.exp(self.total_log)
        except OverflowError:
            return math.inf

    @cached_property
    def distribution(self) -> Distribution:
        """p(v) = exp(ln f(v) - ln sum f), validated once and kept."""
        try:
            return Distribution(p=np.exp(self.log_values - self.total_log))
        except DomainError as exc:
            raise DomainError(
                f"functional values cannot be normalized at ln S = "
                f"{self.total_log:g}: {exc}"
            ) from None


def logsumexp(a: np.ndarray) -> float:
    """ln(sum exp(a)), shifted by the max so no term overflows.

    A non-finite max (an inf entry, or all entries -inf) is returned as is.
    """
    m = float(a.max())
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.exp(a - m).sum()))


def default_coefficients(eta: int) -> tuple[float, ...]:
    """Strictly decreasing all-distinct defaults c_j = eta - j + 1."""
    return tuple(float(eta - j + 1) for j in range(1, eta + 1))


def partition_distribution(part: OrbitPartition) -> Distribution:
    """p_i = |X_i| / n in the partition's deterministic block order."""
    sizes = np.array(part.sizes, dtype=float)
    return Distribution(p=sizes / sizes.sum())


def _resolved_coeffs(spec: FunctionalSpec, eta: int) -> np.ndarray:
    coeffs = spec.coeffs if spec.coeffs is not None else default_coefficients(eta)
    if len(coeffs) != eta:
        raise DomainError(
            f"need one coefficient per sphere radius: got {len(coeffs)}, "
            f"diameter is {eta}"
        )
    return np.asarray(coeffs, dtype=float)


def functional_values(
    g: Graph, spec: FunctionalSpec, distances: DistanceData | None = None
) -> FunctionalValues:
    """Values of the j-sphere functional that spec describes, on a connected graph.

    linear: f(v) = sum_j c_j |S_j(v)|; exponential: f(v) = beta ** (sum_j
    c_j |S_j(v)|), held as exponent * ln(beta).
    """
    d = distances if distances is not None else distance_matrix(g)
    # a sum past 1e308 is inf, which FunctionalValues rejects
    with np.errstate(over="ignore"):
        raw = sphere_counts_matrix(g, d) @ _resolved_coeffs(spec, d.eta)
    if spec.kind == "exponential":
        return FunctionalValues(log_values=raw * math.log(spec.beta))
    if raw.size and not np.all(raw > 0.0):
        raise DomainError("linear functional produced a non-positive value")
    return FunctionalValues(log_values=np.log(raw))


def linear_functional_values(
    g: Graph, spec: FunctionalSpec, distances: DistanceData | None = None
) -> FunctionalValues:
    """functional_values for a linear spec only."""
    if spec.kind != "linear":
        raise DomainError(f"expected a linear spec, got {spec.kind!r}")
    return functional_values(g, spec, distances)


def exponential_functional_values(
    g: Graph, spec: FunctionalSpec, distances: DistanceData | None = None
) -> FunctionalValues:
    """functional_values for an exponential spec only."""
    if spec.kind != "exponential":
        raise DomainError(f"expected an exponential spec, got {spec.kind!r}")
    return functional_values(g, spec, distances)


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
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    if abs(alpha - 1.0) <= ALPHA_ONE_BAND:
        return shannon_entropy(d)
    return log2_power_sum(d, alpha) / (1.0 - alpha) + 0.0


def log2_power_sum(d: Distribution, alpha: float) -> float:
    """log2(sum p^alpha), the quantity the bound catalog keeps reusing.

    Memoized on d per alpha.
    """
    value = d._log2_power_sums.get(alpha)
    if value is None:
        value = logsumexp(alpha * d.log_p) / LN2
        d._log2_power_sums[alpha] = value
    return value


def distribution_stats(d: Distribution) -> DistributionStats:
    return d._stats
