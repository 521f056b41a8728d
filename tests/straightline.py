"""Independent straight-line re-evaluation of every bound formula, and of
edge-list parsing.

Used to cross-check BoundReport values and parse_edge_list. Deliberately
avoids the package's code paths: plain ``math`` plus explicit loops, no
numpy, and no log-sum-exp but ``sl_logsumexp``, the bit-level oracle of
``measures.logsumexp``; only the error types come from the package.
"""

import math

from graphent.errors import ParseError, ValidationError

LN2 = math.log(2.0)


def sl_logsumexp(a, scale=1.0):
    """ln(sum exp(scale * x)) by the plain recipe: scale every entry into a
    new list, shift by its max, fsum the exponentials. A non-finite max is
    returned as is."""
    b = [scale * x for x in a]
    m = float(max(b))
    if not math.isfinite(m):
        return m
    return m + math.log(math.fsum([math.exp(x - m) for x in b]))


def sl_shannon(p):
    return -sum(x * math.log2(x) for x in p)


def sl_renyi(p, alpha):
    return math.log2(sum(x**alpha for x in p)) / (1.0 - alpha)


def sl_rho(p):
    return max(p) / min(p)


def sl_epsilon(p):
    return max(p) - min(p)


def _logb(x, base):
    return math.log(x) / math.log(base)


def sl_to_base(bits, base):
    return bits * LN2 / math.log(base)


def sl_jensen_bound(p, alpha):
    """Upper bound on |H_alpha - H| from the Jensen-gap chain."""
    x = [pi ** (alpha - 1.0) for pi in p]
    total = 0.0
    for k in range(len(p)):
        for i in range(len(p)):
            total += p[k] * p[i] * (x[i] - x[k]) ** 2 / (x[k] * x[i])
    return total / (2.0 * LN2 * abs(1.0 - alpha))


def sl_thm1_bound(p, alpha, variant, use_epsilon=False):
    """(direction, bound) for the refined Shannon-side bound."""
    n = len(p)
    h = sl_shannon(p)
    rho = sl_rho(p)
    eps2 = sl_epsilon(p) ** 2
    pairs = n * (n - 1)
    if alpha < 1.0:
        eps_factor = eps2 if use_epsilon else 1.0
        rho_factor = rho ** abs(alpha - 2.0) if variant == "corrected" else rho ** (alpha - 2.0)
        return "upper", h + pairs * (1.0 - alpha) * eps_factor * rho_factor / (2.0 * LN2)
    if variant == "corrected":
        eps_factor = eps2 if use_epsilon else 1.0
        gap = (alpha - 1.0) * pairs * eps_factor * rho ** abs(alpha - 2.0) / (2.0 * LN2)
    else:
        gap = (alpha - 1.0) * pairs / (2.0 * LN2 * rho ** (alpha - 2.0))
    return "lower", h - gap


def sl_thm3_bound(block_sizes, f_values, alpha, base=2.0):
    """(precondition_met, direction, bound) for partition vs functional."""
    n = sum(block_sizes)
    s = sum(f_values)
    p = [f / s for f in f_values]
    h_f = sl_to_base(sl_renyi(p, alpha), base)
    sizes = sorted(block_sizes)
    smallest = sorted(f_values)[: len(sizes)]
    met = all(sizes[i] < smallest[i] for i in range(len(sizes)))
    log_ratio = _logb(s / n, base)
    if alpha < 1.0:
        return met, "upper", h_f + (alpha / (1.0 - alpha)) * log_ratio
    return met, "lower", h_f - (alpha / (alpha - 1.0)) * log_ratio


def sl_thm4_bound(p2, psi, alpha, base=2.0):
    h2 = sl_to_base(sl_renyi(p2, alpha), base)
    if alpha < 1.0:
        return "upper", h2 + (alpha / (1.0 - alpha)) * _logb(psi, base)
    return "lower", h2 - (alpha / (alpha - 1.0)) * _logb(psi, base)


def sl_thm5_bound(p2, phi, alpha, variant, base=2.0):
    n = len(p2)
    h2 = sl_to_base(sl_renyi(p2, alpha), base)
    power_sum = sum(x**alpha for x in p2)
    factor = 1.0 / math.log(base) if variant == "corrected" else 1.0
    if alpha < 1.0:
        return "upper", h2 + (1.0 / (1.0 - alpha)) * (n * phi**alpha / power_sum) * factor
    x = n ** (1.0 / alpha) * phi / power_sum ** (1.0 / alpha)
    return "lower", h2 - (alpha / (alpha - 1.0)) * x * factor


def sl_thm6(f1, f2, c1, c2, alpha, variant, symmetric=False, base=2.0):
    """(lhs, direction, bound) computed term by term in linear space."""
    s1, s2 = sum(f1), sum(f2)
    s = c1 * s1 + c2 * s2
    a1, a2 = c1 * s1 / s, c2 * s2 / s
    combined = [c1 * x + c2 * y for x, y in zip(f1, f2)]
    pf = [x / s for x in combined]
    p1 = [x / s1 for x in f1]
    p2 = [x / s2 for x in f2]
    lhs = sl_to_base(sl_renyi(pf, alpha), base)
    h1 = sl_to_base(sl_renyi(p1, alpha), base)
    h2 = sl_to_base(sl_renyi(p2, alpha), base)
    t1 = sum(x**alpha for x in p1)
    t2 = sum(x**alpha for x in p2)
    factor = 1.0 / math.log(base) if variant == "corrected" else 1.0
    if alpha < 1.0:
        z21 = (a2 / a1) ** alpha * t2 / t1
        if symmetric:
            z12 = (a1 / a2) ** alpha * t1 / t2
            bound = (
                0.5 * (h1 + h2)
                + (alpha / (2.0 * (1.0 - alpha))) * _logb(a1 * a2, base)
                + (1.0 / (2.0 * (1.0 - alpha))) * (z21 + z12) * factor
            )
        else:
            bound = (
                h1
                + (alpha / (1.0 - alpha)) * _logb(a1, base)
                + (1.0 / (1.0 - alpha)) * z21 * factor
            )
        return lhs, "upper", bound
    w21 = (a2 / a1) * (t2 / t1) ** (1.0 / alpha)
    if symmetric:
        w12 = (a1 / a2) * (t1 / t2) ** (1.0 / alpha)
        bound = (
            0.5 * (h1 + h2)
            - (alpha / (2.0 * (alpha - 1.0))) * _logb(a1 * a2, base)
            - (alpha / (2.0 * (alpha - 1.0))) * (w21 + w12) * factor
        )
    else:
        bound = (
            h1
            - (alpha / (alpha - 1.0)) * _logb(a1, base)
            - (alpha / (alpha - 1.0)) * w21 * factor
        )
    return lhs, "lower", bound


def sl_conn_interval(n, coeffs, alpha, kind, beta=None, variant="corrected"):
    """(lo, hi) interval around log2(n) for the connected-graph bounds."""
    c_max, c_min = max(coeffs), min(coeffs)
    if kind == "linear":
        half = (alpha / abs(1.0 - alpha)) * math.log2(c_max / c_min)
    else:
        log2_beta = math.log2(beta)
        if variant == "corrected":
            log2_beta = abs(log2_beta)
        half = (alpha * (n - 1) * (c_max - c_min) / abs(1.0 - alpha)) * log2_beta
    center = math.log2(n)
    return center - half, center + half


def sl_star_renyi_closed(n, alpha):
    return (math.log2(1.0 + (n - 1) ** alpha) - alpha * math.log2(n)) / (1.0 - alpha)


def sl_star_shannon_closed(n):
    return math.log2(n) - (n - 1) / n * math.log2(n - 1)


def sl_star_gamma_bound(n, alpha, variant):
    base = sl_star_shannon_closed(n)
    rho = float(n - 1)
    if alpha < 1.0:
        rho_factor = rho ** abs(alpha - 2.0) if variant == "corrected" else rho ** (alpha - 2.0)
        return "upper", base + (1.0 - alpha) * rho_factor / LN2
    if variant == "corrected":
        return "lower", base - (alpha - 1.0) * rho ** abs(alpha - 2.0) / LN2
    return "lower", base - (alpha - 1.0) / (rho ** (alpha - 2.0) * LN2)


def sl_star_functional_bound(n, s, alpha):
    head = math.log2(1.0 + (n - 1) ** alpha) / (1.0 - alpha)
    if alpha < 1.0:
        return "lower", head - (alpha / (1.0 - alpha)) * math.log2(s)
    return "upper", head + (alpha / (alpha - 1.0)) * math.log2(s)


def sl_path_functional_bound(n, s, alpha):
    if alpha < 1.0:
        return "lower", math.log2(n) / (1.0 - alpha) - (alpha / (1.0 - alpha)) * math.log2(s) - 1.0
    return "upper", math.log2(n) / (1.0 - alpha) + (alpha / (alpha - 1.0)) * math.log2(s) - 1.0


def sl_parse_edge_list(text, n=None):
    """(n, edges, adjacency) of an edge list, one line at a time: each line
    is checked and converted in turn, the first bad one raising with its
    line number, and adjacency is built from one set per vertex."""
    edges = set()
    seen_ids = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected two vertex ids, got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"malformed vertex id in {line!r}", lineno) from None
        if u < 0 or v < 0:
            raise ParseError(f"negative vertex id in {line!r}", lineno)
        if u == v:
            raise ValidationError(f"line {lineno}: self-loop at vertex {u}")
        edges.add((min(u, v), max(u, v)))
        seen_ids.update((u, v))

    max_id = max(seen_ids) if seen_ids else -1
    if n is None:
        n = max_id + 1
        if len(seen_ids) != n:
            ids = sorted(seen_ids)
            missing = []
            for a, b in zip([-1] + ids, ids):
                missing.extend(range(a + 1, min(b, a + 4)))
            raise ValidationError(
                f"vertex ids have gaps ({n - len(seen_ids)} missing, first "
                f"{missing[:3]}); pass n explicitly to allow isolated vertices"
            )
    elif n < max_id + 1:
        raise ValidationError(f"n={n} is below 1 + max vertex id ({max_id})")
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return n, frozenset(edges), tuple(tuple(sorted(s)) for s in nbrs)
