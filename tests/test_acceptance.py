"""Acceptance suite: each criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 3, 5 and 7 share one full sweep over a 500+ graph seeded corpus
(n in [3, 12], default alpha grid, orbit/linear/exponential families).
"""

import hashlib
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from canonical import expand_cells, first_difference, strict_loads

from graphent import (
    DEFAULT_ALPHA_GRID,
    Distribution,
    SweepConfig,
    brute_force_orbits,
    generate_graph,
    lemma_checks,
    partition_distribution,
    renyi_entropy,
    run_sweep,
    shannon_entropy,
    summarize_report,
    thm1_refined_bound,
    vertex_orbits,
)

EXACT_TOL = 1e-12
BOUND_TOL = 1e-9

ACCEPTANCE_CORPUS = SweepConfig(
    seed=20240810,
    n_range=(3, 12),
    edge_probabilities=(0.3, 0.5, 0.8),
    trials_per_cell=16,
)


def _line(num: int, ok: bool, message: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {message}")


@pytest.fixture(scope="module")
def corpus_sweep():
    report = run_sweep(ACCEPTANCE_CORPUS)
    assert report.corpus_size >= 500
    return report


def _agg(report, theorem, variant):
    return report.aggregates.get(f"{theorem}|{variant}")


def test_criterion_1_closed_forms():
    start = time.perf_counter()
    worst = 0.0
    for n in range(3, 11):
        star = partition_distribution(vertex_orbits(generate_graph("star", n)))
        h_direct = shannon_entropy(star)
        h_closed = math.log2(n) - (n - 1) / n * math.log2(n - 1)
        worst = max(worst, abs(h_direct - h_closed))
        for alpha in DEFAULT_ALPHA_GRID:
            direct = renyi_entropy(star, alpha)
            closed = (
                math.log2(1.0 + (n - 1) ** alpha) - alpha * math.log2(n)
            ) / (1.0 - alpha)
            worst = max(worst, abs(direct - closed))
        if n % 2 == 0:
            path = partition_distribution(vertex_orbits(generate_graph("path", n)))
            for alpha in DEFAULT_ALPHA_GRID:
                worst = max(
                    worst, abs(renyi_entropy(path, alpha) - math.log2(n / 2))
                )
    elapsed = time.perf_counter() - start
    ok = worst <= EXACT_TOL and elapsed < 5.0
    _line(1, ok, f"closed forms max |diff| = {worst:.3e} (tol 1e-12), {elapsed:.2f}s")
    assert worst <= EXACT_TOL
    assert elapsed < 5.0


def test_criterion_2_orbit_exactness():
    start = time.perf_counter()
    graphs = []
    for n in range(3, 8):
        graphs.append(generate_graph("star", n))
        graphs.append(generate_graph("path", n))
        graphs.append(generate_graph("cycle", n))
        if n >= 4:
            graphs.append(generate_graph("wheel", n))
        graphs.append(generate_graph("complete", n))
    rng = np.random.default_rng(424242)
    for i in range(200):
        n = int(rng.integers(3, 8))
        p = float(rng.uniform(0.3, 0.9))
        graphs.append(generate_graph("gnp", n, p=p, seed=90000 + i))
    mismatches = sum(
        1 for g in graphs if vertex_orbits(g).blocks != brute_force_orbits(g).blocks
    )
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    _line(
        2,
        ok,
        f"orbits exact on {len(graphs)} graphs, {mismatches} mismatches, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert elapsed < 60.0


def test_criterion_3_sound_inequality_suite(corpus_sweep):
    checks = [
        ("ordering", "na"),
        ("jensen", "na"),
        ("thm1", "corrected"),
        ("thm1_eps", "corrected"),
        ("thm3", "na"),
        ("thm4", "na"),
        ("thm4_cor", "na"),
    ]
    violated = {}
    for theorem, variant in checks:
        agg = _agg(corpus_sweep, theorem, variant)
        assert agg is not None and agg["checked"] > 0, (theorem, variant)
        violated[f"{theorem}|{variant}"] = agg["violated"]
    total = sum(violated.values())
    runtime = corpus_sweep.runtime_seconds
    ok = total == 0 and runtime < 300.0
    _line(
        3,
        ok,
        f"{corpus_sweep.corpus_size} graphs, sound checks violated={total}, "
        f"sweep runtime {runtime:.1f}s (< 300s)",
    )
    assert total == 0, violated
    assert runtime < 300.0


def test_criterion_4_erratum_detection():
    r1 = thm1_refined_bound(Distribution(p=np.array([0.9, 0.1])), 0.5, "literal")
    low_alpha_ok = (
        r1.holds is False
        and abs(r1.bound - 0.4957121684205583) < 1e-9
        and abs(r1.lhs - 0.6780719051126376) < 1e-9
    )
    r2 = thm1_refined_bound(Distribution(p=np.array([0.99, 0.01])), 3.0, "literal")
    high_alpha_ok = r2.holds is False and abs(r2.bound - 0.0516477815345180) < 1e-9
    ok = low_alpha_ok and high_alpha_ok
    _line(
        4,
        ok,
        f"literal bound (alpha<1) {r1.bound:.6f} vs H_a {r1.lhs:.6f} holds={r1.holds}; "
        f"literal bound (alpha>1) {r2.bound:.6f} vs H_a {r2.lhs:.6f} holds={r2.holds}",
    )
    assert low_alpha_ok
    assert high_alpha_ok


def test_criterion_5_connected_graph_bounds(corpus_sweep):
    keys = [
        ("conn_linear", "literal"),
        ("conn_linear", "corrected"),
        ("conn_exp", "literal"),
        ("conn_exp", "corrected"),
    ]
    violated = {}
    for theorem, variant in keys:
        agg = _agg(corpus_sweep, theorem, variant)
        assert agg is not None and agg["checked"] > 0, (theorem, variant)
        violated[f"{theorem}|{variant}"] = agg["violated"]
    # literal exponential cells with beta < 1 must be skipped, not judged
    lit_exp = _agg(corpus_sweep, "conn_exp", "literal")
    cor_exp = _agg(corpus_sweep, "conn_exp", "corrected")
    beta_gate_ok = lit_exp["not_applicable"] > 0 and cor_exp["not_applicable"] == 0
    total = sum(violated.values())
    ok = total == 0 and beta_gate_ok
    _line(
        5,
        ok,
        f"interval bounds violated={total}; literal beta<1 cells skipped="
        f"{lit_exp['not_applicable']}",
    )
    assert total == 0, violated
    assert beta_gate_ok


def test_criterion_6_lemma_oracles():
    start = time.perf_counter()
    checks = lemma_checks(seed=777, trials=10_000)
    elapsed = time.perf_counter() - start
    per_lemma = {"L1": 0, "L2": 0, "L3": 0}
    failures = 0
    for c in checks:
        per_lemma[c.lemma_id] += 1
        if not c.satisfied:
            failures += 1
    ok = failures == 0 and all(v == 10_000 for v in per_lemma.values())
    _line(
        6,
        ok,
        f"lemma samples {per_lemma}, violations={failures}, {elapsed:.1f}s",
    )
    assert failures == 0
    assert all(v == 10_000 for v in per_lemma.values())


def test_criterion_7_thm5_thm6_reporting(corpus_sweep):
    corrected_violations = {}
    for theorem in ("thm5", "thm6", "thm6_avg"):
        agg = _agg(corpus_sweep, theorem, "corrected")
        assert agg is not None and agg["checked"] > 0, theorem
        corrected_violations[theorem] = agg["violated"]
    literal_summary = {}
    exemplar_ok = True
    for theorem in ("thm5", "thm6", "thm6_avg"):
        agg = _agg(corpus_sweep, theorem, "literal")
        literal_summary[theorem] = (agg["violated"], agg["checked"])
        if agg["violated"] > 0:
            exemplar_ok &= bool(corpus_sweep.exemplars.get(f"{theorem}|literal"))
    total_corrected = sum(corrected_violations.values())
    ok = total_corrected == 0 and exemplar_ok
    _line(
        7,
        ok,
        f"corrected violations={total_corrected}; literal outcomes "
        f"{literal_summary} with exemplars preserved={exemplar_ok}",
    )
    assert total_corrected == 0, corrected_violations
    assert exemplar_ok


# sha256 of the acceptance corpus's canonical JSON (19,573 objects holding
# 30,153 columns, 241,224 cells, 4,790 violations, and 20,895 lists written
# as the name of the row's list); a change to any bit of any cell changes it
ACCEPTANCE_SHA256 = "7a5da360fed81e32e2f592236488270d099664458193ad6071f0df3c761fef09"


def test_acceptance_canonical_bytes_are_pinned(corpus_sweep):
    digest = hashlib.sha256(summarize_report(corpus_sweep, "json").encode()).hexdigest()
    ok = digest == ACCEPTANCE_SHA256
    _line(8, ok, f"acceptance canonical JSON sha256 {digest[:8]}...{digest[-5:]}")
    assert digest == ACCEPTANCE_SHA256


def test_acceptance_columns_expand_to_the_cells(corpus_sweep):
    """The layout loses nothing: expanding the parsed canonical JSON's
    objects, variant by variant, over the alpha grid gives every cell dict,
    as json.dumps text. The expander resolves a name only to a list that an
    earlier object of the same row wrote, so every name points backward
    within its row. A row's shared lists written once keep the document
    under 26 MB, about 105 bytes per cell."""
    text = summarize_report(corpus_sweep, "json")
    size = len(text.encode())
    doc = strict_loads(text)
    del text
    # report.cells one graph at a time, so 241k cell dicts are never held
    cells = (
        cell
        for graph in corpus_sweep.graphs
        for cell in replace(corpus_sweep, graphs=[graph]).cells
    )
    difference = first_difference(expand_cells(doc), cells)
    ok = difference is None and size <= 26_000_000
    _line(8, ok, f"{len(doc['columns'])} objects in {size} bytes expand to the cells")
    assert difference is None
    assert size <= 26_000_000


def test_criterion_8_reproducibility():
    cfg = SweepConfig(
        seed=1234,
        n_range=(3, 5),
        edge_probabilities=(0.5,),
        trials_per_cell=2,
        alpha_grid=(0.5, 2.0),
    )
    first = summarize_report(run_sweep(cfg), "json")
    second = summarize_report(run_sweep(cfg), "json")
    ok = first == second
    _line(8, ok, f"canonical JSON byte-identical across runs ({len(first)} bytes)")
    assert first == second
