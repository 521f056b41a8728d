"""The relabeling oracle: a sweep's verdicts cannot depend on vertex labels.

label_drift sweeps one config twice: once as drawn, and once with every
corpus graph relabeled by a seeded permutation (Graph.relabel) as the
corpus generators hand it to the sweep. The relabeling is patched into
graphent.harness here, for the second sweep only; it is no config field.
Cell by cell, each verdict (holds, precondition_met, and whether the cell
failed) must be equal, and each slack within SLACK_TOLERANCE of
max(1, |slack|).

Run on the acceptance corpus (exit 1 on any difference) with

    PYTHONPATH=src:tests python tests/relabeling.py
"""

import contextlib
import random
import sys

import graphent.harness as harness

SLACK_TOLERANCE = 1e-12


@contextlib.contextmanager
def relabeled_corpus(seed, moved):
    """harness's two corpus generators, each graph they make relabeled by a
    permutation drawn from seed and the generator's arguments; moved counts
    the graphs whose edge set the relabeling changed."""
    saved = harness.generate_graph, harness.generate_gnp_connected

    def relabeled(make):
        def wrapper(*args):
            made = make(*args)
            g = made[0] if isinstance(made, tuple) else made
            perm = list(range(g.n))
            random.Random(f"{seed}:{args!r}").shuffle(perm)
            image = g.relabel(perm)
            moved[0] += image.edges != g.edges
            return (image, *made[1:]) if isinstance(made, tuple) else image

        return wrapper

    harness.generate_graph, harness.generate_gnp_connected = map(relabeled, saved)
    try:
        yield
    finally:
        harness.generate_graph, harness.generate_gnp_connected = saved


def _verdicts(report):
    """Per cell, in sweep order: its key, its verdict and its slack."""
    for graph_id, rows in report.graphs:
        for row in rows:
            for (theorem, variant), column in zip(row.plan, row.columns):
                for i, reason in enumerate(column.reason):
                    evaluated = reason is None
                    met = column.precondition_met and evaluated
                    key = (graph_id, row.family, theorem.id, variant, i)
                    yield key, (column.holds[i], met, evaluated), column.slack[i]


def label_drift(cfg, seed=0):
    """(cells, relabeled graphs, largest slack drift, first difference):
    the first difference is None, or the first cell whose verdict differs
    or whose slack drifts past the tolerance, as (key, as drawn,
    relabeled)."""
    drawn = list(_verdicts(harness.run_sweep(cfg)))
    moved = [0]
    with relabeled_corpus(seed, moved):
        report = harness.run_sweep(cfg)
    drift, first = 0.0, None
    cells = 0
    for want, got in zip(drawn, _verdicts(report), strict=True):
        cells += 1
        (key, verdict, slack), (got_key, got_verdict, got_slack) = want, got
        if slack is not None and got_slack is not None:
            gap = abs(got_slack - slack)
            drift = max(drift, gap)
            close = gap <= SLACK_TOLERANCE * max(1.0, abs(slack))
        else:
            close = slack is got_slack
        if first is None and (got_key != key or got_verdict != verdict or not close):
            first = (key, (verdict, slack), (got_verdict, got_slack))
    return cells, moved[0], drift, first


if __name__ == "__main__":
    from test_acceptance import ACCEPTANCE_CORPUS

    cells, moved, drift, first = label_drift(ACCEPTANCE_CORPUS)
    print(
        f"{cells} cells, {moved} graphs relabeled, largest slack drift {drift:.3g}, "
        f"first difference {first}"
    )
    sys.exit(first is not None or moved == 0)
