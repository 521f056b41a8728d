"""End-to-end sweep: seeded corpus, every check, aggregated verdicts.

Builds a small reproducible corpus (class battery plus connected G(n, p)
samples), runs the whole catalog over the default alpha grid in both
variants, and prints the aggregate table. Violation exemplars keep the
full report and the offending graph's edge list so a failure can be
replayed in isolation.
"""

import json

from graphent import SweepConfig, run_sweep, summarize_report

cfg = SweepConfig(
    seed=2024,
    n_range=(3, 8),
    edge_probabilities=(0.4, 0.8),
    trials_per_cell=3,
)
report = run_sweep(cfg)

print(summarize_report(report, "text"))

key = "thm1|literal"
if key in report.exemplars:
    ex = report.exemplars[key][0]
    print(f"replaying the first {key} exemplar:")
    print(f"  graph {ex['cell']['graph_id']}, edges {ex['edges']}")
    print(
        f"  alpha={ex['cell']['alpha']}, lhs={ex['cell']['lhs']:.6f}, "
        f"bound={ex['cell']['bound']:.6f}, slack={ex['cell']['slack']:.6f}"
    )

# equal configs reproduce byte-identical canonical JSON; it holds one
# object per (graph, family, theorem): the lists its variants share once,
# then each variant's own lists side by side, one entry per alpha
again = summarize_report(run_sweep(cfg), "json")
print(f"\nreproducible: {again == summarize_report(report, 'json')}")
objects = json.loads(again)["columns"]
columns = sum(len(obj["variants"]) for obj in objects)
cells = columns * len(cfg.alpha_grid)
assert cells == len(report.cells)
print(f"canonical report: {len(objects)} objects, {columns} columns, {cells} cells, "
      f"{len(again.encode())} bytes")
