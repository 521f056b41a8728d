"""Regenerate the committed reference outputs in perfbench/reference/.

Run from the root of a graphent checkout:

    python3 perfbench/make_reference.py

The references pin what the current code outputs; the benchmark fails a
run whose outputs differ. Regenerate them only for a change that is meant
to alter outputs, and say so in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import cli_oneshot  # noqa: E402
import orbit_entropy  # noqa: E402
import sweep_catalog  # noqa: E402

OUT = Path(__file__).with_name("reference")


def write(name: str, doc) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT / name}", flush=True)


def main() -> None:
    write("orbit.json", orbit_entropy.reference_entry())
    write("cli.json", cli_oneshot.reference_entry())
    write("sweep.json", {
        "config": {k: v for k, v in sweep_catalog.config(0).to_dict().items() if k != "seed"},
        "aggregates": {
            str(seed): sweep_catalog.reference_entry(seed)
            for seed in range(sweep_catalog.CORPUS_SEEDS)
        },
    })


if __name__ == "__main__":
    main()
