"""The per-cell view of a canonical sweep document, rebuilt from its objects.

Written from the layout README describes (one object per graph, family and
theorem, its variants side by side), without the package's
code, so that tests can check that the layout loses nothing: expanding the
parsed document must give the report's cell dicts, key order, -0.0,
1/1.0/True and reasons included.
"""

import itertools
import json


def _reject_constant(token):
    raise ValueError(f"non-finite token {token} in canonical JSON")


def strict_loads(text):
    """json.loads that refuses Infinity, -Infinity and NaN."""
    return json.loads(text, parse_constant=_reject_constant)


def expand_cells(doc):
    """doc's cell dicts in sweep order. The objects of one (graph, family)
    row are consecutive, one per theorem; each variant's column is its
    object's shared fields overlaid with the variant's own entry. A row's
    cells run alpha by alpha, then object by object, then variant by
    variant."""
    alphas = doc["config"]["alpha_grid"]
    rows = itertools.groupby(doc["columns"], lambda c: (c["graph_id"], c["family"]))
    for _, objects in rows:
        columns = [
            {**obj, **entry, "variant": variant}
            for obj in objects
            for variant, entry in obj["variants"].items()
        ]
        for i, alpha in enumerate(alphas):
            for column in columns:
                yield _cell(column, i, alpha)


def _cell(column, i, alpha):
    reason = column["reason"][i]
    if reason is not None:
        holds, met, lhs, bound, slack = None, False, None, None, None
        params = {"family": column["family"], "reason": reason}
    else:
        holds, lhs, bound, slack = (
            column[key][i] for key in ("holds", "lhs", "bound", "slack")
        )
        met = column["precondition_met"]
        params = {
            key: value[i] if key in column["varying"] else value
            for key, value in column["params"].items()
        }
        params.update(
            family=column["family"],
            direction=column["direction"][i],
            tolerance=column["tolerance"],
        )
    return {
        "theorem": column["theorem"],
        "variant": column["variant"],
        "alpha": alpha,
        "graph_id": column["graph_id"],
        "holds": holds,
        "precondition_met": met,
        "lhs": lhs,
        "bound": bound,
        "slack": slack,
        "params": params,
    }


def first_difference(got, want):
    """None when json.dumps(list(got)) equals json.dumps(list(want)); else
    (index, got text, want text) of the first cell where they differ. The
    lists are compared cell by cell, which is the same test, since
    json.dumps joins a list's items with ", "; a missing cell reads as
    null."""
    for i, pair in enumerate(itertools.zip_longest(got, want)):
        got_text, want_text = map(json.dumps, pair)
        if got_text != want_text:
            return i, got_text, want_text
    return None
