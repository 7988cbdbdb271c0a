"""Extraction evaluator: golden vs produced output → distributed metrics.

The ``Evaluator`` analog (``eval/eval.py:57-218``): instead of re-running a
pipeline over a dataset builder and handing two DataFlows to a metric, both
sides are Datasets keyed by (conv_id, turn_idx); the comparison is a two-side
bucket exchange (``functions.joins.exchange``) on the conversation key that
runs ONE vectorized ``pandas.merge`` per bucket — never a per-turn group
(millions of 2-row pandas groups would dominate wall time at corpus scale). The per-bucket partial
counts (status × kind) reduce through a tiny final aggregate
(``eval/accmetric.py:81-109`` accuracy shape).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data
from ray.data.aggregate import Sum

from ..functions.joins import exchange


def evaluate_extraction(
    golden: ray.data.Dataset,
    produced: ray.data.Dataset,
    key_columns: tuple[str, str] = ("conv_id", "turn_idx"),
    text_column: str = "extracted_text",
    num_buckets: int = 64,
) -> dict:
    """Per-turn text-equality metrics between two extraction outputs.

    Returns exact-match rate, counts of missing/extra turns, and per
    payload-kind accuracy when the column is present.
    """
    keys = list(key_columns)
    has_kind = "payload_kind" in golden.schema().names
    golden = golden.select_columns(keys + [text_column] + (["payload_kind"] if has_kind else []))

    def judge_bucket(gd: pd.DataFrame, pdf: pd.DataFrame) -> pd.DataFrame:
        if not has_kind:
            gd = gd.assign(payload_kind="")
        m = gd.drop_duplicates(keys, keep="first").merge(
            pdf.drop_duplicates(keys, keep="first"),
            on=keys,
            how="outer",
            suffixes=("_g", "_p"),
            indicator=True,
        )
        status = np.where(
            m["_merge"] == "both",
            np.where(m[text_column + "_g"] == m[text_column + "_p"], "match", "mismatch"),
            np.where(m["_merge"] == "left_only", "missing", "extra"),
        )
        m = pd.DataFrame({"status": status, "kind": m["payload_kind"].fillna("")})
        return m.groupby(["status", "kind"], as_index=False).size().rename(columns={"size": "n"})

    partials = exchange(
        [golden, produced.select_columns(keys + [text_column])],
        keys[:1],
        judge_bucket,
        num_buckets,
        "pandas",
    )
    # final reduce: at most num_buckets × |status| × |kind| partial rows
    totals = partials.groupby(["status", "kind"]).aggregate(Sum("n", alias_name="n")).take_all()
    counts: dict[str, int] = {}
    by_kind: dict[tuple[str, str], int] = {}
    for r in totals:
        counts[r["status"]] = counts.get(r["status"], 0) + r["n"]
        by_kind[(r["kind"], r["status"])] = by_kind.get((r["kind"], r["status"]), 0) + r["n"]
    total_compared = counts.get("match", 0) + counts.get("mismatch", 0)
    return {
        "exact_match_rate": (counts.get("match", 0) / total_compared) if total_compared else 0.0,
        "matched": counts.get("match", 0),
        "mismatched": counts.get("mismatch", 0),
        "missing": counts.get("missing", 0),
        "extra": counts.get("extra", 0),
        "by_kind": {
            kind: by_kind.get((kind, "match"), 0)
            / max(by_kind.get((kind, "match"), 0) + by_kind.get((kind, "mismatch"), 0), 1)
            for kind, _ in by_kind
        },
    }
