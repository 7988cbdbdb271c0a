"""Merge two per-turn datasets by key — the ``merge_datapoints`` analog.

Reference (``dd_core/src/dd_core/mapper/misc.py:245-288``) unions the
annotations of two ``Image`` records with the same id (e.g. layout from one
pass, OCR from another). Here two extraction/enrichment Datasets keyed by
(conv_id, turn_idx) merge columns: the right side contributes the columns the
left lacks; on a column clash the left wins (first-pass precedence, matching
the reference's "existing annotation ids are not overwritten").

Scale shape: both sides are co-partitioned by ``hash(conv_id) % P`` and each
bucket merges with ONE vectorized ``pandas.merge`` — not a per-key group
(millions of 2-row pandas groups would dominate wall time on a 1M-turn
corpus).
"""

from __future__ import annotations

import pandas as pd

import ray.data

from .bucketed import bucketed_map_groups


def merge_by_key(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key_columns: tuple[str, ...] = ("conv_id", "turn_idx"),
    num_buckets: int = 64,
) -> ray.data.Dataset:
    keys = list(key_columns)
    left_cols = left.schema().names
    right_only = [c for c in right.schema().names if c not in left_cols]

    def tag(side: str, cols: list[str]):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            df = df[cols].copy()
            df["__side"] = side
            return df

        return f

    l = left.map_batches(tag("l", left_cols), batch_format="pandas")
    r = right.select_columns(keys + right_only).map_batches(
        tag("r", keys + right_only), batch_format="pandas"
    )
    both = l.union(r)

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        lg = g[g["__side"] == "l"][left_cols].drop_duplicates(keys, keep="first")
        rg = g[g["__side"] == "r"][keys + right_only].drop_duplicates(keys, keep="first")
        if lg.empty:
            return pd.DataFrame(columns=left_cols + right_only)
        return lg.merge(rg, on=keys, how="left")

    return bucketed_map_groups(both, keys[:1], combine, num_buckets, batch_format="pandas")
